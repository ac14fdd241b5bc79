"""Exhaustive verification harness.

Every named check runs over a complete enumeration at the requested rank
and reports the first counterexample in enumeration order, so reports are
byte-identical across runs.  The uniform and window-arithmetic checks tie
the combinatorial maps to the group-theoretic construction and serve as an
independent oracle for them.  All the checks of a rank share one pass
(labelled.run_pass); uniform_oracle and anderson_check are these oracles
for a single labelled path, and the pass runs both at the identity
labelling of each source path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from . import zeta
from .affine import (
    coerce_affine,
    dominant_frame,
    dominant_frame_parts,
    grassmannian_companion,
    translation,
)
from .errors import CapExceeded, Unsupported
from .paths import count_paths, enumeration_cap
from .rootposet import ParkingFunction
from .torus import VertPath, _twisted, lambda_of_path, to_torus, wall_images
from .typespec import LABELLED_CHECKS, TypeSpec, modulus, type_spec


def uniform_oracle(vp: VertPath, lattice_type: str) -> ParkingFunction:
    """Parking function of a labelled path computed through the group
    side: twist the wall roots of the representative by the frame and the
    Grassmannian companion instead of using the combinatorial map.

    It does not check that the labelling is vertical.  The pass calls it at
    the identity labelling, which torus.vert refuses on 22 of the 50 D4
    sources; the verdict still holds there, since the reading word reads
    the labels at fixed slots and decides every labelling of the path."""
    lam = lambda_of_path(vp.path, lattice_type)
    sigma = grassmannian_companion(zeta.area_vector(vp.path, lattice_type), lattice_type)
    _, tau = dominant_frame_parts(lattice_type, len(lam))
    ts = tau.compose(sigma)
    return ParkingFunction(_twisted(vp, lam, lattice_type).compose(ts), wall_images(ts, lam, lattice_type))


def anderson_windows(vp: VertPath, lattice_type: str) -> dict:
    """Window arithmetic behind the torus element of a labelled path, on
    its area vector mu, mu's Grassmannian companion sigma and its reading
    word: w_dom = (t(mu)*sigma)^-1, w_reg = word * w_dom, the torus vector
    is minus the translation part of product = w_reg * frame^-1 modulo m,
    and frame * t(mu)*sigma sends 0 to orbit_rep."""
    mu = zeta.area_vector(vp.path, lattice_type)
    sigma = grassmannian_companion(mu, lattice_type)
    word = zeta.reading_word(vp, lattice_type)
    n = len(mu)
    m = modulus(lattice_type, n)
    ts = translation(mu).compose(coerce_affine(sigma))
    w_dom = ts.inverse()
    w_reg = coerce_affine(word).compose(w_dom)
    frame, frame_inv = _frames(lattice_type, n)
    product = w_reg.compose(frame_inv)
    vector = tuple((-c) % m for c in product.act((0,) * n))
    orbit_rep = frame.act(ts.act((0,) * n))
    return {
        "w_dom": w_dom,
        "w_reg": w_reg,
        "product": product,
        "vector": vector,
        "orbit_rep": orbit_rep,
    }


@lru_cache(maxsize=64)
def _frames(lattice_type: str, n: int):
    """dominant_frame(type, n) and its inverse."""
    frame = dominant_frame(lattice_type, n)
    return frame, frame.inverse()


def anderson_check(vp: VertPath, lattice_type: str) -> bool:
    """The window arithmetic must reproduce both the torus element and the
    orbit representative of the labelled path.

    Like uniform_oracle, it does not check that the labelling is vertical,
    and the pass calls it at the identity labelling, which need not be; a
    labelling moves and signs the entries of both torus vectors alike, so
    the identity decides every labelling of the path."""
    data = anderson_windows(vp, lattice_type)
    lam = lambda_of_path(vp.path, lattice_type)
    return data["vector"] == to_torus(vp, lattice_type).coords and data["orbit_rep"] == lam


@dataclass(frozen=True)
class CheckResult:
    check: str
    lattice_type: str
    n: int
    passed: bool
    counterexample: str | None = None
    examined: int = 0  # objects the check looked at; not part of the report

    def to_dict(self) -> dict:
        d = {"check": self.check, "type": self.lattice_type, "n": self.n, "passed": self.passed}
        if self.counterexample is not None:
            d["counterexample"] = self.counterexample
        return d


@dataclass(frozen=True)
class Report:
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> str:
        return json.dumps([r.to_dict() for r in self.results], indent=2)


def _guard_cap(spec: TypeSpec, n: int, check: str) -> None:
    cap = enumeration_cap()
    heavy = count_paths(spec.source.kind(n)) + count_paths(spec.target.kind(n))
    if check in LABELLED_CHECKS:
        heavy += spec.modulus(n) ** n
    if heavy > cap:
        raise CapExceeded("rank %d needs %d objects, cap is %d" % (n, heavy, cap))


def run_suite(lattice_type: str, n_max: int, checks=None) -> Report:
    """Run the requested checks, by default every check that applies to the
    type, at every rank from the type's smallest up to n_max.  An empty
    request or a check that does not apply to the type raises Unsupported, a
    rank below the smallest raises RankMismatch, and a rank over the
    enumeration cap raises CapExceeded, all before any check runs.

    The results come in plan order: check by check, rank by rank.  A check
    that examined no object fails, and the first check in that order that
    raised a ZetakitError raises it."""
    spec = type_spec(lattice_type)
    if checks is None:
        checks = spec.checks
    if not checks:
        raise Unsupported("no checks requested")
    foreign = [c for c in checks if c not in spec.checks]
    if foreign:
        raise Unsupported("checks %s do not apply to type %s" % (", ".join(foreign), lattice_type))
    spec.check_rank(n_max)
    names = [c for c in spec.checks if c in checks]
    ranks = range(spec.min_rank, n_max + 1)
    plan = [(c, n) for c in names for n in ranks]
    for name, n in plan:
        _guard_cap(spec, n, name)
    # loaded on first use: importing verify does not compile the pass
    from .labelled import run_pass

    done = {n: run_pass(lattice_type, n, names) for n in ranks}
    results = []
    for name, n in plan:
        outcome, examined = done[n][name]
        if isinstance(outcome, Exception):
            raise outcome
        if outcome is None and not examined:
            outcome = "examined no objects"
        results.append(CheckResult(name, lattice_type, n, outcome is None, outcome, examined))
    return Report(tuple(results))
