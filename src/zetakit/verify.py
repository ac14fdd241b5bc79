"""Exhaustive verification harness.

Every named check runs over a complete enumeration at the requested rank
and reports the first counterexample in enumeration order, so reports are
byte-identical across runs.  The uniform and window-arithmetic checks tie
the combinatorial maps to the group-theoretic construction and serve as an
independent oracle for them.  The checks over vertically labelled paths
share one pass per rank (labelled.labelled_pass); uniform_oracle and
anderson_check are the same oracles for a single labelled path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import stats, zeta
from .affine import (
    coerce_affine,
    dominant_frame,
    dominant_frame_parts,
    grassmannian_companion,
    translation,
)
from .errors import CapExceeded, ZetakitError
from .paths import (
    ballot,
    count_paths,
    enumerate_paths,
    enumeration_cap,
    is_dyck,
    lattice,
    render_path,
)
from .rootposet import ParkingFunction
from .torus import VertPath, label_twist, lambda_of_path, to_torus, wall_images
from .typespec import TypeSpec, modulus, type_spec


def uniform_oracle(vp: VertPath, lattice_type: str) -> ParkingFunction:
    """Parking function of a labelled path computed through the group
    side: twist the wall roots of the representative by the frame and the
    Grassmannian companion instead of using the combinatorial map."""
    lam = lambda_of_path(vp.path, lattice_type)
    sigma = grassmannian_companion(zeta.area_vector(vp.path, lattice_type), lattice_type)
    _, tau = dominant_frame_parts(lattice_type, len(lam))
    ts = tau.compose(sigma)
    return ParkingFunction(label_twist(vp, lattice_type).compose(ts), wall_images(ts, lam, lattice_type))


def anderson_windows(vp: VertPath, lattice_type: str) -> dict:
    """Window arithmetic behind the torus element of a labelled path."""
    lam = lambda_of_path(vp.path, lattice_type)
    n = len(lam)
    m = modulus(lattice_type, n)
    mu = zeta.area_vector(vp.path, lattice_type)
    sigma = grassmannian_companion(mu, lattice_type)
    w_dom = translation(mu).compose(coerce_affine(sigma)).inverse()
    word = zeta.reading_word(vp, lattice_type)
    w_reg = coerce_affine(word).compose(w_dom)
    frame = dominant_frame(lattice_type, n)
    product = w_reg.compose(frame.inverse())
    vector = tuple((-c) % m for c in product.act((0,) * n))
    orbit_rep = frame.compose(w_dom.inverse()).act((0,) * n)
    return {
        "w_dom": w_dom,
        "w_reg": w_reg,
        "product": product,
        "vector": vector,
        "orbit_rep": orbit_rep,
    }


def anderson_check(vp: VertPath, lattice_type: str) -> bool:
    """The window arithmetic must reproduce both the torus element and the
    orbit representative of the labelled path."""
    data = anderson_windows(vp, lattice_type)
    lam = lambda_of_path(vp.path, lattice_type)
    return data["vector"] == to_torus(vp, lattice_type).coords and data["orbit_rep"] == lam


def _paths(spec: TypeSpec, kind):
    """Every path of the kind; type A keeps the Dyck paths only."""
    stream = enumerate_paths(kind)
    return filter(is_dyck, stream) if spec.dyck else stream


# Each unlabelled check returns (counterexample or None, objects examined).


def _check_counting(lt: str, n: int):
    spec = type_spec(lt)
    if lt == "A":
        dycks = sum(1 for _ in _paths(spec, spec.source.kind(n)))
        catalan = math.comb(2 * n, n) // (n + 1)
        if dycks != catalan:
            return "Dyck count %d != %d" % (dycks, catalan), dycks
        return None, dycks
    a = sum(1 for _ in enumerate_paths(spec.source.kind(n)))
    b = sum(1 for _ in enumerate_paths(spec.target.kind(n)))
    if lt in ("B", "C"):
        want = math.comb(2 * n, n)
        if not a == b == want:
            return "counts %d, %d != %d" % (a, b, want), a + b
        return None, a + b
    ua = sum(1 for _ in enumerate_paths(lattice(n - 1, n)))
    ub = sum(1 for _ in enumerate_paths(ballot(2 * n - 1)))
    want = math.comb(2 * n - 1, n - 1)
    if not ua == ub == want:
        return "unsigned counts %d, %d != %d" % (ua, ub, want), ua + ub
    if a != b:
        return "signed counts %d != %d" % (a, b), ua + ub + a + b
    return None, ua + ub + a + b


def _check_bijectivity(lt: str, n: int):
    spec = type_spec(lt)
    images = set()
    for p in _paths(spec, spec.source.kind(n)):
        key = render_path(zeta.zeta_path(p, lt))
        if key in images:
            return "duplicate image %s" % key, len(images) + 1
        images.add(key)
    targets = {render_path(q) for q in _paths(spec, spec.target.kind(n))}
    if images != targets:
        missing = sorted(targets - images)
        return "image misses %s" % missing[0], len(images)
    if lt == "D":
        star_images = set()
        for p in enumerate_paths(lattice(n - 1, n)):
            star_images.add(render_path(zeta.zeta_d_star(p)))
        star_targets = {render_path(q) for q in enumerate_paths(ballot(2 * n - 1))}
        if star_images != star_targets:
            return "sign-stripped map is not onto", len(images) + len(star_images)
        return None, len(images) + len(star_images)
    return None, len(images)


def _check_inverse_roundtrip(lt: str, n: int):
    spec = type_spec(lt)
    count = 0
    for p in enumerate_paths(spec.source.kind(n)):
        count += 1
        img = zeta.zeta_path(p, "C")
        back = zeta.inverse_zeta_c(img)
        if back != p:
            return "round trip fails at %s" % p, count
    for q in enumerate_paths(spec.target.kind(n)):
        count += 1
        if render_path(zeta.zeta_path(zeta.inverse_zeta_c(q), "C")) != render_path(q):
            return "round trip fails at image %s" % q, count
    return None, count


def _check_sweep_equiv(lt: str, n: int):
    count = 0
    for p in enumerate_paths(type_spec(lt).source.kind(n)):
        count += 1
        if zeta.sweep_c(p) != zeta.zeta_path(p, "C"):
            return "sweep differs at %s" % p, count
    return None, count


def _check_stats_identity(lt: str, n: int):
    """dinv = area o zeta on unlabelled paths; the labelled pass adds the
    refined identity up to REFINED_MAX_RANK."""
    count = 0
    for p in enumerate_paths(type_spec(lt).source.kind(n)):
        count += 1
        if stats.dinv_c(p) != stats.area(zeta.zeta_path(p, "C"), "C"):
            return "dinv/area differ at %s" % p, count
    return None, count


# Every check, in report order.  The labelled checks (None) run together in
# one labelled_pass per rank, which also runs the refined half of
# stats_identity.
_CHECKS = {
    "counting": _check_counting,
    "bijectivity": _check_bijectivity,
    "labelled_bijectivity": None,
    "inverse_roundtrip": _check_inverse_roundtrip,
    "sweep_equiv": _check_sweep_equiv,
    "rise_valley": None,
    "stats_identity": _check_stats_identity,
    "uniform": None,
    "anderson": None,
}
CHECK_NAMES = tuple(_CHECKS)
# the rank up to which stats_identity also checks dinv' = area' o zeta on labelled paths
REFINED_MAX_RANK = 4


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
    if _CHECKS[check] is None:
        heavy += spec.modulus(n) ** n
    if heavy > cap:
        raise CapExceeded("rank %d needs %d objects, cap is %d" % (n, heavy, cap))


def _outcomes(lattice_type: str, n: int, names) -> dict:
    """{name: (outcome, examined)} for the requested checks at rank n: the
    unlabelled checks one by one, then one labelled pass for the rest."""
    done = {}
    for name in names:
        if _CHECKS[name] is not None:
            try:
                done[name] = _CHECKS[name](lattice_type, n)
            except ZetakitError as e:
                done[name] = (e, 0)
    labelled = [c for c in names if _CHECKS[c] is None]
    # the refined identity runs only where the unlabelled one held
    refine = "stats_identity" in names and n <= REFINED_MAX_RANK and done["stats_identity"][0] is None
    if refine:
        labelled.append("stats_identity")
    if labelled:
        # loaded on first use: importing verify for the unlabelled checks
        # does not load the labelled pass
        from .labelled import labelled_pass

        found = labelled_pass(lattice_type, n, labelled)
        if refine:
            outcome, examined = found.pop("stats_identity")
            done["stats_identity"] = (outcome, done["stats_identity"][1] + examined)
        done.update(found)
    return done


def run_suite(lattice_type: str, n_max: int, checks=None) -> Report:
    """Run the requested checks, by default every check that applies to the
    type, at every rank from the type's smallest up to n_max.  An empty
    request or a check that does not apply to the type raises ValueError, a
    rank below the smallest raises RankMismatch, and a rank over the
    enumeration cap raises CapExceeded, all before any check runs.

    The results come in plan order: check by check, rank by rank.  A check
    that examined no object fails, and the first check in that order that
    raised a ZetakitError raises it."""
    spec = type_spec(lattice_type)
    if checks is None:
        checks = spec.checks
    if not checks:
        raise ValueError("no checks requested")
    foreign = [c for c in checks if c not in spec.checks]
    if foreign:
        raise ValueError("checks %s do not apply to type %s" % (", ".join(foreign), lattice_type))
    spec.check_rank(n_max)
    names = [c for c in spec.checks if c in checks]
    ranks = range(spec.min_rank, n_max + 1)
    plan = [(c, n) for c in names for n in ranks]
    for name, n in plan:
        _guard_cap(spec, n, name)
    done = {n: _outcomes(lattice_type, n, names) for n in ranks}
    results = []
    for name, n in plan:
        outcome, examined = done[n][name]
        if isinstance(outcome, Exception):
            raise outcome
        if outcome is None and not examined:
            outcome = "examined no objects"
        results.append(CheckResult(name, lattice_type, n, outcome is None, outcome, examined))
    return Report(tuple(results))
