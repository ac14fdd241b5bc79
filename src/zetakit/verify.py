"""Exhaustive verification harness.

Every named check runs over a complete enumeration at the requested rank
and reports the first counterexample in enumeration order, so reports are
byte-identical across runs.  The uniform and window-arithmetic checks tie
the combinatorial maps to the group-theoretic construction and serve as an
independent oracle for them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import paths, stats, zeta
from .affine import (
    coerce_affine,
    dominant_frame,
    dominant_frame_parts,
    grassmannian_companion,
    translation,
)
from .errors import CapExceeded
from .paths import (
    Path,
    ballot,
    count_paths,
    enumerate_paths,
    enumeration_cap,
    is_dyck,
    lattice,
    render_path,
    rises,
    sign_of,
    valleys,
)
from .rootposet import (
    ParkingFunction,
    _nth_north_followed_by_east,
    ballot_to_antichain,
    diag_validate,
    fits_antichain,
    root_from_vector,
    to_parking_function,
)
from .signedperm import SignedPermutation, weyl_group
from .torus import (
    VertPath,
    enumerate_vert,
    label_twist,
    lambda_of_path,
    to_torus,
    wall_roots,
)
from .typespec import LABELLED_CHECKS, TypeSpec, modulus, type_spec


def uniform_oracle(vp: VertPath, lattice_type: str) -> ParkingFunction:
    """Parking function of a labelled path computed through the group
    side: twist the wall roots of the representative by the frame and the
    Grassmannian companion instead of using the combinatorial map."""
    lam = lambda_of_path(vp.path, lattice_type)
    n = len(lam)
    u = label_twist(vp, lattice_type)
    mu = zeta.area_vector(vp.path, lattice_type)
    sigma = grassmannian_companion(mu, lattice_type)
    _, tau = dominant_frame_parts(lattice_type, n)
    ts = tau.compose(sigma)
    w = u.compose(ts)
    ts_inv = ts.inverse()
    roots = tuple(
        sorted(root_from_vector(ts_inv.act(vec), lattice_type) for vec in wall_roots(lam, lattice_type))
    )
    return ParkingFunction(w, roots)


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


def _rise_tokens(vp: VertPath, lattice_type: str):
    p, v = vp.path, vp.labels
    toks = []
    starts_nn = len(p.steps) >= 2 and p.steps[0] == paths.N and p.steps[1] == paths.N
    for i in rises(p):
        if lattice_type == "D" and i == 1 and starts_nn:
            toks.append(("abs", abs(v(1)), v(2)))
        else:
            a, b = v(i), v(i + 1)
            toks.append(("pair", min((b, a), (-a, -b))))
    if lattice_type == "C" and p.steps[0] == paths.N:
        a = v(1)
        toks.append(("pair", min((a, -a), (a, -a))))
    if lattice_type == "B" and p.steps[0] == paths.N:
        toks.append(("pair", min((v(1), 0), (0, -v(1)))))
    return sorted(toks)


def _valley_tokens(p: Path, w: SignedPermutation, lattice_type: str):
    n = w.n
    toks = []
    if lattice_type == "D":
        eps = sign_of(p)
        nth_east = _nth_north_followed_by_east(p, n)
    for i, j in valleys(p):
        first = w(n + 1 - i)
        if lattice_type == "C":
            second = w(n + 1 - j) if j <= n else w(n - j)
        elif lattice_type == "B":
            second = w(n + 1 - j)
        else:
            if j == n and not nth_east:
                toks.append(("abs", abs(w(1)), first))
                continue
            if j < n:
                second = w(n + 1 - j)
            elif j == n:
                second = eps * w(1)
            elif j == n + 1:
                second = -eps * w(1)
            else:
                second = w(n - j)
        toks.append(("pair", min((first, second), (-second, -first))))
    return sorted(toks)


def _paths(spec: TypeSpec, kind):
    """Every path of the kind; type A keeps the Dyck paths only."""
    stream = enumerate_paths(kind)
    return filter(is_dyck, stream) if spec.dyck else stream


def _check_counting(lt: str, n: int):
    spec = type_spec(lt)
    if lt == "A":
        dycks = sum(1 for _ in _paths(spec, spec.source.kind(n)))
        catalan = math.comb(2 * n, n) // (n + 1)
        if dycks != catalan:
            return "Dyck count %d != %d" % (dycks, catalan)
        return None
    a = sum(1 for _ in enumerate_paths(spec.source.kind(n)))
    b = sum(1 for _ in enumerate_paths(spec.target.kind(n)))
    if lt in ("B", "C"):
        want = math.comb(2 * n, n)
        if not a == b == want:
            return "counts %d, %d != %d" % (a, b, want)
        return None
    ua = sum(1 for _ in enumerate_paths(lattice(n - 1, n)))
    ub = sum(1 for _ in enumerate_paths(ballot(2 * n - 1)))
    want = math.comb(2 * n - 1, n - 1)
    if not ua == ub == want:
        return "unsigned counts %d, %d != %d" % (ua, ub, want)
    if a != b:
        return "signed counts %d != %d" % (a, b)
    return None


def _check_bijectivity(lt: str, n: int):
    spec = type_spec(lt)
    images = set()
    for p in _paths(spec, spec.source.kind(n)):
        key = render_path(zeta.zeta_path(p, lt))
        if key in images:
            return "duplicate image %s" % key
        images.add(key)
    targets = {render_path(q) for q in _paths(spec, spec.target.kind(n))}
    if images != targets:
        missing = sorted(targets - images)
        return "image misses %s" % missing[0]
    if lt == "D":
        star_images = set()
        for p in enumerate_paths(lattice(n - 1, n)):
            star_images.add(render_path(zeta.zeta_d_star(p)))
        star_targets = {render_path(q) for q in enumerate_paths(ballot(2 * n - 1))}
        if star_images != star_targets:
            return "sign-stripped map is not onto"
    return None


def _check_labelled_bijectivity(lt: str, n: int):
    seen = set()
    count = 0
    for vp in enumerate_vert(lt, n):
        img_path, img_w = zeta.zeta_labelled(vp, lt)
        if not diag_validate(img_path, img_w, lt):
            return "image of %s | %s is not diagonally labelled" % (vp.path, vp.labels)
        key = (render_path(img_path), img_w.window)
        if key in seen:
            return "labelled duplicate at %s | %s" % (vp.path, vp.labels)
        seen.add(key)
        count += 1
    expected = modulus(lt, n) ** n
    if count != expected:
        return "labelled domain has %d elements, torus has %d" % (count, expected)
    diag_count = 0
    group = weyl_group(lt, n)
    for q in enumerate_paths(type_spec(lt).target.kind(n)):
        roots = ballot_to_antichain(q, lt)
        diag_count += sum(1 for w in group if fits_antichain(w, roots, lt))
    if diag_count != count:
        return "labelled image misses %d targets" % (diag_count - count)
    return None


def _check_inverse_roundtrip(lt: str, n: int):
    spec = type_spec(lt)
    for p in enumerate_paths(spec.source.kind(n)):
        img = zeta.zeta_path(p, "C")
        back = zeta.inverse_zeta_c(img)
        if back != p:
            return "round trip fails at %s" % p
    for q in enumerate_paths(spec.target.kind(n)):
        if render_path(zeta.zeta_path(zeta.inverse_zeta_c(q), "C")) != render_path(q):
            return "round trip fails at image %s" % q
    return None


def _check_sweep_equiv(lt: str, n: int):
    for p in enumerate_paths(type_spec(lt).source.kind(n)):
        if zeta.sweep_c(p) != zeta.zeta_path(p, "C"):
            return "sweep differs at %s" % p
    return None


def _check_rise_valley(lt: str, n: int):
    for vp in enumerate_vert(lt, n):
        img_path, img_w = zeta.zeta_labelled(vp, lt)
        if _rise_tokens(vp, lt) != _valley_tokens(img_path, img_w, lt):
            return "label multisets differ at %s | %s" % (vp.path, vp.labels)
    return None


def _check_stats_identity(lt: str, n: int):
    for p in enumerate_paths(type_spec(lt).source.kind(n)):
        if stats.dinv_c(p) != stats.area(zeta.zeta_path(p, "C"), "C"):
            return "dinv/area differ at %s" % p
    if n <= 4:
        for vp in enumerate_vert("C", n):
            img_path, img_w = zeta.zeta_labelled(vp, "C")
            if stats.dinv_c_prime(vp) != stats.area_prime(img_path, img_w, "C"):
                return "refined dinv/area differ at %s | %s" % (vp.path, vp.labels)
    return None


def _check_uniform(lt: str, n: int):
    for vp in enumerate_vert(lt, n):
        img_path, img_w = zeta.zeta_labelled(vp, lt)
        combinatorial = to_parking_function(img_path, img_w, lt)
        if combinatorial != uniform_oracle(vp, lt):
            return "parking functions differ at %s | %s" % (vp.path, vp.labels)
    return None


def _check_anderson(lt: str, n: int):
    for vp in enumerate_vert(lt, n):
        if not anderson_check(vp, lt):
            return "window arithmetic fails at %s | %s" % (vp.path, vp.labels)
    return None


_CHECKS = {
    "counting": _check_counting,
    "bijectivity": _check_bijectivity,
    "labelled_bijectivity": _check_labelled_bijectivity,
    "inverse_roundtrip": _check_inverse_roundtrip,
    "sweep_equiv": _check_sweep_equiv,
    "rise_valley": _check_rise_valley,
    "stats_identity": _check_stats_identity,
    "uniform": _check_uniform,
    "anderson": _check_anderson,
}
CHECK_NAMES = tuple(_CHECKS)


@dataclass(frozen=True)
class CheckResult:
    check: str
    lattice_type: str
    n: int
    passed: bool
    counterexample: str | None = None

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
    request or a check that does not apply to the type raises ValueError, a
    rank below the smallest raises RankMismatch, and a rank over the
    enumeration cap raises CapExceeded, all before any check runs."""
    spec = type_spec(lattice_type)
    if checks is None:
        checks = spec.checks
    if not checks:
        raise ValueError("no checks requested")
    foreign = [c for c in checks if c not in spec.checks]
    if foreign:
        raise ValueError("checks %s do not apply to type %s" % (", ".join(foreign), lattice_type))
    spec.check_rank(n_max)
    plan = [(c, n) for c in spec.checks if c in checks for n in range(spec.min_rank, n_max + 1)]
    for name, n in plan:
        _guard_cap(spec, n, name)
    results = []
    for name, n in plan:
        witness = _CHECKS[name](lattice_type, n)
        results.append(CheckResult(name, lattice_type, n, witness is None, witness))
    return Report(tuple(results))
