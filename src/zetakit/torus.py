"""Finite torus models: orbit representatives, wall data, vertically
labelled paths and the bijection onto the torus.

The torus of rank n is the coroot lattice modulo m times itself, where
m = 2n+1 in types B and C and m = 2n-1 in type D.  Since m is odd the
quotient is coordinatewise arithmetic modulo m.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import paths
from .affine import _residue
from .errors import InvalidLabelling, NotRepresentative, RankMismatch
from .paths import Path, east_counts, make_path, rises, sign_of
from .rootposet import highest_root_vector, reflection_from_vector, simple_root_vectors
from .signedperm import SignedPermutation, weyl_group
from .typespec import min_rank, modulus, type_spec  # noqa: F401  (min_rank is re-exported)


@dataclass(frozen=True)
class TorusElement:
    lattice_type: str
    coords: tuple[int, ...]

    def __post_init__(self):
        m = self.mod
        if any(not 0 <= c < m for c in self.coords):
            raise NotRepresentative("coords %r not reduced mod %d" % (self.coords, m))

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def mod(self) -> int:
        return modulus(self.lattice_type, len(self.coords))


def torus_element(lattice_type: str, vector) -> TorusElement:
    vec = tuple(vector)
    m = modulus(lattice_type, len(vec))
    return TorusElement(lattice_type, tuple(v % m for v in vec))


def torus_to_json(t: TorusElement) -> dict:
    return {"type": t.lattice_type, "n": t.n, "mod": t.mod, "coords": list(t.coords)}


def torus_from_json(d: dict) -> TorusElement:
    return torus_element(d["type"], d["coords"])


def lambda_of_path(p: Path, lattice_type: str) -> tuple[int, ...]:
    """The orbit representative encoded by a path."""
    spec = type_spec(lattice_type)
    n = spec.source_rank(p)
    pi = east_counts(p)
    if lattice_type == "C":
        return pi
    m = spec.modulus(n)
    head = sum(pi[: n - 2]) % 2
    lam = list(pi[: n - 1])
    if lattice_type == "D":
        lam[0] *= sign_of(p)
    lam.append(2 * pi[n - 1] - pi[n - 2] if head == 0 else m - 2 * pi[n - 1] + pi[n - 2])
    return tuple(lam)


def is_representative(lam, lattice_type: str) -> bool:
    lam = tuple(lam)
    n = len(lam)
    if lattice_type == "C":
        return all(0 <= v <= n for v in lam) and all(a <= b for a, b in zip(lam, lam[1:]))
    if lattice_type == "B":
        return (
            lam[0] >= 0
            and all(a <= b for a, b in zip(lam, lam[1:]))
            and lam[-2] + lam[-1] <= 2 * n + 1
            and sum(lam) % 2 == 0
        )
    if lattice_type == "D":
        return (
            abs(lam[0]) <= lam[1]
            and all(a <= b for a, b in zip(lam[1:], lam[2:]))
            and lam[-2] + lam[-1] <= 2 * n - 1
            and sum(lam) % 2 == 0
        )
    raise ValueError("unsupported type %r" % lattice_type)


def path_of_lambda(lam, lattice_type: str) -> Path:
    """Inverse of lambda_of_path."""
    lam = tuple(lam)
    spec = type_spec(lattice_type)
    n = spec.check_rank(len(lam))
    if not is_representative(lam, lattice_type):
        raise NotRepresentative("%r does not represent an orbit in type %s" % (lam, lattice_type))
    if lattice_type == "C":
        pi = lam
        sign = 1
    else:
        full = spec.modulus(n)
        pi = [abs(lam[0])] + [abs(v) for v in lam[1 : n - 1]]
        head = sum(pi[: n - 2]) % 2
        last2 = lam[-2] + lam[-1] if head == 0 else full + lam[-2] - lam[-1]
        if last2 % 2 != 0:
            raise NotRepresentative("parity mismatch in %r" % (lam,))
        pi.append(last2 // 2)
        sign = -1 if (lattice_type == "D" and lam[0] < 0) else 1
    if any(a > b for a, b in zip(pi, pi[1:])):
        raise NotRepresentative("east counts %r not increasing" % (pi,))
    kind = spec.source.kind(n)
    emax = paths._expected_counts(kind)[0]
    if pi[-1] > emax:
        raise NotRepresentative("east count %d exceeds width %d" % (pi[-1], emax))
    steps = []
    prev = 0
    for v in pi:
        steps.extend([paths.E] * (v - prev))
        steps.append(paths.N)
        prev = v
    steps.extend([paths.E] * (emax - prev))
    slot = paths._signed_slot(tuple(steps), kind)
    return make_path(steps, kind, slot, sign if slot is not None else 1)


def wall_roots(lam, lattice_type: str) -> tuple[tuple[int, ...], ...]:
    """Vectors of the walls of the scaled fundamental alcove containing
    the representative: simple roots plus possibly the negated highest
    root."""
    lam = tuple(lam)
    n = len(lam)
    simples = simple_root_vectors(lattice_type, n)
    out = []
    if lattice_type == "C":
        if lam[0] == 0:
            out.append(simples[0])
    elif lattice_type == "B":
        if lam[0] == 0:
            out.append(simples[0])
        if lam[-2] + lam[-1] == 2 * n + 1:
            out.append(tuple(-c for c in highest_root_vector("B", n)))
    else:
        if lam[0] == -lam[1]:
            out.append(simples[0])
        if lam[-2] + lam[-1] == 2 * n - 1:
            out.append(tuple(-c for c in highest_root_vector("D", n)))
    for i in range(1, n):
        if lam[i - 1] == lam[i]:
            out.append(simples[i])
    return tuple(out)


@dataclass(frozen=True)
class VertPath:
    """A vertically labelled path: the i-th North step carries label
    labels(i)."""

    path: Path
    labels: SignedPermutation

    def __post_init__(self):
        north = self.path.steps.count(paths.N)
        if self.labels.n != north:
            raise RankMismatch(
                "labels have rank %d, path has %d North steps" % (self.labels.n, north)
            )


def is_vertical_labelling(p: Path, v: SignedPermutation, lattice_type: str) -> bool:
    n = type_spec(lattice_type).source_rank(p)
    if v.n != n or not all(v(i) < v(i + 1) for i in rises(p)):
        return False
    if lattice_type == "A":
        return v.is_permutation()
    if lattice_type in ("B", "C"):
        return not (p.steps[0] == paths.N and v(1) < 0)
    lam = lambda_of_path(p, "D")
    if p.steps[0] == paths.N and p.steps[1] == paths.N and not abs(v(1)) < v(2):
        return False
    prod = 1 if v.sign_changes() % 2 == 0 else -1
    want = sign_of(p) * (-1) ** ((lam[-2] + lam[-1]) % 2)
    return prod == want


def vert(p: Path, v: SignedPermutation, lattice_type: str) -> VertPath:
    if not is_vertical_labelling(p, v, lattice_type):
        raise InvalidLabelling("labels %s are not a vertical labelling of %s" % (v, p))
    return VertPath(p, v)


def label_twist(vp: VertPath, lattice_type: str) -> SignedPermutation:
    """The group element acting on the representative: the labels, with
    type-specific sign twists at the first and last slots."""
    v = vp.labels
    if lattice_type in ("A", "C"):
        return v
    n = v.n
    lam = lambda_of_path(vp.path, lattice_type)
    flip_last = (lam[-2] + lam[-1]) % 2 != 0
    win = list(v.window)
    if flip_last:
        win[n - 1] = -win[n - 1]
    if lattice_type == "D" and sign_of(vp.path) < 0:
        win[0] = -win[0]
    return SignedPermutation(tuple(win))


def to_torus(vp: VertPath, lattice_type: str) -> TorusElement:
    """The torus element of a vertically labelled path."""
    lam = lambda_of_path(vp.path, lattice_type)
    u = label_twist(vp, lattice_type)
    return torus_element(lattice_type, u.act(lam))


def enumerate_vert(lt: str, n: int):
    spec = type_spec(lt)
    src = paths.enumerate_paths(spec.source.kind(spec.check_rank(n)))
    if spec.dyck:
        src = filter(paths.is_dyck, src)
    group = weyl_group(spec.label_type, n)
    for p in src:
        rr = rises(p)
        starts_n = bool(p.steps) and p.steps[0] == paths.N
        starts_nn = starts_n and len(p.steps) > 1 and p.steps[1] == paths.N
        if lt == "D":
            lam = lambda_of_path(p, "D")
            want = sign_of(p) * (-1) ** ((lam[-2] + lam[-1]) % 2)
        for w in group:
            win = w.window
            if any(w(i) >= w(i + 1) for i in rr):
                continue
            if lt == "A":
                if all(v > 0 for v in win):
                    yield VertPath(p, w)
                continue
            if lt in ("B", "C"):
                if not (starts_n and win[0] < 0):
                    yield VertPath(p, w)
                continue
            if starts_nn and not abs(win[0]) < win[1]:
                continue
            prod = -1 if w.sign_changes() % 2 else 1
            if prod == want:
                yield VertPath(p, w)


def canonicalize(t: TorusElement) -> tuple[tuple[int, ...], SignedPermutation]:
    """The unique pair (representative, group element) with u * lam = t and
    u sending every wall root of lam to a positive root.

    Sorting the reduced coordinates by absolute value moves the point into
    the dominant chamber.  In types B and D an odd coordinate sum is fixed
    by the affine wall reflection of the last coordinate, and in type D an
    odd number of sign changes moves onto the first coordinate.
    """
    lt, n, m = t.lattice_type, t.n, t.mod
    if lt == "D" and n < 3:
        # rank 2 splits into two strands and orbit representatives are no
        # longer unique, so there is nothing canonical to return
        raise NotRepresentative("type D canonicalization needs rank >= 3")
    residues = [_residue(c, m) for c in t.coords]
    # sort slots by |r|, ties by the slot index carrying the sign of r
    order = sorted((abs(r), s if r >= 0 else -s) for s, r in enumerate(residues, start=1))
    lam = [a for a, _ in order]
    win = [s for _, s in order]
    if lt != "C" and sum(lam) % 2:
        # the coroot lattice has even coordinate sums: replace the last
        # coordinate by m minus it, its negative modulo m, and flip its label
        lam[-1] = m - lam[-1]
        win[-1] = -win[-1]
        if lam[-2] + lam[-1] == m and win[-1] > -win[-2]:
            # on the affine wall; its reflection fixes lam, and only one of
            # the two coset elements keeps the wall root positive
            win[-2], win[-1] = -win[-1], -win[-2]
    if lt == "D" and sum(1 for v in win if v < 0) % 2:
        # the group is even: move the odd sign onto the first coordinate
        lam[0], win[0] = -lam[0], -win[0]
    return tuple(lam), SignedPermutation(tuple(win))


def stabilizer(lam, lattice_type: str) -> tuple[SignedPermutation, ...]:
    """Subgroup generated by the reflections through the wall roots."""
    n = len(tuple(lam))
    gens = [reflection_from_vector(vec, n) for vec in wall_roots(lam, lattice_type)]
    seen = {SignedPermutation.identity(n)}
    frontier = list(seen)
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = g.compose(s)
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    return tuple(sorted(seen, key=lambda w: w.window))
