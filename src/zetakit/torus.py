"""Finite torus models: orbit representatives, wall data, vertically
labelled paths and the bijection onto the torus.

The torus of rank n is the coroot lattice modulo m times itself, where
m = 2n+1 in types B and C and m = 2n-1 in type D.  Since m is odd the
quotient is coordinatewise arithmetic modulo m.  A torus point is a
representative lam of the dilated fundamental alcove (`alcove`) with a
Weyl element u sending every wall through lam to a positive root; the
vertical labels of a path are u up to a sign twist.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

from . import paths
from .affine import _residue
from .errors import InvalidLabelling, NotRepresentative, RankMismatch
from .paths import Path, east_counts, path_of_east_counts, rises, sign_of
from .rootposet import highest_root_vector, root_from_vector, simple_root_vectors
from .signedperm import SignedPermutation, passes, weyl_group
from .typespec import modulus, type_spec


@dataclass(frozen=True)
class TorusElement:
    lattice_type: str
    coords: tuple[int, ...]

    def __post_init__(self):
        type_spec(self.lattice_type).check_rank(len(self.coords))
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


Wall = namedtuple("Wall", "root i a j b bound")


@lru_cache(maxsize=64)
def alcove(lattice_type: str, n: int) -> tuple[Wall, ...]:
    """The walls of the dilated fundamental alcove at rank n: the simple
    roots with bound 0 and the negated highest root with bound -m, ordered
    first simple root, -theta, the rest.  A Wall's root has entry a at slot
    i and b at slot j (b = 0 for one term), and x is inside it iff
    a*x[i] + b*x[j] >= bound.  RankMismatch below the smallest rank."""
    spec = type_spec(lattice_type)
    m = spec.modulus(spec.check_rank(n))
    simples = simple_root_vectors(lattice_type, n)
    theta = tuple(-c for c in highest_root_vector(lattice_type, n))
    walls = []
    for root, bound in ((simples[0], 0), (theta, -m), *((s, 0) for s in simples[1:])):
        (i, a), (j, b) = ([(k, c) for k, c in enumerate(root) if c] + [(0, 0)])[:2]
        walls.append(Wall(root, i, a, j, b, bound))
    return tuple(walls)


def _walls_through(lam: tuple[int, ...], lattice_type: str) -> list[Wall]:
    return [w for w in alcove(lattice_type, len(lam)) if w.a * lam[w.i] + w.b * lam[w.j] == w.bound]


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
    """True iff lam lies in the coroot lattice and inside every alcove wall."""
    lam = tuple(lam)
    walls = alcove(lattice_type, len(lam))
    if type_spec(lattice_type).even_sums and sum(lam) % 2:
        return False
    return all(a * lam[i] + b * lam[j] >= bound for _, i, a, j, b, bound in walls)


def path_of_lambda(lam, lattice_type: str) -> Path:
    """Inverse of lambda_of_path."""
    lam = tuple(lam)
    spec = type_spec(lattice_type)
    n = spec.check_rank(len(lam))
    if not is_representative(lam, lattice_type):
        raise NotRepresentative("%r does not represent an orbit in type %s" % (lam, lattice_type))
    pi = lam
    if lattice_type != "C":
        pi = [abs(v) for v in lam[: n - 1]]
        head = sum(pi[: n - 2]) % 2
        # lambda_of_path used the unsigned count pi[-1]; lam[-2] is the signed lam[0] at D rank 2
        last2 = pi[-1] + lam[-1] if head == 0 else spec.modulus(n) + pi[-1] - lam[-1]
        if last2 % 2 != 0:
            raise NotRepresentative("parity mismatch in %r" % (lam,))
        pi.append(last2 // 2)
    if sorted(pi) != list(pi):
        raise NotRepresentative("east counts %r not increasing" % (pi,))
    kind = spec.source.kind(n)
    emax = paths.unsigned(kind).params[0]  # the kind is lattice(emax, n) or its signed lift
    if pi[-1] > emax:
        raise NotRepresentative("east count %d exceeds width %d" % (pi[-1], emax))
    # only type D has representatives with a negative first coordinate
    return path_of_east_counts(pi, kind, -1 if lam[0] < 0 else 1)


def wall_roots(lam, lattice_type: str) -> tuple[tuple[int, ...], ...]:
    """Vectors of the alcove walls through lam, in the order of `alcove`."""
    return tuple(w.root for w in _walls_through(tuple(lam), lattice_type))


def wall_images(ts: SignedPermutation, lam, lattice_type: str) -> tuple:
    """The roots ts^-1 sends the alcove walls through lam to, sorted."""
    ts_inv = ts.inverse()
    roots = (root_from_vector(ts_inv.act(vec), lattice_type) for vec in wall_roots(lam, lattice_type))
    return tuple(sorted(roots))


@dataclass(frozen=True)
class VertPath:
    """A vertically labelled path: the i-th North step carries label
    labels(i)."""

    path: Path
    labels: SignedPermutation

    def __post_init__(self):
        n, north = self.labels.n, self.path.steps.count(paths.N)
        if n != north:
            raise RankMismatch("labels have rank %d, path has %d North steps" % (n, north))


def _twist_signs(p: Path, lam: tuple[int, ...], lattice_type: str) -> list[int]:
    """The signs the label twist puts on the label slots: where the coroot
    lattice has even sums the last slot flips when lam[-2] + lam[-1] is odd
    (lambda_of_path then reflects the last coordinate in the affine wall),
    and the first slot flips on a negative path."""
    signs = [1] * len(lam)
    if type_spec(lattice_type).even_sums and (lam[-2] + lam[-1]) % 2:
        signs[-1] = -1
    if sign_of(p) < 0:
        signs[0] = -1
    return signs


def vertical_forms(p: Path, lattice_type: str):
    """The forms and sign parity a label window must pass to label p
    vertically (signedperm.passes).

    In type A the labels increase up each column.  In types B, C and D the
    twisted labels u must lie in the Weyl group and send every alcove wall
    through lambda_of_path(p) to a positive root; a root c goes to a
    positive root under u iff sum c_i u(i) > 0, and u(i) = s_i v(i) for the
    twist signs s, so the twist is folded into the coefficients."""
    if lattice_type == "A":
        return [(i - 1, -1, i, 1) for i in rises(p)], None
    lam = lambda_of_path(p, lattice_type)
    s = _twist_signs(p, lam, lattice_type)
    forms = [(w.i, w.a * s[w.i], w.j, w.b * s[w.j]) for w in _walls_through(lam, lattice_type)]
    return forms, s.count(-1) % 2 if type_spec(lattice_type).even_signs else None


def is_vertical_labelling(p: Path, v: SignedPermutation, lattice_type: str) -> bool:
    """True iff v, a permutation in type A and a signed permutation
    otherwise, labels the North steps of p vertically (vertical_forms)."""
    n = type_spec(lattice_type).source_rank(p)
    if v.n != n or (lattice_type == "A" and not v.is_permutation()):
        return False
    return passes(v.window, *vertical_forms(p, lattice_type))


def vert(p: Path, v: SignedPermutation, lattice_type: str) -> VertPath:
    if not is_vertical_labelling(p, v, lattice_type):
        raise InvalidLabelling("labels %s are not a vertical labelling of %s" % (v, p))
    return VertPath(p, v)


def _twisted(vp: VertPath, lam: tuple[int, ...], lattice_type: str) -> SignedPermutation:
    """The group element acting on the representative lam of vp's path: the
    labels with the signs of _twist_signs."""
    s = _twist_signs(vp.path, lam, lattice_type)
    if -1 not in s:
        return vp.labels
    return SignedPermutation(tuple(a * b for a, b in zip(s, vp.labels.window)))


def to_torus(vp: VertPath, lattice_type: str) -> TorusElement:
    """The torus element of a vertically labelled path."""
    lam = lambda_of_path(vp.path, lattice_type)
    return torus_element(lattice_type, _twisted(vp, lam, lattice_type).act(lam))


def enumerate_vert(lt: str, n: int):
    spec = type_spec(lt)
    group = weyl_group(spec.label_type, spec.check_rank(n))
    for p in spec.sources(n):
        forms, parity = vertical_forms(p, lt)
        for w in group:
            if passes(w.window, forms, parity):
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
    spec = type_spec(lt)
    residues = [_residue(c, m) for c in t.coords]
    # sort slots by |r|, ties by the slot index carrying the sign of r
    order = sorted((abs(r), s if r >= 0 else -s) for s, r in enumerate(residues, start=1))
    lam = [a for a, _ in order]
    win = [s for _, s in order]
    if spec.even_sums and sum(lam) % 2:
        # the coroot lattice has even coordinate sums: replace the last
        # coordinate by m minus it, its negative modulo m, and flip its label
        lam[-1] = m - lam[-1]
        win[-1] = -win[-1]
        if lam[-2] + lam[-1] == m and win[-1] > -win[-2]:
            # on the affine wall; its reflection fixes lam, and only one of
            # the two coset elements keeps the wall root positive
            win[-2], win[-1] = -win[-1], -win[-2]
    if spec.even_signs and sum(1 for v in win if v < 0) % 2:
        # the group is even: move the odd sign onto the first coordinate
        lam[0], win[0] = -lam[0], -win[0]
    return tuple(lam), SignedPermutation(tuple(win))
