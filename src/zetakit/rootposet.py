"""Classical root systems of types B, C and D: positive roots, root-poset
order, the antichain <-> ballot path correspondence, diagonal labellings
and parking functions.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache

from . import paths
from .errors import (
    InternalError,
    InvalidLabelling,
    NotAntichain,
    RankMismatch,
    TypeMismatch,
    ZetakitError,
)
from .paths import Path, make_path, sign_of, valleys
from .signedperm import SignedPermutation
from .typespec import type_spec

# kinds: "diff" e_j - e_i, "sum" e_i + e_j (both with i < j), "short" e_i, "long" 2e_i
_KINDS = {
    "B": ("diff", "sum", "short"),
    "C": ("diff", "sum", "long"),
    "D": ("diff", "sum"),
}


@dataclass(frozen=True, order=True)
class Root:
    lattice_type: str
    kind: str
    i: int
    j: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS.get(self.lattice_type, ()):
            raise TypeMismatch("%s root not allowed in type %s" % (self.kind, self.lattice_type))
        if self.kind in ("diff", "sum") and not 1 <= self.i < self.j:
            raise TypeMismatch("need 1 <= i < j, got i=%d j=%d" % (self.i, self.j))
        if self.kind in ("short", "long") and (self.i < 1 or self.j != 0):
            raise TypeMismatch("bad index for %s root" % self.kind)

    def __str__(self) -> str:
        if self.kind == "diff":
            return "e%d-e%d" % (self.j, self.i)
        if self.kind == "sum":
            return "e%d+e%d" % (self.j, self.i)
        if self.kind == "short":
            return "e%d" % self.i
        return "2e%d" % self.i


_ROOT_RE = re.compile(r"^(?:(2)e(\d+)|e(\d+)([+-])e(\d+)|e(\d+))$")


def parse_root(text: str, lattice_type: str) -> Root:
    m = _ROOT_RE.match(text.replace(" ", ""))
    if not m:
        raise TypeMismatch("cannot parse root %r" % text)
    if m.group(1):
        return Root(lattice_type, "long", int(m.group(2)))
    if m.group(6):
        return Root(lattice_type, "short", int(m.group(6)))
    a, op, b = int(m.group(3)), m.group(4), int(m.group(5))
    if op == "+":
        return Root(lattice_type, "sum", min(a, b), max(a, b))
    if a <= b:
        raise TypeMismatch("difference roots are written with the larger index first")
    return Root(lattice_type, "diff", b, a)


def to_vector(root: Root, n: int) -> tuple[int, ...]:
    v = [0] * n
    if root.kind == "diff":
        v[root.i - 1], v[root.j - 1] = -1, 1
    elif root.kind == "sum":
        v[root.i - 1], v[root.j - 1] = 1, 1
    elif root.kind == "short":
        v[root.i - 1] = 1
    else:
        v[root.i - 1] = 2
    return tuple(v)


def root_from_vector(vec, lattice_type: str) -> Root:
    nz = [(i + 1, c) for i, c in enumerate(vec) if c]
    if len(nz) == 1:
        i, c = nz[0]
        if c == 1 and lattice_type == "B":
            return Root("B", "short", i)
        if c == 2 and lattice_type == "C":
            return Root("C", "long", i)
    elif len(nz) == 2:
        (i, ci), (j, cj) = nz
        if ci == cj == 1:
            return Root(lattice_type, "sum", i, j)
        if ci == -1 and cj == 1:
            return Root(lattice_type, "diff", i, j)
    raise TypeMismatch("%r is not a positive root vector of type %s" % (tuple(vec), lattice_type))


def is_positive_root_vector(vec) -> bool:
    """Roots of types B/C/D are positive iff the highest nonzero
    coordinate is positive."""
    for c in reversed(tuple(vec)):
        if c:
            return c > 0
    return False


@lru_cache(maxsize=64)
def positive_roots(lattice_type: str, n: int) -> tuple[Root, ...]:
    out = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        out.append(Root(lattice_type, "diff", i, j))
        out.append(Root(lattice_type, "sum", i, j))
    if lattice_type == "B":
        out.extend(Root("B", "short", i) for i in range(1, n + 1))
    elif lattice_type == "C":
        out.extend(Root("C", "long", i) for i in range(1, n + 1))
    return tuple(sorted(out))


def simple_root_vectors(lattice_type: str, n: int) -> tuple[tuple[int, ...], ...]:
    diffs = [to_vector(Root(lattice_type, "diff", i, i + 1), n) for i in range(1, n)]
    if lattice_type == "B":
        first = to_vector(Root("B", "short", 1), n)
    elif lattice_type == "C":
        first = to_vector(Root("C", "long", 1), n)
    else:
        first = to_vector(Root("D", "sum", 1, 2), n)
    return (first, *diffs)


def highest_root_vector(lattice_type: str, n: int) -> tuple[int, ...]:
    if lattice_type == "C":
        return to_vector(Root("C", "long", n), n)
    return to_vector(Root(lattice_type, "sum", n - 1, n), n)


@lru_cache(maxsize=64)
def _upsets(lattice_type: str, n: int) -> dict:
    """For each positive root, the set of roots above it in poset order."""
    roots = positive_roots(lattice_type, n)
    vec_to_root = {to_vector(r, n): r for r in roots}
    simples = simple_root_vectors(lattice_type, n)
    covers: dict[Root, list[Root]] = {r: [] for r in roots}
    for r in roots:
        v = to_vector(r, n)
        for s in simples:
            w = tuple(a + b for a, b in zip(v, s))
            if w in vec_to_root:
                covers[r].append(vec_to_root[w])
    upsets = {}
    for r in roots:
        seen = {r}
        frontier = [r]
        while frontier:
            x = frontier.pop()
            for y in covers[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        upsets[r] = frozenset(seen)
    return upsets


def poset_leq(a: Root, b: Root) -> bool:
    """a <= b iff b - a is a sum of positive roots."""
    if a.lattice_type != b.lattice_type:
        raise TypeMismatch("cannot compare %s and %s roots" % (a.lattice_type, b.lattice_type))
    n = max(a.j, a.i, b.j, b.i)
    return b in _upsets(a.lattice_type, n)[a]


def is_antichain(roots, n: int) -> bool:
    roots = tuple(roots)
    if not roots:
        return True
    lt = roots[0].lattice_type
    ups = _upsets(lt, n)
    for a, b in itertools.combinations(roots, 2):
        if b in ups[a] or a in ups[b]:
            return False
    return True


def _ballot_rank(p: Path, lattice_type: str) -> int:
    if lattice_type not in _KINDS:
        raise ValueError("type %r has no root poset here" % (lattice_type,))
    return type_spec(lattice_type).target_rank(p)


def _pm_root(lattice_type: str, a: int, coeff: int) -> Root:
    """The root e_a + coeff*e_1 with coeff in {+1, -1} and a >= 2."""
    return Root(lattice_type, "sum" if coeff > 0 else "diff", 1, a)


def ballot_to_antichain(p: Path, lattice_type: str) -> tuple[Root, ...]:
    """The antichain whose valleys are those of the ballot path."""
    n = _ballot_rank(p, lattice_type)
    out = []
    if lattice_type in ("B", "C"):
        for i, j in valleys(p):
            if lattice_type == "C":
                if j <= n:
                    out.append(Root("C", "diff", n + 1 - j, n + 1 - i))
                elif n + 1 - i == j - n:
                    out.append(Root("C", "long", j - n))
                else:
                    a, b = sorted((n + 1 - i, j - n))
                    out.append(Root("C", "sum", a, b))
            else:
                if j < n + 1:
                    out.append(Root("B", "diff", n + 1 - j, n + 1 - i))
                elif j == n + 1:
                    out.append(Root("B", "short", n + 1 - i))
                else:
                    a, b = sorted((n + 1 - i, j - n - 1))
                    out.append(Root("B", "sum", a, b))
    else:
        eps = sign_of(p)
        # the n-th North step is followed by an East step iff that step is signed
        followed = p.sign_pos is not None
        for i, j in valleys(p):
            if j <= n - 1:
                out.append(Root("D", "diff", n + 1 - j, n + 1 - i))
            elif j == n:
                if followed:
                    out.append(_pm_root("D", n + 1 - i, -eps))
                else:
                    out.append(_pm_root("D", n + 1 - i, 1))
                    out.append(_pm_root("D", n + 1 - i, -1))
            elif j == n + 1:
                out.append(_pm_root("D", n + 1 - i, eps))
            else:
                out.append(Root("D", "sum", j - n, n + 1 - i))
    return tuple(sorted(out))


def _path_from_valleys(vs, lattice_type: str, n: int, sign: int, want_signed_slot: bool | None):
    """Rebuild the ballot path with the given valley set, or None.

    For type D, `sign` is the requested sign and `want_signed_slot` pins
    whether the n-th North step must be followed by an East step.
    """
    length = 2 * n if lattice_type in ("B", "C") else 2 * n - 1
    vs = sorted(vs)
    for (i1, j1), (i2, j2) in zip(vs, vs[1:]):
        if i1 >= i2 or j1 >= j2:
            return None
    ecount = vs[-1][0] if vs else 0
    m = length - ecount
    if m < ecount:
        return None
    if any(j > m + 1 or i > ecount or i >= j for i, j in vs):
        return None
    trailing = [v for v in vs if v[1] == m + 1]
    if len(trailing) > 1 or (trailing and trailing[0][0] != ecount):
        return None
    steps = []
    prev_e = 0
    by_j = {j: i for i, j in vs}
    for j in range(1, m + 1):
        if j in by_j:
            steps.extend([paths.E] * (by_j[j] - prev_e))
            prev_e = by_j[j]
        steps.append(paths.N)
    steps.extend([paths.E] * (ecount - prev_e))
    try:
        plain = make_path(steps, paths.ballot(length))
    except ZetakitError:
        return None
    if lattice_type in ("B", "C"):
        return plain
    lifted_kind = paths.signed_ballot(n)
    slot = paths._signed_slot(tuple(steps), lifted_kind)
    if want_signed_slot is not None and (slot is not None) != want_signed_slot:
        return None
    if slot is None and sign < 0:
        return None
    return make_path(steps, lifted_kind, slot, sign if slot is not None else 1)


def antichain_to_ballot(roots, lattice_type: str, n: int) -> Path:
    """Inverse of ballot_to_antichain."""
    roots = tuple(sorted(roots))
    if not is_antichain(roots, n):
        raise NotAntichain("%r is not an antichain" % (roots,))

    def candidates():
        if lattice_type in ("B", "C"):
            choice_sets = []
            for r in roots:
                if r.kind == "diff":
                    choice_sets.append([(n + 1 - r.j, n + 1 - r.i)])
                elif r.kind == "long":
                    choice_sets.append([(n + 1 - r.i, n + r.i)])
                elif r.kind == "short":
                    choice_sets.append([(n + 1 - r.i, n + 1)])
                else:
                    off = 0 if lattice_type == "C" else 1
                    choice_sets.append(
                        [(n + 1 - r.j, n + r.i + off), (n + 1 - r.i, n + r.j + off)]
                    )
            for combo in itertools.product(*choice_sets):
                yield combo, 1, None
        else:
            first = [r for r in roots if r.kind in ("diff", "sum") and r.i == 1]
            rest = [r for r in roots if r not in first]
            choice_sets = []
            for r in rest:
                if r.kind == "diff":
                    choice_sets.append([(n + 1 - r.j, n + 1 - r.i)])
                else:
                    choice_sets.append([(n + 1 - r.j, n + r.i), (n + 1 - r.i, n + r.j)])
            pair_as = {r.j for r in first if r.kind == "sum"} & {
                r.j for r in first if r.kind == "diff"
            }
            interps = []
            if len(first) == 2 and len(pair_as) == 1:
                a = pair_as.pop()
                interps.append(([(n + 1 - a, n)], 1, False))
            for eps in (1, -1):
                extra = []
                for r in first:
                    coeff = 1 if r.kind == "sum" else -1
                    j = n if coeff == -eps else n + 1
                    extra.append((n + 1 - r.j, j))
                interps.append((extra, eps, True if first else None))
            for extra, eps, want in interps:
                for combo in itertools.product(*choice_sets):
                    yield tuple(combo) + tuple(extra), eps, want

    for vs, eps, want in candidates():
        if len(set(vs)) != len(vs):
            continue
        p = _path_from_valleys(vs, lattice_type, n, eps, want)
        if p is not None and ballot_to_antichain(p, lattice_type) == roots:
            return p
    raise NotAntichain("no ballot path of rank %d realizes %r" % (n, roots))


def _check_label_rank(p: Path, w: SignedPermutation, lattice_type: str) -> None:
    n = _ballot_rank(p, lattice_type)
    if w.n != n:
        raise RankMismatch("labels have rank %d, path has rank %d" % (w.n, n))


def fits_antichain(w: SignedPermutation, roots, lattice_type: str) -> bool:
    """True iff w lies in the Weyl group of the type and sends every root
    of the antichain to a positive root."""
    if lattice_type == "D" and not w.is_even():
        return False
    for r in roots:
        if r.kind == "diff":
            ok = w(r.j) > w(r.i)
        elif r.kind == "sum":
            ok = w(r.j) > -w(r.i)
        else:
            ok = w(r.i) > 0
        if not ok:
            return False
    return True


def diag_validate(p: Path, w: SignedPermutation, lattice_type: str) -> bool:
    """True iff w is a diagonal labelling of the ballot path: it sends every
    root of the path's antichain to a positive root."""
    _check_label_rank(p, w, lattice_type)
    return fits_antichain(w, ballot_to_antichain(p, lattice_type), lattice_type)


@dataclass(frozen=True)
class ParkingFunction:
    """Canonical representative (w, A) of a parking function class: w sends
    every root of the antichain A to a positive root."""

    w: SignedPermutation
    antichain: tuple[Root, ...]


def to_parking_function(p: Path, w: SignedPermutation, lattice_type: str) -> ParkingFunction:
    _check_label_rank(p, w, lattice_type)
    roots = ballot_to_antichain(p, lattice_type)
    if not fits_antichain(w, roots, lattice_type):
        raise InvalidLabelling("labels %s do not fit the valleys of %s" % (w, p))
    return ParkingFunction(w, roots)


def roots_to_json(roots) -> list[str]:
    return [str(r) for r in sorted(roots)]


def roots_from_json(texts, lattice_type: str) -> tuple[Root, ...]:
    return tuple(sorted(parse_root(t, lattice_type) for t in texts))


def reflection(root: Root, n: int) -> SignedPermutation:
    """The reflection through the hyperplane orthogonal to the root."""
    win = list(range(1, n + 1))
    if root.kind == "diff":
        win[root.i - 1], win[root.j - 1] = root.j, root.i
    elif root.kind == "sum":
        win[root.i - 1], win[root.j - 1] = -root.j, -root.i
    else:
        win[root.i - 1] = -root.i
    return SignedPermutation(tuple(win))


def reflection_from_vector(vec, n: int) -> SignedPermutation:
    nz = [(i + 1, c) for i, c in enumerate(vec) if c]
    win = list(range(1, n + 1))
    if len(nz) == 1:
        win[nz[0][0] - 1] = -nz[0][0]
    elif len(nz) == 2:
        (i, ci), (j, cj) = nz
        if ci * cj < 0:
            win[i - 1], win[j - 1] = j, i
        else:
            win[i - 1], win[j - 1] = -j, -i
    else:
        raise InternalError("not a root vector: %r" % (vec,))
    return SignedPermutation(tuple(win))
