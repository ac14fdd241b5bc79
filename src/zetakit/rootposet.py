"""Classical root systems of types B, C and D: positive roots, root-poset
order, the antichain <-> ballot path correspondence, diagonal labellings
and parking functions.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    InvalidLabelling,
    NotAntichain,
    RankMismatch,
    TypeMismatch,
    Unsupported,
)
from .paths import E, N, Path, ballot, lift_signed, make_path, sign_of, valleys
from .signedperm import SignedPermutation, passes
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


def _ends(r: Root) -> tuple[int, int, int]:
    """(a, s, b) with r = e_a + s*e_b, a >= b >= 0 and e_0 = 0: a short
    root is e_a + e_0 and a long root e_a + e_a."""
    if r.kind in ("diff", "sum"):
        return r.j, 1 if r.kind == "sum" else -1, r.i
    return r.i, 1, r.i if r.kind == "long" else 0


def _valley(r: Root, n: int) -> tuple[int, int]:
    """The valley (i, j) of the root on a ballot path of sign +1: i East
    steps before the j-th North step."""
    a, s, b = _ends(r)
    return n + 1 - a, n + 1 - b if s < 0 else n + b + (r.lattice_type == "B")


def to_vector(root: Root, n: int) -> tuple[int, ...]:
    a, s, b = _ends(root)
    v = [0] * (n + 1)
    v[a] += 1
    v[b] += s
    return tuple(v[1:])


@lru_cache(maxsize=64)
def _lookup(lattice_type: str, n: int, key) -> dict:
    """{key(r, n): r} over the positive roots, for key to_vector or _valley."""
    return {key(r, n): r for r in positive_roots(lattice_type, n)}


def root_from_vector(vec, lattice_type: str) -> Root:
    vec = tuple(vec)
    root = _lookup(lattice_type, len(vec), to_vector).get(vec)
    if root is None:
        raise TypeMismatch("%r is not a positive root vector of type %s" % (vec, lattice_type))
    return root


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


def poset_leq(a: Root, b: Root) -> bool:
    """a <= b iff b - a has nonnegative simple-root coordinates.  For
    x = b - a these are the suffix sums S_k = x_k + ... + x_n, except that in
    type D the first two are (S_2 + x_1)/2 and (S_2 - x_1)/2."""
    if a.lattice_type != b.lattice_type:
        raise TypeMismatch("cannot compare %s and %s roots" % (a.lattice_type, b.lattice_type))
    n = max(a.j, a.i, b.j, b.i)
    x = [q - p for p, q in zip(to_vector(a, n), to_vector(b, n))]
    sums = list(itertools.accumulate(reversed(x)))[::-1]
    if a.lattice_type == "D":
        sums[1] -= x[0]
    return min(sums) >= 0


@lru_cache(maxsize=64)
def _upsets(lattice_type: str, n: int) -> dict:
    """For each positive root, the set of roots above it in poset order."""
    roots = positive_roots(lattice_type, n)
    return {a: frozenset(b for b in roots if poset_leq(a, b)) for a in roots}


def _poset_spec(lattice_type: str):
    if lattice_type not in _KINDS:
        raise Unsupported("type %r has no root poset here" % (lattice_type,))
    return type_spec(lattice_type)


def _check_roots(roots, lattice_type: str, n: int) -> None:
    """RankMismatch or TypeMismatch unless n is a rank of the type and every
    root is a positive root of that type at rank n."""
    _poset_spec(lattice_type).check_rank(n)
    for r in roots:
        if r.lattice_type != lattice_type:
            raise TypeMismatch("%s root %s in type %s" % (r.lattice_type, r, lattice_type))
        if max(r.i, r.j) > n:
            raise RankMismatch("root %s is not a root of rank %d" % (r, n))


def is_antichain(roots, n: int) -> bool:
    roots = tuple(roots)
    if not roots:
        return True
    lt = roots[0].lattice_type
    _check_roots(roots, lt, n)
    ups = _upsets(lt, n)
    for a, b in itertools.combinations(roots, 2):
        if b in ups[a] or a in ups[b]:
            return False
    return True


def _ballot_rank(p: Path, lattice_type: str) -> int:
    return _poset_spec(lattice_type).target_rank(p)


def ballot_to_antichain(p: Path, lattice_type: str) -> tuple[Root, ...]:
    """The antichain whose valleys are those of the ballot path.  In D the
    roots e_a - e_1 and e_a + e_1 sit before North steps n and n + 1: a
    path of sign -1 swaps them, and on an unsigned path the valley before
    North step n stands for both."""
    n = _ballot_rank(p, lattice_type)
    table = _lookup(lattice_type, n, _valley)
    out = []
    for i, j in valleys(p):
        if lattice_type == "D" and j in (n, n + 1):
            if p.sign_pos is None:
                out.append(table[i, n + 1])
            elif sign_of(p) < 0:
                j = 2 * n + 1 - j
        out.append(table[i, j])
    return tuple(sorted(out))


def antichain_to_ballot(roots, lattice_type: str, n: int) -> Path:
    """Inverse of ballot_to_antichain: each root gives back its valley, and
    the sorted valleys give the path.  In D the e_1 root with the smallest
    a fixes the sign, e_a + e_1 meaning +1; a pair e_a - e_1, e_a + e_1
    gives valleys (i, n) and (i, n + 1), and the second adds no East step,
    so the n-th North step is followed by none and the path is unsigned."""
    roots = tuple(sorted(roots))
    _check_roots(roots, lattice_type, n)
    if not is_antichain(roots, n):
        raise NotAntichain("%r is not an antichain" % (roots,))
    vs = [_valley(r, n) for r in roots]
    # D's e_1 roots sit before North step n or n + 1, the last one with the smallest a
    first = max((v for v in vs if lattice_type == "D" and v[1] in (n, n + 1)), default=(0, n + 1))
    sign = 1 if first[1] > n else -1
    if sign < 0:
        vs = [(i, 2 * n + 1 - j if j in (n, n + 1) else j) for i, j in vs]
    length = 2 * n - 1 if lattice_type == "D" else 2 * n
    word = ""
    north = east = 0
    for i, j in sorted(vs):
        word += N * (j - 1 - north) + E * (i - east)
        north, east = j - 1, i
    p = make_path(word + N * (length - len(word)), ballot(length))
    return lift_signed(p, sign) if lattice_type == "D" else p


def _check_label_rank(p: Path, w: SignedPermutation, lattice_type: str) -> None:
    n = _ballot_rank(p, lattice_type)
    if w.n != n:
        raise RankMismatch("labels have rank %d, path has rank %d" % (w.n, n))


def root_form(r: Root) -> tuple[int, int, int, int]:
    """The positivity form (i, a, j, b) of a root, 0-based: a signed
    permutation w sends r to a positive root iff a*w[i] + b*w[j] > 0.  The
    image of c_i e_i + c_j e_j has its highest slot at the larger of |w[i]|
    and |w[j]|, so the sign of c_i w[i] + c_j w[j] decides."""
    a, s, b = _ends(r)
    return (a - 1, 1, b - 1, s) if 0 < b < a else (a - 1, 1, 0, 0)


def antichain_forms(p: Path, lattice_type: str):
    """The forms of the ballot path's antichain and the sign parity of a
    diagonal labelling (even in type D, free otherwise): w labels p
    diagonally iff signedperm.passes(w.window, *antichain_forms(p, lattice_type))."""
    return _forms(ballot_to_antichain(p, lattice_type), lattice_type)


def _forms(roots, lattice_type: str):
    return [root_form(r) for r in roots], 0 if lattice_type == "D" else None


def diag_validate(p: Path, w: SignedPermutation, lattice_type: str) -> bool:
    """True iff w is a diagonal labelling of the ballot path: it sends every
    root of the path's antichain to a positive root."""
    _check_label_rank(p, w, lattice_type)
    return passes(w.window, *antichain_forms(p, lattice_type))


@dataclass(frozen=True)
class ParkingFunction:
    """Canonical representative (w, A) of a parking function class: w sends
    every root of the antichain A to a positive root."""

    w: SignedPermutation
    antichain: tuple[Root, ...]


def to_parking_function(p: Path, w: SignedPermutation, lattice_type: str) -> ParkingFunction:
    _check_label_rank(p, w, lattice_type)
    roots = ballot_to_antichain(p, lattice_type)
    if not passes(w.window, *_forms(roots, lattice_type)):
        raise InvalidLabelling("labels %s do not fit the valleys of %s" % (w, p))
    return ParkingFunction(w, roots)
