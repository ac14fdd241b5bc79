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
    InternalError,
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


def _pm_root(lattice_type: str, a: int, coeff: int) -> Root:
    """The root e_a + coeff*e_1 with coeff in {+1, -1} and a >= 2."""
    return Root(lattice_type, "sum" if coeff > 0 else "diff", 1, a)


def ballot_to_antichain(p: Path, lattice_type: str) -> tuple[Root, ...]:
    """The antichain whose valleys are those of the ballot path."""
    n = _ballot_rank(p, lattice_type)
    out = []
    if lattice_type in ("B", "C"):
        for i, j in valleys(p):
            a, b = n + 1 - i, j - n - (lattice_type == "B")
            if j <= n:
                out.append(Root(lattice_type, "diff", n + 1 - j, a))
            elif b == 0:
                out.append(Root(lattice_type, "short", a))
            elif a == b:
                out.append(Root(lattice_type, "long", a))
            else:
                out.append(Root(lattice_type, "sum", min(a, b), max(a, b)))
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


def _first_valleys(roots, n: int):
    """Type D: the valleys of the roots e_a + e_1 and e_a - e_1, and the
    sign of the path."""
    first = sorted((r.j, r.kind) for r in roots if r.i == 1)
    if not first:
        return [], 1
    (a, kind), rest = first[0], first[1:]
    if rest and rest[0][0] == a:
        # the pair e_a + e_1, e_a - e_1: no East step follows the n-th North
        # step, so the path carries no sign
        return [(n + 1 - a, n)], 1
    return [(n + 1 - a, n + 1)] + [(n + 1 - b, n) for b, _ in rest], 1 if kind == "sum" else -1


def antichain_to_ballot(roots, lattice_type: str, n: int) -> Path:
    """Inverse of ballot_to_antichain: each root gives back its valley, and
    the sorted valleys give the path."""
    roots = tuple(sorted(roots))
    _check_roots(roots, lattice_type, n)
    if not is_antichain(roots, n):
        raise NotAntichain("%r is not an antichain" % (roots,))
    vs, sign = _first_valleys(roots, n) if lattice_type == "D" else ([], 1)
    for r in roots:
        if lattice_type == "D" and r.i == 1:
            continue
        if r.kind == "diff":
            vs.append((n + 1 - r.j, n + 1 - r.i))
        elif r.kind == "sum":
            vs.append((n + 1 - r.j, n + r.i + (lattice_type == "B")))
        elif r.kind == "long":
            vs.append((n + 1 - r.i, n + r.i))
        else:
            vs.append((n + 1 - r.i, n + 1))
    length = 2 * n - 1 if lattice_type == "D" else 2 * n
    steps: list[str] = []
    north = east = 0
    for i, j in sorted(vs):
        steps += [N] * (j - 1 - north) + [E] * (i - east)
        north, east = j - 1, i
    steps += [N] * (length - len(steps))
    p = make_path(steps, ballot(length))
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
    if r.kind in ("short", "long"):
        return (r.i - 1, 1, 0, 0)
    return (r.j - 1, 1, r.i - 1, 1 if r.kind == "sum" else -1)


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


def roots_to_json(roots) -> list[str]:
    return [str(r) for r in sorted(roots)]


def roots_from_json(texts, lattice_type: str) -> tuple[Root, ...]:
    return tuple(sorted(parse_root(t, lattice_type) for t in texts))


def reflection(root: Root, n: int) -> SignedPermutation:
    """The reflection through the hyperplane orthogonal to the root."""
    return reflection_from_vector(to_vector(root, n), n)


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
