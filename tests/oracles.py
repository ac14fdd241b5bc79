"""Independent oracles and shared golden data for the test suite.

Everything here recomputes expected values by a route different from the
implementation under test: brute-force search, direct definitions, or
frozen worked examples.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from zetakit.errors import NotRepresentative
from zetakit.paths import E, N, Path, north_count, rises, sign_of, valleys
from zetakit.rootposet import (
    Root,
    highest_root_vector,
    is_positive_root_vector,
    poset_leq,
    positive_roots,
    simple_root_vectors,
    to_vector,
)
from zetakit.signedperm import SignedPermutation, weyl_group
from zetakit.torus import TorusElement, lambda_of_path
from zetakit.typespec import type_spec

# ---------------------------------------------------------------------------
# frozen worked examples

C_PATH = "NEEEENNNNNEE"
C_LABELS = (1, -5, -4, 2, 3, 6)
C_AREA_VECTOR = (2, 1, 0, -1, -2, 1)
C_ZETA = "NNENENNENENE"
C_READING = (-2, 1, 3, 4, 6, 5)
C_TORUS = (0, 4, 4, -4, -4, 4)  # mod 13
C_T_MU = (-25, -11, 3, 17, 31, -7)
C_SIGMA = (3, -6, -2, 4, -1, 5)
C_W_DOM_INV = (3, 7, 11, 17, 25, 31)
C_W_DOM = (21, 10, 1, -9, -20, 11)
C_W_REG = (20, 10, -2, -9, -21, 12)
C_PRODUCT = (1, 47, 48, 54, 55, 58)
C_SWEEP_LABELS = [0, 13, 1, -11, -23, -35, -22, -9, 4, 17, 30, 18]
C_ANTICHAIN = ("e4-e1", "e5-e3", "e6-e4", "2e2", "e3+e1")

D_EXAMPLES = (
    # (path text, n, labels, lambda, area vector, zeta image, reading word)
    ("NNEEEENNN", 5, (-3, 4, -2, 1, 5), (0, 0, 4, 4, 4), (0, -1, 2, 1, 0),
     "NNENNENNE", (-3, 5, -1, 4, 2)),
    ("E+NNENENEENN", 6, (1, 3, -2, -5, -4, 6), (1, 1, 2, 3, 5, 6), (-1, 0, 0, 0, 1, 0),
     "NNNNNNE-NNNE", (-3, -2, -5, 6, 4, -1)),
    # the printed reading word of the third worked example repeats the first
    # one; the value below is forced by the group identity for the word and
    # by the labels of the matching diagonally labelled figure
    ("E-EENNNNNE", 5, (-5, -4, 1, 2, 3), (-3, 3, 3, 3, 6), (-3, 2, 1, 0, 2),
     "NENNENENE-", (-2, -1, 3, 4, 5)),
)

D_ANTICHAINS = (
    ("NNENNENNE", 5, ("e5-e3", "e4-e1", "e4+e1", "e3+e2")),
    ("NNNNNNE-NNNE", 6, ("e6-e1", "e5+e4")),
    ("NENNENENE-", 5, ("e5-e4", "e4-e2", "e3+e1", "e2-e1")),
)

B_EXAMPLES = (
    # (path text, n, labels, lambda, area vector, zeta image, reading word,
    #  regular window, product window, torus vector)
    ("NEEEENNNNNEE", 6, (1, -5, -4, 2, 3, 6), (0, 4, 4, 4, 4, 4), (-1, 2, 1, 0, -1, 3),
     "NNENNENENENE", (2, 4, 1, 3, 5, 6), (-12, 21, 9, 2, -10, 33),
     (1, 47, 48, 54, 55, 58), (0, 4, 4, -4, -4, 4)),
    ("ENENNNEE", 4, (-1, -4, -3, -2), (1, 2, 2, 7), (0, 0, -1, 3),
     None, (-1, -4, -3, -2), (-1, -4, -12, 29), (8, 14, 15, 65), (-1, 7, -2, -2)),
)

B_ANTICHAIN = ("NNENNENENENE", 6, ("e6-e4", "e5-e2", "e4-e1", "e3", "e2+e1"))

A_PATH = "NNNNEENENEEE"
A_LABELS = (2, 3, 4, 6, 1, 5)
A_AREA_VECTOR = (0, 1, 2, 3, 2, 2)
A_ZETA = "NENENNNENEEE"
A_READING = (2, 3, 4, 1, 5, 6)

FRAME_WINDOWS = {
    ("C", 5): (50, 40, 30, 20, 10),
    ("D", 5): (1, -9, -19, -29, -39),
    ("D", 6): (-1, -11, -23, -35, -47, 72),
    ("B", 5): (-10, -20, -30, -40, 61),
    # the n = 4 window is elsewhere printed with last entry -36, which is
    # divisible by the period and hence not bijective; the defining data
    # forces -32, which also matches the worked window arithmetic
    ("B", 4): (-8, -16, -24, -32),
}


def sp(*window) -> SignedPermutation:
    return SignedPermutation(tuple(window))


# ---------------------------------------------------------------------------
# poset order straight from the definition


def _simple_coordinates(vec, lattice_type: str, n: int):
    """Exact coordinates of vec in the simple-root basis, or None."""
    simples = [to_vector_frac(s) for s in simple_root_vectors(lattice_type, n)]
    rows = [[simples[j][i] for j in range(n)] + [Fraction(vec[i])] for i in range(n)]
    # Gaussian elimination over the rationals
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        pv = rows[col][col]
        rows[col] = [x / pv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    coords = [rows[i][n] for i in range(n)]
    if any(c.denominator != 1 for c in coords):
        return None
    return tuple(int(c) for c in coords)


def to_vector_frac(vec):
    return tuple(Fraction(c) for c in vec)


def leq_by_definition(a: Root, b: Root, n: int) -> bool:
    """True iff b - a is a sum of positive roots, by exhaustive search in
    simple-root coordinates (the height drops at every step, so the search
    terminates)."""
    if a == b:
        return True
    lt = a.lattice_type
    target = _simple_coordinates(
        tuple(x - y for x, y in zip(to_vector(b, n), to_vector(a, n))), lt, n
    )
    if target is None or any(c < 0 for c in target):
        return False
    proots = []
    for r in positive_roots(lt, n):
        proots.append(_simple_coordinates(to_vector(r, n), lt, n))
    seen = set()

    def rec(t):
        if all(c == 0 for c in t):
            return True
        if t in seen:
            return False
        seen.add(t)
        for r in proots:
            if all(x >= y for x, y in zip(t, r)) and rec(tuple(x - y for x, y in zip(t, r))):
                return True
        return False

    return rec(target)


def count_antichains(lattice_type: str, n: int) -> int:
    """Backtracking enumeration of antichains (order relation shared with
    the package, the counting is independent)."""
    roots = positive_roots(lattice_type, n)
    comparable = {r: set() for r in roots}
    for x, y in itertools.combinations(roots, 2):
        if poset_leq(x, y) or poset_leq(y, x):
            comparable[x].add(y)
            comparable[y].add(x)

    def rec(idx, blocked):
        if idx == len(roots):
            return 1
        total = rec(idx + 1, blocked)
        r = roots[idx]
        if r not in blocked:
            total += rec(idx + 1, blocked | comparable[r])
        return total

    return rec(0, frozenset())


# ---------------------------------------------------------------------------
# type C box-count oracles


def _east_before_each_north(p: Path):
    pis = []
    e_seen = 0
    for s in p.steps:
        if s == "E":
            e_seen += 1
        else:
            pis.append(e_seen)
    return pis


def area_by_boxes(p: Path) -> int:
    """Type C area as a box count below the ballot path."""
    n = p.kind.params[0] // 2
    pis = _east_before_each_north(p)
    return sum(max(0, min(j, 2 * n - j) - pis[j]) for j in range(north_count(p)))


def area_prime_by_boxes(p: Path, w: SignedPermutation) -> int:
    """Refined type C area: boxes whose right label is below their bottom
    label."""
    n = p.kind.params[0] // 2
    pis = _east_before_each_north(p)
    total = 0
    for j in range(north_count(p)):
        for i in range(pis[j], min(j, 2 * n - j)):
            r, s = i + 1, j + 1
            right = w(n + 1 - s) if s <= n else w(n - s)
            if w(n + 1 - r) > right:
                total += 1
    return total


# ---------------------------------------------------------------------------
# the torus model by per-type case analysis


def is_representative_by_cases(lam, lattice_type: str) -> bool:
    """Orbit representatives written out per type as chains of
    inequalities."""
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


def wall_roots_by_cases(lam, lattice_type: str) -> tuple[tuple[int, ...], ...]:
    """The wall vectors through a vector, per type: the first simple root,
    the negated highest root, then the other simple roots."""
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


def nth_north_followed_by_east(p: Path, n: int) -> bool:
    seen = 0
    for k, s in enumerate(p.steps):
        if s == N:
            seen += 1
            if seen == n:
                return k + 1 < len(p.steps) and p.steps[k + 1] == E
    return False


def is_vertical_labelling_by_cases(p: Path, v: SignedPermutation, lattice_type: str) -> bool:
    """Vertical labellings by their path rules: labels rise up each
    column, a leading North step needs a positive first label (B, C) or
    |v(1)| < v(2) under two leading North steps (D), and in type D the sign
    product is fixed by the path's sign and the parity of lambda's last two
    coordinates."""
    n = type_spec(lattice_type).source_rank(p)
    if v.n != n or not all(v(i) < v(i + 1) for i in rises(p)):
        return False
    if lattice_type == "A":
        return v.is_permutation()
    if lattice_type in ("B", "C"):
        return not (p.steps[0] == N and v(1) < 0)
    lam = lambda_of_path(p, "D")
    if p.steps[0] == N and p.steps[1] == N and not abs(v(1)) < v(2):
        return False
    prod = 1 if v.sign_changes() % 2 == 0 else -1
    want = sign_of(p) * (-1) ** ((lam[-2] + lam[-1]) % 2)
    return prod == want


# ---------------------------------------------------------------------------
# torus orbits by scanning the whole Weyl group


@lru_cache(maxsize=16)
def _action_table(lt: str, n: int):
    """Per Weyl element, (slots, signs) arrays for fast vector actions."""
    table = []
    for w in weyl_group(lt, n):
        slots = tuple(abs(v) - 1 for v in w.window)
        signs = tuple(1 if v > 0 else -1 for v in w.window)
        table.append((w, slots, signs))
    return tuple(table)


def canonicalize_by_orbit_scan(t: TorusElement) -> tuple[tuple[int, ...], SignedPermutation]:
    """The pair (representative, group element) of a torus point, found by
    acting with every Weyl group element and keeping the one image that is
    a representative, then the one coset element fixing the walls
    positively.  Raises AssertionError if either is not unique."""
    lt, n, m = t.lattice_type, t.n, t.mod
    if lt == "D" and n < 3:
        raise NotRepresentative("type D canonicalization needs rank >= 3")
    x = t.coords
    lam = None
    candidates = []
    for w, slots, signs in _action_table(lt, n):
        y = [0] * n
        for i in range(n):
            y[slots[i]] = (signs[i] * x[i]) % m
        lifts = [tuple(y)]
        if lt == "D" and y[0] != 0:
            lifts.append((y[0] - m,) + tuple(y[1:]))
        for cand in lifts:
            if is_representative_by_cases(cand, lt):
                if lam is None:
                    lam = cand
                if tuple(v % m for v in cand) == tuple(y):
                    candidates.append((cand, w))
    assert lam is not None, "no representative found for %r" % (t,)
    walls = wall_roots_by_cases(lam, lt)
    hits = []
    for cand, w in candidates:
        if cand != lam:
            continue
        u = w.inverse()
        if all(is_positive_root_vector(u.act(vec)) for vec in walls):
            hits.append(u)
    uniq = sorted(set(h.window for h in hits))
    assert len(uniq) == 1, "canonical coset representative not unique for %r" % (t,)
    return lam, SignedPermutation(uniq[0])


# ---------------------------------------------------------------------------
# diagonal labellings by the per-type valley inequalities


def diag_validate_by_valleys(p: Path, w: SignedPermutation, lattice_type: str) -> bool:
    """Inequality test for a diagonal labelling of a ballot path, read off
    its valleys case by case instead of through its antichain."""
    n = w.n
    if lattice_type == "C":
        for i, j in valleys(p):
            other = w(n + 1 - j) if j <= n else w(n - j)
            if not w(n + 1 - i) > other:
                return False
        return True
    if lattice_type == "B":
        for i, j in valleys(p):
            if not w(n + 1 - i) > w(n + 1 - j):
                return False
        return True
    if not w.is_even():
        return False
    eps = sign_of(p)
    followed = nth_north_followed_by_east(p, n)
    for i, j in valleys(p):
        below = w(n + 1 - i)
        if j <= n - 1:
            ok = below > w(n + 1 - j)
        elif j == n:
            ok = below > eps * w(1)
            if not followed:
                ok = ok and below > abs(w(1))
        elif j == n + 1:
            ok = below > -eps * w(1)
        else:
            ok = below > w(n - j)
        if not ok:
            return False
    return True
