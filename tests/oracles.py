"""Independent oracles and shared golden data for the test suite.

Everything here recomputes expected values by a route different from the
implementation under test: brute-force search, direct definitions, or
frozen worked examples.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from zetakit import paths, stats, zeta
from zetakit.affine import (
    AffinePermutation,
    _residue,
    coerce_affine,
    decompose,
    dominant_frame,
    dominant_frame_parts,
    grassmannian_companion,
    translation,
)
from zetakit.errors import InvalidLabelling, NotAntichain, NotRepresentative, ZetakitError
from zetakit.labelled import _rise_template, _signed, _text, _valley_template
from zetakit.paths import (
    E,
    N,
    Path,
    ballot,
    enumerate_paths,
    is_dyck,
    lattice,
    make_path,
    north_count,
    render_path,
    rises,
    sign_of,
    valleys,
)
from zetakit.rootposet import (
    Root,
    ballot_to_antichain,
    highest_root_vector,
    is_positive_root_vector,
    positive_roots,
    reflection_from_vector,
    simple_root_vectors,
    to_parking_function,
    to_vector,
)
from zetakit.signedperm import SignedPermutation, weyl_group
from zetakit.torus import TorusElement, VertPath, enumerate_vert, label_twist, lambda_of_path, wall_images, wall_roots
from zetakit.typespec import TypeSpec, modulus, type_spec
from zetakit.verify import anderson_check, uniform_oracle

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


@lru_cache(maxsize=None)
def _positive_root_coordinates(lattice_type: str, n: int):
    roots = positive_roots(lattice_type, n)
    return tuple(_simple_coordinates(to_vector(r, n), lattice_type, n) for r in roots)


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
    proots = _positive_root_coordinates(lt, n)
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
    """Backtracking enumeration of antichains under the order of
    leq_by_definition."""
    roots = positive_roots(lattice_type, n)
    comparable = {r: set() for r in roots}
    for x, y in itertools.combinations(roots, 2):
        if leq_by_definition(x, y, n) or leq_by_definition(y, x, n):
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


@lru_cache(maxsize=None)
def upsets_by_covers(lattice_type: str, n: int) -> dict:
    """For each positive root, the roots above it, found by a search over
    the covers r -> r + (simple root)."""
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


def area_by_ideal(p: Path, lattice_type: str) -> int:
    """The number of positive roots with no root of the path's antichain
    below them."""
    anti = ballot_to_antichain(p, lattice_type)
    n = type_spec(lattice_type).target_rank(p)
    ups = upsets_by_covers(lattice_type, n)
    return sum(1 for x in positive_roots(lattice_type, n) if not any(x in ups[y] for y in anti))


# ---------------------------------------------------------------------------
# antichain -> ballot path by a search over candidate valley sets


def _path_from_valleys(vs, lattice_type: str, n: int, sign: int, want_slot: bool | None):
    """Rebuild the ballot path with the given valley set, or None.

    For type D, `sign` is the requested sign and `want_slot` pins
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
    lifted = paths.lift_signed(plain, sign)
    if want_slot is not None and (lifted.sign_pos is not None) != want_slot:
        return None
    # a sign of -1 needs a signed slot
    return lifted if lifted.sign == sign else None


def ballot_to_antichain_by_cases(p: Path, lattice_type: str) -> tuple[Root, ...]:
    """ballot_to_antichain stated case by case: a valley (i, j) gives
    e_{n+1-i} - e_{n+1-j} below the diagonal and a short, long or sum root
    above it; in D the valleys before North steps n and n + 1 give
    e_a -+ e_1 by the path's sign, or both on an unsigned path."""
    n = type_spec(lattice_type).target_rank(p)
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
        return tuple(sorted(out))
    eps = sign_of(p)
    # the n-th North step is followed by an East step iff that step is signed
    followed = p.sign_pos is not None
    for i, j in valleys(p):
        a = n + 1 - i
        if j <= n - 1:
            out.append(Root("D", "diff", n + 1 - j, a))
        elif j == n and not followed:
            out += [Root("D", "sum", 1, a), Root("D", "diff", 1, a)]
        elif j in (n, n + 1):
            out.append(Root("D", "sum" if (eps if j == n + 1 else -eps) > 0 else "diff", 1, a))
        else:
            out.append(Root("D", "sum", j - n, a))
    return tuple(sorted(out))


def antichain_to_ballot_by_search(roots, lattice_type: str, n: int) -> Path:
    """Inverse of ballot_to_antichain: try every product of candidate
    valleys, one or two per root, and keep the path whose antichain is the
    given one."""
    roots = tuple(sorted(roots))
    ups = upsets_by_covers(lattice_type, n)
    if any(b in ups[a] or a in ups[b] for a, b in itertools.combinations(roots, 2)):
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
        if p is not None and ballot_to_antichain_by_cases(p, lattice_type) == roots:
            return p
    raise NotAntichain("no ballot path of rank %d realizes %r" % (n, roots))




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


# ---------------------------------------------------------------------------
# the unlabelled checks as separate loops, each enumerating the paths and
# recomputing zeta for itself; verify's single pass must return the same
# (counterexample, objects examined) as each of them


def _paths(spec: TypeSpec, kind):
    """Every path of the kind; type A keeps the Dyck paths only."""
    stream = enumerate_paths(kind)
    return filter(is_dyck, stream) if spec.dyck else stream


# Each unlabelled check returns (counterexample or None, objects examined).


def check_counting(lt: str, n: int):
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


def check_bijectivity(lt: str, n: int):
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


def check_inverse_roundtrip(lt: str, n: int):
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


def check_sweep_equiv(lt: str, n: int):
    count = 0
    for p in enumerate_paths(type_spec(lt).source.kind(n)):
        count += 1
        if zeta.sweep_c(p) != zeta.zeta_path(p, "C"):
            return "sweep differs at %s" % p, count
    return None, count


def check_stats_identity(lt: str, n: int):
    """dinv = area o zeta on unlabelled paths; check_stats_refined is the
    refined half."""
    count = 0
    for p in enumerate_paths(type_spec(lt).source.kind(n)):
        count += 1
        if stats.dinv_c(p) != stats.area(zeta.zeta_path(p, "C"), "C"):
            return "dinv/area differ at %s" % p, count
    return None, count


# ---------------------------------------------------------------------------
# the labelled checks as separate loops over enumerate_vert, one item at a
# time through the public per-item functions; verify's single labelled pass
# must return the same first counterexample as each of them


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
        nth_east = p.sign_pos is not None
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


def check_labelled_bijectivity(lt: str, n: int):
    seen = set()
    count = 0
    for vp in enumerate_vert(lt, n):
        img_path, img_w = zeta.zeta_labelled(vp, lt)
        if not diag_validate_by_valleys(img_path, img_w, lt):
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
        diag_count += sum(1 for w in group if diag_validate_by_valleys(q, w, lt))
    if diag_count != count:
        return "labelled image misses %d targets" % (diag_count - count)
    return None


def check_rise_valley(lt: str, n: int):
    for vp in enumerate_vert(lt, n):
        img_path, img_w = zeta.zeta_labelled(vp, lt)
        if _rise_tokens(vp, lt) != _valley_tokens(img_path, img_w, lt):
            return "label multisets differ at %s | %s" % (vp.path, vp.labels)
    return None


def check_stats_refined(lt: str, n: int):
    """The refined half of the stats_identity check (type C, n <= 4)."""
    if n <= 4:
        for vp in enumerate_vert("C", n):
            img_path, img_w = zeta.zeta_labelled(vp, "C")
            if stats.dinv_c_prime(vp) != stats.area_prime(img_path, img_w, "C"):
                return "refined dinv/area differ at %s | %s" % (vp.path, vp.labels)
    return None


def check_uniform(lt: str, n: int):
    for vp in enumerate_vert(lt, n):
        img_path, img_w = zeta.zeta_labelled(vp, lt)
        combinatorial = to_parking_function(img_path, img_w, lt)
        if combinatorial != uniform_oracle(vp, lt):
            return "parking functions differ at %s | %s" % (vp.path, vp.labels)
    return None


def check_anderson(lt: str, n: int):
    for vp in enumerate_vert(lt, n):
        if not anderson_check(vp, lt):
            return "window arithmetic fails at %s | %s" % (vp.path, vp.labels)
    return None


# each unlabelled check of verify.run_suite; stats_identity by its unlabelled half
UNLABELLED_ORACLES = {
    "counting": check_counting,
    "bijectivity": check_bijectivity,
    "inverse_roundtrip": check_inverse_roundtrip,
    "sweep_equiv": check_sweep_equiv,
    "stats_identity": check_stats_identity,
}

# each labelled check of verify.run_suite; stats_identity by its refined half
LABELLED_ORACLES = {
    "labelled_bijectivity": check_labelled_bijectivity,
    "rise_valley": check_rise_valley,
    "stats_identity": check_stats_refined,
    "uniform": check_uniform,
    "anderson": check_anderson,
}


# ---------------------------------------------------------------------------
# the labellings as lists: the pass keeps them as sets of group windows
# (labelled._Rank.select), bit k for window k of group_windows, and must
# hold the same windows


def passing(windows, forms, parity=None) -> list:
    """The windows that pass, in their order: one filter per form."""
    if parity is not None:
        windows = [w for w in windows if sum(1 for x in w if x < 0) % 2 == parity]
    for i, a, j, b in forms:
        windows = [w for w in windows if a * w[i] + b * w[j] > 0]
    return list(windows)


def group_windows(n: int) -> list:
    """The windows of the signed group of rank n, in the pass's bit order."""
    return [w.window for w in weyl_group("B", n)]


def passing_bits(windows, forms, parity=None) -> int:
    """The windows that pass as an int with bit k for windows[k]."""
    keep = set(passing(windows, forms, parity))
    return sum(1 << k for k, w in enumerate(windows) if w in keep)


# ---------------------------------------------------------------------------
# the per-labelling tests of rise_valley, uniform and anderson, label
# arithmetic on raw windows for one labelling at a time; the pass decides
# each identity once per path, on slots, and must give on every labelling
# what these give.  Each takes a labelled._PathData and returns a test of
# items (v, reading word, whether the word fits the image).


def _pair_tokens(template, ext) -> list:
    """The sorted tokens of a rise or valley template: ("abs", |x|, y) or
    ("pair", min((x, y), (-y, -x))) for the slot values x = ext[k1], y = ext[k2]."""
    out = []
    for is_abs, k1, k2 in template:
        x, y = ext[k1], ext[k2]
        out.append(("abs", abs(x), y) if is_abs else ("pair", min((x, y), (-y, -x))))
    return sorted(out)


def rise_valley_by_labels(d):
    rise = _rise_template(d.path, d.lt)
    valley = _valley_template(d.antichain)

    def test(item):
        v, word, _ = item
        if _pair_tokens(rise, _signed(v)) != _pair_tokens(valley, _signed(word)):
            return "label multisets differ at %s | %s"
        return None

    return test


def _misfit(d, word) -> InvalidLabelling:
    """What to_parking_function raises for a word that does not label the
    image of d diagonally."""
    return InvalidLabelling("labels %s do not fit the valleys of %s" % (_text(word), d.image))


def _group_side(d):
    """lam, the slots of the label twist, mu and sigma of the path of d."""
    lam = lambda_of_path(d.path, d.lt)
    mu = zeta.area_vector(d.path, d.lt)
    return lam, label_twist(d.vp, d.lt).window, mu, grassmannian_companion(mu, d.lt)


def uniform_by_labels(d):
    # u*(tau*sigma) for the twisted labels u, against the word
    lam, twist, _, sigma = _group_side(d)
    ts = dominant_frame_parts(d.lt, d.r.n)[1].compose(sigma)
    same_roots = wall_images(ts, lam, d.lt) == d.antichain

    def test(item):
        v, word, fits = item
        if not fits:
            return _misfit(d, word)
        ext = _signed(v)
        u = _signed([ext[k] for k in twist])
        if not same_roots or tuple(u[t] for t in ts.window) != word:
            return "parking functions differ at %s | %s"
        return None

    return test


def anderson_by_labels(d):
    # the torus vector of product = word * A for the path's affine A,
    # against the twisted labels acting on lam, both modulo m
    r = d.r
    n, m, K = r.n, r.spec.modulus(r.n), 2 * r.n + 1
    lam, twist, mu, sigma = _group_side(d)
    w_dom = translation(mu).compose(coerce_affine(sigma)).inverse()
    frame = dominant_frame(d.lt, n)
    orbit_ok = frame.compose(w_dom.inverse()).act((0,) * n) == lam
    parts = []
    for a in w_dom.compose(frame.inverse()).window:
        s = _residue(a, K)
        parts.append((s, (a - s) // K))

    def test(item):
        v, word, _ = item
        ext, wext = _signed(v), _signed(word)
        vector, coords = [0] * n, [0] * n
        for s, q in parts:
            b = wext[s]
            vector[abs(b) - 1] = (q if b > 0 else -q) % m
        for k, x in zip(twist, lam):
            u = ext[k]
            coords[abs(u) - 1] = (x if u > 0 else -x) % m
        if vector != coords or not orbit_ok:
            return "window arithmetic fails at %s | %s"
        return None

    return test


PER_LABELLING_ORACLES = {
    "rise_valley": rise_valley_by_labels,
    "uniform": uniform_by_labels,
    "anderson": anderson_by_labels,
}


# ---------------------------------------------------------------------------
# the affine action and inverse through the split w = t(mu) * sigma


def inverse_by_split(w: AffinePermutation) -> AffinePermutation:
    """w^-1 = sigma^-1 * t(-mu): sigma^-1(i) + mu_i * K in slot i."""
    split, K = decompose(w), w.period
    sigma_inv = split.sigma.inverse()
    return AffinePermutation(tuple(sigma_inv(i) + split.mu[i - 1] * K for i in range(1, w.n + 1)))


def act_by_split(w: AffinePermutation, x) -> tuple[int, ...]:
    """Apply the finite part sigma, then translate by mu."""
    split = decompose(w)
    return tuple(a + b for a, b in zip(split.sigma.act(x), split.mu))


# ---------------------------------------------------------------------------
# the stabilizer of a representative by closing its wall reflections


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


# ---------------------------------------------------------------------------
# affine group membership by scanning the integers


def in_group_by_scan(w, lattice_type: str) -> bool:
    """Membership of w in the affine permutation group of the given type.

    The two parity sets are finite; they are contained in a window of
    width (A+1)*K around [0, n] where A bounds the translation part, so a
    direct scan is exact.
    """
    if lattice_type == "C":
        return True
    n, K = w.n, w.period
    amax = max(abs(v) for v in w.window) // K + 1
    lo = n - (amax + 1) * K
    first = sum(1 for i in range(lo, n + 1) if w(i) > n)
    if lattice_type == "B":
        return first % 2 == 0
    if lattice_type == "D":
        hi = n + (amax + 1) * K
        second = sum(1 for i in range(0, hi + 1) if w(i) < 0)
        return first % 2 == 0 and second % 2 == 0
    raise ValueError("unknown type %r" % lattice_type)


# ---------------------------------------------------------------------------
# path enumeration by one recursion that places the signed step as it goes


def enumerate_paths_by_recursion(kind) -> list[Path]:
    """Every path of the kind in text order, E before N at each step, with
    E+ before E- on the signed step of a signed kind."""
    shape, params = kind.shape, kind.params
    if shape == "lattice":
        east, north = params
        length = east + north
    elif shape == "signed_lattice":
        east, north = params[0] - 1, params[0]
        length = east + north
    else:
        length = params[0] if shape == "ballot" else 2 * params[0] - 1
        east = north = None  # bounded by the prefix rule only
    ballot_rule = shape in ("ballot", "signed_ballot")
    out, steps = [], []

    def signed_here(pos: int, n_used: int) -> bool:
        if shape == "signed_lattice":
            return pos == 0
        return shape == "signed_ballot" and n_used == params[0] and pos > 0 and steps[-1] == N

    def rec(e_used: int, n_used: int, sign_pos, sg: int) -> None:
        pos = e_used + n_used
        if pos == length:
            out.append(Path(tuple(steps), kind, sign_pos, sg))
            return
        e_ok = (east is None or e_used < east) and not (ballot_rule and e_used >= n_used)
        if e_ok:
            signed = signed_here(pos, n_used)
            steps.append(E)
            if signed:
                rec(e_used + 1, n_used, pos, 1)
                rec(e_used + 1, n_used, pos, -1)
            else:
                rec(e_used + 1, n_used, sign_pos, sg)
            steps.pop()
        if north is None or n_used < north:
            steps.append(N)
            rec(e_used, n_used + 1, sign_pos, sg)
            steps.pop()

    rec(0, 0, None, 1)
    return out


def dinv_c_by_cases(p: Path) -> int:
    """Diagonal inversions of a square lattice path by the four comparisons
    of row area values; pairs may count twice."""
    rho = tuple(reversed(zeta.area_vector(p, "C")))
    total = sum(1 for v in rho if v == 0)
    for i, j in itertools.combinations(range(len(rho)), 2):
        a, b = rho[i], rho[j]
        total += (a == b) + (a == b + 1) + (a == -b) + (a == -b + 1)
    return total


# ---------------------------------------------------------------------------
# the zeta codec by one scan of the area vector per level


def segment(direction: str, sign: int, j: int, values) -> str:
    """Scan an integer vector and write N/E letters.

    With sign +1 an entry equal to j yields N and j+1 yields E; with sign
    -1 an entry equal to -j yields N and -j-1 yields E.  The direction
    sets the scan order.
    """
    if sign > 0:
        n_val, e_val = j, j + 1
    else:
        n_val, e_val = -j, -j - 1
    seq = values if direction == "left_to_right" else tuple(reversed(tuple(values)))
    out = []
    for v in seq:
        if v == n_val:
            out.append(N)
        elif v == e_val:
            out.append(E)
    return "".join(out)


def zeta_path_by_level_scan(p: Path, lattice_type: str) -> Path:
    """The zeta image with one segment scan of mu per level and run: level
    j from the top down writes its entries -j right to left, then its
    entries j left to right; B puts an N before the level-0 left-to-right
    run, B and D drop the last step, and D's sign is the parity of the
    positive entries.  Type A scans the levels upwards, left to right."""
    spec = type_spec(lattice_type)
    n = spec.source_rank(p)
    kind = spec.target.kind(n)
    mu = zeta.area_vector(p, lattice_type)
    if lattice_type == "A":
        word = "".join(segment("left_to_right", -1, j, mu) for j in range(0, -n - 1, -1))
        return make_path(tuple(word), kind)
    parts = []
    for j in range(max(abs(v) for v in mu), -1, -1):
        parts.append(segment("right_to_left", -1, j, mu))
        if j == 0 and lattice_type == "B":
            parts.append(N)
        parts.append(segment("left_to_right", 1, j, mu))
    word = "".join(parts)
    if lattice_type != "C":
        word = word[:-1]
    sign = -1 if lattice_type == "D" and sum(1 for v in mu if v > 0) % 2 else 1
    return make_path(tuple(word), kind, sign)


def bounce_by_tops(p: Path):
    """The bounce path's moves and level counts, by searching the set of
    North step tops West from each diagonal point."""
    n = type_spec("C").target_rank(p)
    tops = set()
    x = y = 0
    for s in p.steps:
        if s == N:
            y += 1
            tops.add((x, y))
        else:
            x += 1
    moves = ["S" * (y - x)]
    hits = [x]
    cx = cy = x
    while (cx, cy) != (0, 0):
        wx = cx
        while wx >= 0 and (wx, cy) not in tops:
            wx -= 1
        moves.append("W" * (cx - wx))
        moves.append("S" * (cy - wx))
        cx = cy = wx
        hits.append(cx)
    alphas = [n - hits[0]] + [a - b for a, b in zip(hits, hits[1:])]
    return "".join(moves), tuple(alphas + [0] * (n + 1 - len(alphas)))


def inverse_zeta_c_by_area_vector(p: Path) -> Path:
    """The type-C preimage by rebuilding mu with one scan per level, then
    path_of_area_vector.  Level k's block, m = #(-k) in mu: the first m
    North steps, read backwards, are the entries -k, the East run before
    each that many entries -(k+1) right after it; each later East run is
    that many entries k+1 right before the next entry k, and level 0's
    final East run that many entries 1 at the end."""
    _, alphas = bounce_by_tops(p)
    n = type_spec("C").target_rank(p)
    word = "".join(p.steps)
    blocks = []
    idx = len(word)
    for k in range(0, n + 1):
        size = 2 * alphas[0] + alphas[1] if k == 0 else alphas[k] + (alphas[k + 1] if k < n else 0)
        blocks.append(word[idx - size : idx])
        idx -= size
    mu = [0] * alphas[0]
    for k, block in enumerate(blocks):
        if not block:
            break
        m = mu.count(-k)
        runs = [len(r) for r in block.split(N)]
        after, before, tail = reversed(runs[:m]), iter(runs[m:-1]), runs[-1]
        out: list[int] = []
        for v in mu:
            if v == k:
                out.extend([k + 1] * next(before))
            out.append(v)
            if v == -k:
                out.extend([-(k + 1)] * next(after))
        mu = out + [1] * tail
    return zeta.path_of_area_vector(tuple(mu), "C")


def path_of_east_counts_by_insert(pi, kind, sign: int = 1) -> Path:
    """The path whose k-th North step has pi[k] East steps before it, by
    inserting each North step into the row of East steps."""
    steps = [E] * paths.unsigned(kind).params[0]
    for k, v in enumerate(pi):
        steps.insert(v + k, N)
    return make_path(steps, kind, sign)
