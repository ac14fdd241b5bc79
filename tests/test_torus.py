import itertools
import random

import pytest

from zetakit.errors import NotRepresentative, RankMismatch, ShapeMismatch
from zetakit.paths import (
    enumerate_paths,
    is_dyck,
    lattice,
    parse_path,
    signed_lattice,
)
from zetakit.signedperm import SignedPermutation, weyl_group
from zetakit.torus import (
    TorusElement,
    VertPath,
    canonicalize,
    enumerate_vert,
    is_representative,
    is_vertical_labelling,
    lambda_of_path,
    modulus,
    path_of_lambda,
    to_torus,
    torus_element,
    vert,
    wall_roots,
)
from zetakit.typespec import type_spec

from oracles import (
    B_EXAMPLES,
    C_LABELS,
    C_PATH,
    C_TORUS,
    D_EXAMPLES,
    canonicalize_by_orbit_scan,
    is_positive_root_vector,
    is_representative_by_cases,
    is_vertical_labelling_by_cases,
    label_twist,
    reflection_from_vector,
    sp,
    stabilizer,
    wall_roots_by_cases,
)


def test_modulus():
    assert modulus("C", 6) == 13
    assert modulus("B", 4) == 9
    assert modulus("D", 5) == 9


def test_lambda_golden():
    assert lambda_of_path(parse_path(C_PATH, lattice(6, 6)), "C") == (0, 4, 4, 4, 4, 4)
    for text, n, _, lam, *_ in D_EXAMPLES:
        assert lambda_of_path(parse_path(text, signed_lattice(n)), "D") == lam
    for text, n, _, lam, *_ in B_EXAMPLES:
        assert lambda_of_path(parse_path(text, lattice(n, n)), "B") == lam
    with pytest.raises(ShapeMismatch):
        lambda_of_path(parse_path(C_PATH, lattice(6, 6)), "D")


def test_path_of_lambda_golden():
    assert path_of_lambda((-3, 3, 3, 3, 6), "D").text == "E-EENNNNNE"
    assert path_of_lambda((0, 0, 0), "C").text == "NNNEEE"
    with pytest.raises(NotRepresentative):
        path_of_lambda((2, 1, 0), "C")
    with pytest.raises(NotRepresentative):
        path_of_lambda((1, 1, 1), "B")


@pytest.mark.parametrize("lt,kind", [
    ("C", lattice(5, 5)), ("C", lattice(6, 6)),
    ("B", lattice(5, 5)), ("B", lattice(6, 6)),
    ("D", signed_lattice(5)), ("D", signed_lattice(6)),
    # at D rank 2 the first coordinate, which carries the sign, is also lam[-2]
    ("D", signed_lattice(2)),
])
def test_lambda_roundtrip(lt, kind):
    for p in enumerate_paths(kind):
        lam = lambda_of_path(p, lt)
        assert path_of_lambda(lam, lt) == p


def test_wall_roots_golden():
    walls = wall_roots((0, 4, 4, 4, 4, 4), "C")
    assert set(walls) == {
        (2, 0, 0, 0, 0, 0),
        (0, -1, 1, 0, 0, 0),
        (0, 0, -1, 1, 0, 0),
        (0, 0, 0, -1, 1, 0),
        (0, 0, 0, 0, -1, 1),
    }
    walls = wall_roots((1, 2, 2, 7), "B")
    assert set(walls) == {(0, -1, 1, 0), (0, 0, -1, -1)}
    assert wall_roots((1, 2, 3, 6), "B") == ((0, 0, -1, -1),)
    assert wall_roots((1, 3, 4, 6), "C") == ()


@pytest.mark.parametrize("lt,n", [("C", 3), ("B", 3), ("D", 3), ("B", 4)])
def test_wall_roots_generate_stabilizer(lt, n):
    """The reflections of the wall roots generate exactly the subgroup
    fixing the representative on the torus."""
    m = modulus(lt, n)
    kind = signed_lattice(n) if lt == "D" else lattice(n, n)
    for p in enumerate_paths(kind):
        lam = lambda_of_path(p, lt)
        gen = {w.window for w in stabilizer(lam, lt)}
        brute = {
            w.window
            for w in weyl_group(lt, n)
            if tuple(v % m for v in w.act(lam)) == tuple(v % m for v in lam)
        }
        assert gen == brute, lam


def test_vertical_labelling_rules():
    p = parse_path(C_PATH, lattice(6, 6))
    assert is_vertical_labelling(p, sp(*C_LABELS), "C")
    assert not is_vertical_labelling(p, sp(-1, -5, -4, 2, 3, 6), "C")  # negative start
    assert not is_vertical_labelling(p, sp(1, -4, -5, 2, 3, 6), "C")  # rise violated
    for text, n, labels, *_ in D_EXAMPLES:
        q = parse_path(text, signed_lattice(n))
        assert is_vertical_labelling(q, sp(*labels), "D")
    # flipping one sign breaks the sign-product rule
    q = parse_path(D_EXAMPLES[0][0], signed_lattice(5))
    assert not is_vertical_labelling(q, sp(-3, 4, -2, 1, -5), "D")
    with pytest.raises(Exception):
        vert(p, sp(-1, -5, -4, 2, 3, 6), "C")


def test_label_twist():
    for text, n, labels, *_ in D_EXAMPLES:
        q = parse_path(text, signed_lattice(n))
        u = label_twist(VertPath(q, sp(*labels)), "D")
        assert u.is_even()
    q = parse_path(D_EXAMPLES[2][0], signed_lattice(5))
    assert label_twist(VertPath(q, sp(-5, -4, 1, 2, 3)), "D").window == (5, -4, 1, 2, -3)
    p = parse_path(B_EXAMPLES[1][0], lattice(4, 4))
    assert label_twist(VertPath(p, sp(-1, -4, -3, -2)), "B").window == (-1, -4, -3, 2)


def test_to_torus_golden():
    p = parse_path(C_PATH, lattice(6, 6))
    assert to_torus(VertPath(p, sp(*C_LABELS)), "C").coords == tuple(c % 13 for c in C_TORUS)
    q = parse_path("ENENNNEE", lattice(4, 4))
    assert to_torus(VertPath(q, sp(-1, -4, -3, -2)), "B").coords == tuple(
        c % 9 for c in (-1, 7, -2, -2)
    )
    r = parse_path("E-EENNNNNE", signed_lattice(5))
    u = sp(5, -4, 1, 2, -3)
    expect = tuple(c % 9 for c in u.act((-3, 3, 3, 3, 6)))
    assert to_torus(VertPath(r, sp(-5, -4, 1, 2, 3)), "D").coords == expect


def test_torus_element_reduces_coordinates():
    assert torus_element("D", (1, -2, 8)).coords == (1, 3, 3)


def test_canonicalize_golden():
    lam, u = canonicalize(torus_element("C", C_TORUS))
    assert lam == (0, 4, 4, 4, 4, 4)
    assert u.window == C_LABELS
    lam, u = canonicalize(torus_element("C", (0, 0, 0)))
    assert lam == (0, 0, 0)
    assert u == SignedPermutation.identity(3)


@pytest.mark.parametrize("lt,n", [("C", 2), ("C", 3), ("B", 2), ("B", 3), ("D", 3)])
def test_canonicalize_inverts_to_torus(lt, n):
    for vp in enumerate_vert(lt, n):
        lam, u = canonicalize(to_torus(vp, lt))
        assert lam == lambda_of_path(vp.path, lt)
        assert u == label_twist(vp, lt)


@pytest.mark.parametrize("lt,n", [("C", 2), ("B", 2), ("D", 3)])
def test_vert_is_bijective_onto_torus(lt, n):
    m = modulus(lt, n)
    seen = set()
    for vp in enumerate_vert(lt, n):
        t = to_torus(vp, lt)
        assert t.coords not in seen
        seen.add(t.coords)
    assert len(seen) == m ** n


@pytest.mark.parametrize("lt,n", [("C", 2), ("C", 3), ("B", 3), ("D", 3)])
def test_w_equivariance_of_orbit(lt, n):
    """Generators move the torus element around its orbit without changing
    the representative."""
    import itertools

    from zetakit.rootposet import simple_root_vectors

    m = modulus(lt, n)
    gens = [reflection_from_vector(v, n) for v in simple_root_vectors(lt, n)]
    for coords in itertools.product(range(m), repeat=n):
        t = torus_element(lt, coords)
        lam, _ = canonicalize(t)
        for s in gens:
            moved = torus_element(lt, s.act(t.coords))
            assert canonicalize(moved)[0] == lam


def test_canonicalize_against_vert_table():
    rng = random.Random(4)
    for lt, n in [("C", 3), ("B", 3), ("D", 3)]:
        m = modulus(lt, n)
        table = {}
        for vp in enumerate_vert(lt, n):
            table[to_torus(vp, lt).coords] = (
                lambda_of_path(vp.path, lt),
                label_twist(vp, lt),
            )
        for _ in range(50):
            coords = tuple(rng.randrange(m) for _ in range(n))
            t = torus_element(lt, coords)
            assert canonicalize(t) == table[coords]


@pytest.mark.parametrize("lt,n", [("C", 1), ("C", 2), ("C", 3), ("B", 2), ("B", 3), ("D", 3)])
def test_canonicalize_matches_orbit_scan(lt, n):
    for coords in itertools.product(range(modulus(lt, n)), repeat=n):
        t = torus_element(lt, coords)
        assert canonicalize(t) == canonicalize_by_orbit_scan(t), coords


@pytest.mark.parametrize("n,samples", [(4, 40), (5, 12)])
def test_canonicalize_matches_orbit_scan_sampled(n, samples):
    rng = random.Random(100 + n)
    for lt in "BCD":
        m = modulus(lt, n)
        for _ in range(samples):
            t = torus_element(lt, [rng.randrange(m) for _ in range(n)])
            assert canonicalize(t) == canonicalize_by_orbit_scan(t), t


def test_canonicalize_d_rank_2_has_no_representative():
    with pytest.raises(NotRepresentative):
        canonicalize(torus_element("D", (1, 2)))


def test_vert_path_label_rank():
    p = parse_path("NNEE", lattice(2, 2))
    with pytest.raises(RankMismatch):
        VertPath(p, SignedPermutation((1, 2, 3)))
    with pytest.raises(RankMismatch):
        VertPath(parse_path("E-EENNNNNE", signed_lattice(5)), sp(1, 2, 3, 4))


def test_canonical_u_fixes_walls_positively():
    for vp in enumerate_vert("D", 3):
        t = to_torus(vp, "D")
        lam, u = canonicalize(t)
        assert all(is_positive_root_vector(u.act(v)) for v in wall_roots(lam, "D"))


@pytest.mark.parametrize("lt,n", [
    (lt, n) for lt, low in (("A", 1), ("B", 2), ("C", 1), ("D", 2)) for n in range(low, 5)
])
def test_vertical_labelling_matches_oracle(lt, n):
    """The alcove-wall rule agrees with the per-type path rules on every
    (source path, label) pair, and enumerate_vert is the group scan filtered
    by them, in order."""
    spec = type_spec(lt)
    sources = [p for p in enumerate_paths(spec.source.kind(n)) if not spec.dyck or is_dyck(p)]
    group = weyl_group(spec.label_type, n)
    scan = []
    for p in sources:
        for w in group:
            ok = is_vertical_labelling_by_cases(p, w, lt)
            assert is_vertical_labelling(p, w, lt) == ok, (p.text, w.window)
            if ok:
                scan.append(VertPath(p, w))
    assert list(enumerate_vert(lt, n)) == scan


@pytest.mark.parametrize("lt,n", [
    ("B", 2), ("B", 3), ("C", 1), ("C", 2), ("C", 3), ("D", 2), ("D", 3),
])
def test_alcove_walls_match_oracle(lt, n):
    m = modulus(lt, n)
    for lam in itertools.product(range(-m, m + 1), repeat=n):
        assert is_representative(lam, lt) == is_representative_by_cases(lam, lt), lam
        assert wall_roots(lam, lt) == wall_roots_by_cases(lam, lt), lam


def test_torus_rank_below_minimum():
    with pytest.raises(RankMismatch):
        torus_element("B", (0,))
    with pytest.raises(RankMismatch):
        torus_element("B", (3,))
    with pytest.raises(RankMismatch):
        TorusElement("C", ())
    with pytest.raises(RankMismatch):
        is_representative((1,), "B")
    with pytest.raises(RankMismatch):
        wall_roots((0,), "B")
