import pytest

from zetakit.errors import InvalidLabelling
from zetakit.paths import ballot, enumerate_paths, lattice, parse_path, signed_ballot
from zetakit.signedperm import SignedPermutation
from zetakit.stats import (
    _pair_count,
    _pair_forms,
    area,
    area_prime,
    dinv_b_experimental,
    dinv_c,
    dinv_c_prime,
    dinv_c_prime_forms,
)
from zetakit.torus import VertPath, enumerate_vert
from zetakit.typespec import type_spec
from zetakit.zeta import area_vector, zeta_labelled, zeta_path

from oracles import (
    C_LABELS,
    C_PATH,
    C_ZETA,
    area_by_boxes,
    area_by_ideal,
    area_prime_by_boxes,
    dinv_c_by_cases,
    sp,
)


def test_area_golden():
    assert area(parse_path(C_ZETA, ballot(12)), "C") == 9
    assert area(parse_path("N" * 12, ballot(12)), "C") == 36
    assert area(parse_path("N" * 12, ballot(12)), "B") == 36
    assert area(parse_path("N" * 9, signed_ballot(5)), "D") == 20


@pytest.mark.parametrize("n", range(1, 6))
def test_area_matches_box_count(n):
    for q in enumerate_paths(ballot(2 * n)):
        assert area(q, "C") == area_by_boxes(q)


@pytest.mark.parametrize("lt,n", [
    ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6),
    ("C", 1), ("C", 2), ("C", 3), ("C", 4), ("C", 5), ("C", 6),
    ("D", 2), ("D", 3), ("D", 4), ("D", 5), ("D", 6),
])
def test_area_matches_ideal_count(lt, n):
    kind = signed_ballot(n) if lt == "D" else ballot(2 * n)
    for q in enumerate_paths(kind):
        assert area(q, lt) == area_by_ideal(q, lt), q


def test_area_prime_golden():
    q = parse_path(C_ZETA, ballot(12))
    assert area_prime(q, sp(-2, 1, 3, 4, 6, 5), "C") == 6
    neg = SignedPermutation(tuple(-i for i in range(1, 7)))
    assert area_prime(parse_path("N" * 12, ballot(12)), neg, "C") == 0
    with pytest.raises(InvalidLabelling):
        area_prime(q, sp(1, -2, 3, 4, 6, 5), "C")


@pytest.mark.parametrize("n", range(1, 4))
def test_area_prime_matches_box_count(n):
    from zetakit.rootposet import diag_validate
    from zetakit.signedperm import weyl_group

    for q in enumerate_paths(ballot(2 * n)):
        for w in weyl_group("C", n):
            if diag_validate(q, w, "C"):
                assert area_prime(q, w, "C") == area_prime_by_boxes(q, w)


def test_area_prime_bounded_by_area():
    for vp in enumerate_vert("C", 3):
        q, w = zeta_labelled(vp, "C")
        assert area_prime(q, w, "C") <= area(q, "C")


def test_dinv_golden():
    p = parse_path(C_PATH, lattice(6, 6))
    assert dinv_c(p) == 9
    assert dinv_c_prime(VertPath(p, sp(*C_LABELS))) == 6


@pytest.mark.parametrize("n", range(1, 6))
def test_dinv_staircase(n):
    steps = "EN" * n
    p = parse_path(steps, lattice(n, n))
    assert dinv_c(p) == n * n


@pytest.mark.parametrize("n", range(1, 6))
def test_dinv_equals_area_of_image(n):
    for p in enumerate_paths(lattice(n, n)):
        assert dinv_c(p) == area(zeta_path(p, "C"), "C")


@pytest.mark.parametrize("n", range(1, 7))
def test_dinv_counts_the_four_comparisons(n):
    for p in enumerate_paths(lattice(n, n)):
        assert dinv_c(p) == dinv_c_by_cases(p)


@pytest.mark.parametrize("lt,n", [(lt, n) for lt in "BC" for n in range(type_spec(lt).min_rank, 8)])
def test_pair_count_equals_the_pair_forms(lt, n):
    # the counted rule (dinv_c, dinv_b_experimental) and the listed one
    # (dinv_c_prime_forms) are two statements of one rule
    for p in type_spec(lt).sources(n):
        rho = tuple(reversed(area_vector(p, lt)))
        assert _pair_count(rho) == len(_pair_forms(rho))
        if lt == "C":
            assert dinv_c(p) == len(dinv_c_prime_forms(p))


@pytest.mark.parametrize("n", range(1, 4))
def test_refined_dinv_equals_refined_area(n):
    for vp in enumerate_vert("C", n):
        q, w = zeta_labelled(vp, "C")
        assert dinv_c_prime(vp) == area_prime(q, w, "C")


def test_dinv_b_experimental_smoke():
    # dinv = area after zeta, on every source path of B2-B7
    spec = type_spec("B")
    for n in range(2, 8):
        for p in spec.sources(n):
            assert dinv_b_experimental(p) == area(zeta_path(p, "B"), "B"), p
