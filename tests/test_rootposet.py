import itertools
from operator import attrgetter

import pytest

from zetakit import rootposet
from zetakit.errors import InvalidLabelling, NotAntichain, RankMismatch, TypeMismatch
from zetakit.paths import ballot, enumerate_paths, parse_path, signed_ballot
from zetakit.rootposet import (
    Root,
    antichain_to_ballot,
    ballot_to_antichain,
    diag_validate,
    is_antichain,
    parse_root,
    poset_leq,
    positive_roots,
    root_form,
    root_from_vector,
    to_parking_function,
    to_vector,
)
from zetakit.signedperm import passes, weyl_group
from zetakit.typespec import type_spec

from oracles import (
    B_ANTICHAIN,
    C_ANTICHAIN,
    D_ANTICHAINS,
    antichain_to_ballot_by_search,
    ballot_to_antichain_by_cases,
    count_antichains,
    diag_validate_by_valleys,
    is_positive_root_vector,
    leq_by_definition,
    reflection,
    sp,
    upsets_by_covers,
)


def roots(lt, *texts):
    return tuple(sorted(parse_root(t, lt) for t in texts))


def test_parse_and_render_roots():
    for text in ("e5-e3", "e3+e1", "2e2", "e3"):
        lt = "C" if text != "e3" else "B"
        assert str(parse_root(text, lt)) == text
    with pytest.raises(TypeMismatch):
        parse_root("e3", "C")
    with pytest.raises(TypeMismatch):
        parse_root("2e3", "D")


def test_root_repr_and_order():
    assert repr(Root("C", "diff", 1, 2)) == "Root(lattice_type='C', kind='diff', i=1, j=2)"
    assert Root("C", "long", 2) == Root("C", "long", 2, 0)
    # antichains and wall images are sorted by (lattice_type, kind, i, j)
    mixed = [r for lt in "DCB" for r in reversed(positive_roots(lt, 4))]
    assert sorted(mixed) == sorted(mixed, key=attrgetter("lattice_type", "kind", "i", "j"))
    a, b = Root("C", "diff", 1, 3), Root("C", "diff", 2, 3)
    assert (a < b, a <= b, a > b, a >= b, b > a, b >= a, a <= a) == (True, True, False, False, True, True, True)


def test_positive_root_counts():
    assert len(positive_roots("B", 4)) == 16
    assert len(positive_roots("C", 4)) == 16
    assert len(positive_roots("D", 4)) == 12


def test_poset_golden():
    a = parse_root("e2-e1", "C")
    top = parse_root("2e6", "C")
    assert poset_leq(a, top)
    assert poset_leq(a, a)
    x = parse_root("e3-e2", "C")
    y = parse_root("e2+e1", "C")
    assert not poset_leq(x, y) and not poset_leq(y, x)
    with pytest.raises(TypeMismatch):
        poset_leq(parse_root("e2-e1", "C"), parse_root("e2-e1", "B"))


@pytest.mark.parametrize("lt,n", [
    ("B", 3), ("C", 3), ("D", 4), ("B", 4), ("C", 4),
    ("B", 2), ("B", 5), ("C", 1), ("C", 2), ("C", 5), ("D", 2), ("D", 3), ("D", 5),
])
def test_poset_matches_definition(lt, n):
    """The suffix-sum order agrees with the search over sums of positive
    roots and with the search over covers."""
    allr = positive_roots(lt, n)
    ups = upsets_by_covers(lt, n)
    for a, b in itertools.product(allr, repeat=2):
        assert poset_leq(a, b) == leq_by_definition(a, b, n) == (b in ups[a]), (a, b)


def test_ballot_to_antichain_golden():
    p = parse_path("NNENENNENENE", ballot(12))
    assert ballot_to_antichain(p, "C") == roots("C", *C_ANTICHAIN)
    text, n, want = B_ANTICHAIN
    assert ballot_to_antichain(parse_path(text, ballot(12)), "B") == roots("B", *want)
    for text, n, want in D_ANTICHAINS:
        p = parse_path(text, signed_ballot(n))
        assert ballot_to_antichain(p, "D") == roots("D", *want)


def test_antichain_to_ballot_golden():
    assert antichain_to_ballot((), "C", 3).text == "NNNNNN"
    text, n, want = D_ANTICHAINS[0]
    assert antichain_to_ballot(roots("D", *want), "D", n).text == text
    with pytest.raises(NotAntichain):
        antichain_to_ballot(roots("C", "e2-e1", "e3-e1"), "C", 3)


@pytest.mark.parametrize("lt,n", [("C", 3), ("C", 5), ("B", 4), ("D", 4), ("D", 5)])
def test_antichain_roundtrip(lt, n):
    kind = signed_ballot(n) if lt == "D" else ballot(2 * n)
    for p in enumerate_paths(kind):
        A = ballot_to_antichain(p, lt)
        assert is_antichain(A, n)
        assert antichain_to_ballot(A, lt, n) == p


@pytest.mark.parametrize("lt,n", [
    ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6),
    ("C", 1), ("C", 2), ("C", 3), ("C", 4), ("C", 5), ("C", 6),
    ("D", 2), ("D", 3), ("D", 4), ("D", 5), ("D", 6),
])
def test_antichain_to_ballot_matches_search(lt, n):
    kind = signed_ballot(n) if lt == "D" else ballot(2 * n)
    for p in enumerate_paths(kind):
        A = ballot_to_antichain(p, lt)
        assert antichain_to_ballot(A, lt, n) == antichain_to_ballot_by_search(A, lt, n) == p


@pytest.mark.parametrize("lt", "BCD")
def test_ballot_to_antichain_is_the_case_by_case_rule(lt):
    # the valley table against every case written out, on every target
    spec = type_spec(lt)
    for n in range(spec.min_rank, 8):
        for p in spec.targets(n):
            assert ballot_to_antichain(p, lt) == ballot_to_antichain_by_cases(p, lt), p


@pytest.mark.parametrize("lt", "BCD")
def test_each_positive_root_has_its_own_valley(lt):
    for n in range(type_spec(lt).min_rank, 9):
        table = rootposet._lookup(lt, n, rootposet._valley)
        assert len(table) == len(positive_roots(lt, n)) == (n * (n - 1) if lt == "D" else n * n)


@pytest.mark.parametrize("lt", "BCD")
def test_root_from_vector_inverts_to_vector(lt):
    for n in range(1, 7):
        for r in positive_roots(lt, n):
            assert root_from_vector(to_vector(r, n), lt) == r


@pytest.mark.parametrize("vec,lt", [
    ((0, 0, 0), "C"), ((1, 1, 1), "B"), ((1, -1), "C"), ((-1, 0), "B"), ((0, -2), "C"),
    ((1, 0), "C"), ((2, 0), "B"), ((0, 1), "D"), ((2, 2), "C"), ((1, 2), "C"), ((1, 1), "A"),
    ((), "B"),
])
def test_root_from_vector_refuses_non_roots(vec, lt):
    with pytest.raises(TypeMismatch):
        root_from_vector(vec, lt)


@pytest.mark.parametrize("call,error", [
    (lambda: is_antichain(roots("C", "e5-e1", "2e1"), 3), RankMismatch),
    (lambda: is_antichain(roots("B", "e2-e1") + roots("C", "2e1"), 3), TypeMismatch),
    (lambda: antichain_to_ballot((), "C", 0), RankMismatch),
    (lambda: antichain_to_ballot((), "D", 1), RankMismatch),
    (lambda: antichain_to_ballot(roots("C", "e4-e1"), "C", 3), RankMismatch),
    (lambda: antichain_to_ballot(roots("B", "e2-e1"), "C", 3), TypeMismatch),
    (lambda: antichain_to_ballot(roots("D", "e3+e2"), "D", 2), RankMismatch),
    # a diff or sum root needs i < j, a long or short root j = 0
    (lambda: Root("B", "diff", 2, 2), TypeMismatch),
    (lambda: Root("C", "sum", 3, 3), TypeMismatch),
    (lambda: Root("C", "long", 1, 2), TypeMismatch),
])
def test_roots_outside_the_rank_or_type(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("lt,n", [("C", 4), ("B", 4), ("C", 5), ("C", 6)])
def test_ballot_count_equals_antichain_count(lt, n):
    kind = ballot(2 * n)
    npaths = sum(1 for _ in enumerate_paths(kind))
    assert npaths == count_antichains(lt, n)


def test_antichain_count_type_d():
    # signed ballot paths match antichains one to one
    n = 4
    npaths = sum(1 for _ in enumerate_paths(signed_ballot(n)))
    assert npaths == count_antichains("D", n)


def test_diag_validate_golden():
    p = parse_path("NNENENNENENE", ballot(12))
    assert diag_validate(p, sp(-2, 1, 3, 4, 6, 5), "C")
    bad = sp(1, -2, 3, 4, 6, 5)
    assert not diag_validate(p, bad, "C")
    text, n, _ = B_ANTICHAIN
    assert diag_validate(parse_path(text, ballot(12)), sp(2, 4, 1, 3, 5, 6), "B")
    first = parse_path("NNENNENNE", signed_ballot(5))
    assert diag_validate(first, sp(-3, 5, -1, 4, 2), "D")
    # odd number of sign changes can never label a type D path
    assert not diag_validate(first, sp(3, 5, -1, 4, 2), "D")
    third = parse_path("NENNENENE-", signed_ballot(5))
    assert diag_validate(third, sp(-2, -1, 3, 4, 5), "D")


def test_parking_function_golden():
    p = parse_path("NNENENNENENE", ballot(12))
    pf = to_parking_function(p, sp(-2, 1, 3, 4, 6, 5), "C")
    assert pf.antichain == roots("C", *C_ANTICHAIN)
    with pytest.raises(InvalidLabelling):
        to_parking_function(p, sp(1, -2, 3, 4, 6, 5), "C")


@pytest.mark.parametrize("lt,n", [("C", 2), ("C", 3), ("B", 2), ("D", 3)])
def test_diag_iff_positive_image(lt, n):
    """The inequality systems say exactly that the labels send the
    antichain into the positive roots."""
    kind = signed_ballot(n) if lt == "D" else ballot(2 * n)
    group = weyl_group(lt, n)
    for p in enumerate_paths(kind):
        anti = ballot_to_antichain(p, lt)
        vecs = [to_vector(r, n) for r in anti]
        for w in group:
            expected = all(is_positive_root_vector(w.act(v)) for v in vecs)
            assert diag_validate(p, w, lt) == expected


@pytest.mark.parametrize("lt,n", [
    ("C", 1), ("C", 2), ("C", 3), ("C", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("D", 2), ("D", 3), ("D", 4),
])
def test_diag_validate_matches_valley_oracle(lt, n):
    """Antichain positivity agrees with the per-type valley inequalities on
    every ballot path and every signed permutation, odd ones included."""
    kind = signed_ballot(n) if lt == "D" else ballot(2 * n)
    group = weyl_group("B", n)
    for p in enumerate_paths(kind):
        for w in group:
            assert diag_validate(p, w, lt) == diag_validate_by_valleys(p, w, lt), (p, w)


@pytest.mark.parametrize("lt", "BCD")
def test_positivity_rule_matches_root_vectors(lt):
    for n in range(2, 5):
        for r in positive_roots(lt, n):
            vec = to_vector(r, n)
            for w in weyl_group(lt, n):
                assert passes(w.window, [root_form(r)]) == is_positive_root_vector(w.act(vec)), (r, w)


def test_park_count_c3():
    count = 0
    for p in enumerate_paths(ballot(6)):
        for w in weyl_group("C", 3):
            if diag_validate(p, w, "C"):
                count += 1
    assert count == 7 ** 3


def test_parking_canonical_representative():
    for p in enumerate_paths(ballot(6)):
        for w in weyl_group("C", 3):
            if diag_validate(p, w, "C"):
                pf = to_parking_function(p, w, "C")
                assert all(
                    is_positive_root_vector(w.act(to_vector(r, 3))) for r in pf.antichain
                )


def test_reflection_windows():
    assert reflection(parse_root("e3-e1", "C"), 3).window == (3, 2, 1)
    assert reflection(parse_root("e2+e1", "D"), 3).window == (-2, -1, 3)
    assert reflection(parse_root("2e2", "C"), 3).window == (1, -2, 3)
    assert reflection(parse_root("e3", "B"), 3).window == (1, 2, -3)
    r = parse_root("e4-e2", "B")
    w = reflection(r, 4)
    assert w.act(to_vector(r, 4)) == tuple(-c for c in to_vector(r, 4))
