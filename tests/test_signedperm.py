import itertools

import pytest
from hypothesis import given, strategies as st

from zetakit.errors import NotBijective, RankMismatch
from zetakit.signedperm import (
    SignedPermutation,
    weyl_group,
)

from oracles import sp


def windows(max_n=6):
    return (
        st.integers(min_value=1, max_value=max_n)
        .flatmap(lambda n: st.permutations(list(range(1, n + 1))).flatmap(
            lambda p: st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n).map(
                lambda signs: tuple(s * v for s, v in zip(signs, p))
            )
        ))
    )


def test_window_validation():
    with pytest.raises(NotBijective):
        SignedPermutation((1, 1, 3))
    with pytest.raises(NotBijective):
        SignedPermutation((0, 1))


def test_compose_golden():
    u = sp(1, -5, -4, 2, 3, 6)
    tau = sp(-6, -5, -4, -3, -2, -1)
    sigma = sp(3, -6, -2, 4, -1, 5)
    assert u.compose(tau).compose(sigma) == sp(-2, 1, 3, 4, 6, 5)


def test_identity_and_inverse():
    w = sp(3, -1, 2)
    assert SignedPermutation.identity(3).compose(w) == w
    assert w.compose(w.inverse()) == SignedPermutation.identity(3)


def test_sign_changes_and_parity():
    assert sp(-3, 5, -1, 4, 2).sign_changes() == 2
    assert sp(-3, 5, -1, 4, 2).is_even()
    assert sp(1, 3, -2, -5, -4, 6).sign_changes() == 3
    assert not sp(1, 3, -2, -5, -4, 6).is_even()
    assert SignedPermutation.identity(4).sign_changes() == 0


def test_act_golden():
    assert sp(1, -5, -4, 2, 3, 6).act((0, 4, 4, 4, 4, 4)) == (0, 4, 4, -4, -4, 4)
    x = (7, -2, 5)
    assert SignedPermutation.identity(3).act(x) == x


def test_rank_mismatch():
    with pytest.raises(RankMismatch):
        sp(1, 2).compose(sp(1, 2, 3))
    with pytest.raises(RankMismatch):
        sp(1, 2).act((1, 2, 3))


def test_extended_evaluation():
    w = sp(2, -3, 1)
    assert w(0) == 0
    assert w(-2) == 3
    with pytest.raises(RankMismatch):
        w(4)


@given(windows(), st.data())
def test_compose_compatible_with_action(w_win, data):
    w = SignedPermutation(w_win)
    n = w.n
    v = SignedPermutation(data.draw(windows(max_n=n).filter(lambda t: len(t) == n)))
    x = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
    assert w.compose(v).act(x) == w.act(v.act(x))


@given(windows(), st.data())
def test_sign_changes_parity_homomorphism(w_win, data):
    w = SignedPermutation(w_win)
    v = SignedPermutation(data.draw(windows(max_n=w.n).filter(lambda t: len(t) == w.n)))
    assert w.compose(v).sign_changes() % 2 == (w.sign_changes() + v.sign_changes()) % 2


@given(windows())
def test_inverse_roundtrip(win):
    w = SignedPermutation(win)
    assert w.inverse().inverse() == w
    assert w.compose(w.inverse()) == SignedPermutation.identity(w.n)


def test_weyl_group_sizes():
    assert len(weyl_group("C", 3)) == 48
    assert len(weyl_group("B", 3)) == 48
    assert len(weyl_group("D", 3)) == 24
    assert len(weyl_group("A", 4)) == 24
    assert len(weyl_group("B", 2)) == 8


@pytest.mark.parametrize("lt", ["A", "B", "C", "D"])
def test_weyl_group_negative_rank_is_typed(lt):
    with pytest.raises(RankMismatch):
        weyl_group(lt, -1)


def test_weyl_groups_share_elements():
    assert weyl_group("C", 3) is weyl_group("B", 3)
    ids = {id(w) for w in weyl_group("B", 3)}
    assert all(id(w) in ids for w in weyl_group("D", 3))


def _signed_windows_by_search(n: int) -> list:
    """Every window of a signed permutation of rank n, found among all
    tuples of nonzero entries, sorted as weyl_group lists them: the
    permutations in lexicographic order, each with its signs in
    itertools.product((1, -1)) order, + before - slot by slot."""
    entries = [x for x in range(-n, n + 1) if x]
    found = [w for w in itertools.product(entries, repeat=n) if sorted(map(abs, w)) == list(range(1, n + 1))]
    return sorted(found, key=lambda w: (tuple(map(abs, w)), tuple(x < 0 for x in w)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_weyl_group_lists_the_signed_windows_in_order(n):
    signed = _signed_windows_by_search(n)
    assert [w.window for w in weyl_group("B", n)] == signed
    assert [w.window for w in weyl_group("C", n)] == signed
    assert [w.window for w in weyl_group("D", n)] == [w for w in signed if sum(x < 0 for x in w) % 2 == 0]
    assert [w.window for w in weyl_group("A", n)] == [w for w in signed if min(w) > 0]


def test_weyl_group_order():
    # the permutations in lexicographic order, each with its signs in product order
    b2 = [(1, 2), (1, -2), (-1, 2), (-1, -2), (2, 1), (2, -1), (-2, 1), (-2, -1)]
    assert [w.window for w in weyl_group("B", 2)] == b2
    assert [w.window for w in weyl_group("B", 3)][8:10] == [(1, 3, 2), (1, 3, -2)]
