import random

import pytest
from hypothesis import given, strategies as st

from zetakit.affine import (
    AffinePermutation,
    coerce_affine,
    decompose,
    dominant_frame,
    dominant_frame_parts,
    from_window,
    grassmannian_companion,
    in_group,
    is_grassmannian,
    translation,
)
from zetakit.errors import LatticeViolation, MalformedToken, NotBijective, RankMismatch
from zetakit.signedperm import SignedPermutation, weyl_group

from oracles import (
    C_PRODUCT,
    C_SIGMA,
    C_T_MU,
    C_W_DOM,
    C_W_DOM_INV,
    C_W_REG,
    FRAME_WINDOWS,
    act_by_split,
    in_group_by_scan,
    inverse_by_split,
    recompose,
    sp,
)


def member(w, lt) -> bool:
    """in_group, held to the scan over the integers it replaced."""
    got = in_group(w, lt)
    assert got == in_group_by_scan(w, lt), (w, lt)
    return got


def coroot_vectors(lt, max_n=6):
    def fix(vec):
        vec = list(vec)
        if lt in ("B", "D") and sum(vec) % 2:
            vec[0] += 1
        return tuple(vec)

    return (
        st.integers(min_value=2, max_value=max_n)
        .flatmap(lambda n: st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        .map(fix)
    )


def random_window(rng, n, lt):
    q = [rng.randint(-4, 4) for _ in range(n)]
    if lt in ("B", "D") and sum(q) % 2:
        q[0] += 1
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    if lt == "D" and sum(1 for s in signs if s < 0) % 2:
        signs[0] = -signs[0]
    w = SignedPermutation(tuple(s * v for s, v in zip(signs, perm)))
    return translation(q).compose(coerce_affine(w))


def test_from_window_golden():
    w = from_window((-25, -11, 3, 17, 31, -7))
    assert w.window == C_T_MU
    assert from_window((1, 2, 3)).window == (1, 2, 3)
    with pytest.raises(NotBijective):
        from_window((1, 1, 3))


@pytest.mark.parametrize("text", ["5", "[1.5]", "[\"a\"]", "{}", "null"])
def test_from_text_rejects_non_windows(text):
    with pytest.raises(NotBijective):
        AffinePermutation.from_text(text)


@pytest.mark.parametrize("decode", [AffinePermutation.from_text, SignedPermutation.from_text], ids=["affine", "signed"])
@pytest.mark.parametrize("text", ["[1,", "", "[1 2]", "x", pytest.param("[" * 1000, id="nested")])
def test_from_text_rejects_text_that_is_not_json(decode, text):
    with pytest.raises(MalformedToken):
        decode(text)


def test_translation_golden():
    assert translation((2, 1, 0, -1, -2, 1)).window == C_T_MU
    assert translation((0, 0, 0)) == AffinePermutation.identity(3)
    assert translation((-1, 0, 0, 0, 1, 0)).window == (14, 2, 3, 4, -8, 6)


def test_translation_is_additive():
    x, y = (2, -1, 0), (1, 1, -3)
    s = tuple(a + b for a, b in zip(x, y))
    assert translation(x).compose(translation(y)) == translation(s)
    assert translation(x).act((5, 5, 5)) == (7, 4, 5)


def test_decompose_golden():
    split = decompose(from_window(C_W_DOM_INV))
    assert split.mu == (2, 1, 0, -1, -2, 1)
    assert split.sigma.window == C_SIGMA
    split = decompose(from_window((-2, 3, 4, 6, 8, 14)))
    assert split.mu == (-1, 0, 0, 0, 1, 0)
    assert split.sigma.window == (-2, 3, 4, 6, -5, 1)
    ident = decompose(AffinePermutation.identity(4))
    assert ident.mu == (0, 0, 0, 0)
    assert ident.sigma == SignedPermutation.identity(4)


def test_decompose_relations():
    w = from_window(C_W_DOM_INV)
    split = decompose(w)
    assert recompose(split) == w
    assert split.mu == tuple(-c for c in split.sigma.act(split.nu))
    assert decompose(w.inverse()).mu == split.nu


def test_compose_golden():
    d = coerce_affine(sp(-2, 1, 3, 4, 6, 5))
    w_dom = from_window(C_W_DOM)
    w_reg = d.compose(w_dom)
    assert w_reg.window == C_W_REG
    frame = dominant_frame("C", 6)
    assert w_reg.compose(frame.inverse()).window == C_PRODUCT
    assert w_reg.compose(w_reg.inverse()) == AffinePermutation.identity(6)


def test_grassmannian_golden():
    assert is_grassmannian(from_window(C_W_DOM_INV), "C")
    assert is_grassmannian(from_window((-2, 3, 4, 6, 8, 14)), "D")
    assert not is_grassmannian(from_window((2, 1, 3, 4, 5, 6)), "C")


def test_grassmannian_companion_golden():
    assert grassmannian_companion((2, 1, 0, -1, -2, 1), "C").window == C_SIGMA
    assert grassmannian_companion((-1, 2, 1, 0, -1, 3), "B").window == (4, -3, 1, 5, -2, -6)
    assert grassmannian_companion((-1, 0, 0, 0, 1, 0), "D").window == (-2, 3, 4, 6, -5, 1)
    assert grassmannian_companion((0, 0, 0), "C") == SignedPermutation.identity(3)
    with pytest.raises(LatticeViolation):
        grassmannian_companion((1, 0, 0), "D")


def test_in_group():
    for lt in ("B", "C", "D"):
        assert member(AffinePermutation.identity(5), lt)
    assert member(translation((-1, 0, 0, 0, 1, 0)), "D")
    # the one-sign-flip window generates types B and C but fails the second
    # parity set of type D
    s0 = from_window((-1, 2, 3, 4))
    assert member(s0, "B")
    assert member(s0, "C")
    assert not member(s0, "D")
    # translations by odd-sum vectors leave the type B group
    assert not member(translation((1, 0, 0, 0)), "B")
    assert not member(translation((1, 0, 0, 0)), "D")


def _generators(lt, n):
    swaps = []
    for i in range(1, n):
        win = list(range(1, n + 1))
        win[i - 1], win[i] = win[i], win[i - 1]
        swaps.append(from_window(win))
    last_c = from_window(list(range(1, n)) + [n + 1])
    last_bd = from_window(list(range(1, n - 1)) + [n + 1, n + 2])
    if lt == "C":
        return [from_window([-1] + list(range(2, n + 1)))] + swaps + [last_c]
    if lt == "B":
        return [from_window([-1] + list(range(2, n + 1)))] + swaps + [last_bd]
    return [from_window([-2, -1] + list(range(3, n + 1)))] + swaps + [last_bd]


@pytest.mark.parametrize("lt", ["B", "C", "D"])
def test_membership_closed_under_generators(lt):
    rng = random.Random(7)
    gens = _generators(lt, 4)
    for g in gens:
        assert member(g, lt)
    w = AffinePermutation.identity(4)
    for _ in range(60):
        w = w.compose(rng.choice(gens))
        assert member(w, lt)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_membership_matches_the_scan_on_random_windows(n):
    # arbitrary windows, inside the groups and out
    rng = random.Random(n)
    for _ in range(300):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        w = SignedPermutation(tuple(rng.choice((1, -1)) * v for v in perm))
        q = [rng.randint(-9, 9) for _ in range(n)]
        for lt in ("B", "C", "D"):
            member(translation(q).compose(coerce_affine(w)), lt)


def test_membership_of_a_huge_window_is_immediate():
    # w(1) = 1 + 5e has e residues i <= 2 with w(i) > 2: in the B group iff e is even
    e = 2 * 10**8
    assert in_group(from_window((1 + 5 * e, 2)), "B")
    assert not in_group(from_window((1 + 5 * (e + 1), 2)), "B")
    assert member(from_window((1 + 5 * 10, 2)), "B") and not member(from_window((1 + 5 * 11, 2)), "B")


def test_act_on_coroot_golden():
    a = from_window(C_PRODUCT)
    vec = a.act((0, 0, 0, 0, 0, 0))
    assert tuple((-c) % 13 for c in vec) == tuple(c % 13 for c in (0, 4, 4, -4, -4, 4))
    t = translation((3, -1))
    assert t.act((4, 4)) == (7, 3)


@pytest.mark.parametrize("key", sorted(FRAME_WINDOWS))
def test_frame_windows(key):
    lt, n = key
    assert dominant_frame(lt, n).window == FRAME_WINDOWS[key]


def test_frame_round_trips():
    for lt, n in [("C", 4), ("B", 4), ("B", 5), ("D", 4), ("D", 5), ("D", 6)]:
        shift, twist = dominant_frame_parts(lt, n)
        w = dominant_frame(lt, n)
        split = decompose(w)
        assert split.mu == tuple(shift)
        assert split.sigma == twist


@pytest.mark.parametrize("lt", ["B", "C", "D"])
def test_decompose_recompose_random(lt):
    rng = random.Random(20240515)
    for _ in range(250):
        n = rng.randint(2, 6)
        w = random_window(rng, n, lt)
        split = decompose(w)
        assert recompose(split) == w
        assert member(w, lt)
        gr = translation(split.mu).compose(
            coerce_affine(grassmannian_companion(split.mu, lt))
        )
        assert is_grassmannian(gr, lt)


@pytest.mark.parametrize("lt", ["B", "C", "D"])
def test_action_is_group_action_random(lt):
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(2, 5)
        a = random_window(rng, n, lt)
        b = random_window(rng, n, lt)
        x = tuple(rng.randint(-6, 6) for _ in range(n))
        assert a.compose(b).act(x) == a.act(b.act(x))
        assert a.act(a.inverse().act(x)) == x


@given(coroot_vectors("C"))
def test_companion_gives_grassmannian_c(mu):
    gr = translation(mu).compose(coerce_affine(grassmannian_companion(mu, "C")))
    assert is_grassmannian(gr, "C")


@given(coroot_vectors("D"))
def test_companion_gives_grassmannian_d(mu):
    gr = translation(mu).compose(coerce_affine(grassmannian_companion(mu, "D")))
    assert is_grassmannian(gr, "D")
    assert member(gr, "D")


def test_membership_rejects_a_window_outside_the_b_group():
    assert not member(from_window((-4, 2)), "B")


@pytest.mark.parametrize("n", range(9))
def test_act_and_inverse_read_the_window_as_the_split_does(n):
    """act and inverse, read off the window, against the same maps through
    decompose, on windows with entries shifted by up to 10^6 periods."""
    rng = random.Random(n)
    K = 2 * n + 1
    for _ in range(200):
        perm = rng.sample(range(1, n + 1), n)
        w = AffinePermutation(tuple(rng.choice((1, -1)) * v + rng.randint(-10**6, 10**6) * K for v in perm))
        x = tuple(rng.randint(-10**6, 10**6) for _ in range(n))
        assert w.inverse() == inverse_by_split(w), w
        assert w.act(x) == act_by_split(w, x), (w, x)
    with pytest.raises(RankMismatch):
        AffinePermutation.identity(n).act((0,) * (n + 1))


def _validated(w) -> AffinePermutation:
    """w rebuilt through the constructor that scans the window's residues."""
    assert type(w) is AffinePermutation
    return AffinePermutation(tuple(w.window))


@pytest.mark.parametrize("lt,n", [(lt, n) for lt in "BCD" for n in range(2, 5)])
def test_compose_and_inverse_build_what_the_validating_constructor_builds(lt, n):
    # every window of the finite group, moved off it by the frame element
    frame = dominant_frame(lt, n)
    shift = translation(range(n))
    for u in weyl_group(lt, n):
        w = frame.compose(coerce_affine(u))
        for built in (w, w.inverse(), w.compose(shift), shift.compose(w), w.compose(w.inverse())):
            valid = _validated(built)
            assert built == valid and hash(built) == hash(valid)
            assert built.window == valid.window and isinstance(built.window, tuple)


@pytest.mark.parametrize("window", [(1, 1), (1, 6), (2, -2), (0, 1), (3, 4, 11)])
def test_a_malformed_window_still_raises(window):
    with pytest.raises(NotBijective):
        AffinePermutation(window)
    with pytest.raises(NotBijective):
        from_window(window)
