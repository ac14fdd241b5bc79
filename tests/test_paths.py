import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from zetakit.affine import affine_from_json
from zetakit.errors import CapExceeded, MalformedToken, RankMismatch, ShapeViolation, ZetakitError
from zetakit.paths import (
    ballot,
    count_paths,
    east_counts,
    enumerate_paths,
    lattice,
    lift_signed,
    make_path,
    parse_path,
    path_from_json,
    path_to_json,
    render_path,
    rises,
    segment,
    sign_of,
    signed_ballot,
    signed_lattice,
    strip_signs,
    unsigned,
    valleys,
)
from zetakit.torus import torus_from_json

from oracles import enumerate_paths_by_recursion


def test_parse_golden_square():
    p = parse_path("NEEEENNNNNEE", lattice(6, 6))
    assert len(p.steps) == 12
    assert sign_of(p) == 1
    assert render_path(p) == "NEEEENNNNNEE"


def test_parse_golden_signed():
    p = parse_path("E-EENNNNNE", signed_lattice(5))
    assert sign_of(p) == -1
    assert p.sign_pos == 0
    assert render_path(p) == "E-EENNNNNE"


def test_parse_ballot_prefix_violation():
    with pytest.raises(ShapeViolation):
        parse_path("EN", ballot(2))


def test_parse_bad_token():
    with pytest.raises(MalformedToken):
        parse_path("NXE", lattice(1, 1))


def test_parse_shape_errors():
    with pytest.raises(ShapeViolation):
        parse_path("NNEE", lattice(3, 1))
    with pytest.raises(ShapeViolation):
        # a leading East step of a signed kind must carry a sign
        parse_path("EENNNNNE", signed_lattice(4))
    with pytest.raises(ShapeViolation):
        # the sign may only sit on the leading East step
        parse_path("NE-NN", signed_lattice(3))
    with pytest.raises(ShapeViolation):
        parse_path("NNE", signed_ballot(2))


@pytest.mark.parametrize("text,kind,message", [
    ("NE-NNENENE", signed_lattice(5), "no signed step allowed at position 2 for signed_lattice(5)"),
    ("NE+EENN", lattice(3, 3), "no signed step allowed at position 2 for lattice(3,3)"),
    ("NNE+NN", signed_ballot(3), "no signed step allowed at position 3 for signed_ballot(3)"),
    ("NNE+NE", signed_ballot(3), "the East step at position 5 must carry a sign"),
    ("EEENNNNNE", signed_lattice(5), "the East step at position 1 must carry a sign"),
    ("NNE", signed_ballot(2), "the East step at position 3 must carry a sign"),
    ("E-NE+NN", signed_lattice(3), "at most one signed step is allowed"),
])
def test_misplaced_sign_messages_count_from_one(text, kind, message):
    with pytest.raises(ShapeViolation) as exc:
        parse_path(text, kind)
    assert str(exc.value) == message


def test_rises_golden():
    assert rises(parse_path("NEEEENNNNNEE", lattice(6, 6))) == [2, 3, 4, 5]
    assert rises(parse_path("NNNNEENENEEE", lattice(6, 6))) == [1, 2, 3]
    assert rises(parse_path("NENENE", lattice(3, 3))) == []


def test_valleys_golden():
    assert valleys(parse_path("NNENENNENENE", ballot(12))) == [
        (1, 3), (2, 4), (3, 6), (4, 7), (5, 8)]
    assert valleys(parse_path("NENNNE", ballot(6))) == [(1, 2), (2, 5)]
    assert valleys(parse_path("NNNN", ballot(4))) == []
    # no trailing convention for lattice kinds
    assert valleys(parse_path("NNNNEENENEEE", lattice(6, 6))) == [(2, 5), (3, 6)]


def test_east_counts_golden():
    assert east_counts(parse_path("NEEEENNNNNEE", lattice(6, 6))) == (0, 4, 4, 4, 4, 4)
    assert east_counts(parse_path("E+NNENENEENN", signed_lattice(6))) == (1, 1, 2, 3, 5, 5)
    assert east_counts(parse_path("NNNN", lattice(0, 4))) == (0, 0, 0, 0)


def test_segment_golden():
    mu = (2, 1, 0, -1, -2, 1)
    assert segment("right_to_left", -1, 0, mu) == "EN"
    assert segment("left_to_right", 1, 1, mu) == "ENN"
    assert segment("left_to_right", 1, 4, mu) == ""


def test_enumerate_signed_small():
    got = [render_path(p) for p in enumerate_paths(signed_lattice(2))]
    assert got == ["E+NN", "E-NN", "NEN", "NNE"]
    got = [render_path(p) for p in enumerate_paths(signed_ballot(2))]
    assert got == ["NEN", "NNE+", "NNE-", "NNN"]


@pytest.mark.parametrize("n", range(1, 9))
def test_counts_match_binomials(n):
    assert count_paths(lattice(n, n)) == math.comb(2 * n, n)
    assert count_paths(ballot(2 * n)) == math.comb(2 * n, n)
    assert count_paths(lattice(n - 1, n)) == math.comb(2 * n - 1, n - 1)
    assert count_paths(ballot(2 * n - 1)) == math.comb(2 * n - 1, n - 1)


@pytest.mark.parametrize("kind", [
    lattice(3, 3), lattice(2, 3), ballot(6), ballot(7),
    signed_lattice(3), signed_ballot(3),
])
def test_enumeration_complete_and_sorted(kind):
    seen = [render_path(p) for p in enumerate_paths(kind)]
    assert len(seen) == len(set(seen)) == count_paths(kind)
    assert seen == sorted(seen)


@pytest.mark.parametrize("kind", (
    [lattice(a, b) for a in range(7) for b in range(7)]
    + [ballot(length) for length in range(15)]
    + [make(n) for n in range(1, 9) for make in (signed_lattice, signed_ballot)]
), ids=str)
def test_enumeration_matches_the_oracle_recursion(kind):
    assert list(enumerate_paths(kind)) == enumerate_paths_by_recursion(kind)


@pytest.mark.parametrize("make", [signed_lattice, signed_ballot])
@pytest.mark.parametrize("n", range(1, 7))
def test_every_unsigned_path_lifts_once_or_twice(make, n):
    kind = make(n)
    lifts = Counter((strip_signs(q), sign_of(q)) for q in enumerate_paths(kind))
    assert set(lifts.values()) == {1}
    for p in enumerate_paths(unsigned(kind)):
        plus = lift_signed(p)
        assert (p, 1) in lifts and strip_signs(plus) == p and sign_of(plus) == 1
        # a -1 lift exactly when the path has a signed slot
        assert ((p, -1) in lifts) == (plus.sign_pos is not None)


@pytest.mark.parametrize("make", [signed_lattice, signed_ballot])
@pytest.mark.parametrize("n", range(1, 6))
def test_make_path_places_the_sign_at_the_slot(make, n):
    kind = make(n)
    for q in enumerate_paths(kind):
        assert make_path(q.steps, kind, q.sign) == q
        minus = make_path(q.steps, kind, -1)
        if q.sign_pos is None:
            # no slot: the sign is ignored
            assert minus == q and sign_of(minus) == 1
        else:
            assert minus.sign_pos == q.sign_pos and render_path(minus).count("E-") == 1
            assert parse_path(render_path(minus), kind) == minus


def test_make_path_golden_slots():
    assert render_path(make_path("EEENNNNNE", signed_lattice(5), -1)) == "E-EENNNNNE"
    assert render_path(make_path("NENNENENE", signed_lattice(5), -1)) == "NENNENENE"
    assert render_path(make_path("NENNENENE", signed_ballot(5), -1)) == "NENNENENE-"
    assert render_path(make_path("NNENN", signed_ballot(3), -1)) == "NNENN"
    assert render_path(make_path("NNEE", lattice(2, 2), -1)) == "NNEE"
    with pytest.raises(ShapeViolation):
        make_path("EEENNNNNE", signed_lattice(5), 0)


@pytest.mark.parametrize("kind", [ballot(-1), lattice(-1, 2), lattice(2, -1), signed_lattice(0), signed_ballot(0)],
                         ids=str)
def test_negative_kinds_are_shape_violations(kind):
    with pytest.raises(ShapeViolation):
        count_paths(kind)
    with pytest.raises(ShapeViolation):
        enumerate_paths(kind)


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv("ZETAKIT_CAP", "100")
    with pytest.raises(CapExceeded):
        list(enumerate_paths(lattice(20, 20)))


@pytest.mark.parametrize("kind", [
    lattice(4, 4), ballot(8), signed_lattice(4), signed_ballot(4),
])
def test_parse_render_roundtrip(kind):
    for p in enumerate_paths(kind):
        assert parse_path(render_path(p), kind) == p
        assert path_from_json(path_to_json(p)) == p


@pytest.mark.parametrize("n", range(2, 7))
def test_valley_invariants(n):
    for p in enumerate_paths(ballot(2 * n)):
        vs = valleys(p)
        k = sum(1 for s in p.steps if s == "E")
        m = len(p.steps) - k
        assert len(vs) <= k + 1
        for i, j in vs:
            assert 1 <= i <= k
            assert i < j <= m + 1
        assert [v[0] for v in vs] == sorted({v[0] for v in vs})


def test_east_counts_weakly_increasing():
    for p in enumerate_paths(lattice(4, 4)):
        pi = east_counts(p)
        assert all(a <= b for a, b in zip(pi, pi[1:]))
        assert pi[-1] <= 4


def test_strip_signs_kinds():
    p = parse_path("E-EENNNNNE", signed_lattice(5))
    q = strip_signs(p)
    assert q.kind == lattice(4, 5)
    assert sign_of(q) == 1
    b = parse_path("NNE-", signed_ballot(2))
    assert strip_signs(b).kind == ballot(3)


@given(st.integers(min_value=1, max_value=6), st.data())
def test_signed_counts_agree(n, data):
    # the two signed families are equinumerous rank by rank
    assert count_paths(signed_lattice(n + 1)) == count_paths(signed_ballot(n + 1))
    k = data.draw(st.integers(min_value=0, max_value=n))
    assert count_paths(lattice(k, n)) == math.comb(n + k, k)


@pytest.mark.parametrize("decode,d", [
    (path_from_json, {"kind": "lattice"}),
    (path_from_json, {}),
    (torus_from_json, {}),
    (torus_from_json, {"type": "C"}),
    (affine_from_json, {"window": [1]}),
    (affine_from_json, []),
])
def test_json_missing_key_is_malformed(decode, d):
    with pytest.raises(MalformedToken):
        decode(d)


@pytest.mark.parametrize("decode,d", [
    (torus_from_json, {"type": "C", "coords": [1.5]}),
    (torus_from_json, {"type": "C", "coords": [True, False]}),
    (torus_from_json, {"type": "C", "coords": 5}),
    (torus_from_json, {"type": "C", "coords": ["a"]}),
    (torus_from_json, {"type": ["C"], "coords": [1]}),
    (path_from_json, {"kind": "lattice", "a": "x", "b": 1, "steps": "EN"}),
    (path_from_json, {"kind": "lattice", "a": 1, "b": 1, "steps": 5}),
    (path_from_json, {"kind": "lattice", "a": 1.0, "b": 1, "steps": "EN"}),
    (path_from_json, {"kind": "ballot", "len": True, "steps": "N"}),
    (affine_from_json, {"type": "C", "window": "ab"}),
    (affine_from_json, {"type": "C", "n": "1", "window": [1]}),
])
def test_json_value_of_wrong_type_is_malformed(decode, d):
    with pytest.raises(MalformedToken):
        decode(d)


@pytest.mark.parametrize("decode,d,error", [
    (affine_from_json, {"type": "X", "window": [1]}, MalformedToken),
    (affine_from_json, {"type": "A", "window": [1]}, MalformedToken),
    (torus_from_json, {"type": "X", "coords": [1]}, MalformedToken),
    (torus_from_json, {"type": "A", "coords": [1]}, MalformedToken),
    (affine_from_json, {"type": "B", "window": []}, RankMismatch),
    (affine_from_json, {"type": "D", "window": [1]}, RankMismatch),
    (torus_from_json, {"type": "D", "coords": [1]}, RankMismatch),
])
def test_json_type_and_rank_are_checked(decode, d, error):
    with pytest.raises(error):
        decode(d)


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-12, 12),
    st.floats(allow_nan=False),
    st.sampled_from(["A", "B", "C", "D", "X", "", "lattice", "ballot", "signed_lattice", "signed_ballot",
                     "NNEE", "NENE", "E+NN", "E-NEN", "NNE-"]),
    st.text(max_size=4),
)
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: st.lists(inner, max_size=5), max_leaves=8)
_JSON_OBJECTS = st.dictionaries(
    st.sampled_from(["type", "n", "window", "coords", "kind", "a", "b", "len", "steps", "mod"]),
    st.one_of(_JSON_VALUES, st.lists(st.integers(-12, 12), max_size=5)),
    max_size=6,
)


@given(st.sampled_from([path_from_json, affine_from_json, torus_from_json]),
       st.one_of(_JSON_OBJECTS, _JSON_VALUES))
def test_json_decoders_decode_or_raise_typed(decode, d):
    try:
        decode(d)
    except ZetakitError:
        pass
