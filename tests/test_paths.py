import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from zetakit.errors import CapExceeded, MalformedToken, ShapeViolation
from zetakit.paths import (
    Path,
    PathKind,
    ballot,
    count_paths,
    east_counts,
    enumerate_paths,
    lattice,
    lift_signed,
    make_path,
    parse_path,
    path_to_json,
    render_path,
    rises,
    sign_of,
    signed_ballot,
    signed_lattice,
    strip_signs,
    unsigned,
    valleys,
)

from oracles import enumerate_paths_by_recursion, segment
from zetakit.typespec import type_spec


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


@pytest.mark.parametrize("kind", [lattice(2, 3), ballot(5), signed_lattice(3), signed_ballot(3)])
def test_paths_and_kinds_are_values(kind):
    # equal and hashed by their fields: a path built from a kind made anew
    # equals the enumerated path, and a set holds them once
    same_kind = PathKind(kind.shape, tuple(kind.params))
    assert same_kind == kind and hash(same_kind) == hash(kind) and same_kind is not kind
    for p in enumerate_paths(kind):
        q = make_path(list(p.steps), same_kind, p.sign)
        assert q == p and not q != p and hash(q) == hash(p) and q is not p
        assert len({p, q}) == 1 and {p: 1}[q] == 1
        # never equal to a tuple of the same fields
        assert p != (p.steps, p.kind, p.sign) and p != p.steps
    assert kind != (kind.shape, kind.params)
    assert lattice(2, 3) != lattice(3, 2) and ballot(5) != signed_ballot(5)


def test_paths_and_kinds_format_as_text():
    p = parse_path("NNNE-E", signed_ballot(3))
    assert "%s" % p.kind == str(p.kind) == "signed_ballot(3)"
    assert "%s" % p == str(p) == p.text == "NNNE-E"
    assert "%s at %s" % (p, p.kind) == "NNNE-E at signed_ballot(3)"
    assert repr(p) == (
        "Path(steps='NNNEE', kind=PathKind(shape='signed_ballot', params=(3,)), sign=-1)"
    )
    assert repr(lattice(2, 3)) == "PathKind(shape='lattice', params=(2, 3))"
    assert Path(p.steps, p.kind, p.sign) == p != Path(p.steps, p.kind)


def test_parse_ballot_prefix_violation():
    with pytest.raises(ShapeViolation):
        parse_path("EN", ballot(2))


def test_parse_bad_token():
    with pytest.raises(MalformedToken):
        parse_path("NXE", lattice(1, 1))


@pytest.mark.parametrize("text,position", [("NXEE", 2), ("N N XE", 5)])
def test_bad_token_position_counts_from_one_in_the_text_as_given(text, position):
    with pytest.raises(MalformedToken) as exc:
        parse_path(text, lattice(2, 2))
    assert str(exc.value) == "unexpected character 'X' at position %d" % position


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
    ("NE-NNENENE", signed_lattice(5), "no signed step allowed at step 2 for signed_lattice(5)"),
    ("NE+EENN", lattice(3, 3), "no signed step allowed at step 2 for lattice(3,3)"),
    ("NNE+NN", signed_ballot(3), "no signed step allowed at step 3 for signed_ballot(3)"),
    ("NNE+NE", signed_ballot(3), "step 5 must be a signed East step"),
    ("EEENNNNNE", signed_lattice(5), "step 1 must be a signed East step"),
    ("NNE", signed_ballot(2), "step 3 must be a signed East step"),
    ("E-NE+NN", signed_lattice(3), "at most one signed step is allowed"),
    # steps are counted, not characters: E+ is the third character here
    ("N E+EENN", lattice(3, 3), "no signed step allowed at step 2 for lattice(3,3)"),
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
    # the rank-8 kinds that the benchmark and CI walk
    + [lattice(8, 8), lattice(7, 8), ballot(16), ballot(15)]
), ids=str)
def test_enumeration_matches_the_oracle_recursion(kind):
    # the slot is read off the word, and equals the slot the oracle places
    got = list(enumerate_paths(kind))
    assert [(p, p.sign_pos) for p in got] == enumerate_paths_by_recursion(kind)
    for p in got:
        assert type(p.steps) is str and (p.sign_pos is not None or p.sign == 1)
        assert parse_path(render_path(p), kind) == p


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
    with pytest.raises(ShapeViolation, match="negative number of steps"):
        make_path((), kind)
    with pytest.raises(ShapeViolation, match="negative number of steps"):
        parse_path("", kind)


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv("ZETAKIT_CAP", "100")
    # raised by the call itself, before the stream is iterated
    with pytest.raises(CapExceeded):
        enumerate_paths(lattice(20, 20))


@pytest.mark.parametrize("kind", [
    lattice(4, 4), ballot(8), signed_lattice(4), signed_ballot(4),
])
def test_parse_render_roundtrip(kind):
    for p in enumerate_paths(kind):
        assert parse_path(render_path(p), kind) == p
        d = path_to_json(p)
        assert parse_path(d["steps"], kind) == p
        assert (d["kind"], *(d[k] for k in ("a", "b", "len", "n") if k in d)) == (kind.shape, *kind.params)


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


def test_unsigned_returns_an_unsigned_kind_itself():
    # a cache keyed by kinds would answer for k with the first equal kind it
    # saw; a typespec kind is one object per rank, so caches hit by identity.
    # More kinds than a bounded cache holds push out what earlier tests left
    for a in range(300):
        unsigned(lattice(a, 300))
    for lt in "ABC":
        side = type_spec(lt).source
        for n in range(1, 9):
            k = side.kind(n)
            assert unsigned(PathKind(k.shape, k.params)) == k
            assert unsigned(k) is k, k


def test_a_word_short_of_the_slot_has_no_slot():
    # a signed_ballot(4) word with fewer than 4 North steps, built without make_path
    p = Path("E" * 7, signed_ballot(4))
    assert p.sign_pos is None and render_path(p) == "E" * 7
