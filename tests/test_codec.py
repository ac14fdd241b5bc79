"""The one-pass zeta codec against the level scans kept in oracles.py, and
make_path's checks on malformed input."""

import pytest
from hypothesis import given, settings, strategies as st

from zetakit.errors import InternalError, ShapeViolation
from zetakit.paths import (
    Path,
    PathKind,
    ballot,
    east_counts,
    lattice,
    make_path,
    path_of_east_counts,
    render_path,
    sign_of,
    signed_lattice,
)
from zetakit.typespec import type_spec
from zetakit.zeta import bounce_path, inverse_zeta_c, zeta_path

from oracles import bounce_by_tops, inverse_zeta_c_by_area_vector, path_of_east_counts_by_insert, zeta_path_by_level_scan

SOURCE_RANKS = [("A", n) for n in range(1, 7)] + [(lt, n) for lt in "BCD" for n in range(type_spec(lt).min_rank, 8)]


@pytest.mark.parametrize("lt,n", SOURCE_RANKS)
def test_zeta_path_matches_the_level_scan(lt, n):
    for p in type_spec(lt).sources(n):
        assert zeta_path(p, lt) == zeta_path_by_level_scan(p, lt), render_path(p)


@pytest.mark.parametrize("n", range(1, 8))
def test_inverse_zeta_c_matches_the_area_vector_rebuild(n):
    for q in type_spec("C").targets(n):
        assert bounce_path(q) == bounce_by_tops(q), render_path(q)
        assert inverse_zeta_c(q) == inverse_zeta_c_by_area_vector(q), render_path(q)


@pytest.mark.parametrize("lt,n", [(lt, n) for lt in "CD" for n in range(2, 8)])
def test_path_of_east_counts_matches_the_insertion(lt, n):
    for p in type_spec(lt).sources(n):
        pi, sign = east_counts(p), sign_of(p)
        assert path_of_east_counts(pi, p.kind, sign) == path_of_east_counts_by_insert(pi, p.kind, sign) == p


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=9, max_value=12).flatmap(lambda n: st.permutations("N" * n + "E" * n)))
def test_inverse_undoes_zeta_above_the_enumerated_ranks(steps):
    n = len(steps) // 2
    p = make_path(steps, lattice(n, n))
    image = zeta_path(p, "C")
    assert image == zeta_path_by_level_scan(p, "C")
    assert inverse_zeta_c(image) == p


@pytest.mark.parametrize("steps,kind,sign,message", [
    ("NNNN", PathKind("spiral", (4,)), 1, "unknown path kind spiral"),
    ("NNE", lattice(2, 2), 1, "expected 4 steps for lattice(2,2), got 3"),
    # the length is checked before the letters
    ("NX", lattice(2, 2), 1, "expected 4 steps for lattice(2,2), got 2"),
    ("NXEE", lattice(2, 2), 1, "steps must be N or E"),
    # and the letters before the prefix rule
    ("XENN", ballot(4), 1, "steps must be N or E"),
    ("NNNE", lattice(2, 2), 1, "expected 2 East steps for lattice(2,2), got 1"),
    ("EENNE", signed_lattice(3), 1, "expected 2 East steps for signed_lattice(3), got 3"),
    ("NEEN", ballot(4), 1, "ballot prefix condition violated"),
    ("ENNE", ballot(4), 1, "ballot prefix condition violated"),
    ("ENENN", signed_lattice(3), 0, "sign must be +1 or -1"),
    # an item of more than one letter is one step, and no N or E
    (["NN", "EE"], lattice(2, 2), 1, "expected 4 steps for lattice(2,2), got 2"),
    (["E+", "N"], lattice(1, 1), 1, "steps must be N or E"),
])
def test_make_path_refuses_malformed_steps(steps, kind, sign, message):
    with pytest.raises(ShapeViolation) as exc:
        make_path(tuple(steps), kind, sign)
    assert str(exc.value) == message


def test_a_bad_sign_needs_a_signed_slot():
    # a path with no signed slot ignores the sign
    assert render_path(make_path("NENEN", signed_lattice(3), 0)) == "NENEN"


@pytest.mark.parametrize("steps", ["EN", "EENN", "EEEN", "NEEN"])
def test_the_bounce_refuses_steps_that_are_not_a_ballot_path(steps):
    # a Path built without make_path; the search West for a North step
    # once found one in its own column and looped
    q = Path(steps, ballot(len(steps)))
    with pytest.raises(InternalError):
        bounce_path(q)
    with pytest.raises(InternalError):
        inverse_zeta_c(q)
