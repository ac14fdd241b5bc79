import copy
import pickle

import pytest

import zetakit.labelled as labelled
import zetakit.torus as torus
import zetakit.typespec as typespec
from zetakit import stats
from zetakit.affine import (
    AffinePermutation,
    decompose,
    dominant_frame,
    grassmannian_companion,
    in_group,
    is_grassmannian,
)
from zetakit.errors import RankMismatch, ShapeMismatch, Unsupported, ZetakitError
from zetakit.paths import ballot, enumerate_paths, is_dyck, lattice, parse_path, signed_ballot, signed_lattice
from zetakit.rootposet import ParkingFunction, Root, antichain_to_ballot, diag_validate
from zetakit.signedperm import SignedPermutation, weyl_group
from zetakit.typespec import CHECKS, LABELLED_CHECKS, type_spec
from zetakit.verify import CheckResult, Report, run_suite
from zetakit.zeta import area_vector


@pytest.mark.parametrize("lt,source,target", [
    ("A", lattice(5, 5), lattice(5, 5)),
    ("B", lattice(5, 5), ballot(10)),
    ("C", lattice(5, 5), ballot(10)),
    ("D", signed_lattice(5), signed_ballot(5)),
])
def test_side_kind_is_one_object_per_rank(lt, source, target):
    # caches keyed by kind then find it by identity
    spec = type_spec(lt)
    for n in range(7):
        assert spec.source.kind(n) is spec.source.kind(n) and spec.target.kind(n) is spec.target.kind(n)
    assert (spec.source.kind(5), spec.target.kind(5)) == (source, target)


def test_registry_values():
    assert [type_spec(lt).min_rank for lt in "ABCD"] == [1, 2, 1, 2]
    assert [type_spec(lt).modulus(4) for lt in "BCD"] == [9, 9, 7]
    assert type_spec("D").label_type == "B"
    # type C runs every check, in the order of the pass's table
    assert type_spec("C").checks == CHECKS == tuple(labelled._CHECKS)
    assert type_spec("B").checks == type_spec("D").checks == ("counting", "bijectivity") + tuple(
        c for c in CHECKS if c in LABELLED_CHECKS
    )
    assert type_spec("A").checks == ("counting", "bijectivity")
    with pytest.raises(ValueError):
        type_spec("A").modulus(3)
    with pytest.raises(ValueError):
        type_spec("E")


_SQUARE = parse_path("NNEE", lattice(2, 2))
_BALLOT = parse_path("NNEE", ballot(4))
_W = AffinePermutation.identity(2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: torus.TorusElement("A", (0,)),
        lambda: torus.torus_element("X", (0, 0)),
        lambda: weyl_group("X", 2),
        lambda: dominant_frame("A", 3),
        lambda: is_grassmannian(_W, "A"),
        lambda: in_group(_W, "A"),
        lambda: grassmannian_companion((0, 0), "A"),
        lambda: area_vector(_SQUARE, "X"),
        lambda: torus.alcove("A", 2),
        lambda: torus.lambda_of_path(_SQUARE, "A"),
        lambda: diag_validate(_BALLOT, SignedPermutation.identity(2), "A"),
        lambda: antichain_to_ballot([], "A", 2),
        lambda: stats.area(_BALLOT, "A"),
        lambda: run_suite("X", 2),
        lambda: run_suite("C", 2, []),
        lambda: run_suite("A", 2, ["uniform"]),
    ],
)
def test_an_unsupported_type_or_request_is_a_typed_error(call):
    # a ZetakitError, and still the ValueError it was before it had a type
    with pytest.raises(Unsupported) as info:
        call()
    assert isinstance(info.value, ZetakitError) and isinstance(info.value, ValueError)


_SP = SignedPermutation((2, -1))
_ROOT = Root("C", "diff", 1, 2)


@pytest.mark.parametrize("value,field", [
    (_SP, "window"),
    (_W, "window"),
    (decompose(_W), "mu"),
    (_ROOT, "j"),
    (ParkingFunction(_SP, (_ROOT,)), "antichain"),
    (torus.TorusElement("C", (0, 1)), "coords"),
    (torus.VertPath(_SQUARE, _SP), "labels"),
    (typespec.SQUARE, "scale"),
    (type_spec("C"), "checks"),
    (CheckResult("counting", "C", 2, True), "passed"),
    (Report((CheckResult("counting", "C", 2, True),)), "results"),
], ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
def test_value_types_refuse_assignment(value, field):
    before = repr(value)
    for name in (field, "_key", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == before and value == copy.copy(value) == pickle.loads(pickle.dumps(value))


def test_value_type_defaults_and_keys():
    assert Root("C", "long", 2).j == 0
    assert (type_spec("C").even_sums, type_spec("C").even_signs) == (False, False)
    assert CheckResult("counting", "C", 2, True) == CheckResult("counting", "C", 2, True, None, 0)
    # a side's cache of kinds is not part of its value
    side = typespec.Side("ballot", 1, 2, "even-length ballot")
    assert side == typespec.EVEN_BALLOT and hash(side) == hash(typespec.EVEN_BALLOT)
    side.kind(3)
    assert side == typespec.EVEN_BALLOT and repr(side) == repr(typespec.EVEN_BALLOT)
    assert repr(side) == "Side(shape='ballot', arity=1, scale=2, name='even-length ballot')"


def test_torus_reexports_registry_functions():
    assert torus.modulus is typespec.modulus


@pytest.mark.parametrize("lt", "ABCD")
def test_ranks_round_trip_through_kinds(lt):
    spec = type_spec(lt)
    for n in range(spec.min_rank, 5):
        p = next(p for p in enumerate_paths(spec.source.kind(n)) if is_dyck(p))
        q = next(q for q in enumerate_paths(spec.target.kind(n)) if is_dyck(q))
        assert spec.source_rank(p) == spec.target_rank(q) == spec.check_rank(n) == n


@pytest.mark.parametrize("lt,side,path", [
    ("C", "source", parse_path("NNEE", ballot(4))),  # wrong kind
    ("B", "target", parse_path("NNE", ballot(3))),  # odd length
    ("D", "source", parse_path("NNEE", lattice(2, 2))),  # unsigned
    ("A", "source", parse_path("ENNE", lattice(2, 2))),  # below the diagonal
    ("B", "source", parse_path("NE", lattice(1, 1))),  # below the minimum rank
    ("D", "target", parse_path("N", signed_ballot(1))),  # below the minimum rank
    ("C", "source", parse_path("", lattice(0, 0))),  # rank 0
])
def test_wrong_path_is_shape_mismatch(lt, side, path):
    with pytest.raises(ShapeMismatch):
        getattr(type_spec(lt), side + "_rank")(path)


@pytest.mark.parametrize("lt,n", [("A", 0), ("B", 1), ("C", 0), ("C", -3), ("D", 1)])
def test_rank_below_minimum_is_rank_mismatch(lt, n):
    with pytest.raises(RankMismatch):
        type_spec(lt).check_rank(n)
