"""The model of each type, in one place.

Types B and C map square lattice paths to ballot paths of length 2n, type
D maps signed lattice paths to signed ballot paths, and type A maps Dyck
paths to Dyck paths.  A spec also fixes the smallest rank its model
supports, the torus modulus, the Weyl type the vertical labels run over,
the verification checks that apply and the parities of its coroot lattice
and Weyl group.  The other modules read the rank
of a source or target path, and check a rank against its type, only
through this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import paths
from .errors import RankMismatch, ShapeMismatch, Unsupported
from .paths import Path, PathKind, is_dyck

# every check, in report order
CHECKS = (
    "counting",
    "bijectivity",
    "labelled_bijectivity",
    "inverse_roundtrip",
    "sweep_equiv",
    "rise_valley",
    "stats_identity",
    "uniform",
    "anderson",
)
# the checks over vertically labelled paths
LABELLED_CHECKS = ("labelled_bijectivity", "rise_valley", "uniform", "anderson")


@dataclass(frozen=True)
class Side:
    """The path kinds on one side of a zeta map: at rank n, the kind has
    shape `shape` and parameters (scale * n, ..., scale * n), `arity` times."""

    shape: str
    arity: int
    scale: int
    name: str
    _kinds: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def kind(self, n: int) -> PathKind:
        """The kind at rank n, one object per rank, so that a cache keyed by
        kinds finds it by identity."""
        kind = self._kinds.get(n)
        if kind is None:
            kind = self._kinds[n] = PathKind(self.shape, (self.scale * n,) * self.arity)
        return kind


SQUARE = Side("lattice", 2, 1, "square lattice")
EVEN_BALLOT = Side("ballot", 1, 2, "even-length ballot")
SIGNED_LATTICE = Side("signed_lattice", 1, 1, "signed lattice")
SIGNED_BALLOT = Side("signed_ballot", 1, 1, "signed ballot")


@dataclass(frozen=True)
class TypeSpec:
    name: str
    source: Side
    target: Side
    dyck: bool  # both sides keep only the paths weakly above the diagonal
    min_rank: int
    modulus_shift: int | None  # the torus modulus is 2n + shift; None: no torus
    label_type: str
    checks: tuple[str, ...]
    even_sums: bool = False  # the coroot lattice has even coordinate sums
    even_signs: bool = False  # Weyl group elements change an even number of signs

    def sources(self, n: int):
        """Every source path of rank n, in enumeration order."""
        return self._paths(self.source.kind(n))

    def targets(self, n: int):
        """Every target path of rank n, in enumeration order."""
        return self._paths(self.target.kind(n))

    def _paths(self, kind: PathKind):
        stream = paths.enumerate_paths(kind)
        return filter(is_dyck, stream) if self.dyck else stream

    def source_rank(self, p: Path) -> int:
        """The rank of a source-side path; ShapeMismatch for any other path."""
        return self._rank(p, self.source)

    def target_rank(self, p: Path) -> int:
        """The rank of a target-side path; ShapeMismatch for any other path."""
        return self._rank(p, self.target)

    def _rank(self, p: Path, side: Side) -> int:
        shape, params = p.kind.shape, p.kind.params
        if shape != side.shape or params[0] != params[-1] or params[0] % side.scale:
            raise ShapeMismatch("type %s needs a %s path, got %s" % (self.name, side.name, p.kind))
        if self.dyck and not is_dyck(p):
            raise ShapeMismatch("type %s needs a path weakly above the diagonal" % self.name)
        return self.kind_rank(params[0] // side.scale, p.kind)

    def kind_rank(self, n: int, kind: PathKind) -> int:
        """n, the rank of a path of the given kind, or ShapeMismatch naming
        the kind below the smallest supported rank."""
        if n < self.min_rank:
            raise ShapeMismatch("type %s needs rank >= %d, got %s" % (self.name, self.min_rank, kind))
        return n

    def check_rank(self, n: int) -> int:
        """n itself, or RankMismatch below the smallest supported rank."""
        if n < self.min_rank:
            raise RankMismatch("type %s needs rank >= %d, got %d" % (self.name, self.min_rank, n))
        return n

    def modulus(self, n: int) -> int:
        if self.modulus_shift is None:
            raise Unsupported("no torus modulus for type %r" % self.name)
        return 2 * n + self.modulus_shift


_SIGNED_CHECKS = ("counting", "bijectivity") + LABELLED_CHECKS

TYPES = {
    "A": TypeSpec("A", SQUARE, SQUARE, True, 1, None, "A", ("counting", "bijectivity")),
    "B": TypeSpec("B", SQUARE, EVEN_BALLOT, False, 2, 1, "B", _SIGNED_CHECKS, True),
    "C": TypeSpec("C", SQUARE, EVEN_BALLOT, False, 1, 1, "C", CHECKS),
    # labels of a type D path run over the full signed group; their sign
    # twist (torus._twist_signs) is the element of the even group
    "D": TypeSpec("D", SIGNED_LATTICE, SIGNED_BALLOT, False, 2, -1, "B", _SIGNED_CHECKS, True, True),
}

# the types with a torus and an affine Weyl group
TORUS_TYPES = tuple(lt for lt, spec in TYPES.items() if spec.modulus_shift is not None)


def type_spec(lattice_type: str) -> TypeSpec:
    try:
        return TYPES[lattice_type]
    except KeyError:
        raise Unsupported("unknown type %r" % (lattice_type,)) from None


def modulus(lattice_type: str, n: int) -> int:
    return type_spec(lattice_type).modulus(n)
