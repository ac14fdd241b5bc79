"""Exception types shared across the package, and a JSON field lookup."""


class ZetakitError(Exception):
    """Base class for all library errors."""


class MalformedToken(ZetakitError):
    """Input text contains a token outside the step alphabet."""


class ShapeViolation(ZetakitError):
    """A step sequence violates the constraints of its declared kind."""


class ShapeMismatch(ZetakitError):
    """A path of the wrong kind was passed to an operation."""


class CapExceeded(ZetakitError):
    """An enumeration would produce more objects than the configured cap."""


class RankMismatch(ZetakitError):
    """Operands have incompatible ranks."""


class NotBijective(ZetakitError):
    """A window does not define a bijection."""


class LatticeViolation(ZetakitError):
    """A vector lies outside the coroot lattice of the requested type."""


class NotRepresentative(ZetakitError):
    """A vector is not a canonical orbit representative."""


class InvalidLabelling(ZetakitError):
    """Labels violate the vertical or diagonal labelling rules."""


class NotAntichain(ZetakitError):
    """A set of roots is not an antichain, or fits no ballot path."""


class TypeMismatch(ZetakitError):
    """Roots of different types were mixed in one computation."""


class InternalError(ZetakitError):
    """An invariant that should be unreachable was violated."""


def json_field(d, key: str):
    """d[key] of a decoded JSON object; MalformedToken when d has no such key
    or is not an object."""
    try:
        return d[key]
    except (KeyError, TypeError):
        raise MalformedToken("no key %r in %r" % (key, d)) from None
