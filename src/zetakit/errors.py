"""Exception types shared across the package, and the parser of window text."""

import json
import reprlib


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


class Unsupported(ZetakitError, ValueError):
    """A type, or a request, that the library has no model for."""


class InternalError(ZetakitError):
    """An invariant that should be unreachable was violated."""


def json_window(text: str) -> tuple[int, ...]:
    """The integers of a window written as a JSON list: MalformedToken for
    text that is not JSON or nests too deeply to parse, NotBijective for any
    other value; the messages echo the text shortened by reprlib."""
    try:
        window = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise MalformedToken("%s is not JSON: %s" % (reprlib.repr(text), e)) from None
    if not isinstance(window, list) or not all(type(v) is int for v in window):
        raise NotBijective("%s is not a list of integers" % reprlib.repr(text))
    return tuple(window)
