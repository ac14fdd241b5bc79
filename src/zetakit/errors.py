"""Exception types shared across the package, and JSON field lookups."""

import json


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


def json_field(d, key: str):
    """d[key] of a decoded JSON object; MalformedToken when d has no such key
    or is not an object."""
    try:
        return d[key]
    except (KeyError, TypeError):
        raise MalformedToken("no key %r in %r" % (key, d)) from None


def json_int(d, key: str) -> int:
    """An integer field of a decoded JSON object; MalformedToken for any
    other value, booleans included."""
    v = json_field(d, key)
    if type(v) is not int:
        raise MalformedToken("%r must be an integer, got %r" % (key, v))
    return v


def json_ints(d, key: str) -> tuple[int, ...]:
    """A field holding a list of integers, as a tuple."""
    v = json_field(d, key)
    if not isinstance(v, list) or any(type(x) is not int for x in v):
        raise MalformedToken("%r must be a list of integers, got %r" % (key, v))
    return tuple(v)


def json_str(d, key: str) -> str:
    """A string field of a decoded JSON object."""
    v = json_field(d, key)
    if not isinstance(v, str):
        raise MalformedToken("%r must be a string, got %r" % (key, v))
    return v


def json_window(text: str) -> tuple[int, ...]:
    """The integers of a window written as a JSON list: MalformedToken for
    text that is not JSON, NotBijective for any other value."""
    try:
        window = json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedToken("%r is not JSON: %s" % (text, e)) from None
    if not isinstance(window, list) or not all(type(v) is int for v in window):
        raise NotBijective("%r is not a list of integers" % (text,))
    return tuple(window)


def json_choice(d, key: str, choices: tuple[str, ...]) -> str:
    """A string field that must be one of the choices."""
    v = json_str(d, key)
    if v not in choices:
        raise MalformedToken("%r must be one of %s, got %r" % (key, ", ".join(choices), v))
    return v
