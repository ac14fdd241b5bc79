"""Lattice paths and ballot paths, plain or carrying one signed East step.

Steps are written N, E, E+ and E- in path text.  All indices in public
contracts are 1-based.  A signed kind is its unsigned kind (`unsigned`)
plus one signed East step at a slot fixed by the steps; this module alone
places it.  A path is its N/E word, its kind and its sign, so that
sign-blind algorithms work on the bare word.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from typing import Iterator

from .errors import CapExceeded, MalformedToken, ShapeMismatch, ShapeViolation

N = "N"
E = "E"

DEFAULT_CAP = 10**7
CAP_ENV = "ZETAKIT_CAP"


def enumeration_cap() -> int:
    try:
        return int(os.environ.get(CAP_ENV, DEFAULT_CAP))
    except ValueError:
        raise MalformedToken("%s must be an integer, got %r" % (CAP_ENV, os.environ[CAP_ENV])) from None


class PathKind:
    """A path shape and its parameters, such as lattice(3, 4).

    A value type: equal and hashed by (shape, params), its hash computed
    once, and never changed after it is made.  It and Path are plain
    slotted classes: a frozen dataclass's generated __init__ costs several
    times a plain one, and a tuple subclass (a NamedTuple) would be read as
    the argument tuple of "%s" % kind.
    """

    __slots__ = ("shape", "params", "_hash")

    def __init__(self, shape: str, params: tuple[int, ...]):
        self.shape = shape
        self.params = params
        self._hash = hash((shape, params))

    def __eq__(self, other):
        if other.__class__ is not PathKind:
            return NotImplemented
        return self.shape == other.shape and self.params == other.params

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "PathKind(shape=%r, params=%r)" % (self.shape, self.params)

    def __str__(self) -> str:
        return "%s(%s)" % (self.shape, ",".join(map(str, self.params)))


def lattice(a: int, b: int) -> PathKind:
    """Paths from the origin with a East steps and b North steps."""
    return PathKind("lattice", (a, b))


def ballot(length: int) -> PathKind:
    """Paths of the given length whose every prefix has #N >= #E."""
    return PathKind("ballot", (length,))


def signed_lattice(n: int) -> PathKind:
    """Paths with n-1 East and n North steps; a leading East step is signed."""
    return PathKind("signed_lattice", (n,))


def signed_ballot(n: int) -> PathKind:
    """Ballot paths with 2n-1 steps; the East step right after the n-th
    North step, if there is one, is signed."""
    return PathKind("signed_ballot", (n,))


class Path:
    """A path: its N/E word `steps`, its kind and its sign, +1 on a path
    with no signed step.  `sign_pos`, the 0-based index of the signed East
    step or None, is read off the word by the kind's slot rule.  A value
    type like PathKind: equal and hashed by its three fields, never changed.
    """

    __slots__ = ("steps", "kind", "sign")

    def __init__(self, steps: str, kind: PathKind, sign: int = 1):
        self.steps = steps
        self.kind = kind
        self.sign = sign

    def __eq__(self, other):
        if other.__class__ is not Path:
            return NotImplemented
        return (self.steps, self.kind, self.sign) == (other.steps, other.kind, other.sign)

    def __hash__(self) -> int:
        return hash((self.steps, self.kind, self.sign))

    def __repr__(self) -> str:
        return "Path(steps=%r, kind=%r, sign=%r)" % (self.steps, self.kind, self.sign)

    @property
    def sign_pos(self) -> int | None:
        return _signed_slot(self.steps, self.kind)

    @property
    def text(self) -> str:
        return render_path(self)

    def __str__(self) -> str:
        return self.text


def sign_of(p: Path) -> int:
    """The sign of a path: -1 iff it contains an E- step."""
    return p.sign


def render_path(p: Path) -> str:
    """The word with E+ or E- at the signed slot, if there is one."""
    slot = p.sign_pos
    return p.steps if slot is None else "%s%s%s" % (p.steps[: slot + 1], "+-"[p.sign < 0], p.steps[slot + 1 :])


def _tokenize(text: str) -> list[str]:
    toks = []
    i = 0
    # the characters other than whitespace, with their 1-based positions in text
    chars = [(k, c) for k, c in enumerate(text, start=1) if not c.isspace()]
    while i < len(chars):
        k, c = chars[i]
        if c == E and i + 1 < len(chars) and chars[i + 1][1] in "+-":
            toks.append(E + chars[i + 1][1])
            i += 2
        elif c in (N, E):
            toks.append(c)
            i += 1
        else:
            raise MalformedToken("unexpected character %r at position %d" % (c, k))
    return toks


def unsigned(kind: PathKind) -> PathKind:
    """The kind with its sign forgotten: signed_lattice(n) is lattice(n-1, n),
    signed_ballot(n) is ballot(2n-1), and any other kind is itself."""
    return kind if _slot_after(kind) is None else _unsigned_of_signed(kind)


@lru_cache(maxsize=256)
def _unsigned_of_signed(kind: PathKind) -> PathKind:
    (n,) = kind.params
    return lattice(n - 1, n) if kind.shape == "signed_lattice" else ballot(2 * n - 1)


@lru_cache(maxsize=256)
def _plain(kind: PathKind) -> PathKind:
    """The unsigned kind of a kind that has paths; ShapeViolation for an
    unknown shape or a negative number of steps.  Cached like unsigned."""
    plain = unsigned(kind)
    if plain.shape not in ("lattice", "ballot"):
        raise ShapeViolation("unknown path kind %s" % kind.shape)
    if min(plain.params) < 0:
        raise ShapeViolation("%s asks for a negative number of steps" % kind)
    return plain


def _east_allowed(east: int, north: int) -> bool:
    """The prefix rule of ballot and Dyck paths: an East step may follow a
    prefix with `east` East and `north` North steps."""
    return east < north


def _is_ballot(steps) -> bool:
    """True iff no prefix of the steps has more East than North steps."""
    east = 0
    for k, s in enumerate(steps):
        if s == E:
            if not _east_allowed(east, k - east):
                return False
            east += 1
    return True


def _slot_after(kind: PathKind) -> int | None:
    """The one rule that places the sign: the signed step of a signed kind
    is the East step right after its k-th North step, if there is one.
    This is k: 0 in signed_lattice(n), where it is the first step, and n in
    signed_ballot(n).  None for unsigned kinds."""
    if kind.shape == "signed_lattice":
        return 0
    if kind.shape == "signed_ballot":
        return kind.params[0]
    return None


def _signed_slot(steps: str, kind: PathKind) -> int | None:
    """Index of the step that must carry a sign for this kind, if any: the
    one right after the k-th North step (a ballot path of 2n-1 steps has at
    least n), when there is one and it is an East step."""
    k = _slot_after(kind)
    if k is None:
        return None
    rest = steps.split(N, k)  # rest[-1] follows the k-th North step
    return len(steps) - len(rest[-1]) if len(rest) > k and rest[-1][:1] == E else None


def make_path(steps, kind: PathKind, sign: int = 1) -> Path:
    """Validate and build a path of the given kind.  On a signed kind the
    East step at the kind's slot carries the sign; a path with no such
    step ignores it.  The steps are a word, or any iterable of N and E."""
    if steps.__class__ is not str:
        items = list(steps)
        # an item that is not one step N or E makes a word the alphabet check refuses
        steps = "".join(items) if items.count(N) + items.count(E) == len(items) else "?" * len(items)
    plain = _plain(kind)
    length = sum(plain.params)  # a + b for lattice(a, b)
    if len(steps) != length:
        raise ShapeViolation("expected %d steps for %s, got %d" % (length, kind, len(steps)))
    east = steps.count(E)
    if east + steps.count(N) != length:
        raise ShapeViolation("steps must be N or E")
    if plain.shape == "lattice" and east != plain.params[0]:
        raise ShapeViolation("expected %d East steps for %s, got %d" % (plain.params[0], kind, east))
    if plain.shape == "ballot" and not _is_ballot(steps):
        raise ShapeViolation("ballot prefix condition violated")
    if _signed_slot(steps, kind) is None:
        return Path(steps, kind)
    if sign not in (1, -1):
        raise ShapeViolation("sign must be +1 or -1")
    return Path(steps, kind, sign)


def parse_path(text: str, kind: PathKind) -> Path:
    """Parse path text; round-trips with render_path."""
    toks = _tokenize(text)
    signed = [i for i, t in enumerate(toks) if t not in (N, E)]
    if len(signed) > 1:
        raise ShapeViolation("at most one signed step is allowed")
    p = make_path("".join([t[0] for t in toks]), kind, -1 if "E-" in toks else 1)
    slot = p.sign_pos
    if slot is None and signed:
        raise ShapeViolation("no signed step allowed at step %d for %s" % (signed[0] + 1, kind))
    if slot is not None and signed != [slot]:
        raise ShapeViolation("step %d must be a signed East step" % (slot + 1))
    return p


def path_to_json(p: Path) -> dict:
    d: dict = {"kind": p.kind.shape}
    if p.kind.shape == "lattice":
        d["a"], d["b"] = p.kind.params
    elif p.kind.shape == "ballot":
        d["len"] = p.kind.params[0]
    else:
        d["n"] = p.kind.params[0]
    d["steps"] = render_path(p)
    return d


def rises(p: Path) -> list[int]:
    """Indices i such that the i-th North step is followed by a North step."""
    out = []
    idx = 0
    for k, s in enumerate(p.steps):
        if s == N:
            idx += 1
            if k + 1 < len(p.steps) and p.steps[k + 1] == N:
                out.append(idx)
    return out


def valleys(p: Path) -> list[tuple[int, int]]:
    """Pairs (i, j): the i-th East step is followed by the j-th North step.

    For ballot kinds a path ending in an East step gets the extra valley
    (#E, #N + 1).
    """
    out = []
    e_idx = n_idx = 0
    for k, s in enumerate(p.steps):
        if s == E:
            e_idx += 1
            if k + 1 < len(p.steps) and p.steps[k + 1] == N:
                out.append((e_idx, n_idx + 1))
        else:
            n_idx += 1
    if p.kind.shape in ("ballot", "signed_ballot") and p.steps and p.steps[-1] == E:
        out.append((e_idx, n_idx + 1))
    return out


def east_counts(p: Path) -> tuple[int, ...]:
    """For each North step, the number of East steps that precede it."""
    if p.kind.shape not in ("lattice", "signed_lattice"):
        raise ShapeMismatch("east_counts needs a lattice-family path, got %s" % p.kind)
    out = []
    e_seen = 0
    for s in p.steps:
        if s == E:
            e_seen += 1
        else:
            out.append(e_seen)
    return tuple(out)


def path_of_east_counts(pi, kind: PathKind, sign: int = 1) -> Path:
    """The path of the lattice kind (or its signed lift) whose k-th North
    step has pi[k] East steps before it: the inverse of east_counts, for pi
    weakly increasing and at most the kind's width."""
    steps = [E] * (unsigned(kind).params[0] + len(pi))
    for k, v in enumerate(pi):
        # k North and v East steps come before it
        steps[v + k] = N
    return make_path("".join(steps), kind, sign)


def is_dyck(p: Path) -> bool:
    """True for lattice paths staying weakly above the main diagonal, and
    for every ballot path."""
    return _is_ballot(p.steps)


def strip_signs(p: Path) -> Path:
    """Forget the sign; signed kinds map to their unsigned counterparts."""
    return Path(p.steps, unsigned(p.kind))


def lift_signed(p: Path, sign: int = 1) -> Path:
    """Inverse of strip_signs: the path of the signed kind whose unsigned
    kind is p's, with the given sign on its slot, if it has one."""
    n = (len(p.steps) + 1) // 2
    kind = {"lattice": signed_lattice(n), "ballot": signed_ballot(n)}.get(p.kind.shape)
    if kind is None or unsigned(kind) != p.kind:
        raise ShapeMismatch("%s paths do not lift to signed paths" % p.kind)
    return make_path(p.steps, kind, sign)


def count_paths(kind: PathKind) -> int:
    """Exact cardinality of the enumeration for this kind."""
    _plain(kind)
    if kind.shape == "lattice":
        a, b = kind.params
        return math.comb(a + b, a)
    if kind.shape == "ballot":
        (length,) = kind.params
        return math.comb(length, length // 2)
    # the unsigned paths, and once more those with a signed slot
    if kind.shape == "signed_lattice":
        (n,) = kind.params
        return math.comb(2 * n - 1, n - 1) + (math.comb(2 * n - 2, n - 2) if n >= 2 else 0)
    if kind.shape == "signed_ballot":
        (n,) = kind.params
        return math.comb(2 * n - 1, n - 1) + math.comb(2 * n - 2, n)


def enumerate_paths(kind: PathKind) -> Iterator[Path]:
    """Complete, duplicate-free stream in lexicographic text order, from
    one depth-first walk over the prefixes of the kind's paths that takes E
    before N.  On a signed kind the walk takes the slot's East step twice,
    E+ before E-.  The cap is checked when this is called."""
    limit = enumeration_cap()
    total = count_paths(kind)
    if total > limit:
        raise CapExceeded("%s has %d paths, cap is %d" % (kind, total, limit))
    return _walk(kind)


def _walk(kind: PathKind) -> Iterator[Path]:
    plain = unsigned(kind)
    length = sum(plain.params)
    # lattice(a, b) has a East and b North steps; a ballot path of length
    # L has at most L // 2 East steps, and the prefix rule bounds the rest
    width, height = plain.params if plain.shape == "lattice" else (length // 2, length)
    ballot_rule = plain.shape == "ballot"
    k = _slot_after(kind)
    # (prefix, east, north, sign); the branch pushed last is taken first
    stack = [("", 0, 0, 1)]
    while stack:
        prefix, east, north, sign = stack.pop()
        if east == width or east + north == length:
            # only North steps are left: one path, and no slot among them
            yield Path(prefix + N * (length - east - north), kind, sign)
            continue
        if north == height:
            # only East steps are left, on lattice kinds only: one path, and
            # no slot among them, as a signed lattice path's is its first step
            yield Path(prefix + E * (width - east), kind, sign)
            continue
        stack.append((prefix + N, east, north + 1, sign))
        if not ballot_rule or _east_allowed(east, north):
            step = prefix + E
            if north == k and (not prefix or prefix[-1] == N):
                # the step right after the k-th North step is the slot
                stack.append((step, east + 1, north, -1))
                stack.append((step, east + 1, north, 1))
            else:
                stack.append((step, east + 1, north, sign))
