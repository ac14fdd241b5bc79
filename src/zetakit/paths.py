"""Lattice paths and ballot paths, plain or carrying one signed East step.

Steps are written N, E, E+ and E- in path text.  All indices in public
contracts are 1-based.  A signed kind is its unsigned kind (`unsigned`)
plus one signed East step at a slot fixed by the steps; this module alone
places it.  Paths keep the sign as a separate flag so that sign-blind
algorithms can work on the bare N/E sequence.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import CapExceeded, MalformedToken, ShapeMismatch, ShapeViolation, json_int, json_str

N = "N"
E = "E"

DEFAULT_CAP = 10**7
CAP_ENV = "ZETAKIT_CAP"


def enumeration_cap() -> int:
    try:
        return int(os.environ.get(CAP_ENV, DEFAULT_CAP))
    except ValueError:
        raise MalformedToken("%s must be an integer, got %r" % (CAP_ENV, os.environ[CAP_ENV])) from None


@dataclass(frozen=True)
class PathKind:
    shape: str
    params: tuple[int, ...]

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


@dataclass(frozen=True)
class Path:
    """Immutable step sequence with shape metadata.

    `steps` holds only N/E.  `sign_pos` is the 0-based index of the signed
    East step (or None) and `sign` its sign; both are None/+1 for unsigned
    kinds.
    """

    steps: tuple[str, ...]
    kind: PathKind
    sign_pos: int | None = None
    sign: int = 1

    @property
    def text(self) -> str:
        return render_path(self)

    def __str__(self) -> str:
        return self.text


def sign_of(p: Path) -> int:
    """The sign of a path: -1 iff it contains an E- step."""
    return -1 if (p.sign_pos is not None and p.sign < 0) else 1


def north_count(p: Path) -> int:
    return sum(1 for s in p.steps if s == N)


def tokens(p: Path) -> tuple[str, ...]:
    out = list(p.steps)
    if p.sign_pos is not None:
        out[p.sign_pos] = E + ("+" if p.sign > 0 else "-")
    return tuple(out)


def render_path(p: Path) -> str:
    return "".join(tokens(p))


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


@lru_cache(maxsize=256)
def unsigned(kind: PathKind) -> PathKind:
    """The kind with its sign forgotten: signed_lattice(n) is lattice(n-1, n),
    signed_ballot(n) is ballot(2n-1), and any other kind is itself.  Cached:
    make_path asks once per path."""
    if kind.shape == "signed_lattice":
        (n,) = kind.params
        return lattice(n - 1, n)
    if kind.shape == "signed_ballot":
        (n,) = kind.params
        return ballot(2 * n - 1)
    return kind


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


def _signed_slot(steps: tuple[str, ...], kind: PathKind) -> int | None:
    """Index of the step that must carry a sign for this kind, if any."""
    if kind.shape == "signed_lattice":
        return 0 if steps and steps[0] == E else None
    if kind.shape == "signed_ballot":
        (n,) = kind.params
        seen = 0
        for i, s in enumerate(steps):
            if s == N:
                seen += 1
                if seen == n:
                    nxt = i + 1
                    return nxt if nxt < len(steps) and steps[nxt] == E else None
        return None
    return None


def make_path(steps, kind: PathKind, sign: int = 1) -> Path:
    """Validate and build a path of the given kind.  On a signed kind the
    East step at the kind's slot carries the sign; a path with no such
    step ignores it."""
    steps = tuple(steps)
    plain = unsigned(kind)
    if plain.shape not in ("lattice", "ballot"):
        raise ShapeViolation("unknown path kind %s" % kind.shape)
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
    slot = _signed_slot(steps, kind)
    if slot is None:
        return Path(steps, kind)
    if sign not in (1, -1):
        raise ShapeViolation("sign must be +1 or -1")
    return Path(steps, kind, slot, sign)


def parse_path(text: str, kind: PathKind) -> Path:
    """Parse path text; round-trips with render_path."""
    toks = _tokenize(text)
    signed = [i for i, t in enumerate(toks) if t not in (N, E)]
    if len(signed) > 1:
        raise ShapeViolation("at most one signed step is allowed")
    p = make_path([t[0] for t in toks], kind, -1 if "E-" in toks else 1)
    if p.sign_pos is None and signed:
        raise ShapeViolation("no signed step allowed at step %d for %s" % (signed[0] + 1, kind))
    if p.sign_pos is not None and signed != [p.sign_pos]:
        raise ShapeViolation("step %d must be a signed East step" % (p.sign_pos + 1))
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


def path_from_json(d: dict) -> Path:
    shape = json_str(d, "kind")
    if shape == "lattice":
        kind = lattice(json_int(d, "a"), json_int(d, "b"))
    elif shape == "ballot":
        kind = ballot(json_int(d, "len"))
    elif shape == "signed_lattice":
        kind = signed_lattice(json_int(d, "n"))
    elif shape == "signed_ballot":
        kind = signed_ballot(json_int(d, "n"))
    else:
        raise MalformedToken("unknown kind %r" % shape)
    return parse_path(json_str(d, "steps"), kind)


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
    return make_path(steps, kind, sign)


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
    if min(unsigned(kind).params) < 0:
        raise ShapeViolation("%s asks for a negative number of steps" % kind)
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
    raise ShapeViolation("unknown path kind %s" % kind.shape)


def enumerate_paths(kind: PathKind) -> Iterator[Path]:
    """Complete, duplicate-free stream in lexicographic text order.  A
    signed kind lifts the stream of its unsigned kind: each unsigned path
    once, or twice when it has a signed slot, where the E+ lifts of the
    paths that share the steps up to the slot come before their E- lifts."""
    limit = enumeration_cap()
    total = count_paths(kind)
    if total > limit:
        raise CapExceeded("%s has %d paths, cap is %d" % (kind, total, limit))
    if unsigned(kind) == kind:
        return (Path(steps, kind) for steps in _step_sequences(kind))
    return _lifts(kind)


def _step_sequences(kind: PathKind, prefix: tuple[str, ...] = ()) -> Iterator[tuple[str, ...]]:
    """The step tuples of an unsigned kind that start with the prefix, in
    text order (E before N)."""
    east = prefix.count(E)
    if kind.shape == "lattice":
        a, b = kind.params
        for rest in itertools.combinations(range(len(prefix), a + b), a - east):
            steps = list(prefix) + [N] * (a + b - len(prefix))
            for i in rest:
                steps[i] = E
            yield tuple(steps)
        return
    (length,) = kind.params
    # depth first over the prefixes that keep the prefix rule; the E branch
    # is pushed last, so it is taken first
    stack = [(prefix, east, len(prefix) - east)]
    while stack:
        prefix, east, north = stack.pop()
        if east + north == length:
            yield prefix
            continue
        stack.append((prefix + (N,), east, north + 1))
        if _east_allowed(east, north):
            stack.append((prefix + (E,), east + 1, north))


def _lifts(kind: PathKind) -> Iterator[Path]:
    """The paths of a signed kind over the step tuples of its unsigned kind.
    The tuples that share the steps up to a slot follow each other in text
    order; they are enumerated again for each sign, so that none is held in
    memory, and then skipped in the stream."""
    plain = unsigned(kind)
    stream = _step_sequences(plain)
    for steps in stream:
        slot = _signed_slot(steps, kind)
        if slot is None:
            yield Path(steps, kind)
            continue
        for sign in (1, -1):
            size = 0
            for lifted in _step_sequences(plain, steps[: slot + 1]):
                size += 1
                yield Path(lifted, kind, slot, sign)
        # steps was the first of them
        for _ in itertools.islice(stream, size - 1):
            pass
