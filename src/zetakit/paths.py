"""Lattice paths and ballot paths, plain or carrying one signed East step.

Steps are written N, E, E+ and E- in path text.  All indices in public
contracts are 1-based.  Signed kinds keep the sign as a separate flag so
that sign-blind algorithms can work on the bare N/E sequence.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator

from .errors import CapExceeded, MalformedToken, ShapeMismatch, ShapeViolation, json_field

N = "N"
E = "E"

DEFAULT_CAP = 10**7
CAP_ENV = "ZETAKIT_CAP"


def enumeration_cap() -> int:
    return int(os.environ.get(CAP_ENV, DEFAULT_CAP))


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
    text = "".join(text.split())
    while i < len(text):
        c = text[i]
        if c == N:
            toks.append(N)
            i += 1
        elif c == E:
            if i + 1 < len(text) and text[i + 1] in "+-":
                toks.append(E + text[i + 1])
                i += 2
            else:
                toks.append(E)
                i += 1
        else:
            raise MalformedToken("unexpected character %r at position %d" % (c, i))
    return toks


def _expected_counts(kind: PathKind) -> tuple[int | None, int | None, int]:
    """(east, north, length) demanded by the kind; None means unconstrained."""
    if kind.shape == "lattice":
        a, b = kind.params
        return a, b, a + b
    if kind.shape == "ballot":
        (length,) = kind.params
        return None, None, length
    if kind.shape == "signed_lattice":
        (n,) = kind.params
        return n - 1, n, 2 * n - 1
    if kind.shape == "signed_ballot":
        (n,) = kind.params
        return None, None, 2 * n - 1
    raise ShapeViolation("unknown path kind %s" % kind.shape)


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


def make_path(steps, kind: PathKind, sign_pos: int | None = None, sign: int = 1) -> Path:
    """Validate and build a path of the given kind."""
    steps = tuple(steps)
    east, north, length = _expected_counts(kind)
    if len(steps) != length:
        raise ShapeViolation("expected %d steps for %s, got %d" % (length, kind, len(steps)))
    if any(s not in (N, E) for s in steps):
        raise ShapeViolation("steps must be N or E")
    ne = sum(1 for s in steps if s == E)
    if east is not None and ne != east:
        raise ShapeViolation("expected %d East steps for %s, got %d" % (east, kind, ne))
    if north is not None and len(steps) - ne != north:
        raise ShapeViolation("expected %d North steps for %s" % (north, kind))
    if kind.shape in ("ballot", "signed_ballot"):
        n_seen = e_seen = 0
        for s in steps:
            if s == N:
                n_seen += 1
            else:
                e_seen += 1
            if e_seen > n_seen:
                raise ShapeViolation("ballot prefix condition violated")
    slot = _signed_slot(steps, kind)
    if slot is None:
        if sign_pos is not None:
            raise ShapeViolation("no signed step allowed at position %s for %s" % (sign_pos, kind))
        return Path(steps, kind)
    if sign_pos != slot:
        raise ShapeViolation("the East step at position %d must carry a sign" % (slot + 1))
    if sign not in (1, -1):
        raise ShapeViolation("sign must be +1 or -1")
    return Path(steps, kind, slot, sign)


def parse_path(text: str, kind: PathKind) -> Path:
    """Parse path text; round-trips with render_path."""
    toks = _tokenize(text)
    steps = []
    sign_pos = None
    sign = 1
    for i, t in enumerate(toks):
        if t in (N, E):
            steps.append(t)
        else:
            if sign_pos is not None:
                raise ShapeViolation("at most one signed step is allowed")
            steps.append(E)
            sign_pos = i
            sign = 1 if t == "E+" else -1
    return make_path(steps, kind, sign_pos, sign)


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
    shape = json_field(d, "kind")
    if shape == "lattice":
        kind = lattice(json_field(d, "a"), json_field(d, "b"))
    elif shape == "ballot":
        kind = ballot(json_field(d, "len"))
    elif shape == "signed_lattice":
        kind = signed_lattice(json_field(d, "n"))
    elif shape == "signed_ballot":
        kind = signed_ballot(json_field(d, "n"))
    else:
        raise MalformedToken("unknown kind %r" % shape)
    return parse_path(json_field(d, "steps"), kind)


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


def is_dyck(p: Path) -> bool:
    """True for lattice paths staying weakly above the main diagonal."""
    n_seen = e_seen = 0
    for s in p.steps:
        if s == N:
            n_seen += 1
        else:
            e_seen += 1
        if e_seen > n_seen:
            return False
    return True


def strip_signs(p: Path) -> Path:
    """Forget the sign; signed kinds map to their unsigned counterparts."""
    if p.kind.shape == "signed_lattice":
        (n,) = p.kind.params
        return make_path(p.steps, lattice(n - 1, n))
    if p.kind.shape == "signed_ballot":
        (n,) = p.kind.params
        return make_path(p.steps, ballot(2 * n - 1))
    return Path(p.steps, p.kind)


def lift_signed(p: Path, sign: int = 1) -> Path:
    """Inverse of strip_signs, attaching the given sign where the kind
    requires one."""
    if p.kind.shape == "lattice":
        a, b = p.kind.params
        if a != b - 1:
            raise ShapeMismatch("only lattice(n-1,n) paths lift to signed paths")
        kind = signed_lattice(b)
    elif p.kind.shape == "ballot":
        (length,) = p.kind.params
        if length % 2 == 0:
            raise ShapeMismatch("only odd-length ballot paths lift to signed paths")
        kind = signed_ballot((length + 1) // 2)
    else:
        raise ShapeMismatch("path is already signed")
    slot = _signed_slot(p.steps, kind)
    return make_path(p.steps, kind, slot, sign if slot is not None else 1)


def segment(direction: str, sign: int, j: int, values) -> str:
    """Scan an integer vector and write N/E letters.

    With sign +1 an entry equal to j yields N and j+1 yields E; with sign
    -1 an entry equal to -j yields N and -j-1 yields E.  The direction
    sets the scan order.
    """
    if sign > 0:
        n_val, e_val = j, j + 1
    else:
        n_val, e_val = -j, -j - 1
    seq = values if direction == "left_to_right" else tuple(reversed(tuple(values)))
    out = []
    for v in seq:
        if v == n_val:
            out.append(N)
        elif v == e_val:
            out.append(E)
    return "".join(out)


def count_paths(kind: PathKind) -> int:
    """Exact cardinality of the enumeration for this kind."""
    if kind.shape == "lattice":
        a, b = kind.params
        return math.comb(a + b, a)
    if kind.shape == "ballot":
        (length,) = kind.params
        return math.comb(length, length // 2)
    if kind.shape == "signed_lattice":
        (n,) = kind.params
        return math.comb(2 * n - 1, n - 1) + (math.comb(2 * n - 2, n - 2) if n >= 2 else 0)
    if kind.shape == "signed_ballot":
        (n,) = kind.params
        return math.comb(2 * n - 1, n - 1) + math.comb(2 * n - 2, n)
    raise ShapeViolation("unknown path kind %s" % kind.shape)


def enumerate_paths(kind: PathKind) -> Iterator[Path]:
    """Complete, duplicate-free stream in lexicographic text order."""
    limit = enumeration_cap()
    total = count_paths(kind)
    if total > limit:
        raise CapExceeded("%s has %d paths, cap is %d" % (kind, total, limit))

    east, north, length = _expected_counts(kind)
    if east is None:
        # ballot kinds: East count is free, bounded by the prefix rule
        east_max = length // 2
    ballot_rule = kind.shape in ("ballot", "signed_ballot")
    sign_mode = None
    nn = 0
    if kind.shape == "signed_lattice":
        sign_mode = "leading"
    elif kind.shape == "signed_ballot":
        sign_mode = "after_north"
        (nn,) = kind.params

    steps: list[str] = []

    def rec(e_used: int, n_used: int, sign_pos: int | None, sg: int) -> Iterator[Path]:
        if e_used + n_used == length:
            yield Path(tuple(steps), kind, sign_pos, sg)
            return
        pos = e_used + n_used
        e_ok = (e_used < east) if east is not None else (e_used < east_max)
        if ballot_rule and e_used >= n_used:
            e_ok = False
        if north is not None and n_used >= north and not e_ok:
            return
        if e_ok:
            signed_here = (sign_mode == "leading" and pos == 0) or (
                sign_mode == "after_north" and n_used == nn and pos > 0 and steps[-1] == N
            )
            if signed_here:
                for s in (1, -1):
                    steps.append(E)
                    yield from rec(e_used + 1, n_used, pos, s)
                    steps.pop()
            else:
                steps.append(E)
                yield from rec(e_used + 1, n_used, sign_pos, sg)
                steps.pop()
        if north is None or n_used < north:
            steps.append(N)
            yield from rec(e_used, n_used + 1, sign_pos, sg)
            steps.pop()

    return rec(0, 0, None, 1)
