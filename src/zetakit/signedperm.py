"""Signed permutations in window notation.

A window [w(1), ..., w(n)] of signed integers whose absolute values are a
permutation of 1..n.  Evaluation extends to [-n, n] by w(-i) = -w(i) and
w(0) = 0.  One class serves types B, C and D; membership in the even-sign
subgroup is a predicate.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import mul

from .errors import NotBijective, RankMismatch, Unsupported, json_window
from .value import _set, _Value


class SignedPermutation(_Value):
    __slots__ = __match_args__ = ("window",)

    def __init__(self, window: tuple[int, ...]):
        _set(self, "window", window)
        _set(self, "_key", (window,))
        n = len(self.window)
        if sorted(abs(v) for v in self.window) != list(range(1, n + 1)) or 0 in self.window:
            raise NotBijective("window %r is not a signed permutation" % (self.window,))

    @property
    def n(self) -> int:
        return len(self.window)

    def __call__(self, i: int) -> int:
        if i == 0:
            return 0
        if abs(i) > self.n:
            raise RankMismatch("index %d out of range for rank %d" % (i, self.n))
        return self.window[i - 1] if i > 0 else -self.window[-i - 1]

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """(self * other)(i) = self(other(i))."""
        if other.__class__ is not SignedPermutation:
            raise TypeError("cannot compose a signed permutation with %r" % (other,))
        if self.n != other.n:
            raise RankMismatch("rank %d vs %d" % (self.n, other.n))
        # self extended to [-n, n]: entry k is self(k), and entry -k is self(-k)
        w = self.window
        signed = (0, *w, *[-v for v in reversed(w)])
        return _built(tuple(map(signed.__getitem__, other.window)))

    __mul__ = compose

    def inverse(self) -> "SignedPermutation":
        win = [0] * self.n
        for i, v in enumerate(self.window, start=1):
            if v > 0:
                win[v - 1] = i
            else:
                win[-v - 1] = -i
        return _built(tuple(win))

    def sign_changes(self) -> int:
        return sum(1 for v in self.window if v < 0)

    def is_even(self) -> bool:
        """True iff the number of sign changes is even (type D membership)."""
        return self.sign_changes() % 2 == 0

    def act(self, x) -> tuple[int, ...]:
        """Coordinate action: the i-th input lands in slot |w(i)| with the
        sign of w(i)."""
        x = tuple(x)
        if len(x) != self.n:
            raise RankMismatch("vector length %d vs rank %d" % (len(x), self.n))
        out = [0] * self.n
        for i, v in enumerate(self.window):
            if v > 0:
                out[v - 1] = x[i]
            else:
                out[-v - 1] = -x[i]
        return tuple(out)

    def is_permutation(self) -> bool:
        """True iff no sign changes at all (a plain permutation)."""
        return all(v > 0 for v in self.window)

    def window_text(self) -> str:
        return "[%s]" % ",".join(map(str, self.window))

    def __str__(self) -> str:
        return self.window_text()

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_text(cls, text: str) -> "SignedPermutation":
        return cls(json_window(text))


def _built(window: tuple[int, ...]) -> SignedPermutation:
    """The signed permutation with a window that group arithmetic on valid
    operands built, without the check of __init__."""
    w = object.__new__(SignedPermutation)
    _set(w, "window", window)
    _set(w, "_key", (window,))
    return w


# A positivity form (i, a, j, b) tests a*win[i] + b*win[j] > 0 on a window:
# whether the signed permutation sends a root to a positive root
# (rootposet.root_form), or a comparison of two labels.


def passes(win, forms, parity=None) -> bool:
    """True iff a*win[i] + b*win[j] > 0 for every form (i, a, j, b), and the
    number of negative entries has the given parity unless it is None."""
    if parity is not None and sum(1 for x in win if x < 0) % 2 != parity:
        return False
    return all(a * win[i] + b * win[j] > 0 for i, a, j, b in forms)


def count_positive(win, forms) -> int:
    """The number of forms (i, a, j, b) with a*win[i] + b*win[j] > 0."""
    return sum(1 for i, a, j, b in forms if a * win[i] + b * win[j] > 0)


@lru_cache(maxsize=32)
def weyl_group(lattice_type: str, n: int) -> tuple[SignedPermutation, ...]:
    """All elements of the finite Weyl group of the given type and rank.

    Types B and C have the same group and type D is its even subgroup, so
    the three share one set of elements."""
    if n < 0:
        raise RankMismatch("rank %d is negative" % n)
    # every window below is a signed permutation by construction, so none is checked again
    if lattice_type == "A":
        return tuple(map(_built, itertools.permutations(range(1, n + 1))))
    if lattice_type == "B":
        # the permutations in lexicographic order, each with its signs in product order
        signs = list(itertools.product((1, -1), repeat=n))
        perms = itertools.permutations(range(1, n + 1))
        return tuple(_built(tuple(map(mul, s, p))) for p in perms for s in signs)
    if lattice_type == "C":
        return weyl_group("B", n)
    if lattice_type == "D":
        return tuple(w for w in weyl_group("B", n) if w.is_even())
    raise Unsupported("unknown type %r" % lattice_type)
