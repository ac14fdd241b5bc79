"""Affine permutations with period K = 2n+1 in window notation.

These are the bijections of the integers satisfying w(i+K) = w(i)+K and
w(-i) = -w(i), determined by the window [w(1), ..., w(n)].  The module
provides group arithmetic, the split into a coroot-lattice translation
and a finite signed permutation, Grassmannian tests, type membership,
and the frame element whose translation/finite parts normalize area
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LatticeViolation, NotBijective, RankMismatch, json_choice, json_int, json_ints, json_window
from .signedperm import SignedPermutation
from .typespec import TORUS_TYPES, type_spec


@dataclass(frozen=True)
class AffinePermutation:
    window: tuple[int, ...]

    def __post_init__(self):
        n = len(self.window)
        K = 2 * n + 1
        residues = sorted(abs(_residue(v, K)) for v in self.window)
        if residues != list(range(1, n + 1)):
            raise NotBijective("window %r does not define an affine permutation" % (self.window,))

    @property
    def n(self) -> int:
        return len(self.window)

    @property
    def period(self) -> int:
        return 2 * self.n + 1

    def __call__(self, i: int) -> int:
        K = self.period
        r = _residue(i, K)
        q = (i - r) // K
        if r == 0:
            return q * K
        base = self.window[r - 1] if r > 0 else -self.window[-r - 1]
        return base + q * K

    def compose(self, other: "AffinePermutation") -> "AffinePermutation":
        """(self * other)(i) = self(other(i))."""
        other = coerce_affine(other)
        if self.n != other.n:
            raise RankMismatch("rank %d vs %d" % (self.n, other.n))
        return AffinePermutation(tuple(self(other.window[i]) for i in range(self.n)))

    __mul__ = compose

    def inverse(self) -> "AffinePermutation":
        sp = decompose(self)
        K = self.period
        sigma_inv = sp.sigma.inverse()
        win = tuple(sigma_inv(i) + sp.mu[i - 1] * K for i in range(1, self.n + 1))
        return AffinePermutation(win)

    def act(self, x) -> tuple[int, ...]:
        """Action on the coroot lattice: split as translation * finite part,
        apply the finite part, then translate."""
        sp = decompose(self)
        y = sp.sigma.act(x)
        return tuple(a + b for a, b in zip(y, sp.mu))

    def window_text(self) -> str:
        return "[%s]" % ",".join(map(str, self.window))

    def __str__(self) -> str:
        return self.window_text()

    @classmethod
    def identity(cls, n: int) -> "AffinePermutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_text(cls, text: str) -> "AffinePermutation":
        return cls(json_window(text))


def _residue(v: int, K: int) -> int:
    """The representative of v modulo K lying in [-(K-1)/2, (K-1)/2]."""
    n = (K - 1) // 2
    return (v + n) % K - n


def from_window(window, n: int | None = None) -> AffinePermutation:
    window = tuple(window)
    if n is not None and len(window) != n:
        raise RankMismatch("window length %d, expected %d" % (len(window), n))
    return AffinePermutation(window)


def coerce_affine(w) -> AffinePermutation:
    if isinstance(w, AffinePermutation):
        return w
    if isinstance(w, SignedPermutation):
        return AffinePermutation(w.window)
    raise TypeError("cannot interpret %r as an affine permutation" % (w,))


def translation(q) -> AffinePermutation:
    """The translation by the vector q, with window entries -q_i*K + i."""
    q = tuple(q)
    K = 2 * len(q) + 1
    return AffinePermutation(tuple(-q[i] * K + (i + 1) for i in range(len(q))))


@dataclass(frozen=True)
class TranslationSplit:
    """Data of w = translation(mu) * sigma = sigma * translation(-nu)."""

    mu: tuple[int, ...]
    nu: tuple[int, ...]
    sigma: SignedPermutation


def decompose(w: AffinePermutation) -> TranslationSplit:
    n, K = w.n, w.period
    mu = [0] * n
    nu = [0] * n
    win = [0] * n
    for i in range(1, n + 1):
        v = w.window[i - 1]
        b = _residue(v, K)
        a = (v - b) // K
        win[i - 1] = b
        nu[i - 1] = a
        if b > 0:
            mu[b - 1] = -a
        else:
            mu[-b - 1] = a
    return TranslationSplit(tuple(mu), tuple(nu), SignedPermutation(tuple(win)))


def recompose(split: TranslationSplit) -> AffinePermutation:
    return translation(split.mu).compose(coerce_affine(split.sigma))


def is_grassmannian(w: AffinePermutation, lattice_type: str) -> bool:
    """Minimal-length coset representative test, read off the window."""
    win = w.window
    if lattice_type in ("B", "C"):
        return win[0] > 0 and all(win[i] < win[i + 1] for i in range(len(win) - 1))
    if lattice_type == "D":
        return (
            win[0] != 0
            and abs(win[0]) < win[1]
            and all(win[i] < win[i + 1] for i in range(1, len(win) - 1))
        ) if len(win) >= 2 else win[0] != 0
    raise ValueError("unknown type %r" % lattice_type)


def grassmannian_companion(mu, lattice_type: str) -> SignedPermutation:
    """The unique finite part sigma such that translation(mu) * sigma is
    Grassmannian.

    Computed by ranking |mu_k*K - k|; the slot sign follows the sign of
    mu, with the type-D exception in the lowest slot where the parity of
    the number of positive entries decides.
    """
    mu = tuple(mu)
    n = len(mu)
    K = 2 * n + 1
    if lattice_type in ("B", "D") and sum(mu) % 2 != 0:
        raise LatticeViolation("vector %r has odd coordinate sum" % (mu,))
    keys = [abs(mu[k] * K - (k + 1)) for k in range(n)]
    order = sorted(range(n), key=keys.__getitem__)
    rank = [0] * n
    for pos, k in enumerate(order):
        rank[k] = pos + 1
    positives = sum(1 for v in mu if v > 0)
    win = [0] * n
    for i in range(n):
        r = rank[i]
        if lattice_type == "D" and r == 1:
            plus = (mu[i] <= 0) == (positives % 2 == 0)
        else:
            plus = mu[i] <= 0
        # sigma^{-1}(i+1) = +-r; record sigma directly
        if plus:
            win[r - 1] = i + 1
        else:
            win[r - 1] = -(i + 1)
    return SignedPermutation(tuple(win))


def in_group(w: AffinePermutation, lattice_type: str) -> bool:
    """Membership of w in the affine permutation group of the given type:
    type B needs an even number of i <= n with w(i) > n, and type D also
    an even number of i >= 0 with w(i) < 0.  Since w(s + qK) = w(s) + qK,
    each residue s meets these finite sets in one range of q, counted in
    closed form."""
    if lattice_type == "C":
        return True
    if lattice_type not in ("B", "D"):
        raise ValueError("unknown type %r" % lattice_type)
    n, K = w.n, w.period
    first = second = 0
    for b in w.window:
        # the residues s = k and s = -k, with w(s) = b and -b: count the q
        # with q <= 0 and w(s) + qK > n, and with q >= (s < 0) and w(s) + qK < 0
        first += max(0, -((n - b) // K)) + max(0, -((n + b) // K))
        second += max(0, (-b - 1) // K + 1) + max(0, (b - 1) // K)
    return first % 2 == 0 and (lattice_type == "B" or second % 2 == 0)


def dominant_frame_parts(lattice_type: str, n: int):
    """Translation and finite parts (shift, twist) of the frame element
    used to normalize area vectors."""
    if lattice_type == "C":
        shift = tuple(range(1, n + 1))
        twist = SignedPermutation(tuple(-(n + 1 - i) for i in range(1, n + 1)))
    elif lattice_type == "D":
        if (n - 1) % 4 in (0, 3):
            shift = tuple(range(0, n))
            twist = SignedPermutation.identity(n)
        else:
            shift = tuple(range(0, n - 1)) + (n,)
            win = [-1] + list(range(2, n)) + [-n]
            twist = SignedPermutation(tuple(win))
    elif lattice_type == "B":
        if n % 4 in (0, 3):
            shift = tuple(range(1, n + 1))
            twist = SignedPermutation.identity(n)
        else:
            shift = tuple(range(1, n)) + (n + 1,)
            win = list(range(1, n)) + [-n]
            twist = SignedPermutation(tuple(win))
    else:
        raise ValueError("unknown type %r" % lattice_type)
    return shift, twist


def dominant_frame(lattice_type: str, n: int) -> AffinePermutation:
    """The affine element with parts dominant_frame_parts(type, n)."""
    shift, twist = dominant_frame_parts(lattice_type, n)
    return translation(shift).compose(coerce_affine(twist))


def affine_to_json(w: AffinePermutation, lattice_type: str) -> dict:
    return {"type": lattice_type, "n": w.n, "window": list(w.window)}


def affine_from_json(d: dict) -> AffinePermutation:
    """An affine permutation of type B, C or D from its JSON object:
    MalformedToken for another type, RankMismatch below the type's smallest
    rank and LatticeViolation outside the type's group."""
    w = from_window(json_ints(d, "window"), json_int(d, "n") if "n" in d else None)
    lattice_type = json_choice(d, "type", TORUS_TYPES)
    type_spec(lattice_type).check_rank(w.n)
    if not in_group(w, lattice_type):
        raise LatticeViolation("window %r is not in the type %s group" % (w.window, lattice_type))
    return w
