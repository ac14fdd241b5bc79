"""The single pass behind every verify check.

run_pass runs the requested checks at one rank in two phases.  The
source phase enumerates the source paths once; each check runs its
per-path test on the path's _PathData, whose fields (the zeta image
first) are computed once, when a check first reads them, and each
labelled check gives the path's first counterexample among its vertical
labellings, in the order of torus.enumerate_vert.  The target phase
enumerates the target paths once, if a check reads them, and a finish
step settles each check's counts.  Each check keeps its own first
counterexample.  A run of unlabelled checks never computes what only the
labelled ones read: the labellings, the image's antichain and its forms,
the reading-word slots, the group-side oracles and the Weyl group.

Labellings are sets over the rank's group.  _Rank keeps, per positivity
form and per sign parity, the group windows that pass as the bits of one
int, read off the group's structure without listing the group.  Every
labelled check decides a path on ANDs, ORs and bit-sliced counts of these
ints; its first counterexample is the lowest bit of a set, and only the
labelling that a message prints is unranked from its bit.

On one path the reading word is the labels read at fixed signed slots,
and a signed permutation gives distinct slots distinct values.  So the
image's forms pull back through the slots to forms on the labels; the
words of one path are distinct; and uniform, anderson and rise_valley
each hold for every labelling of the path or for none, and decide their
identity once per path.  uniform and anderson run verify.uniform_oracle
and verify.anderson_check at the identity labelling, so neither reads its
group side off the image it is compared with.
"""

from __future__ import annotations

import itertools
import math
from operator import mul

from . import paths, stats, verify, zeta
from .errors import InternalError, InvalidLabelling, ZetakitError
from .paths import Path, render_path, rises, sign_of, strip_signs, unsigned
from .rootposet import ParkingFunction, _ends, _forms, antichain_forms, ballot_to_antichain
from .signedperm import SignedPermutation, passes
from .torus import VertPath, vertical_forms
from .typespec import type_spec

# the rank up to which stats_identity also checks dinv' = area' o zeta on labelled paths
REFINED_MAX_RANK = 4


# A label window v is a plain tuple.  _signed(v) extends it to the signed
# slots, so that ext[k] = v(k) for -n <= k <= n (ext[0] = 0 and ext[-k] =
# -v(k)); a path's reading word and label twist are fixed signed slots of
# the labels, read once per path off the identity labelling.


def _signed(win) -> tuple:
    return (0, *win, *[-x for x in reversed(win)])


def _text(win) -> str:
    return "[%s]" % ",".join(map(str, win))


def _pull(forms, parity, read):
    """The forms and parity the labels v pass iff their reading word on a
    path with slots read passes forms and parity: slot i of the word is
    label |read[i]| times the sign of read[i]."""
    at = [(abs(k) - 1, 1 if k > 0 else -1) for k in read]
    pulled = [(at[i][0], a * at[i][1], at[j][0] if b else 0, b * at[j][1]) for i, a, j, b in forms]
    return pulled, None if parity is None else (parity + sum(k < 0 for k in read)) % 2


def _token(is_abs, k1, k2) -> tuple:
    """The token of a rise or valley on label slots k1, k2: ("abs", |k1|,
    k2), or the root ("pair", (k1, k2)) up to its sign, (-k2, -k1).  A
    signed permutation of the labels maps distinct tokens to distinct
    tokens."""
    return ("abs", abs(k1), k2) if is_abs else ("pair", min((k1, k2), (-k2, -k1)))


def _rise_template(p: Path, lt: str) -> list:
    """Rise tokens of the labels of p: a rise i pairs v(i+1) with v(i); in D
    a path starting NN gives the absolute token of v(1) and v(2) instead,
    and a first North step pairs v(1) with -v(1) in C and with 0 in B."""
    starts_nn = p.steps[:2] == (paths.N, paths.N)
    out = [(True, 1, 2) if lt == "D" and i == 1 and starts_nn else (False, i + 1, i)
           for i in rises(p)]
    if p.steps[0] == paths.N and lt in ("B", "C"):
        out.append((False, 1, -1 if lt == "C" else 0))
    return out


def _valley_template(roots) -> list:
    """Valley tokens of the reading word w on the image, one per root of its
    antichain (sorted): e_a + s*e_b (rootposet._ends) pairs w(a) with
    -s*w(b), where w(0) = 0.  Two roots e_a - e_b and e_a + e_b, comparable
    in B and C and so together only in D with b = 1, give the absolute
    token of w(b) and w(a) instead."""
    out = []
    for a, s, b in map(_ends, roots):
        if s > 0 and (False, a, b) in out:
            out[out.index((False, a, b))] = (True, b, a)
        else:
            out.append((False, a, -s * b))
    return out


class _lazy:
    """A field computed on its first read and stored in the instance dict,
    where later reads find it.  functools.cached_property does the same but
    takes a lock on every first read on Python 3.11."""

    def __init__(self, compute):
        self.compute = compute

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


class _Rank:
    """What every check at one (type, rank) shares.  A set of windows is an
    int with bit k for window k: permutation k >> n of perms, with the signs
    k & (2^n - 1) of signs."""

    # the labels of B, C and D run over the whole signed group
    perms = _lazy(lambda r: list(itertools.permutations(range(1, r.n + 1))))
    signs = _lazy(lambda r: list(itertools.product((1, -1), repeat=r.n)))
    everything = _lazy(lambda r: (1 << (math.factorial(r.n) << r.n)) - 1)
    identity = _lazy(lambda r: SignedPermutation.identity(r.n))

    def __init__(self, lt: str, n: int):
        self.lt, self.n, self.spec = lt, n, type_spec(lt)
        self.index = {}  # form (i, a, j, b) or sign parity -> the windows that pass

    def _bits(self, key) -> int:
        """The windows that pass a form or have a parity.  With |a| = |b| or
        b = 0, a*w[i] + b*w[j] > 0 depends only on the signs and on whether
        p[i] > p[j], so each permutation takes the run of the increasing or
        the decreasing permutation that orders slots i and j as it does."""
        bits = self.index.get(key)
        if bits is None:
            forms, parity = ((), key) if isinstance(key, int) else ((key,), None)
            i, a, j, b = key if forms else (0, 0, 0, 0)
            if a and b and abs(a) != abs(b):
                raise InternalError("form %r has coefficients of different sizes" % (key,))
            runs = {q[i] > q[j]: "".join("01"[passes(tuple(map(mul, s, q)), forms, parity)] for s in self.signs[::-1])
                    for q in (range(1, self.n + 1), range(self.n, 0, -1))}
            bits = self.index[key] = int("".join([runs[p[i] > p[j]] for p in reversed(self.perms)]), 2)
        return bits

    def select(self, forms, parity=None) -> int:
        """The windows that pass the forms (i, a, j, b), a*w[i] + b*w[j] > 0,
        and, unless parity is None, have that many negative entries mod 2."""
        bits = self.everything if parity is None else self._bits(parity)
        for form in forms:
            bits &= self._bits(form)
        return bits

    def tally(self, forms) -> list:
        """The number of forms each window passes, bit-sliced: window k
        passes sum(((digits[i] >> k) & 1) << i) of them."""
        digits = []
        for form in forms:
            carry = self._bits(form)
            for i, digit in enumerate(digits):
                digits[i], carry = digit ^ carry, digit & carry
            if carry:
                digits.append(carry)
        return digits

    def window(self, bit: int) -> tuple:
        """The window of a set with one bit."""
        p, s = divmod(bit.bit_length() - 1, 1 << self.n)
        return tuple(map(mul, self.signs[s], self.perms[p]))


def _first(d: _PathData, bad: int, outcome, miss=None):
    """The first labelling in bad or in d.misfits, as (bit, outcome), or
    None.  A misfit, in bad or not, reports miss or, without it, what
    to_parking_function and area_prime raise."""
    first = (bad | d.misfits) & -(bad | d.misfits)
    if first & d.misfits and not miss:
        v = _signed(d.r.window(first))
        miss = InvalidLabelling("labels %s do not fit the valleys of %s" % (_text([v[k] for k in d.read]), d.image))
    return (first, miss if first & d.misfits else outcome) if first else None


class _PathData:
    """One source path and what the checks read of it, each field computed
    once, when a check first reads it."""

    image = _lazy(lambda d: zeta.zeta_path(d.path, d.lt))
    # the image as text; the checks that keep images keep this one string
    key = _lazy(lambda d: render_path(d.image))
    # the vertical labellings, as forms and as a set, and their number
    vertical = _lazy(lambda d: vertical_forms(d.path, d.lt))
    mask = _lazy(lambda d: d.r.select(*d.vertical))
    count = _lazy(lambda d: d.mask.bit_count())
    antichain = _lazy(lambda d: ballot_to_antichain(d.image, d.lt))
    # the forms and parity a word must pass to label the image diagonally
    fit = _lazy(lambda d: _forms(d.antichain, d.lt))
    # the identity labelling, and the slots of its reading word
    vp = _lazy(lambda d: VertPath(d.path, d.r.identity))
    read = _lazy(lambda d: zeta.reading_word(d.vp, d.lt).window)
    # the labellings whose word does not label the image diagonally
    misfits = _lazy(lambda d: d.mask and d.mask & ~d.r.select(*_pull(*d.fit, d.read)))

    def __init__(self, p: Path, r: _Rank):
        self.path, self.lt, self.r = p, r.lt, r


class _Target:
    """One target path; its text is rendered when a check first reads it."""

    key = _lazy(lambda t: render_path(t.path))

    def __init__(self, q: Path):
        self.path = q


class _Check:
    """One check's outcome (None, the first counterexample, or the
    ZetakitError it raised) and the objects it examined.  Its hooks:
    source(d), the per-path test, gives a counterexample or None; labels(d)
    gives the first counterexample among the path's labellings as (bit,
    outcome), where bit is the set of that one labelling and the outcome is
    a "... %s | %s" template for (path, labels) or the exception to raise,
    or None; target(t) is the test on a _Target; finish() gives the outcome
    after both phases; parts() lists what the pass runs for the check."""

    source = labels = target = finish = None

    def __init__(self, r: _Rank):
        self.r, self.outcome, self.examined = r, None, 0

    def parts(self) -> tuple:
        return (self,)


class _Counting(_Check):
    """The source and target counts against their closed forms; in D the
    unsigned kinds first."""

    targets = 0

    def source(self, d: _PathData):
        return None

    def target(self, t: _Target):
        self.targets += 1

    def finish(self):
        r, n = self.r, self.r.n
        a, b = self.examined, self.targets
        if r.lt == "A":
            catalan = math.comb(2 * n, n) // (n + 1)
            return "Dyck count %d != %d" % (a, catalan) if a != catalan else None
        self.examined += b
        if r.lt != "D":
            want = math.comb(2 * n, n)
            return None if a == b == want else "counts %d, %d != %d" % (a, b, want)
        kinds = (unsigned(r.spec.source.kind(n)), unsigned(r.spec.target.kind(n)))
        ua, ub = (sum(1 for _ in paths.enumerate_paths(kind)) for kind in kinds)
        want = math.comb(2 * n - 1, n - 1)
        if not ua == ub == want:
            self.examined = ua + ub
            return "unsigned counts %d, %d != %d" % (ua, ub, want)
        self.examined += ua + ub
        return None if a == b else "signed counts %d != %d" % (a, b)


class _Bijectivity(_Check):
    """zeta is injective on the source paths and hits every target; in D
    the sign-stripped map zeta* is onto as well.  Every unsigned path is its
    own +1 lift with the sign stripped, so zeta* is read off the images of
    the source paths of sign +1."""

    def __init__(self, r: _Rank):
        super().__init__(r)
        self.images, self.hit, self.star = set(), set(), set()

    def source(self, d: _PathData):
        key = d.key
        if key in self.images:
            return "duplicate image %s" % key
        self.images.add(key)
        if self.r.lt == "D" and sign_of(d.path) > 0:
            self.star.add(render_path(strip_signs(d.image)))
        return None

    def target(self, t: _Target):
        self.hit.add(t.key)

    def finish(self):
        if self.images != self.hit:
            return "image misses %s" % min(self.hit - self.images)
        if self.r.lt != "D":
            return None
        self.examined += len(self.star)
        targets = paths.enumerate_paths(unsigned(self.r.spec.target.kind(self.r.n)))
        if self.star != {render_path(q) for q in targets}:
            return "sign-stripped map is not onto"
        return None


class _InverseRoundtrip(_Check):
    """inverse o zeta is the identity on the source paths, and zeta o
    inverse on the targets.  A target that is the image of a source path p
    whose round trip held needs no second one: its inverse is p, and zeta
    of p is the target."""

    def __init__(self, r: _Rank):
        super().__init__(r)
        self.verified = set()  # the keys of the images whose inverse gave back their path

    def source(self, d: _PathData):
        if zeta.inverse_zeta_c(d.image) != d.path:
            return "round trip fails at %s" % d.path
        self.verified.add(d.key)
        return None

    def target(self, t: _Target):
        self.examined += 1
        if t.key not in self.verified and zeta.zeta_path(zeta.inverse_zeta_c(t.path), "C") != t.path:
            return "round trip fails at image %s" % t.path
        return None


class _SweepEquiv(_Check):
    def source(self, d: _PathData):
        if zeta.sweep_c(d.path) != d.image:
            return "sweep differs at %s" % d.path
        return None


class _StatsIdentity(_Check):
    """dinv = area o zeta on the source paths and, up to REFINED_MAX_RANK,
    dinv' = area' o zeta on the labelled ones.  The unlabelled
    counterexample wins: the refined half counts only where it held."""

    def __init__(self, r: _Rank):
        super().__init__(r)
        self.refined = _RefinedStats(r)

    def parts(self) -> tuple:
        return (self, self.refined) if self.r.n <= REFINED_MAX_RANK else (self,)

    def source(self, d: _PathData):
        if stats.dinv_c(d.path) != stats.area(d.image, "C"):
            return "dinv/area differ at %s" % d.path
        return None

    def finish(self):
        self.examined += self.refined.examined
        return self.refined.outcome


class _RefinedStats(_Check):
    def labels(self, d: _PathData):
        dinv = self.r.tally(stats.dinv_c_prime_forms(d.path))
        # area' of the word, as forms on the labels
        ideal = self.r.tally(_pull(stats.area_prime_forms(d.image, "C"), None, d.read)[0])
        differ = 0
        for a, b in itertools.zip_longest(dinv, ideal, fillvalue=0):
            differ |= a ^ b
        return _first(d, d.mask & differ, "refined dinv/area differ at %s | %s")


class _LabelledBijectivity(_Check):
    """zeta is injective on the labelled paths, which are as many as the
    points of the torus and as the diagonally labelled targets."""

    def __init__(self, r: _Rank):
        super().__init__(r)
        self.fits = {}  # image key -> its antichain forms
        self.sources = {}  # image key -> each earlier path's vertical forms, pulled through read^-1
        self.expected = r.spec.modulus(r.n) ** r.n
        self.diagonal = 0

    def labels(self, d: _PathData):
        # the words of one path are distinct, so two labelled paths share a
        # word only if their paths share an image: v*read = v'*read' for
        # labels v' of an earlier path iff v' = v*read*read'^-1
        key = d.key
        self.fits[key] = d.fit
        earlier = self.sources.setdefault(key, [])
        clash = 0
        for forms in earlier:
            clash |= self.r.select(*_pull(*forms, d.read))
        earlier.append(_pull(*d.vertical, SignedPermutation(d.read).inverse().window))
        return _first(d, d.mask & clash, "labelled duplicate at %s | %s", "image of %s | %s is not diagonally labelled")

    def target(self, t: _Target):
        if self.examined == self.expected:  # else finish reports the domain size
            forms = self.fits.get(t.key) or antichain_forms(t.path, self.r.lt)
            self.diagonal += self.r.select(*forms).bit_count()

    def finish(self):
        if self.examined != self.expected:
            return "labelled domain has %d elements, torus has %d" % (self.examined, self.expected)
        if self.diagonal != self.examined:
            return "labelled image misses %d targets" % (self.diagonal - self.examined)
        return None


class _RiseValley(_Check):
    def labels(self, d: _PathData):
        # the rise tokens on label slots against the valley tokens on word
        # slots, pulled back to label slots through the reading word
        rise = sorted(_token(*t) for t in _rise_template(d.path, d.lt))
        read = _signed(d.read)
        valley = sorted(_token(a, read[k1], read[k2]) for a, k1, k2 in _valley_template(d.antichain))
        return None if rise == valley else (d.mask & -d.mask, "label multisets differ at %s | %s")


class _Uniform(_Check):
    def labels(self, d: _PathData):
        # the oracle's word reads the labels at fixed slots, as the reading
        # word does, so the identity labelling decides the whole path
        same = verify.uniform_oracle(d.vp, d.lt) == ParkingFunction(SignedPermutation(d.read), d.antichain)
        # a labelling that does not fit fails to_parking_function first
        return _first(d, 0 if same else d.mask, "parking functions differ at %s | %s")


class _Anderson(_Check):
    def labels(self, d: _PathData):
        # a labelling moves and signs the entries of both torus vectors
        # alike, so the identity labelling decides the whole path
        return None if verify.anderson_check(d.vp, d.lt) else (d.mask & -d.mask, "window arithmetic fails at %s | %s")


# every check, by name
_CHECKS = {
    "counting": _Counting,
    "bijectivity": _Bijectivity,
    "labelled_bijectivity": _LabelledBijectivity,
    "inverse_roundtrip": _InverseRoundtrip,
    "sweep_equiv": _SweepEquiv,
    "rise_valley": _RiseValley,
    "stats_identity": _StatsIdentity,
    "uniform": _Uniform,
    "anderson": _Anderson,
}


def run_pass(lt: str, n: int, names) -> dict:
    """Run the checks in names at rank n: one source phase, one target
    phase, then each check's finish step.  Returns {name: (outcome,
    examined)}, where the outcome is None, the first counterexample, or the
    ZetakitError the check raised."""
    r = _Rank(lt, n)
    checks = {name: _CHECKS[name](r) for name in names}
    run = [part for c in checks.values() for part in c.parts()]
    live = run
    for p in r.spec.sources(n):
        d = _PathData(p, r)
        for c in live:
            try:
                if c.source:
                    c.examined += 1
                    c.outcome = c.source(d)
                if c.labels and c.outcome is None:
                    _count_labellings(c, d, c.labels(d))
            except ZetakitError as e:
                c.outcome = e
        live = [c for c in live if c.outcome is None]
    takers = [c for c in run if c.target and c.outcome is None]
    for q in r.spec.targets(n) if takers else ():
        t = _Target(q)
        for c in takers:
            if c.outcome is None:
                _settle(c, c.target, t)
    for c in checks.values():
        if c.outcome is None and c.finish:
            _settle(c, c.finish)
    return {name: (c.outcome, c.examined) for name, c in checks.items()}


def _settle(c: _Check, hook, *args) -> None:
    try:
        c.outcome = hook(*args)
    except ZetakitError as e:
        c.outcome = e


def _count_labellings(c: _Check, d: _PathData, hit) -> None:
    """c examined the path's labellings up to its first counterexample hit,
    (bit, outcome), or all of them if there is none."""
    if not (hit and hit[0]):
        c.examined += d.count
        return
    bit, bad = hit
    c.examined += (d.mask & (bit - 1)).bit_count() + 1
    c.outcome = bad if isinstance(bad, Exception) else bad % (d.path, _text(d.r.window(bit)))
