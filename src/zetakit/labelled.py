"""The single pass behind every verify check.

run_pass runs the requested checks at one rank in two phases.  The
source phase enumerates the source paths once; each check runs its
per-path test on the path's _PathData, whose fields (the zeta image
first) are computed once, when a check first reads them, and each
labelled check runs its per-labelling test on every vertical labelling
of the path, a plain window tuple, in the order of torus.enumerate_vert.
The target phase enumerates the target paths once, if a check reads
them, and a finish step settles each check's counts.  Each check keeps
its own first counterexample.  A run of unlabelled checks never computes
what only the labelled ones read: lambda, the labellings, the antichain
forms, the reading-word slots and the Weyl group.  The group side of uniform
and anderson is group arithmetic on the labels, on raw windows, and is
never read off the reading word or the image it is compared with.
"""

from __future__ import annotations

import math

from . import paths, stats, zeta
from .affine import (
    _residue,
    coerce_affine,
    dominant_frame,
    dominant_frame_parts,
    grassmannian_companion,
    translation,
)
from .errors import InvalidLabelling, ZetakitError
from .paths import Path, render_path, rises, sign_of, strip_signs, unsigned, valleys
from .rootposet import antichain_forms, ballot_to_antichain
from .signedperm import SignedPermutation, count_positive, passes, passing, weyl_group
from .torus import VertPath, label_twist, lambda_of_path, vertical_forms, wall_images
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


def _pair_tokens(template, ext) -> list:
    """The sorted tokens of a rise or valley template: ("abs", |x|, y) or
    ("pair", min((x, y), (-y, -x))) for the slot values x = ext[k1], y = ext[k2]."""
    out = []
    for is_abs, k1, k2 in template:
        x, y = ext[k1], ext[k2]
        out.append(("abs", abs(x), y) if is_abs else ("pair", min((x, y), (-y, -x))))
    out.sort()
    return out


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


def _valley_template(image: Path, lt: str, n: int) -> list:
    """Valley tokens of the reading word w on the image: a valley (i, j)
    pairs w(n+1-i) with the slot its North step j reads; in D the n-th
    North step reads eps*w(1), or, when no signed step follows it, gives
    the absolute token of w(1) and w(n+1-i)."""
    out = []
    eps = sign_of(image)
    for i, j in valleys(image):
        first = n + 1 - i
        if lt == "C":
            second = n + 1 - j if j <= n else n - j
        elif lt == "B" or j < n:
            second = n + 1 - j
        elif j == n and image.sign_pos is None:
            out.append((True, 1, first))
            continue
        elif j == n:
            second = eps
        elif j == n + 1:
            second = -eps
        else:
            second = n - j
        out.append((False, first, second))
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
    """What every check at one (type, rank) shares."""

    windows = _lazy(lambda r: [w.window for w in weyl_group(r.spec.label_type, r.n)])
    identity = _lazy(lambda r: SignedPermutation.identity(r.n))
    frame = _lazy(lambda r: dominant_frame(r.lt, r.n))
    frame_inv = _lazy(lambda r: r.frame.inverse())

    def __init__(self, lt: str, n: int):
        self.lt, self.n, self.spec = lt, n, type_spec(lt)


class _PathData:
    """One source path and what the checks read of it, each field computed
    once, when a check first reads it."""

    image = _lazy(lambda d: zeta.zeta_path(d.path, d.lt))
    lam = _lazy(lambda d: lambda_of_path(d.path, d.lt))
    labellings = _lazy(lambda d: passing(d.r.windows, *vertical_forms(d.path, d.lt)))
    # the forms and parity a word must pass to label the image diagonally
    fit = _lazy(lambda d: antichain_forms(d.image, d.lt))
    # the slots of the reading word and of the label twist
    read = _lazy(lambda d: zeta.reading_word(VertPath(d.path, d.r.identity), d.lt).window)
    twist = _lazy(lambda d: label_twist(VertPath(d.path, d.r.identity), d.lt).window)
    mu = _lazy(lambda d: zeta.area_vector(d.path, d.lt))
    sigma = _lazy(lambda d: grassmannian_companion(d.mu, d.lt))

    def __init__(self, p: Path, r: _Rank):
        self.path, self.lt, self.r = p, r.lt, r

    def item(self, v, fit):
        """(v, its signed slots, reading word, the word's signed slots,
        whether the word passes the forms fit, or None without them)."""
        ext = _signed(v)
        word = tuple([ext[k] for k in self.read])
        return v, ext, word, _signed(word), fit and passes(word, *fit)

    def misfit(self, word) -> InvalidLabelling:
        """What to_parking_function and area_prime raise for a word that
        does not label the image diagonally."""
        return InvalidLabelling("labels %s do not fit the valleys of %s" % (_text(word), self.image))


class _Check:
    """One check's outcome (None, the first counterexample, or the
    ZetakitError it raised) and the objects it examined.  Its hooks:
    source(d), the per-path test, gives a counterexample or None; labels(d)
    sets up the per-labelling test, which gives None, a "... %s | %s"
    template for (path, labels) or the exception to raise; target(q)
    is the per-target test; finish() gives the outcome after both phases;
    parts() lists what the pass runs for the check.  With reads_fit, items
    say whether the word labels the image diagonally."""

    source = labels = target = finish = None
    reads_fit = False

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

    def target(self, q):
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
        key = render_path(d.image)
        if key in self.images:
            return "duplicate image %s" % key
        self.images.add(key)
        if self.r.lt == "D" and sign_of(d.path) > 0:
            self.star.add(render_path(strip_signs(d.image)))
        return None

    def target(self, q):
        self.hit.add(render_path(q))

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
    def source(self, d: _PathData):
        if zeta.inverse_zeta_c(d.image) != d.path:
            return "round trip fails at %s" % d.path
        return None

    def target(self, q):
        self.examined += 1
        if zeta.zeta_path(zeta.inverse_zeta_c(q), "C") != q:
            return "round trip fails at image %s" % q
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
    reads_fit = True

    def labels(self, d: _PathData):
        dinv = stats.dinv_c_prime_forms(d.path)
        ideal = stats.area_prime_forms(d.image, "C")

        def test(item):
            v, _, word, _, fits = item
            if not fits:
                return d.misfit(word)
            if count_positive(v, dinv) != count_positive(word, ideal):
                return "refined dinv/area differ at %s | %s"
            return None

        return test


class _LabelledBijectivity(_Check):
    """zeta is injective on the labelled paths, which are as many as the
    points of the torus and as the diagonally labelled targets."""

    reads_fit = True

    def __init__(self, r: _Rank):
        super().__init__(r)
        self.seen = set()  # (image, reading word) keys
        self.fits = {}  # image key -> its antichain forms
        self.expected = r.spec.modulus(r.n) ** r.n
        self.diagonal = 0

    def labels(self, d: _PathData):
        key, seen = render_path(d.image), self.seen
        self.fits[key] = d.fit

        def test(item):
            _, _, word, _, fits = item
            if not fits:
                return "image of %s | %s is not diagonally labelled"
            if (key, word) in seen:
                return "labelled duplicate at %s | %s"
            seen.add((key, word))
            return None

        return test

    def target(self, q):
        if self.examined == self.expected:  # else finish reports the domain size
            forms = self.fits.get(render_path(q)) or antichain_forms(q, self.r.lt)
            self.diagonal += len(passing(self.r.windows, *forms))

    def finish(self):
        if self.examined != self.expected:
            return "labelled domain has %d elements, torus has %d" % (self.examined, self.expected)
        if self.diagonal != self.examined:
            return "labelled image misses %d targets" % (self.diagonal - self.examined)
        return None


class _RiseValley(_Check):
    def labels(self, d: _PathData):
        rise = _rise_template(d.path, d.lt)
        valley = _valley_template(d.image, d.lt, self.r.n)

        def test(item):
            _, ext, _, wext, _ = item
            if _pair_tokens(rise, ext) != _pair_tokens(valley, wext):
                return "label multisets differ at %s | %s"
            return None

        return test


class _Uniform(_Check):
    reads_fit = True

    def labels(self, d: _PathData):
        # group side: u*(tau*sigma) for the twisted labels u, against the
        # roots (tau*sigma)^-1 sends the walls through lam to
        ts = dominant_frame_parts(d.lt, self.r.n)[1].compose(d.sigma)
        same_roots = wall_images(ts, d.lam, d.lt) == ballot_to_antichain(d.image, d.lt)
        ts_win, twist = ts.window, d.twist

        def test(item):
            _, ext, word, _, fits = item
            if not fits:
                return d.misfit(word)
            u = _signed([ext[k] for k in twist])
            if not same_roots or tuple([u[t] for t in ts_win]) != word:
                return "parking functions differ at %s | %s"
            return None

        return test


class _Anderson(_Check):
    def labels(self, d: _PathData):
        # product = word * w_dom * frame^-1 = word * A for the path's affine
        # A.  With A(k) = q*K + s for |s| <= n, product(k) = word(s) + q*K,
        # whose translation part is -q at slot word(s) > 0, or q at slot
        # -word(s); the torus vector negates it modulo m.  The other side is
        # the twisted labels acting on lam, modulo m.
        r, lam, twist = self.r, d.lam, d.twist
        n, m, K = r.n, r.spec.modulus(r.n), 2 * r.n + 1
        w_dom = translation(d.mu).compose(coerce_affine(d.sigma)).inverse()
        orbit_ok = r.frame.compose(w_dom.inverse()).act((0,) * n) == lam
        parts = []
        for a in w_dom.compose(r.frame_inv).window:
            s = _residue(a, K)
            parts.append((s, (a - s) // K))

        def test(item):
            _, ext, _, wext, _ = item
            vector = [0] * n
            for s, q in parts:
                b = wext[s]
                if b > 0:
                    vector[b - 1] = q % m
                else:
                    vector[-b - 1] = -q % m
            coords = [0] * n
            for k, x in zip(twist, lam):
                u = ext[k]
                if u > 0:
                    coords[u - 1] = x % m
                else:
                    coords[-u - 1] = -x % m
            if vector != coords or not orbit_ok:
                return "window arithmetic fails at %s | %s"
            return None

        return test


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
        d, tests, fit = _PathData(p, r), [], None
        for c in live:
            try:
                if c.source:
                    c.examined += 1
                    c.outcome = c.source(d)
                if c.labels and c.outcome is None:
                    fit = d.fit if c.reads_fit else fit
                    tests.append((c, c.labels(d)))
            except ZetakitError as e:
                c.outcome = e
        if tests:
            _run_labellings(d, tests, fit)
        live = [c for c in live if c.outcome is None]
    takers = [c for c in run if c.target and c.outcome is None]
    for q in r.spec.targets(n) if takers else ():
        for c in takers:
            if c.outcome is None:
                _settle(c, c.target, q)
    for c in checks.values():
        if c.outcome is None and c.finish:
            _settle(c, c.finish)
    return {name: (c.outcome, c.examined) for name, c in checks.items()}


def _settle(c: _Check, hook, *args) -> None:
    try:
        c.outcome = hook(*args)
    except ZetakitError as e:
        c.outcome = e


def _run_labellings(d: _PathData, tests, fit) -> None:
    """Run the per-labelling tests on every vertical labelling of the path;
    each stops at its check's first counterexample.  A failure to list or
    read the labellings reaches every check still open on the path."""
    try:
        for v in d.labellings:
            item = d.item(v, fit)
            failed = False
            for c, test in tests:
                c.examined += 1
                bad = test(item)
                if bad is not None:
                    c.outcome = bad if isinstance(bad, Exception) else bad % (d.path, _text(v))
                    failed = True
            if failed:
                tests = [t for t in tests if t[0].outcome is None]
                if not tests:
                    return
    except ZetakitError as e:
        for c, _ in tests:
            if c.outcome is None:
                c.outcome = e
