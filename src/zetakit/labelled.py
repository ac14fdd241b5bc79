"""The single pass over the vertically labelled paths behind verify's
labelled checks: labelled_bijectivity, rise_valley, uniform, anderson and
the refined half of stats_identity.

For each source path the pass computes once what depends on the path
alone: lambda and the twist signs; mu, sigma, tau*sigma and the roots its
inverse sends the walls to; w_dom, the frame and the orbit-rep test; the
zeta image and the positivity forms of its antichain; the slots of the
reading word; the rise and valley token templates; and, for the refined
identity, the order ideal of the image.  Then it runs every requested
check on each vertical labelling of the path, a plain window tuple, and
keeps each check's first counterexample in the order of
torus.enumerate_vert.  The group side of uniform and anderson is group
arithmetic on the labels, composed and inverted on raw windows, and is
never read off the reading word or the image it is compared with.
"""

from __future__ import annotations

from functools import cached_property

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
from .paths import Path, enumerate_paths, render_path, rises, sign_of, valleys
from .rootposet import antichain_forms, ballot_to_antichain
from .signedperm import SignedPermutation, count_positive, passes, passing, weyl_group
from .torus import VertPath, label_twist, lambda_of_path, vertical_forms, wall_images
from .typespec import type_spec


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


class _Rank:
    """What every path of one (type, rank) shares."""

    def __init__(self, lt: str, n: int):
        spec = type_spec(lt)
        self.lt, self.n, self.m, self.K = lt, n, spec.modulus(n), 2 * n + 1
        self.windows = [w.window for w in weyl_group(spec.label_type, n)]
        self.identity = SignedPermutation.identity(n)
        self.tau = dominant_frame_parts(lt, n)[1]
        self.frame = dominant_frame(lt, n)
        self.frame_inv = self.frame.inverse()
        self.seen = set()  # (image, reading word) keys of labelled_bijectivity
        self.image_forms = {}  # rendered image -> its antichain forms


class _PathData:
    """The path-only data of one source path that every check uses; what
    only uniform and anderson use is computed when they ask for it."""

    def __init__(self, p: Path, r: _Rank):
        lt = r.lt
        self.path, self.lt = p, lt
        self.lam = lambda_of_path(p, lt)
        self.labellings = passing(r.windows, *vertical_forms(p, lt))
        self.image = zeta.zeta_path(p, lt)
        self.key = render_path(self.image)
        self.forms, self.parity = r.image_forms[self.key] = antichain_forms(self.image, lt)
        self.probe = VertPath(p, r.identity)
        self.read = zeta.reading_word(self.probe, lt).window

    @cached_property
    def twist(self) -> tuple:
        return label_twist(self.probe, self.lt).window

    @cached_property
    def mu(self) -> tuple:
        return zeta.area_vector(self.path, self.lt)

    @cached_property
    def sigma(self) -> SignedPermutation:
        return grassmannian_companion(self.mu, self.lt)

    def item(self, v):
        """(v, its signed slots, reading word, the word's signed slots,
        whether the word labels the image diagonally)."""
        ext = _signed(v)
        word = tuple([ext[k] for k in self.read])
        return v, ext, word, _signed(word), passes(word, self.forms, self.parity)

    def misfit(self, word) -> InvalidLabelling:
        """What to_parking_function and area_prime raise for a word that
        does not label the image diagonally."""
        return InvalidLabelling("labels %s do not fit the valleys of %s" % (_text(word), self.image))


# Per-path set-ups: each returns the per-item test of its check, which gives
# None when the item passes, else a "... %s | %s" counterexample template
# for (path, labels) or the exception the check raises.


def _injectivity(d: _PathData, r: _Rank):
    key, seen = d.key, r.seen

    def test(item):
        _, _, word, _, fits = item
        if not fits:
            return "image of %s | %s is not diagonally labelled"
        if (key, word) in seen:
            return "labelled duplicate at %s | %s"
        seen.add((key, word))
        return None

    return test


def _rise_valley(d: _PathData, r: _Rank):
    rise = _rise_template(d.path, r.lt)
    valley = _valley_template(d.image, r.lt, r.n)

    def test(item):
        _, ext, _, wext, _ = item
        if _pair_tokens(rise, ext) != _pair_tokens(valley, wext):
            return "label multisets differ at %s | %s"
        return None

    return test


def _refined_stats(d: _PathData, r: _Rank):
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


def _uniform(d: _PathData, r: _Rank):
    # group side: u*(tau*sigma) for the twisted labels u, against the roots
    # (tau*sigma)^-1 sends the walls through lam to
    ts = r.tau.compose(d.sigma)
    same_roots = wall_images(ts, d.lam, r.lt) == ballot_to_antichain(d.image, r.lt)
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


def _anderson(d: _PathData, r: _Rank):
    # product = word * w_dom * frame^-1 = word * A for the path's affine A.
    # With A(k) = q*K + s for |s| <= n, product(k) = word(s) + q*K, whose
    # translation part is -q at slot word(s) > 0, or q at slot -word(s); the
    # torus vector negates it modulo m.  The other side is the twisted
    # labels acting on lam, modulo m.
    n, m, K, lam, twist = r.n, r.m, r.K, d.lam, d.twist
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


_LABELLED = {
    "labelled_bijectivity": _injectivity,
    "rise_valley": _rise_valley,
    "stats_identity": _refined_stats,
    "uniform": _uniform,
    "anderson": _anderson,
}


def labelled_pass(lt: str, n: int, names) -> dict:
    """Run the labelled checks in names, with "stats_identity" standing for
    its refined half, in one pass over the vertically labelled paths of
    rank n, in enumerate_vert order.  Path-only data is computed once per
    path; each check keeps its own first counterexample.  Returns
    {name: (outcome, examined)}, where the outcome is None, the
    counterexample, or the ZetakitError the check raised."""
    r = _Rank(lt, n)
    outcome = dict.fromkeys(names)
    examined = dict.fromkeys(names, 0)
    live = list(names)
    for p in enumerate_paths(type_spec(lt).source.kind(n)):
        try:
            d = _PathData(p, r)
        except ZetakitError as e:
            # the data every check reads failed: each check still open raises it
            outcome.update(dict.fromkeys(live, e))
            break
        tests = []
        for name in live:
            try:
                tests.append((name, _LABELLED[name](d, r)))
            except ZetakitError as e:
                outcome[name] = e
        for v in d.labellings:
            if not tests:
                break
            item = d.item(v)
            failed = False
            for name, test in tests:
                examined[name] += 1
                bad = test(item)
                if bad is not None:
                    outcome[name] = bad if isinstance(bad, Exception) else bad % (p, _text(v))
                    failed = True
            if failed:
                tests = [t for t in tests if outcome[t[0]] is None]
        live = [name for name in live if outcome[name] is None]
        if not live:
            break
    if "labelled_bijectivity" in live:
        try:
            outcome["labelled_bijectivity"] = _domain_witness(r, examined["labelled_bijectivity"])
        except ZetakitError as e:
            outcome["labelled_bijectivity"] = e
    return {name: (outcome[name], examined[name]) for name in names}


def _domain_witness(r: _Rank, count: int):
    """labelled_bijectivity after an injective pass: the domain must have
    the size of the torus, and the diagonally labelled targets as many."""
    expected = r.m**r.n
    if count != expected:
        return "labelled domain has %d elements, torus has %d" % (count, expected)
    diag_count = 0
    for q in enumerate_paths(type_spec(r.lt).target.kind(r.n)):
        forms = r.image_forms.get(render_path(q)) or antichain_forms(q, r.lt)
        diag_count += len(passing(r.windows, *forms))
    if diag_count != count:
        return "labelled image misses %d targets" % (diag_count - count)
    return None
