"""The single pass of verify against the per-check loops kept in
oracles.py: the same first counterexample for every check, on the real
maps and on deliberately broken ones."""

import pytest

import zetakit.labelled as labelled
import zetakit.paths as paths
import zetakit.signedperm as signedperm
import zetakit.stats as stats
import zetakit.torus as torus
import zetakit.verify as verify
import zetakit.zeta as zmod

from zetakit.errors import InternalError, InvalidLabelling, NotRepresentative, ZetakitError
from zetakit.labelled import REFINED_MAX_RANK, run_pass
from zetakit.paths import enumerate_paths, lattice, parse_path
from zetakit.rootposet import to_parking_function
from zetakit.signedperm import SignedPermutation, count_positive
from zetakit.stats import area_prime_forms, dinv_c_prime_forms
from zetakit.typespec import CHECKS, LABELLED_CHECKS, TypeSpec, modulus, type_spec
from zetakit.verify import run_suite

from oracles import LABELLED_ORACLES, PER_LABELLING_ORACLES, UNLABELLED_ORACLES, group_windows, passing, passing_bits

RANKS = (
    [("A", n) for n in (1, 2, 3, 4)]
    + [("B", n) for n in (2, 3, 4)]
    + [("C", n) for n in (1, 2, 3, 4)]
    + [("D", n) for n in (2, 3, 4)]
)


def _shown(outcome):
    return (type(outcome), str(outcome)) if isinstance(outcome, Exception) else outcome


def _oracle(name: str, lt: str, n: int):
    """What the check's own loop gives: (outcome, examined), with examined
    None where the loop does not count.  stats_identity runs its unlabelled
    loop, then its refined one where that held; when both hold it examined
    every source path and every point of the torus."""
    try:
        if name not in UNLABELLED_ORACLES:
            return LABELLED_ORACLES[name](lt, n), None
        outcome, examined = UNLABELLED_ORACLES[name](lt, n)
        if name == "stats_identity" and outcome is None and n <= REFINED_MAX_RANK:
            refined = LABELLED_ORACLES[name](lt, n)
            return refined, examined + modulus(lt, n) ** n if refined is None else None
        return outcome, examined
    except ZetakitError as e:
        return _shown(e), None


def _assert_same(lt: str, n: int):
    """The pass and the loops agree on every check of the type, and on the
    objects examined where the loop counts them; returns the pass's
    {check: (outcome, examined)}."""
    names = type_spec(lt).checks
    found = run_pass(lt, n, names)
    expected = {name: _oracle(name, lt, n) for name in names}
    assert {name: _shown(o) for name, (o, _) in found.items()} == {name: o for name, (o, _) in expected.items()}
    for name, (_, examined) in expected.items():
        if examined is not None:
            assert found[name][1] == examined, name
    return found


@pytest.mark.parametrize("lt,n", RANKS)
def test_single_pass_matches_oracle_loops(lt, n):
    found = _assert_same(lt, n)
    assert all(o is None and examined > 0 for o, examined in found.values())
    # _assert_same pinned the unlabelled counts to the loops'
    sources = sum(1 for _ in type_spec(lt).sources(n))
    for name, (_, examined) in found.items():
        if name in LABELLED_CHECKS:
            assert examined == modulus(lt, n) ** n, name
        elif name == "stats_identity" and n <= REFINED_MAX_RANK:
            assert examined == sources + modulus(lt, n) ** n


@pytest.mark.parametrize("lt,n", [("A", 3), ("B", 3), ("C", 3), ("D", 3)])
def test_each_check_alone_matches_all_together(lt, n):
    names = type_spec(lt).checks
    together = run_pass(lt, n, names)
    for name in names:
        assert run_pass(lt, n, [name]) == {name: together[name]}


def _words(d, labellings) -> list:
    """The reading word of each labelling of the path, read off its slots."""
    return [tuple(labelled._signed(v)[k] for k in d.read) for v in labellings]


@pytest.mark.parametrize("lt", "BCD")
def test_per_path_verdicts_match_the_per_labelling_tests(lt):
    """At rank 5, one above RANKS: on every path, rise_valley, uniform and
    anderson give, as its bit, the first (position, outcome) that their
    label arithmetic on the raw windows gives, run in order on every
    labelling the reference filter lists."""
    r = labelled._Rank(lt, 5)
    checks = {name: labelled._CHECKS[name](r) for name in PER_LABELLING_ORACLES}
    windows = group_windows(5)
    for p in r.spec.sources(5):
        d = labelled._PathData(p, r)
        labellings = passing(windows, *torus.vertical_forms(p, lt))
        assert d.count == len(labellings) > 0
        items = [(v, word, signedperm.passes(word, *d.fit)) for v, word in zip(labellings, _words(d, labellings))]
        for name, c in checks.items():
            oracle = PER_LABELLING_ORACLES[name](d)
            first = next(((k, _shown(bad)) for k, bad in enumerate(map(oracle, items)) if bad is not None), None)
            hit = c.labels(d)
            assert (hit and ((d.mask & (hit[0] - 1)).bit_count(), _shown(hit[1]))) == first, (p, name)


def test_verify_dispatches_every_labelled_check_to_the_pass():
    assert set(labelled._CHECKS) == set(CHECKS)
    # the labelled checks are the ones with a per-labelling test, with the
    # refined half of stats_identity
    r = labelled._Rank("C", 2)
    with_labels = {name for name, check in labelled._CHECKS.items() if any(part.labels for part in check(r).parts())}
    assert with_labels == set(LABELLED_CHECKS) | {"stats_identity"}


def _swap_images(monkeypatch, lt: str, n: int):
    """A path-level fault: the second and third source paths (the first two
    at a rank with fewer) trade images."""
    true_zeta = zmod.zeta_path
    sources = list(type_spec(lt).sources(n))
    pair = sources[1:3] if len(sources) > 2 else sources[:2]
    swap = dict(zip(pair, reversed([true_zeta(p, lt) for p in pair])))
    monkeypatch.setattr(zmod, "zeta_path", lambda p, t: swap.get(p) or true_zeta(p, t))


def _negate_first_twist(monkeypatch, lt: str, n: int):
    """A label-level fault: the twist sign of the first label slot flips."""
    true_signs = torus._twist_signs

    def flipped(p, lam, t):
        signs = true_signs(p, lam, t)
        signs[0] = -signs[0]
        return signs

    monkeypatch.setattr(torus, "_twist_signs", flipped)


def _zeta_raises(monkeypatch, lt: str, n: int, bad=None):
    """A path-data fault: zeta raises on one source path, by default the
    third (the last at a rank with fewer)."""
    true_zeta = zmod.zeta_path
    if bad is None:
        sources = list(type_spec(lt).sources(n))
        bad = sources[min(2, len(sources) - 1)]

    def broken(p, t):
        if p == bad:
            raise InvalidLabelling("no image for %s" % p)
        return true_zeta(p, t)

    monkeypatch.setattr(zmod, "zeta_path", broken)


def _reading_word_fault(monkeypatch, change):
    true_word = zmod.reading_word
    monkeypatch.setattr(zmod, "reading_word", lambda vp, t: SignedPermutation(change(true_word(vp, t).window)))


def _swap_last_letters(monkeypatch, lt: str, n: int):
    """A reading-word fault: the last two letters trade places, at every
    rank above 1."""
    _reading_word_fault(monkeypatch, lambda w: (*w[:-2], w[-1], w[-2]) if len(w) > 1 else w)


def _negate_last_letter(monkeypatch, lt: str, n: int):
    """A reading-word fault: the last letter changes sign."""
    _reading_word_fault(monkeypatch, lambda w: (*w[:-1], -w[-1]))


def _merge_images(monkeypatch, lt: str, n: int):
    """A path-level fault that reaches the image clash of
    labelled_bijectivity: the third source path takes the second's image
    (the second the first's at a rank with fewer; none with one path)."""
    true_zeta = zmod.zeta_path
    sources = list(type_spec(lt).sources(n))
    pair = sources[1:3] if len(sources) > 2 else sources[:2]
    if len(pair) == 2:
        giver, taker = pair
        image = true_zeta(giver, lt)
        monkeypatch.setattr(zmod, "zeta_path", lambda p, t: image if p == taker else true_zeta(p, t))


FAULTS = [_swap_images, _negate_first_twist, _zeta_raises, _swap_last_letters, _negate_last_letter, _merge_images]


SELECT_RANKS = [("B", n) for n in (2, 3, 4, 5)] + [("C", n) for n in (1, 2, 3, 4, 5)] + [("D", n) for n in (2, 3, 4, 5)]


@pytest.mark.parametrize("lt,n", SELECT_RANKS)
@pytest.mark.parametrize("fault", [None, _negate_last_letter], ids=["clean", "negated_letter"])
def test_labelling_sets_list_what_the_reference_filter_lists(monkeypatch, fault, lt, n):
    """_Rank.select against the reference filter, on every source path's
    vertical forms and on its image's forms, as given and pulled back
    through the reading-word slots; the misfits are the labellings whose
    word fails the image's forms.  Under a reading-word fault, words do not
    fit, so the misfit sets are tested too."""
    if fault:
        fault(monkeypatch, lt, n)
    r = labelled._Rank(lt, n)
    windows = group_windows(n)
    bit = {w: 1 << k for k, w in enumerate(windows)}
    misfits = 0
    for p in r.spec.sources(n):
        d = labelled._PathData(p, r)
        pulled = labelled._pull(*d.fit, d.read)
        for forms in (torus.vertical_forms(p, lt), d.fit, pulled):
            assert r.select(*forms) == passing_bits(windows, *forms)
        labellings = passing(windows, *torus.vertical_forms(p, lt))
        fits = [signedperm.passes(word, *d.fit) for word in _words(d, labellings)]
        assert d.misfits == sum(bit[v] for v, ok in zip(labellings, fits) if not ok), p
        misfits += bool(d.misfits)
    assert bool(misfits) == bool(fault)


def _form_family(n: int) -> list:
    """Every key the form index can be asked for at rank n: two slots with
    coefficients +-1 (one slot twice included), one slot with +-1 or +-2,
    the degenerate 0 > 0 of test_a_check_over_no_labellings_fails, and
    both sign parities."""
    slots = range(n)
    two = [(i, a, j, b) for i in slots for j in slots for a in (1, -1) for b in (1, -1)]
    return two + [(i, a, 0, 0) for i in slots for a in (1, -1, 2, -2)] + [(0, 0, 0, 0), 0, 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_form_index_is_the_reference_filter(n):
    """_Rank._bits, read off the group's structure, against the filter over
    weyl_group's windows, on every key of the family."""
    r, windows = labelled._Rank("B", n), group_windows(n)
    for key in _form_family(n):
        forms, parity = ((), key) if isinstance(key, int) else ([key], None)
        assert r._bits(key) == passing_bits(windows, forms, parity), key


def test_the_pass_asks_only_for_keys_of_the_family(monkeypatch):
    true_bits = labelled._Rank._bits
    keys = {n: set() for n in range(1, 6)}

    def recorded(r, key):
        keys[r.n].add(key)
        return true_bits(r, key)

    monkeypatch.setattr(labelled._Rank, "_bits", recorded)
    for lt in "BCD":
        for n in range(type_spec(lt).min_rank, 6):
            assert all(o is None for o, _ in run_pass(lt, n, type_spec(lt).checks).values())
    for n, asked in keys.items():
        assert asked and asked <= set(_form_family(n)), n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_index_unranks_every_window_in_group_order(n):
    r, windows = labelled._Rank("B", n), group_windows(n)
    assert r.everything == (1 << len(windows)) - 1
    assert [r.window(1 << k) for k in range(len(windows))] == windows


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_tally_counts_the_forms_each_window_passes(n):
    """_Rank.tally against count_positive on every window, with the forms
    of the refined stats: each C source path's dinv' forms and its image's
    area' forms pulled back through the reading-word slots."""
    r, windows = labelled._Rank("C", n), group_windows(n)
    for p in r.spec.sources(n):
        d = labelled._PathData(p, r)
        pulled, _ = labelled._pull(area_prime_forms(d.image, "C"), None, d.read)
        for forms in (dinv_c_prime_forms(p), pulled):
            digits = r.tally(forms)
            counts = [sum(((digit >> k) & 1) << i for i, digit in enumerate(digits)) for k in range(len(windows))]
            assert counts == [count_positive(w, forms) for w in windows], (p, forms)


@pytest.mark.parametrize("form", [(0, 1, 1, 2), (2, -2, 0, 1)])
def test_a_form_with_unequal_coefficients_is_refused(form):
    # w[i] + 2*w[j] > 0 compares |w[i]| with 2*|w[j]|, which the order of
    # the two slots does not decide; the runs would be silently wrong
    r = labelled._Rank("C", 3)
    with pytest.raises(InternalError):
        r.select([form])


def _scale_area_vector(monkeypatch, lt: str, n: int):
    """A fault only the orbit comparison sees: the area vector is scaled by
    2m + 1, which keeps it modulo m and keeps its Grassmannian companion,
    so the torus vector stays and the orbit representative moves."""
    true_area = zmod.area_vector
    k = 2 * modulus(lt, n) + 1
    monkeypatch.setattr(zmod, "area_vector", lambda p, t: tuple(k * x for x in true_area(p, t)))


def _assert_verdicts(lt: str, n: int, name: str, fault, oracle) -> None:
    """The pass's verdict on check name is oracle(d) on every source path,
    and every verdict holds iff there is no fault."""
    r = labelled._Rank(lt, n)
    check = labelled._CHECKS[name](r)
    verdicts = []
    for p in r.spec.sources(n):
        d = labelled._PathData(p, r)
        verdict = check.labels(d) is None
        assert verdict == oracle(d), p
        verdicts.append(verdict)
    assert all(verdicts) == (fault is None)


@pytest.mark.parametrize("lt,n", SELECT_RANKS)
@pytest.mark.parametrize(
    "fault", [None, _negate_first_twist, _scale_area_vector], ids=["clean", "negated_twist", "scaled_area"]
)
def test_the_pass_is_the_anderson_oracle_at_the_identity(monkeypatch, fault, lt, n):
    """On every source path, the pass's anderson verdict is
    verify.anderson_check on the path with the identity labelling."""
    if fault:
        fault(monkeypatch, lt, n)
    identity = SignedPermutation.identity(n)
    _assert_verdicts(lt, n, "anderson", fault, lambda d: verify.anderson_check(torus.VertPath(d.path, identity), lt))


def _uniform_at_first_labelling(d) -> bool:
    """uniform_oracle against the parking function of the image and the
    word, at the path's first vertical labelling; a misfit fails."""
    vp = torus.VertPath(d.path, SignedPermutation(d.r.window(d.mask & -d.mask)))
    try:
        return verify.uniform_oracle(vp, d.lt) == to_parking_function(*zmod.zeta_labelled(vp, d.lt), d.lt)
    except InvalidLabelling:
        return False


@pytest.mark.parametrize("lt,n", SELECT_RANKS)
@pytest.mark.parametrize(
    "fault", [None, _negate_first_twist, _negate_last_letter], ids=["clean", "negated_twist", "negated_letter"]
)
def test_the_pass_is_the_uniform_oracle_at_the_identity(monkeypatch, fault, lt, n):
    """On every source path, the pass's uniform verdict is verify's
    uniform_oracle on one labelled path.  That path is the first vertical
    labelling, which is the identity wherever the identity labels the path
    vertically (every B and C path); in D the identity's word can miss the
    image's sign parity, a misfit of a labelling the path does not have."""
    if fault:
        fault(monkeypatch, lt, n)
    _assert_verdicts(lt, n, "uniform", fault, _uniform_at_first_labelling)


@pytest.mark.parametrize("lt,n", RANKS)
@pytest.mark.parametrize("fault", FAULTS)
def test_pass_matches_oracle_loops_under_a_fault(monkeypatch, fault, lt, n):
    fault(monkeypatch, lt, n)
    found = _assert_same(lt, n)
    # counting reads no path data
    assert found["counting"][0] is None


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("lt", ["B", "C", "D"])
def test_faults_give_the_same_first_counterexample(monkeypatch, fault, lt):
    fault(monkeypatch, lt, 3)
    failed = {name for name, (o, _) in _assert_same(lt, 3).items() if o is not None}
    # every fault breaks the labelled bijection and the uniform oracle
    assert {"labelled_bijectivity", "uniform"} <= failed


@pytest.mark.parametrize("lt", ["B", "C", "D"])
def test_a_labelled_counterexample_ends_the_count_where_it_stands(monkeypatch, lt):
    """A labelled check that fails at (path, labels) examined the labellings
    of torus.enumerate_vert up to that one, under every fault."""
    place = {" %s | %s" % (vp.path, vp.labels): k for k, vp in enumerate(torus.enumerate_vert(lt, 3), 1)}
    compared = 0
    for fault in FAULTS:
        with monkeypatch.context() as m:
            fault(m, lt, 3)
            for name, (outcome, examined) in run_pass(lt, 3, LABELLED_CHECKS).items():
                at = [k for key, k in place.items() if isinstance(outcome, str) and key in outcome]
                if at:
                    assert [examined] == at, (fault.__name__, name, outcome)
                    compared += 1
    assert compared >= len(FAULTS)


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("lt", ["B", "C", "D"])
def test_a_counterexample_unranks_at_most_two_windows(monkeypatch, fault, lt):
    """A failing labelled check unranks the word of a misfit and the labels
    it prints, not the path's labellings; a passing one unranks none.  At
    rank 5, and for the refined stats at REFINED_MAX_RANK."""
    true_window, calls = labelled._Rank.window, []

    def counted(r, bit):
        calls.append(bit)
        return true_window(r, bit)

    monkeypatch.setattr(labelled._Rank, "window", counted)
    runs = [(name, 5) for name in LABELLED_CHECKS]
    runs += [("stats_identity", REFINED_MAX_RANK)] if "stats_identity" in type_spec(lt).checks else []
    failed = 0
    for name, n in runs:
        calls.clear()
        with monkeypatch.context() as m:
            fault(m, lt, n)
            (outcome, _), = run_pass(lt, n, [name]).values()
        assert len(calls) <= (0 if outcome is None else 2), (name, n)
        failed += outcome is not None
    assert failed


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_refined_fault_gives_the_oracle_counterexample(monkeypatch, n):
    """A fault only the refined stats see: the first dinv' form of every
    path changes sign, which keeps dinv and moves dinv' on some labellings.
    The refined half counts the labellings of torus.enumerate_vert up to
    the one it prints, after every source path."""
    true_forms = stats.dinv_c_prime_forms

    def flipped(p):
        forms = true_forms(p)
        return [(i, -a, j, -b) for i, a, j, b in forms[:1]] + forms[1:]

    monkeypatch.setattr(stats, "dinv_c_prime_forms", flipped)
    outcome, examined = _assert_same("C", n)["stats_identity"]
    assert outcome.startswith("refined dinv/area differ at ")
    shown = [k for k, vp in enumerate(torus.enumerate_vert("C", n), 1) if outcome.endswith(" %s | %s" % (vp.path, vp.labels))]
    assert shown == [examined - sum(1 for _ in type_spec("C").sources(n))]


def test_a_path_data_fault_is_not_overwritten_by_a_count(monkeypatch):
    _zeta_raises(monkeypatch, "C", 2, parse_path("NENE", lattice(2, 2)))
    found = run_pass("C", 2, ["counting", "labelled_bijectivity"])
    assert isinstance(found["labelled_bijectivity"][0], InvalidLabelling)
    assert found["counting"] == (None, 12)


def _companion_fails_on_third_path(monkeypatch, lt: str, n: int):
    """A fault only uniform and anderson can see: the Grassmannian companion
    raises on the area vector of the third source path."""
    bad_mu = zmod.area_vector(list(enumerate_paths(type_spec(lt).source.kind(n)))[2], lt)
    true_companion = verify.grassmannian_companion

    def companion(mu, t):
        if tuple(mu) == bad_mu:
            raise NotRepresentative("no companion for %s" % (mu,))
        return true_companion(mu, t)

    monkeypatch.setattr(verify, "grassmannian_companion", companion)


@pytest.mark.parametrize("lt", ["B", "C", "D"])
def test_an_error_reaches_only_the_checks_that_raise_it(monkeypatch, lt):
    _companion_fails_on_third_path(monkeypatch, lt, 3)
    found = _assert_same(lt, 3)
    raised = {name for name, (o, _) in found.items() if isinstance(o, NotRepresentative)}
    assert raised == {"uniform", "anderson"}
    assert all(o is None for name, (o, _) in found.items() if name not in raised)
    for name in type_spec(lt).checks:
        (alone, count), = run_pass(lt, 3, [name]).values()
        assert (_shown(alone), count) == (_shown(found[name][0]), found[name][1])


def _loops_in_plan_order(lt: str, n_max: int):
    """What run_suite gave when every check ran its own loop, check by check
    and rank by rank: the (check, rank, counterexample) rows, or the first
    error raised."""
    rows = []
    for name in type_spec(lt).checks:
        for n in range(type_spec(lt).min_rank, n_max + 1):
            if name not in UNLABELLED_ORACLES:
                witness = LABELLED_ORACLES[name](lt, n)
            else:
                witness = UNLABELLED_ORACLES[name](lt, n)[0]
                if name == "stats_identity" and witness is None:
                    witness = LABELLED_ORACLES[name](lt, n)
            rows.append((name, n, witness))
    return rows


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("lt", ["A", "B", "C", "D"])
def test_run_suite_under_a_fault_matches_the_loops(monkeypatch, fault, lt):
    fault(monkeypatch, lt, 3)
    try:
        expected = _loops_in_plan_order(lt, 3)
    except ZetakitError as e:
        expected = _shown(e)
    try:
        got = [(r.check, r.n, r.counterexample) for r in run_suite(lt, 3).results]
    except ZetakitError as e:
        got = _shown(e)
    assert got == expected


@pytest.mark.parametrize("lt", ["B", "C", "D"])
def test_labelled_checks_examine_the_whole_torus(lt):
    for r in run_suite(lt, 3).results:
        m = modulus(lt, r.n)
        if r.check in LABELLED_CHECKS:
            assert r.examined == m**r.n
        elif r.check == "stats_identity" and r.n <= REFINED_MAX_RANK:
            sources = sum(1 for _ in enumerate_paths(type_spec(lt).source.kind(r.n)))
            assert r.examined == sources + m**r.n
        else:
            assert r.examined > 0


def test_one_enumeration_per_side_and_one_zeta_per_path(monkeypatch):
    true_enumerate, true_zeta = paths.enumerate_paths, zmod.zeta_path
    kinds, images = [], []

    def enumerate_counted(kind):
        kinds.append(kind)
        return true_enumerate(kind)

    def zeta_counted(p, lt):
        images.append(p)
        return true_zeta(p, lt)

    monkeypatch.setattr(paths, "enumerate_paths", enumerate_counted)
    monkeypatch.setattr(zmod, "zeta_path", zeta_counted)
    assert run_suite("C", 3).passed
    spec = type_spec("C")
    assert kinds == [kind for n in (1, 2, 3) for kind in (spec.source.kind(n), spec.target.kind(n))]
    # one zeta per source path, and none for a target that is the image of
    # a source path whose round trip held: here every target is one
    assert images == [p for n in (1, 2, 3) for p in true_enumerate(spec.source.kind(n))]


def test_a_target_that_is_no_verified_image_runs_its_round_trip(monkeypatch):
    # zeta sends the first C3 source path to a step tuple that is not a
    # ballot path, and the inverse sends that back: every source round trip
    # holds, but the first path's true image is no verified image, so its
    # own round trip runs and fails
    true_zeta, true_inverse = zmod.zeta_path, zmod.inverse_zeta_c
    first = next(iter(type_spec("C").sources(3)))
    bad = paths.Path(("E", "N", "N", "N", "E", "E"), paths.ballot(6))
    monkeypatch.setattr(zmod, "zeta_path", lambda p, t: bad if p == first else true_zeta(p, t))
    monkeypatch.setattr(zmod, "inverse_zeta_c", lambda q: first if q == bad else true_inverse(q))
    image = true_zeta(first, "C")
    targets = [str(q) for q in type_spec("C").targets(3)]
    assert run_pass("C", 3, ["inverse_roundtrip"]) == {
        "inverse_roundtrip": ("round trip fails at image %s" % image, 20 + targets.index(str(image)) + 1)
    }
    assert UNLABELLED_ORACLES["inverse_roundtrip"]("C", 3) == run_pass("C", 3, ["inverse_roundtrip"])["inverse_roundtrip"]


def test_d_bijectivity_computes_one_zeta_per_source_path(monkeypatch):
    # zeta* is read off the images of the sign +1 source paths, not computed again
    true_zeta = zmod.zeta_path
    images = []

    def zeta_counted(p, lt):
        images.append(p)
        return true_zeta(p, lt)

    monkeypatch.setattr(zmod, "zeta_path", zeta_counted)
    assert run_suite("D", 3, ["bijectivity"]).passed
    assert sorted(images, key=str) == sorted((p for n in (2, 3) for p in type_spec("D").sources(n)), key=str)


def test_the_target_phase_renders_each_target_once(monkeypatch):
    true_render = labelled.render_path
    rendered = []
    monkeypatch.setattr(labelled, "render_path", lambda p: rendered.append(p) or true_render(p))
    names = ["counting", "bijectivity", "labelled_bijectivity", "inverse_roundtrip"]
    assert all(outcome is None for outcome, _ in run_pass("C", 3, names).values())
    spec = type_spec("C")
    # one key per source image, then one per target, however many checks read it
    assert rendered == [zmod.zeta_path(p, "C") for p in spec.sources(3)] + list(spec.targets(3))


@pytest.mark.parametrize("lt", "ABCD")
def test_zeta_reads_the_rank_of_a_path_once(monkeypatch, lt):
    true_rank, ranked = TypeSpec.source_rank, []

    def rank_counted(spec, p):
        ranked.append(p)
        return true_rank(spec, p)

    monkeypatch.setattr(TypeSpec, "source_rank", rank_counted)
    sources = list(type_spec(lt).sources(3))
    ranked.clear()
    for p in sources:
        zmod.zeta_path(p, lt)
    # the rank is the length of the area vector, whose path read checks it
    assert ranked == sources


def test_checks_without_a_target_test_skip_the_targets(monkeypatch):
    true_enumerate, true_render = paths.enumerate_paths, labelled.render_path
    kinds, keys = [], []

    def enumerate_counted(kind):
        kinds.append(kind)
        return true_enumerate(kind)

    def render_counted(q):
        keys.append(q)
        return true_render(q)

    monkeypatch.setattr(paths, "enumerate_paths", enumerate_counted)
    monkeypatch.setattr(labelled, "render_path", render_counted)
    spec = type_spec("C")
    assert run_pass("C", 5, ["sweep_equiv", "stats_identity"]) == {
        "sweep_equiv": (None, 252),
        "stats_identity": (None, 252),
    }
    assert (kinds, keys) == ([spec.source.kind(5)], [])
    # counting counts the targets without rendering them
    assert run_pass("C", 5, ["counting"]) == {"counting": (None, 504)}
    assert (kinds[1:], keys) == ([spec.source.kind(5), spec.target.kind(5)], [])


@pytest.mark.parametrize("lt", "ABCD")
def test_unlabelled_checks_never_build_the_weyl_group(monkeypatch, lt):
    def refuse(*args):
        raise AssertionError("an unlabelled check built a Weyl group")

    monkeypatch.setattr(signedperm, "weyl_group", refuse)
    # the pass's own view of the group: its form index, its tally and its unranking
    for name in ("_bits", "tally", "window"):
        monkeypatch.setattr(labelled._Rank, name, refuse)
    # above REFINED_MAX_RANK, stats_identity has no labelled half
    unlabelled = [c for c in type_spec(lt).checks if c not in LABELLED_CHECKS]
    found = run_pass(lt, REFINED_MAX_RANK + 1, unlabelled)
    assert all(o is None and examined > 0 for o, examined in found.values())


def test_examined_stays_out_of_the_report():
    rows = run_suite("C", 2, ["counting", "uniform"]).to_json()
    assert "examined" not in rows


def test_a_check_over_no_labellings_fails(monkeypatch):
    # no window passes the form 0 > 0, so the pass has nothing to look at
    monkeypatch.setattr(labelled, "vertical_forms", lambda p, lt: ([(0, 0, 0, 0)], None))
    report = run_suite("C", 2, ["rise_valley", "uniform", "anderson"])
    assert not report.passed
    assert {r.counterexample for r in report.results} == {"examined no objects"}
    assert {r.examined for r in report.results} == {0}
