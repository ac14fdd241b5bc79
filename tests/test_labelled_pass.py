"""The single pass of verify against the per-check loops kept in
oracles.py: the same first counterexample for every check, on the real
maps and on deliberately broken ones."""

import pytest

import zetakit.labelled as labelled
import zetakit.paths as paths
import zetakit.signedperm as signedperm
import zetakit.torus as torus
import zetakit.verify as verify
import zetakit.zeta as zmod

from zetakit.errors import InvalidLabelling, NotRepresentative, ZetakitError
from zetakit.labelled import REFINED_MAX_RANK, run_pass
from zetakit.paths import enumerate_paths, lattice, parse_path
from zetakit.typespec import CHECKS, LABELLED_CHECKS, modulus, type_spec
from zetakit.verify import run_suite

from oracles import LABELLED_ORACLES, UNLABELLED_ORACLES

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


FAULTS = [_swap_images, _negate_first_twist, _zeta_raises]


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
    monkeypatch.setattr(labelled, "grassmannian_companion", companion)


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
    # one zeta per source path, and one per target for inverse_roundtrip's target side
    sizes = [sum(1 for _ in true_enumerate(kind)) for kind in kinds]
    assert len(images) == sum(sizes)


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
    monkeypatch.setattr(labelled, "weyl_group", refuse)
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
