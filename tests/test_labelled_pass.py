"""The single labelled pass of verify against the per-check loops kept in
oracles.py: the same first counterexample for every labelled check, on the
real maps and on deliberately broken ones."""

import pytest

import zetakit.labelled as labelled
import zetakit.torus as torus
import zetakit.verify as verify
import zetakit.zeta as zmod

from zetakit.errors import NotRepresentative, ZetakitError
from zetakit.paths import enumerate_paths
from zetakit.typespec import LABELLED_CHECKS, modulus, type_spec
from zetakit.verify import REFINED_MAX_RANK, run_suite

from oracles import LABELLED_ORACLES

RANKS = [("B", n) for n in (2, 3, 4)] + [("C", n) for n in (1, 2, 3, 4)] + [("D", n) for n in (2, 3, 4)]


def _names(lt: str):
    """The labelled checks of the type; stats_identity stands for its refined half."""
    return [c for c in type_spec(lt).checks if c in LABELLED_CHECKS or c == "stats_identity"]


def _shown(outcome):
    return (type(outcome), str(outcome)) if isinstance(outcome, Exception) else outcome


def _oracle(name: str, lt: str, n: int):
    try:
        return LABELLED_ORACLES[name](lt, n)
    except ZetakitError as e:
        return _shown(e)


def _assert_same(lt: str, n: int):
    """The pass and the loops agree; returns {check: (outcome, examined)}."""
    names = _names(lt)
    found = labelled.labelled_pass(lt, n, names)
    assert {name: _shown(o) for name, (o, _) in found.items()} == {name: _oracle(name, lt, n) for name in names}
    return found


@pytest.mark.parametrize("lt,n", RANKS)
def test_single_pass_matches_oracle_loops(lt, n):
    found = _assert_same(lt, n)
    # every check passes and looked at every point of the torus
    assert set(found.values()) == {(None, modulus(lt, n) ** n)}


@pytest.mark.parametrize("lt,n", [("B", 3), ("C", 3), ("D", 3)])
def test_each_check_alone_matches_all_together(lt, n):
    names = _names(lt)
    together = labelled.labelled_pass(lt, n, names)
    for name in names:
        assert labelled.labelled_pass(lt, n, [name]) == {name: together[name]}


def test_verify_dispatches_every_labelled_check_to_the_pass():
    in_pass = {c for c in verify.CHECK_NAMES if verify._CHECKS[c] is None}
    assert in_pass == set(LABELLED_CHECKS)
    assert set(labelled._LABELLED) == in_pass | {"stats_identity"}


def _swap_images(monkeypatch, lt: str, n: int):
    """A path-level fault: the second and third source paths trade images."""
    true_zeta = zmod.zeta_path
    p1, p2 = list(enumerate_paths(type_spec(lt).source.kind(n)))[1:3]
    swap = {p1: true_zeta(p2, lt), p2: true_zeta(p1, lt)}
    monkeypatch.setattr(zmod, "zeta_path", lambda p, t: swap.get(p) or true_zeta(p, t))


def _negate_first_twist(monkeypatch, lt: str, n: int):
    """A label-level fault: the twist sign of the first label slot flips."""
    true_signs = torus._twist_signs

    def flipped(p, lam, t):
        signs = true_signs(p, lam, t)
        signs[0] = -signs[0]
        return signs

    monkeypatch.setattr(torus, "_twist_signs", flipped)


@pytest.mark.parametrize("fault", [_swap_images, _negate_first_twist])
@pytest.mark.parametrize("lt", ["B", "C", "D"])
def test_faults_give_the_same_first_counterexample(monkeypatch, fault, lt):
    fault(monkeypatch, lt, 3)
    failed = {name for name, (o, _) in _assert_same(lt, 3).items() if o is not None}
    # both faults break the labelled bijection and the uniform oracle
    assert {"labelled_bijectivity", "uniform"} <= failed


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
    for name in _names(lt):
        (alone, count), = labelled.labelled_pass(lt, 3, [name]).values()
        assert (_shown(alone), count) == (_shown(found[name][0]), found[name][1])


def _loops_in_plan_order(lt: str, n_max: int):
    """What run_suite gave when every check ran its own loop, check by check
    and rank by rank: the (check, rank, counterexample) rows, or the first
    error raised."""
    rows = []
    for name in _names(lt):
        for n in range(type_spec(lt).min_rank, n_max + 1):
            if name == "stats_identity":
                witness = verify._CHECKS[name](lt, n)[0] or LABELLED_ORACLES[name](lt, n)
            else:
                witness = LABELLED_ORACLES[name](lt, n)
            rows.append((name, n, witness))
    return rows


@pytest.mark.parametrize("fault", [_swap_images, _negate_first_twist])
@pytest.mark.parametrize("lt", ["B", "C", "D"])
def test_run_suite_under_a_fault_matches_the_loops(monkeypatch, fault, lt):
    fault(monkeypatch, lt, 3)
    try:
        expected = _loops_in_plan_order(lt, 3)
    except ZetakitError as e:
        expected = _shown(e)
    try:
        got = [(r.check, r.n, r.counterexample) for r in run_suite(lt, 3, _names(lt)).results]
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
