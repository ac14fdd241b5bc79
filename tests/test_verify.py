import hashlib
import json

import pytest

import zetakit.labelled as labelled

from zetakit.errors import CapExceeded, MalformedToken
from zetakit.paths import lattice, parse_path, signed_lattice
from zetakit.rootposet import to_parking_function
from zetakit.torus import VertPath, enumerate_vert
from zetakit.typespec import CHECKS
from zetakit.verify import (
    anderson_check,
    anderson_windows,
    run_suite,
    uniform_oracle,
)
from zetakit.zeta import zeta_labelled

from oracles import (
    B_EXAMPLES,
    C_LABELS,
    C_PATH,
    C_PRODUCT,
    C_TORUS,
    C_W_DOM,
    C_W_REG,
    sp,
)


def test_uniform_oracle_matches_combinatorial_golden():
    vp = VertPath(parse_path(C_PATH, lattice(6, 6)), sp(*C_LABELS))
    image, word = zeta_labelled(vp, "C")
    assert to_parking_function(image, word, "C") == uniform_oracle(vp, "C")


def test_uniform_oracle_empty_walls():
    vp = VertPath(parse_path("ENEENENNNENE", lattice(6, 6)), sp(2, -4, -1, 3, 5, 6))
    pf = uniform_oracle(vp, "C")
    from zetakit.torus import lambda_of_path, wall_roots

    if not wall_roots(lambda_of_path(vp.path, "C"), "C"):
        assert pf.antichain == ()


def test_anderson_windows_golden_c():
    vp = VertPath(parse_path(C_PATH, lattice(6, 6)), sp(*C_LABELS))
    data = anderson_windows(vp, "C")
    assert data["w_dom"].window == C_W_DOM
    assert data["w_reg"].window == C_W_REG
    assert data["product"].window == C_PRODUCT
    assert data["vector"] == tuple(c % 13 for c in C_TORUS)
    assert data["orbit_rep"] == (0, 4, 4, 4, 4, 4)
    assert anderson_check(vp, "C")


@pytest.mark.parametrize("row", B_EXAMPLES)
def test_anderson_windows_golden_b(row):
    text, n, labels, lam, _, _, _, reg, product, vector = row
    vp = VertPath(parse_path(text, lattice(n, n)), sp(*labels))
    data = anderson_windows(vp, "B")
    assert data["w_reg"].window == reg
    assert data["product"].window == product
    m = 2 * n + 1
    assert data["vector"] == tuple(c % m for c in vector)
    assert anderson_check(vp, "B")


def test_anderson_trivial():
    vp = VertPath(parse_path("NNEE", lattice(2, 2)), sp(1, 2))
    assert anderson_check(vp, "C")


@pytest.mark.parametrize("lt,n", [("C", 2), ("B", 2), ("D", 3)])
def test_uniform_and_anderson_exhaustive_small(lt, n):
    for vp in enumerate_vert(lt, n):
        image, word = zeta_labelled(vp, lt)
        assert to_parking_function(image, word, lt) == uniform_oracle(vp, lt)
        assert anderson_check(vp, lt)


def test_run_suite_small_passes():
    report = run_suite("C", 2)
    assert report.passed
    names = {r.check for r in report.results}
    assert names == set(CHECKS)


def test_run_suite_subset_and_shape():
    report = run_suite("D", 3, ["bijectivity", "uniform"])
    assert report.passed
    assert {r.check for r in report.results} == {"bijectivity", "uniform"}
    rows = json.loads(report.to_json())
    assert all(set(r) == {"check", "type", "n", "passed"} for r in rows)


def test_run_suite_deterministic():
    a = run_suite("C", 3, ["counting", "bijectivity"]).to_json()
    b = run_suite("C", 3, ["counting", "bijectivity"]).to_json()
    assert a == b


def test_run_suite_cap():
    with pytest.raises(CapExceeded):
        run_suite("C", 99, ["counting"])


@pytest.mark.parametrize("cap", ["1e9", "ten", ""])
def test_a_cap_that_is_no_integer_is_a_malformed_token(monkeypatch, cap):
    monkeypatch.setenv("ZETAKIT_CAP", cap)
    with pytest.raises(MalformedToken, match="ZETAKIT_CAP"):
        run_suite("C", 2)


def test_run_suite_unknown_check():
    with pytest.raises(ValueError):
        run_suite("C", 2, ["nonsense"])


@pytest.mark.parametrize("lt,checks", [
    ("A", ["uniform"]),
    ("B", ["counting", "sweep_equiv"]),
    ("D", ["stats_identity"]),
    ("C", []),
])
def test_run_suite_rejects_checks_that_do_not_apply(monkeypatch, lt, checks):
    calls = []
    monkeypatch.setattr(labelled, "run_pass", lambda lt, n, names: calls.append(n))
    with pytest.raises(ValueError):
        run_suite(lt, 2, checks)
    assert calls == []


def test_corrupted_map_is_reported(monkeypatch):
    import zetakit.zeta as zmod

    true_zeta = zmod.zeta_path

    def broken(p, lt):
        out = true_zeta(p, lt)
        if lt == "C" and p.kind == lattice(2, 2) and out.text == "NNNE":
            # collide with the image of a different preimage
            return true_zeta(parse_path("NENE", lattice(2, 2)), "C")
        return out

    monkeypatch.setattr(zmod, "zeta_path", broken)
    report = run_suite("C", 2, ["bijectivity"])
    assert not report.passed
    failing = [r for r in report.results if not r.passed]
    assert failing and failing[0].check == "bijectivity"
    assert failing[0].counterexample


def test_cap_checked_before_any_check_runs(monkeypatch):
    calls = []
    monkeypatch.setattr(labelled, "run_pass", lambda lt, n, names: calls.append(n))
    with pytest.raises(CapExceeded):
        run_suite("C", 99, ["counting"])
    assert calls == []


# sha256 of run_suite(lt, 3).to_json(); a change to any report byte shows here
REPORT_SHA256 = {
    "A": "2a4ee351125896cfbeb908224e55c30b2e0be48aa130b9b4420887eeb4a05022",
    "B": "72de1db99a6579e5eb6ad369ad57c04e33c1e1806533d45dec60bf6b543887d8",
    "C": "e09ef9a9d000901e60acdbf493e08beaae8782128e3eb1f75f402bb5af5f1008",
    "D": "1e631fa3760880be2894393d2e688e59efaf5c74e2a266809f8aeb948ab1bf11",
}


@pytest.mark.parametrize("lt,rows", [("A", 6), ("B", 12), ("C", 27), ("D", 12)])
def test_report_bytes_pinned(lt, rows):
    text = run_suite(lt, 3).to_json()
    assert len(json.loads(text)) == rows
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[lt]
