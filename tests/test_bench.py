"""The comparison script scripts/bench.py: its summary, its run order and its verify runs."""

import hashlib
import importlib.util
import os
import statistics
import subprocess
import sys

import pytest

from zetakit.errors import ZetakitError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_script", os.path.join(ROOT, "scripts", "bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = load_bench()
END_TO_END = bench.benchmark(ROOT)["end_to_end"]


def pairs_of(parent, change, metric):
    """Pairs in which every end-to-end metric reads 1.0 but `metric`."""
    base = {m["name"]: 1.0 for m in END_TO_END}
    return [{"pair": i, "parent": {**base, metric: p}, "change": {**base, metric: c}}
            for i, (p, c) in enumerate(zip(parent, change), start=1)]


def refuse(*args, **kwargs):
    raise AssertionError("a process was started")


def test_importing_bench_starts_no_process(monkeypatch):
    monkeypatch.setattr(subprocess, "Popen", refuse)
    for name in ("fork", "system", "posix_spawn", "posix_spawnp"):
        if hasattr(os, name):
            monkeypatch.setattr(os, name, refuse)
    load_bench()


def test_odd_pairs_run_the_parent_first():
    assert [bench.sides(i) for i in range(1, 5)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent")]


def test_summary_counts_ties_for_neither_side_and_reads_the_direction():
    parent = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0]
    change = [9.0, 9.0, 10.0, 10.0, 11.0, 12.0]
    # lower is better for verdict_s: two wins, two ties, two losses
    assert bench.summary(pairs_of(parent, change, "verdict_s"), END_TO_END)["verdict_s"]["change_wins"] == "2 of 6"
    # higher is better for queries_per_s: the same numbers win the other two pairs
    row = bench.summary(pairs_of(parent, change, "queries_per_s"), END_TO_END)["queries_per_s"]
    assert row["change_wins"] == "2 of 6"
    row = bench.summary(pairs_of([10.0] * 4, [12.0, 12.0, 12.0, 9.0], "queries_per_s"), END_TO_END)["queries_per_s"]
    assert row["change_wins"] == "3 of 4"
    assert (row["relative_change"], row["bound"]) == (0.2, 0.15)


def test_summary_reads_the_parents_quartile_spread_and_the_bound():
    parent = [1.0, 2.0, 4.0, 8.0, 16.0, 3.0, 5.0]
    change = [2.0] * 7
    row = bench.summary(pairs_of(parent, change, "setup_s"), END_TO_END)["setup_s"]
    q1, _, q3 = statistics.quantiles(parent, n=4)
    assert row["parent_quartile_spread"] == round(q3 - q1, 6)
    assert (row["parent_median"], row["change_median"]) == (4.0, 2.0)
    assert (row["relative_change"], row["bound"]) == (-0.5, 0.25)


@pytest.mark.parametrize("spec,want", [
    ("C:2", ("C", 2, None)),
    ("B:10:counting,bijectivity", ("B", 10, "counting,bijectivity")),
])
def test_parse_verify(spec, want):
    assert bench.parse_verify(spec) == want


@pytest.mark.parametrize("spec,error", [("C", ValueError), ("C:x", ValueError), ("X:3", ZetakitError)])
def test_a_malformed_verify_fails_before_any_run(monkeypatch, tmp_path, spec, error):
    monkeypatch.setattr(subprocess, "Popen", refuse)
    with pytest.raises(error):
        bench.main(["--parent", ROOT, "--change", ROOT, "--out", str(tmp_path / "b.json"), "--verify", spec])
    assert not (tmp_path / "b.json").exists()


def test_verify_run_returns_the_exit_code_digest_and_own_peak():
    run = bench.verify_run(ROOT, "C:2")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    report = subprocess.run([sys.executable, "-m", "zetakit", "verify", "--type", "C", "--n", "2"],
                            env=env, capture_output=True, check=True).stdout
    assert run["exit_code"] == 0
    assert run["sha256"] == hashlib.sha256(report).hexdigest()
    assert run["peak_rss_mb"] > 0


def test_needed_cap_counts_the_labelled_domain_only_for_labelled_checks():
    # C10's unlabelled checks count 2 * C(20, 10) paths, under the default cap
    assert bench.needed_cap("C:10:counting,bijectivity") == 10**7
    # C8 with every check counts 17^8 labellings besides
    assert bench.needed_cap("C:8") == 2 * 12870 + 17**8
    # type A has no labelled check and no torus: its default checks count 2 * C(8, 4) paths
    assert bench.needed_cap("A:4") == 10**7
