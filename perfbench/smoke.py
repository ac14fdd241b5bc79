"""Toy-size self-check of the benchmark.

    python3 perfbench/smoke.py

Runs every workload at the toy sizes (ranks 2-3, 21 torus queries),
untraced and traced, and checks that

* every metric BENCHMARK.json names is printed, in the summary and in the
  result line, with its unit, and that the run is correct;
* a deliberately wrong expected report digest is counted as a failure,
  without crashing the run;
* in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.

Exits non-zero on the first check that does not hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".bench_out", "smoke")
WORKLOADS = ("labelled_n4", "unlabelled_n8", "torus_queries")


def bench(*extra, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--seed", "3", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc) -> tuple[dict, list[str]]:
    if proc.returncode != 0:
        raise AssertionError("exit code %d: %s" % (proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(result: dict, summary: list[str], declared: list[dict], what: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (what, result)
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}, (what, set(got) ^ {m["name"] for m in declared})
    printed = {line.split()[0]: line.split()[-1] for line in summary if len(line.split()) == 3}
    for m in declared:
        name, unit = m["name"], m["unit"]
        assert got[name]["unit"] == unit, (what, name)
        assert isinstance(got[name]["value"], (int, float)), (what, name)
        assert printed.get(name) == unit, (what, name, printed.get(name))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(WORK_DIR, exist_ok=True)

    for wl in WORKLOADS:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            result, summary = result_of(bench("--workload", wl, "--trace", trace, "--toy"))
            check_metrics(result, summary, declared, "%s trace %s" % (wl, trace))
            print("ok  %s --trace %s: %d metrics with units" % (wl, trace, len(declared)))

    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    expected["commands"]["verify --type C --n 3"]["sha256"] = "0" * 64
    wrong = os.path.join(WORK_DIR, "expected-wrong-digest.json")
    with open(wrong, "w") as fh:
        json.dump(expected, fh)
    result, summary = result_of(bench("--workload", "labelled_n4", "--trace", "0", "--toy", "--expected", wrong))
    assert not result["correct"] and result["failed"] == 1, result
    assert any("digest" in line for line in summary if line.startswith("FAILED")), summary
    print("ok  a wrong expected digest counts as 1 failed of %d" % result["attempted"])

    bare = os.path.join(WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("--workload", "labelled_n4", "--trace", "0", cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout[-500:])
    shutil.rmtree(bare)
    print("ok  without the sources the benchmark exits %d and prints no result" % proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
