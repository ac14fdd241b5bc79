#!/usr/bin/env python3
"""Compare two zetakit checkouts on the per-path steps of the rank-8 type C
checks and on the benchmark, and record the numbers.

First the µs per call of make_path, enumerate_paths, zeta_path, sweep_c,
dinv_c and inverse_zeta_c over the full rank-8 C enumerations (12870
square paths, 12870 ballot paths of length 16): the best of five
fresh processes per checkout, run alternately, each the best of three
passes.  Then ten alternating pairs of

    python3 perfbench/run.py --workload W --seed 11 --seconds 36 --trace 0

per workload, run in each checkout's own directory, the parent first in
odd pairs.  For each end-to-end metric the summary gives both medians,
the parent's quartile spread and the pairs the change wins.  Last, for
two alternating pairs of unlabelled_n8 runs, the median nominal ms of
each of its three commands (C, B and D at rank 8): its query_p99_ms
reads the p50 of all commands below 40 queries and the p75 from 40 on,
so it reads the B/D level or the C level by how many passes a run
finishes, and the levels themselves show what changed.

    python3 scripts/bench_valuetypes.py --parent ../parent --change . --out BENCH_valuetypes.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

WORKLOADS = ("unlabelled_n8", "labelled_n4", "torus_queries")
REPEAT = 5  # processes per checkout for the per-call times
PAIRS = 10  # alternating benchmark pairs per workload
SECONDS = 36  # run_seconds of BENCHMARK.json
METRICS = {  # end-to-end metric: True when higher is better
    "verdict_s": False,
    "queries_per_s": True,
    "query_p50_ms": False,
    "query_p99_ms": False,
    "setup_s": False,
    "peak_rss_mb": False,
}

TIME_CALLS = """
import json, time
from zetakit import stats, zeta
from zetakit.paths import ballot, enumerate_paths, lattice, make_path

def count(stream):
    return sum(1 for _ in stream)

sources = list(enumerate_paths(lattice(8, 8)))
targets = list(enumerate_paths(ballot(16)))
kind = lattice(8, 8)
calls = {
    "make_path": (lambda: [make_path(p.steps, kind) for p in sources], len(sources)),
    "enumerate_paths": (
        lambda: count(enumerate_paths(lattice(8, 8))) + count(enumerate_paths(ballot(16))),
        len(sources) + len(targets),
    ),
    "zeta_path": (lambda: [zeta.zeta_path(p, "C") for p in sources], len(sources)),
    "sweep_c": (lambda: [zeta.sweep_c(p) for p in sources], len(sources)),
    "dinv_c": (lambda: [stats.dinv_c(p) for p in sources], len(sources)),
    "inverse_zeta_c": (lambda: [zeta.inverse_zeta_c(q) for q in targets], len(targets)),
}
out = {}
for name, (work, n) in calls.items():
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t)
    out[name] = round(best / n * 1e6, 3)
print(json.dumps(out))
"""


LEVELS = """
import json, os, statistics, sys
root = os.path.abspath(sys.argv[1])
sys.path.insert(0, os.path.join(root, "perfbench"))
from workloads import measure, workloads
with open(os.path.join(root, "perfbench", "expected.json")) as fh:
    expected = json.load(fh)["commands"]
out = measure(os.path.join(root, "src"), workloads(False)["unlabelled_n8"], expected, 11, int(sys.argv[2]), False, 15)
ms = out.latencies_ms  # C, B and D in turn
row = {lt: round(statistics.median(ms[k::3]), 1) for k, lt in enumerate("CBD")}
print(json.dumps({"queries": len(ms), "failed": len(out.failures), **row, "max": round(max(ms), 1)}))
"""


def _src_env(root: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))


def per_call_us(root: str) -> dict:
    out = subprocess.run([sys.executable, "-c", TIME_CALLS], env=_src_env(root), capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout)


def command_levels(root: str) -> dict:
    out = subprocess.run([sys.executable, "-c", LEVELS, root, str(SECONDS)], env=_src_env(root), capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout)


def bench_run(root: str, workload: str) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
            "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    row = {k: round(m["value"], 6) for k, m in result["metrics"].items()}
    row.update(correct=result["correct"], failed=result["failed"], attempted=result["attempted"])
    return row


def summary(pairs) -> dict:
    out = {}
    for metric, higher in METRICS.items():
        parent = [p["parent"][metric] for p in pairs]
        change = [p["change"][metric] for p in pairs]
        q1, _, q3 = statistics.quantiles(parent, n=4)
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        out[metric] = {
            "parent_median": round(statistics.median(parent), 6),
            "change_median": round(statistics.median(change), 6),
            "parent_quartile_spread": round(q3 - q1, 6),
            "change_wins": "%d of %d" % (wins, len(pairs)),
        }
    return out


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or "unknown"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    trees = {"parent": args.parent, "change": args.change}

    calls = {side: [] for side in trees}
    for i in range(REPEAT):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            calls[side].append(per_call_us(trees[side]))
    per_call = {side: {f: min(run[f] for run in runs) for f in runs[0]} for side, runs in calls.items()}
    print(json.dumps(per_call), file=sys.stderr)

    untraced = {}
    for workload in WORKLOADS:
        pairs = []
        for i in range(1, PAIRS + 1):
            pair = {"pair": i}
            for side in (("parent", "change") if i % 2 else ("change", "parent")):
                pair[side] = bench_run(trees[side], workload)
            print(workload, json.dumps(pair), file=sys.stderr)
            pairs.append(pair)
        untraced[workload] = {"summary": summary(pairs), "pairs": pairs}

    levels = {side: [] for side in trees}
    for i in range(2):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            levels[side].append(command_levels(trees[side]))
    print(json.dumps(levels), file=sys.stderr)

    record = {
        "machine": {"cpu": _cpu(), "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()},
        "command": "python3 perfbench/run.py --workload W --seed 11 --seconds %d --trace 0" % SECONDS,
        "per_call_us": {"note": "best of %d processes per checkout, each the best of 3 passes, over the "
                                "rank-8 C enumerations" % REPEAT, **per_call},
        "untraced": untraced,
        "unlabelled_n8_command_ms": {"note": "median nominal ms of each command (C, B, D at rank 8) in one "
                                             "untraced run", **levels},
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
