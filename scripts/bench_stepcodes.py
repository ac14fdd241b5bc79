#!/usr/bin/env python3
"""Compare two zetakit checkouts on the memory of the unlabelled checks,
and on the benchmark, and record the numbers.

First the tracemalloc peak of labelled.run_pass for each of the three
unlabelled_n8 commands at rank 8 (C with its five unlabelled checks, B and
D with counting and bijectivity), one fresh process per checkout and
command.  Then the wall time and peak RSS of

    python -m zetakit verify --type C --n 10 --check counting,bijectivity,inverse_roundtrip,sweep_equiv,stats_identity

twice per checkout, alternately, with the report's sha256.  Last, ten
alternating pairs of

    python3 perfbench/run.py --workload W --seed 11 --seconds 36 --trace 0

per workload, as scripts/bench_valuetypes.py runs them.

    python3 scripts/bench_stepcodes.py --parent ../parent --change . --out BENCH_stepcodes.json
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

from bench_valuetypes import PAIRS, SECONDS, WORKLOADS, _cpu, _src_env, bench_run, summary

UNLABELLED_C = ["counting", "bijectivity", "inverse_roundtrip", "sweep_equiv", "stats_identity"]
COMMANDS = {"C": UNLABELLED_C, "B": ["counting", "bijectivity"], "D": ["counting", "bijectivity"]}

PEAK = """
import json, sys, tracemalloc
from zetakit.labelled import run_pass
tracemalloc.start()
run_pass(sys.argv[1], 8, sys.argv[2].split(","))
print(tracemalloc.get_traced_memory()[1])
"""


def traced_peak_kb(root: str, lt: str) -> float:
    argv = [sys.executable, "-c", PEAK, lt, ",".join(COMMANDS[lt])]
    out = subprocess.run(argv, env=_src_env(root), capture_output=True, text=True, check=True)
    return round(int(out.stdout) / 1024, 1)


def c10_run(root: str) -> dict:
    """One C10 run: its wall time, its own peak RSS (os.wait4 reads the
    usage of this child alone) and the report's digest."""
    argv = [sys.executable, "-m", "zetakit", "verify", "--type", "C", "--n", "10", "--check", ",".join(UNLABELLED_C)]
    t = time.perf_counter()
    with subprocess.Popen(argv, env=_src_env(root), stdout=subprocess.PIPE) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - t
    if proc.returncode:
        raise RuntimeError("C10 run failed in %s" % root)
    return {"seconds": round(seconds, 2), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "sha256": hashlib.sha256(out).hexdigest()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    trees = {"parent": args.parent, "change": args.change}

    peaks = {side: {lt: traced_peak_kb(root, lt) for lt in COMMANDS} for side, root in trees.items()}
    print(json.dumps(peaks), file=sys.stderr)

    c10 = {side: [] for side in trees}
    for i in range(2):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            c10[side].append(c10_run(trees[side]))
    print(json.dumps(c10), file=sys.stderr)

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

    record = {
        "machine": {"cpu": _cpu(), "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()},
        "run_pass_rank8_tracemalloc_peak_kb": {"note": "one fresh process per checkout and command: C with its "
                                                       "five unlabelled checks, B and D with counting,bijectivity",
                                               **peaks},
        "c10_unlabelled": {"command": "python -m zetakit verify --type C --n 10 --check " + ",".join(UNLABELLED_C),
                           **c10},
        "command": "python3 perfbench/run.py --workload W --seed 11 --seconds %d --trace 0" % SECONDS,
        "untraced": untraced,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
