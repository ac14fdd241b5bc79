#!/usr/bin/env python3
"""Compare two zetakit checkouts on path enumeration, on the signed
checks at rank 10 and on the benchmark, and record the numbers.

First the ms per full enumeration of ballot(16), lattice(8, 8),
signed_ballot(8) and signed_lattice(8), each the best of 30 in one
process, two fresh processes per checkout run alternately.  Then the
wall time, peak RSS and report sha256 of

    python -m zetakit verify --type T --n 10 --check counting,bijectivity

for T = B and D, twice per checkout, alternately.  Last, ten alternating
pairs of

    python3 perfbench/run.py --workload W --seed 11 --seconds 36 --trace 0

per workload, as scripts/bench_valuetypes.py runs them.

    python3 scripts/bench_pathword.py --parent ../parent --change . --out BENCH_pathword.json
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

STREAMS = """
import json, time
from zetakit.paths import ballot, enumerate_paths, lattice, signed_ballot, signed_lattice

out = {}
for kind in (ballot(16), lattice(8, 8), signed_ballot(8), signed_lattice(8)):
    best = float("inf")
    for _ in range(30):
        t = time.perf_counter()
        for _ in enumerate_paths(kind):
            pass
        best = min(best, time.perf_counter() - t)
    out[str(kind)] = round(best * 1e3, 3)
print(json.dumps(out))
"""


def stream_ms(root: str) -> dict:
    out = subprocess.run([sys.executable, "-c", STREAMS], env=_src_env(root), capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout)


def rank10_run(root: str, lt: str) -> dict:
    """One rank-10 counting,bijectivity run: its wall time, its own peak
    RSS (os.wait4 reads the usage of this child alone) and the report's
    digest."""
    argv = [sys.executable, "-m", "zetakit", "verify", "--type", lt, "--n", "10", "--check", "counting,bijectivity"]
    t = time.perf_counter()
    with subprocess.Popen(argv, env=_src_env(root), stdout=subprocess.PIPE) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - t
    if proc.returncode:
        raise RuntimeError("%s10 run failed in %s" % (lt, root))
    return {"seconds": round(seconds, 2), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "sha256": hashlib.sha256(out).hexdigest()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    trees = {"parent": args.parent, "change": args.change}

    streams = {side: [] for side in trees}
    for i in range(2):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            streams[side].append(stream_ms(trees[side]))
    print(json.dumps(streams), file=sys.stderr)

    rank10 = {lt: {side: [] for side in trees} for lt in "BD"}
    for i in range(2):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            for lt in "BD":
                rank10[lt][side].append(rank10_run(trees[side], lt))
    print(json.dumps(rank10), file=sys.stderr)

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
        "stream_ms": {"note": "ms per full enumeration, the best of 30 in one process; one entry per "
                              "process, two per checkout, run alternately", **streams},
        "rank10_counting_bijectivity": {"command": "python -m zetakit verify --type T --n 10 --check "
                                                   "counting,bijectivity", **rank10},
        "command": "python3 perfbench/run.py --workload W --seed 11 --seconds %d --trace 0" % SECONDS,
        "untraced": untraced,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
