#!/usr/bin/env python3
"""Compare a parent checkout of zetakit with a change checkout and record the numbers.

    python3 scripts/bench.py --parent ../parent --change . --out BENCH_x.json --verify C:8:counting,bijectivity

The workloads, the end-to-end metrics with their directions and bounds, and
the seconds of a run come from the change checkout's BENCHMARK.json.  Three
parts, each run alternately in the two checkouts, the parent first in odd
pairs:

- untraced pairs: ten pairs per workload of

      python3 perfbench/run.py --workload W --seed 11 --seconds S --trace 0

  each run in its checkout's own directory, with a per-metric summary of
  both medians, the parent's quartile spread, the pairs the change wins and
  the relative change of the medians next to the metric's bound;
- per-layer numbers: two --trace 1 runs per checkout of the first workload,
  their µs per call or per item and the seconds of each verify check;
- verify runs: for each --verify TYPE:N[:CHECKS], two runs per checkout of
  `python -m zetakit verify`, with ZETAKIT_CAP raised to what the run
  counts, its wall seconds, its own peak RSS, its exit code and the sha256
  of its report.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SEED = 11
PAIRS = 10  # untraced pairs per workload
RUNS = 2  # traced and verify runs per checkout


def sides(i: int) -> tuple:
    """The order of the two checkouts in pair i, counted from 1: the parent first in odd pairs."""
    return ("parent", "change") if i % 2 else ("change", "parent")


def benchmark(root: str) -> dict:
    """The checkout's BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench_run(root: str, workload: str, seconds: float, trace: int) -> dict:
    """Every metric of one perfbench run in the checkout, with its correct, failed and attempted."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    row = {k: round(m["value"], 6) for k, m in result["metrics"].items()}
    row.update(correct=result["correct"], failed=result["failed"], attempted=result["attempted"])
    return row


def summary(pairs, end_to_end) -> dict:
    """Per end-to-end metric of BENCHMARK.json: both medians, the parent's
    quartile spread (q3 - q1), the pairs the change wins in the metric's
    better direction (a tie counts for neither side), and the relative
    change of the medians next to the metric's bound."""
    out = {}
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        q1, _, q3 = statistics.quantiles(parent, n=4)
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        p50, c50 = statistics.median(parent), statistics.median(change)
        relative = (c50 - p50) / p50 if p50 else None
        out[name] = {
            "parent_median": round(p50, 6),
            "change_median": round(c50, 6),
            "parent_quartile_spread": round(q3 - q1, 6),
            "change_wins": "%d of %d" % (wins, len(pairs)),
            "relative_change": None if relative is None else round(relative, 4),
            "bound": metric["bound"],
        }
    return out


def parse_verify(spec: str) -> tuple:
    """TYPE:N[:CHECKS] as (type, rank, checks or None)."""
    lt, n, *checks = spec.split(":", 2)
    return lt, int(n), checks[0] if checks else None


def needed_cap(spec: str) -> int:
    """The enumeration cap the verify run needs: the most objects any of its
    checks counts at its top rank, the type's own checks when CHECKS is
    omitted, and never below the cap in force; from the zetakit on sys.path."""
    from zetakit.paths import enumeration_cap
    from zetakit.typespec import type_spec
    from zetakit.verify import objects_needed

    lt, n, checks = parse_verify(spec)
    ts = type_spec(lt)
    names = ts.checks if checks is None else checks.split(",")
    return max([objects_needed(ts, n, name) for name in names] + [enumeration_cap()])


def verify_run(root: str, spec: str, cap=None) -> dict:
    """One `python -m zetakit verify` run of TYPE:N[:CHECKS] on the checkout's
    src, under ZETAKIT_CAP=cap unless cap is None: its wall seconds, its own
    peak RSS (os.wait4 reads the usage of this child alone), its exit code
    and the sha256 of its report."""
    lt, n, checks = parse_verify(spec)
    argv = ["verify", "--type", lt, "--n", str(n)] + (["--check", checks] if checks else [])
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    if cap is not None:
        env["ZETAKIT_CAP"] = str(cap)
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "zetakit", *argv], env=env, stdout=subprocess.PIPE) as proc:
        report = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": round(time.perf_counter() - start, 2),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
        "exit_code": proc.returncode,
        "sha256": hashlib.sha256(report).hexdigest(),
    }


def _per_layer(row: dict) -> dict:
    return {k: v for k, v in row.items()
            if k.endswith((".us_per_call", ".us_per_item")) or (k.startswith("verify.check.") and k.endswith(".s"))}


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--out", required=True, help="the BENCH_*.json to write")
    ap.add_argument("--verify", action="append", default=[], metavar="TYPE:N[:CHECKS]",
                    help="also time `zetakit verify` at this type and rank; repeatable")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    bench = benchmark(args.change)
    seconds = bench["run_seconds"]
    # read from the change checkout's zetakit now, so that a malformed --verify fails before the pairs
    sys.path.insert(0, os.path.join(os.path.abspath(args.change), "src"))
    caps = {spec: needed_cap(spec) for spec in args.verify}

    def log(*parts):
        print(*(json.dumps(p) if isinstance(p, dict) else p for p in parts), file=sys.stderr, flush=True)

    untraced = {}
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        for i in range(1, PAIRS + 1):
            pair = {"pair": i}
            for side in sides(i):
                pair[side] = bench_run(trees[side], workload, seconds, 0)
            log(workload, pair)
            pairs.append(pair)
        untraced[workload] = {"summary": summary(pairs, bench["end_to_end"]), "pairs": pairs}

    traced_workload = bench["workloads"][0]["name"]
    traced = {side: [] for side in trees}
    for i in range(1, RUNS + 1):
        for side in sides(i):
            row = bench_run(trees[side], traced_workload, seconds, 1)
            traced[side].append({**_per_layer(row), **{k: row[k] for k in ("correct", "failed", "attempted")}})
            log("trace", side, traced[side][-1])

    verify = {}
    for spec, cap in caps.items():
        runs = {side: [] for side in trees}
        for i in range(1, RUNS + 1):
            for side in sides(i):
                runs[side].append(verify_run(trees[side], spec, cap))
                log(spec, side, runs[side][-1])
        digests = {run["sha256"] for side in trees for run in runs[side]}
        verify[spec] = {"zetakit_cap": cap, **runs, "digests_agree": len(digests) == 1}

    record = {
        "machine": {"cpu": _cpu(), "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()},
        "untraced": {"command": "python3 perfbench/run.py --workload W --seed %d --seconds %s --trace 0"
                                % (SEED, seconds), **untraced},
        "per_layer": {"command": "python3 perfbench/run.py --workload %s --seed %d --seconds %s --trace 1"
                                 % (traced_workload, SEED, seconds), **traced},
        "verify": {"command": "python -m zetakit verify --type TYPE --n N [--check CHECKS]", **verify},
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
