#!/usr/bin/env python3
"""Time the verify checks of one zetakit source tree and record the numbers.

For each type B, C and D and each of its checks, the seconds of
run_suite(type, 4, [check]), the median over three fresh processes.
Then the wall time, peak RSS and report sha256 of
`python -m zetakit verify --type C --n 5`, and, with --rank N, of
`verify --type {B,C,D} --n N` with every check, with ZETAKIT_CAP raised
to the largest enumeration the guard of verify counts for the run.

Run it once per tree, on the same machine, into the same file:

    python scripts/bench_labelled.py --src ../parent/src --name parent --rank 6
    python scripts/bench_labelled.py --src src --name change --rank 6

Each run adds its results under --name to --out (BENCH_labelled.json),
keeping those of an earlier run under that name that it does not repeat.
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

RANK = 4  # rank of the per-check timings
REPEAT = 3  # fresh processes per per-check timing

TIME_CHECK = """
import sys, time
from zetakit.verify import run_suite
t = time.perf_counter()
report = run_suite(sys.argv[1], int(sys.argv[2]), [sys.argv[3]])
print(time.perf_counter() - t, report.passed)
"""


def _env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.abspath(src))


def check_seconds(src: str, lt: str, check: str) -> float:
    """Median seconds of run_suite(lt, RANK, [check]), each in a new process."""
    times = []
    for _ in range(REPEAT):
        out = subprocess.run([sys.executable, "-c", TIME_CHECK, lt, str(RANK), check],
                             env=_env(src), capture_output=True, text=True, check=True).stdout.split()
        if out[1] != "True":
            raise SystemExit("%s failed at %s n=%d" % (check, lt, RANK))
        times.append(float(out[0]))
    return statistics.median(times)


def verify_run(src: str, argv, cap=None) -> dict:
    """Wall seconds, peak RSS and report digest of one `zetakit verify` run,
    under ZETAKIT_CAP=cap unless cap is None."""
    env = _env(src) if cap is None else dict(_env(src), ZETAKIT_CAP=str(cap))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "zetakit", "verify", *argv],
                            env=env, stdout=subprocess.PIPE)
    report = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "argv": ["zetakit", "verify", *argv],
        **({} if cap is None else {"zetakit_cap": cap}),
        "exit_code": proc.returncode,
        "wall_s": round(wall, 2),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
        "sha256": hashlib.sha256(report).hexdigest(),
    }


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _tree(src: str) -> str:
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=src,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default="src", help="the src directory of the tree to measure")
    parser.add_argument("--name", required=True, help="key of this tree's results, e.g. parent or change")
    parser.add_argument("--out", default="BENCH_labelled.json")
    parser.add_argument("--rank", type=int, help="also run verify --type {B,C,D} --n RANK with every check")
    args = parser.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))
    from zetakit.paths import count_paths, enumeration_cap
    from zetakit.typespec import type_spec

    per_check = {}
    for lt in "BCD":
        per_check[lt] = {c: round(check_seconds(args.src, lt, c), 4)
                         for c in type_spec(lt).checks}
        per_check[lt]["total"] = round(sum(per_check[lt].values()), 4)
        print(lt, per_check[lt], file=sys.stderr)
    result = {
        "tree": _tree(args.src),
        "run_suite_n%d_s" % RANK: per_check,
        "verify_C5": verify_run(args.src, ["--type", "C", "--n", "5"]),
    }
    print(result["verify_C5"], file=sys.stderr)
    for lt in "BCD" if args.rank else ():
        spec = type_spec(lt)
        # the labelled checks' count at the top rank, as verify's cap guard counts it
        need = sum(count_paths(side.kind(args.rank)) for side in (spec.source, spec.target))
        need += spec.modulus(args.rank) ** args.rank
        run = verify_run(args.src, ["--type", lt, "--n", str(args.rank)], max(need, enumeration_cap()))
        result["verify_%s%d" % (lt, args.rank)] = run
        print(run, file=sys.stderr)

    data = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data["machine"] = {"cpu": _cpu(), "nproc": len(os.sched_getaffinity(0)),
                       "python": platform.python_version()}
    data["repeat"] = REPEAT
    data.setdefault(args.name, {}).update(result)
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
