"""zetakit benchmark.

    python3 perfbench/run.py --workload labelled_n4 --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; zetakit is imported from its ``src``.
With ``--trace 0`` the run is untraced and reports the end-to-end metrics,
timed in nominal seconds (see speed.py);
with ``--trace 1`` it traces one pass of every workload and reports the
per-layer metrics.  The last line of standard output is the JSON result;
a summary, one line per metric, and a JSON ``info`` line come before it.
``--toy`` runs the toy sizes (ranks 2-3, 21 queries) that ``smoke.py``
uses.  See NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 15
UNITS = {
    "verdict_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer functions: (span name, workload whose traced pass they are read from, is a stream)
LAYER_FUNCTIONS = (
    ("paths.enumerate_paths", "unlabelled_n8", True),
    ("zeta.area_vector", "unlabelled_n8", False),
    ("zeta.zeta_path", "unlabelled_n8", False),
    ("zeta.inverse_zeta_c", "unlabelled_n8", False),
    ("zeta.sweep_c", "unlabelled_n8", False),
    ("stats.area", "unlabelled_n8", False),
    ("stats.dinv_c", "unlabelled_n8", False),
    ("zeta.reading_word", "labelled_n4", False),
    ("torus.enumerate_vert", "labelled_n4", True),
    ("torus.to_torus", "labelled_n4", False),
    ("affine.compose", "labelled_n4", False),
    ("affine.inverse", "labelled_n4", False),
    ("affine.grassmannian_companion", "labelled_n4", False),
    ("rootposet.to_parking_function", "labelled_n4", False),
    ("rootposet.diag_validate", "labelled_n4", False),
    ("verify.uniform_oracle", "labelled_n4", False),
    ("verify.anderson_check", "labelled_n4", False),
    ("torus.canonicalize", "torus_queries", False),
    ("zeta.inverse_by_table", "torus_queries", False),
)
VERIFY_CHECKS = {
    "labelled_n4": (
        "counting",
        "bijectivity",
        "labelled_bijectivity",
        "inverse_roundtrip",
        "sweep_equiv",
        "rise_valley",
        "stats_identity",
        "uniform",
        "anderson",
    ),
    "unlabelled_n8": ("counting", "bijectivity", "inverse_roundtrip", "sweep_equiv", "stats_identity"),
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_percentile(values) -> float:
    """p99, or the highest of p95/p90/p75/p50 with at least ten samples
    beyond it; the maximum when there are too few samples for any."""
    n = len(values)
    for q in (99, 95, 90, 75, 50):
        if n - math.ceil(q / 100 * n) >= 10:
            return q
    return 100


def spread(values) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def untraced(wl, expected, args):
    from workloads import measure

    out = measure(SRC, wl, expected, args.seed, args.seconds, args.toy, SETUP_REPEATS)
    tail_q = tail_percentile(out.latencies_ms)
    ok_ops = out.attempted - len(out.failures)
    metrics = {
        "verdict_s": statistics.median(out.verdicts),
        "queries_per_s": ok_ops / out.elapsed,
        "query_p50_ms": percentile(out.latencies_ms, 50),
        "query_p99_ms": percentile(out.latencies_ms, tail_q),
        "setup_s": statistics.median(out.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "verdicts": len(out.verdicts),
        "verdict_s_quartiles": spread(out.verdicts),
        "query_samples": len(out.latencies_ms),
        "query_p99_ms_is_percentile": tail_q,
        "setup_repeats": out.setup_times,
        "times": "nominal seconds of speed.NominalClock; the wall seconds are below",
        "measured_s": out.elapsed,
        "wall_measured_s": out.wall_elapsed,
        "nominal_per_wall_s": out.elapsed / out.wall_elapsed,
        "failed_ratio": len(out.failures) / out.attempted,
        "tracing_overhead": "reported by the --trace 1 run",
    }
    return out, {k: (v, UNITS[k]) for k, v in metrics.items()}, info


def traced(wl, all_wls, expected, args, zk):
    from tracer import Tracer
    from workloads import Outcome, install, source_kind, traced_pass, warm_up

    tracer = Tracer()
    total = Outcome()
    verdicts = {}
    order = [wl.name] + [n for n in all_wls if n != wl.name]
    for name in order:
        w = all_wls[name]
        install(tracer, zk)
        tracer.set_phase("setup:" + name)
        tracer.begin_op("warm-up")
        tracer.on = True
        warm_up(zk, w)
        tracer.on = False
        if name == wl.name:
            # the same pass untraced, for the tracing overhead
            tracer.unpatch()
            base = Outcome()
            traced_pass(zk, None, w, expected, args.seed, base)
            install(tracer, zk)
            verdicts["untraced"] = statistics.median(base.verdicts)
            total.attempted += base.attempted
            total.failures += base.failures
        tracer.set_phase(name)
        tracer.on = True
        out = Outcome()
        traced_pass(zk, tracer, w, expected, args.seed, out)
        tracer.on = False
        if name == wl.name:
            verdicts["traced"] = statistics.median(out.verdicts)
        total.attempted += out.attempted
        total.failures += out.failures
    tracer.unpatch()

    metrics = {}
    for fn, phase, stream in LAYER_FUNCTIONS:
        spans, busy, self_s = tracer.stats(phase, fn)
        if stream:
            kind = "paths" if fn == "paths.enumerate_paths" else "vert"
            items = sum(v for (ph, key), v in tracer.counts.items()
                        if tracer.phases[ph] == phase and key[:2] == ("items", kind))
            metrics[fn + ".items"] = (items, "count")
            metrics[fn + ".us_per_item"] = (busy * 1e6 / items if items else 0.0, "us")
        else:
            metrics[fn + ".calls"] = (spans, "count")
            metrics[fn + ".us_per_call"] = (busy * 1e6 / spans if spans else 0.0, "us")
        metrics[fn + ".busy_s"] = (busy, "s")
        metrics[fn + ".self_s"] = (self_s, "s")

    top = all_wls["labelled_n4"].top
    waste = {}
    for lt in "BCD":
        passes = tracer.counted("labelled_n4", ("instances", "vert", lt, top))
        items = tracer.counted("labelled_n4", ("items", "vert", lt, top))
        per_pass = zk.paths.count_paths(source_kind(zk, lt, top)) * len(
            zk.signedperm.weyl_group("B" if lt == "D" else lt, top))
        tries = tracer.counted("labelled_n4", ("scan_tries", lt, top))
        accepts = tracer.counted("labelled_n4", ("scan_accepts", lt, top))
        metrics["torus.enumerate_vert.passes.%s" % lt] = (passes, "count")
        metrics["torus.enumerate_vert.accept_ratio.%s" % lt] = (items / (passes * per_pass) if passes else 0.0, "ratio")
        metrics["rootposet.diag_validate.accept_ratio.%s" % lt] = (accepts / tries if tries else 0.0, "ratio")
        waste[lt] = {"rank": top, "vert_items": items, "vert_tries": passes * per_pass,
                     "scan_accepts": accepts, "scan_tries": tries}

    metrics["zeta.table_build_s"] = (tracer.stats("setup:torus_queries", "zeta.inverse_by_table")[1], "s")
    metrics["signedperm.weyl_group.s"] = (tracer.stats("setup:" + wl.name, "signedperm.weyl_group")[1], "s")
    for phase, checks in VERIFY_CHECKS.items():
        for check in checks:
            metrics["verify.check.%s.%s.s" % (phase, check)] = (tracer.stats(phase, "verify.check." + check)[2], "s")
    metrics["cli.main.self_s"] = (sum(tracer.stats(p, "cli.main")[2] for p in VERIFY_CHECKS), "s")
    metrics["trace.verdict_s"] = (verdicts["traced"], "s")
    metrics["trace.untraced_verdict_s"] = (verdicts["untraced"], "s")
    metrics["trace.overhead_s"] = (verdicts["traced"] - verdicts["untraced"], "s")
    metrics["trace.spans"] = (tracer.span_count, "count")

    os.makedirs(OUT_DIR, exist_ok=True)
    # one span file per workload, so repeated runs do not pile up traces
    stem = os.path.join(OUT_DIR, "trace-%s%s" % (wl.name, "-toy" if args.toy else ""))
    tracer.dump(stem)
    info = {
        "traced_workloads": order,
        "tracing_overhead_s": verdicts["traced"] - verdicts["untraced"],
        "tracing_overhead_ratio": verdicts["traced"] / verdicts["untraced"],
        "waste_counts": waste,
        "spans_file": os.path.relpath(stem, ROOT) + ".bin.gz",
        "failed_ratio": len(total.failures) / total.attempted,
    }
    return total, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("labelled_n4", "unlabelled_n8", "torus_queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes for the smoke check")
    parser.add_argument("--expected", default=os.path.join(HERE, "expected.json"),
                        help="expected verify rows and report digests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "zetakit", "__init__.py")):
        print("no zetakit sources under %s; run from a checkout of the repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import fresh_import, workloads

    with open(args.expected) as fh:
        expected = json.load(fh)["commands"]
    all_wls = workloads(args.toy)
    wl = all_wls[args.workload]
    try:
        if args.trace:
            # the traced run warms the caches itself, with tracing on
            out, metrics, info = traced(wl, all_wls, expected, args, fresh_import(SRC))
        else:
            out, metrics, info = untraced(wl, expected, args)
    except ImportError as exc:
        print("cannot import zetakit: %s" % exc, file=sys.stderr)
        return 2
    info.update({
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "attempted": out.attempted,
        "failed": len(out.failures),
        "failures": out.failures[:20],
    })
    result = {
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = "%s-seed%d-trace%d%s.json" % (wl.name, args.seed, args.trace, "-toy" if args.toy else "")
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)

    for failure in out.failures[:20]:
        print("FAILED %s" % failure)
    for k, (v, u) in metrics.items():
        print("%-48s %14.6g %s" % (k, v, u))
    print("%-48s %14.6g ratio (%d of %d)" % ("failed_ratio", info["failed_ratio"], len(out.failures), out.attempted))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
