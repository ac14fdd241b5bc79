"""The three benchmark workloads, their set-up, and the correctness gate.

Everything here reaches zetakit only through a namespace ``zk`` of freshly
imported modules (see ``fresh_import``), so a set-up can be repeated with
cold caches inside one process.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

from speed import NominalClock
from tracer import Tracer

MODULES = ("affine", "cli", "paths", "rootposet", "signedperm", "stats", "torus", "verify", "zeta")

UNLABELLED_C_CHECKS = "counting,bijectivity,inverse_roundtrip,sweep_equiv,stats_identity"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "verify" or "torus"
    top: int  # highest rank the workload touches
    commands: tuple[tuple[str, ...], ...] = ()
    batch: int = 0  # torus queries per verdict


def workloads(toy: bool) -> dict[str, Workload]:
    """Full-size workloads, or the toy sizes the smoke check uses."""
    n4, n8, n5 = (3, 3, 3) if toy else (4, 8, 5)
    labelled = tuple(("verify", "--type", lt, "--n", str(n4)) for lt in "BCD")
    unlabelled = (
        ("verify", "--type", "C", "--n", str(n8), "--check", UNLABELLED_C_CHECKS),
        ("verify", "--type", "B", "--n", str(n8), "--check", "counting,bijectivity"),
        ("verify", "--type", "D", "--n", str(n8), "--check", "counting,bijectivity"),
    )
    return {
        "labelled_n4": Workload("labelled_n4", "verify", n4, commands=labelled),
        "unlabelled_n8": Workload("unlabelled_n8", "verify", n8, commands=unlabelled),
        "torus_queries": Workload("torus_queries", "torus", n5, batch=21 if toy else 100),
    }


# -- import and set-up ------------------------------------------------------


def fresh_import(src: str) -> SimpleNamespace:
    """Drop every loaded zetakit module and import the package again, so
    that its caches start empty.  The package must come from ``src``."""
    for name in [m for m in sys.modules if m == "zetakit" or m.startswith("zetakit.")]:
        del sys.modules[name]
    pkg = importlib.import_module("zetakit")
    if not (pkg.__file__ or "").startswith(src):
        raise ImportError("zetakit was imported from %s, not from %s" % (pkg.__file__, src))
    return SimpleNamespace(pkg=pkg, **{m: importlib.import_module("zetakit." + m) for m in MODULES})


def source_kind(zk, lt: str, n: int):
    return zk.paths.signed_lattice(n) if lt == "D" else zk.paths.lattice(n, n)


def warm_up(zk, wl: Workload) -> None:
    """Fill the caches the workload reads: Weyl groups, positive roots
    and, for torus queries, the B/D zeta tables and canonicalize's action
    tables."""
    if wl.kind == "torus":
        groups = [(lt, wl.top) for lt in "BCD"]
        roots = groups
    else:
        labelled_ranks = range(1, min(wl.top, 4) + 1)
        group_types = "BCD" if wl.name == "labelled_n4" else "C"
        groups = [(lt, k) for lt in group_types for k in labelled_ranks]
        roots = [(lt, k) for lt in "BCD" for k in range(1, wl.top + 1)]
    for lt, k in groups:
        zk.signedperm.weyl_group(lt, k)
    for lt, k in roots:
        zk.rootposet.positive_roots(lt, k)
    if wl.kind == "torus":
        for lt in "BCD":
            zk.torus.canonicalize(zk.torus.torus_element(lt, (0,) * wl.top))
        for lt in "BD":
            first = next(iter(zk.paths.enumerate_paths(source_kind(zk, lt, wl.top))))
            zk.zeta.inverse_by_table(zk.zeta.zeta_path(first, lt), lt)


def cold_setup(src: str, wl: Workload, clock):
    """Import plus warm-up from cold; returns its seconds and the namespace."""
    gc.collect()
    t0 = clock()
    zk = fresh_import(src)
    warm_up(zk, wl)
    return clock() - t0, zk


# -- operations -------------------------------------------------------------


@dataclass
class Outcome:
    verdicts: list[float] = field(default_factory=list)  # seconds per pass or batch
    latencies_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0  # seconds of measured work
    setup_times: list[float] = field(default_factory=list)
    wall_elapsed: float = 0.0  # wall seconds of measured work, when ``elapsed`` is nominal


def _run_cli(zk, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = zk.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def _report_problem(text: str, exp: dict) -> str | None:
    rows = json.loads(text)
    got = [[r["check"], r["type"], r["n"]] for r in rows]
    if got != exp["rows"]:
        missing = [r for r in exp["rows"] if r not in got]
        return "rows differ from the expected ones (missing %s)" % (missing[:3],)
    failed = [r for r in rows if not r["passed"]]
    if failed:
        return "check %s failed at %s n=%d" % (failed[0]["check"], failed[0]["type"], failed[0]["n"])
    if hashlib.sha256(text.encode()).hexdigest() != exp["sha256"]:
        return "report digest differs from the expected one"
    return None


def verify_command(zk, argv, exp: dict, split: bool) -> str | None:
    """Run one verify command in-process; return what was wrong, or None.

    With ``split`` the command is issued once per check, so each check gets
    its own span, and the reports are joined back into the one report the
    whole command prints.
    """
    if not split:
        rc, text = _run_cli(zk, argv)
        if rc != 0:
            return "exit code %d" % rc
        return _report_problem(text, exp)
    base = [a for i, a in enumerate(argv) if a != "--check" and (i == 0 or argv[i - 1] != "--check")]
    rows = []
    for check in dict.fromkeys(r[0] for r in exp["rows"]):
        rc, text = _run_cli(zk, base + ["--check", check])
        if rc != 0:
            return "exit code %d on --check %s" % (rc, check)
        rows.extend(json.loads(text))
    return _report_problem(json.dumps(rows, indent=2) + "\n", exp)


def verify_pass(zk, wl: Workload, expected: dict, out: Outcome, tracer: Tracer | None = None,
                clock=time.perf_counter) -> None:
    """One pass over the workload's verify commands; appends its verdict time."""
    gc.collect()
    start = clock()
    for argv in wl.commands:
        label = " ".join(argv)
        if tracer is not None:
            tracer.begin_op(label)
        t0 = clock()
        out.attempted += 1
        try:
            problem = verify_command(zk, argv, expected[label], split=tracer is not None)
        except Exception:
            problem = "raised " + traceback.format_exc(limit=2).strip().splitlines()[-1]
        out.latencies_ms.append((clock() - t0) * 1e3)
        if problem:
            out.failures.append("%s: %s" % (label, problem))
    out.verdicts.append(clock() - start)


def query_stream(seed: int, n: int):
    """Seeded torus points at rank n, types B, C, D in turn."""
    rng = random.Random(seed)
    mods = {"B": 2 * n + 1, "C": 2 * n + 1, "D": 2 * n - 1}
    while True:
        for lt in "BCD":
            yield lt, tuple(rng.randrange(mods[lt]) for _ in range(n))


def _untwist(zk, u, lam, path, lt: str):
    """Labels whose ``label_twist`` is u (the twist flips signs, so it is
    its own inverse)."""
    if lt == "C":
        return u
    win = list(u.window)
    if (lam[-2] + lam[-1]) % 2:
        win[-1] = -win[-1]
    if lt == "D" and zk.paths.sign_of(path) < 0:
        win[0] = -win[0]
    return zk.signedperm.SignedPermutation(tuple(win))


def torus_query(zk, lt: str, coords) -> str | None:
    """Torus point -> labelled path -> zeta image and back; None if every
    round trip holds."""
    t = zk.torus.torus_element(lt, coords)
    lam, u = zk.torus.canonicalize(t)
    path = zk.torus.path_of_lambda(lam, lt)
    vp = zk.torus.vert(path, _untwist(zk, u, lam, path, lt), lt)
    image, word = zk.zeta.zeta_labelled(vp, lt)
    if zk.rootposet.to_parking_function(image, word, lt) != zk.verify.uniform_oracle(vp, lt):
        return "parking function differs from uniform_oracle"
    if zk.torus.to_torus(vp, lt) != t:
        return "to_torus does not give back the point"
    back = zk.zeta.inverse_zeta_c(image) if lt == "C" else zk.zeta.inverse_by_table(image, lt)
    if back != path:
        return "inverse of the image is not the path"
    return None


def torus_batch(zk, wl: Workload, stream, out: Outcome, tracer: Tracer | None = None,
                clock=time.perf_counter) -> None:
    """Closed loop, one client: ``wl.batch`` queries from ``stream``, one
    after another; appends the batch's verdict time."""
    start = clock()
    for _ in range(wl.batch):
        lt, coords = next(stream)
        if tracer is not None:
            tracer.begin_op("query %s %s" % (lt, coords))
        t0 = clock()
        out.attempted += 1
        try:
            problem = torus_query(zk, lt, coords)
        except Exception:
            problem = "raised " + traceback.format_exc(limit=2).strip().splitlines()[-1]
        out.latencies_ms.append((clock() - t0) * 1e3)
        if problem:
            out.failures.append("query %s %s: %s" % (lt, coords, problem))
    out.verdicts.append(clock() - start)


def measure(src: str, wl: Workload, expected: dict, seed: int, seconds: float, toy: bool,
            setups: int) -> Outcome:
    """The untraced run: whole passes (or query batches) while another one
    is expected to end within ``seconds`` of wall time; the toy size does
    exactly one.

    Every time it reports is read from a ``NominalClock``, so it is in
    nominal seconds; ``wall_elapsed`` keeps the wall time of the measured
    work.  The ``setups`` cold set-ups are spread over the run: one before
    it, the others each time another ``seconds / setups`` of work has been
    measured.  Their time is not counted as measured work.
    """
    out = Outcome()
    stream = query_stream(seed, wl.top)
    clock = NominalClock().start()
    try:
        t, zk = cold_setup(src, wl, clock.now)
        out.setup_times.append(t)
        start, wall_start = clock.now(), time.perf_counter()
        in_setup = wall_in_setup = 0.0
        wall_passes = []
        while True:
            w0 = time.perf_counter()
            if wl.kind == "verify":
                verify_pass(zk, wl, expected, out, clock=clock.now)
            else:
                torus_batch(zk, wl, stream, out, clock=clock.now)
            wall_passes.append(time.perf_counter() - w0)
            worked = time.perf_counter() - wall_start - wall_in_setup
            while len(out.setup_times) < setups and worked >= seconds * len(out.setup_times) / setups:
                zk = None
                w0 = time.perf_counter()
                t, zk = cold_setup(src, wl, clock.now)
                out.setup_times.append(t)
                in_setup += t
                wall_in_setup += time.perf_counter() - w0
            if toy or worked + statistics.median(wall_passes) > seconds:
                break
        out.elapsed = clock.now() - start - in_setup
        out.wall_elapsed = time.perf_counter() - wall_start - wall_in_setup
        while len(out.setup_times) < setups:
            zk = None
            out.setup_times.append(cold_setup(src, wl, clock.now)[0])
    finally:
        clock.stop()
    return out


# -- tracing ----------------------------------------------------------------

# (module, attribute, span name); AffinePermutation methods are looked up on the class
TRACED_FUNCTIONS = (
    ("zeta", "area_vector", "zeta.area_vector"),
    ("zeta", "zeta_path", "zeta.zeta_path"),
    ("zeta", "inverse_zeta_c", "zeta.inverse_zeta_c"),
    ("zeta", "sweep_c", "zeta.sweep_c"),
    ("zeta", "reading_word", "zeta.reading_word"),
    ("zeta", "inverse_by_table", "zeta.inverse_by_table"),
    ("stats", "area", "stats.area"),
    ("stats", "dinv_c", "stats.dinv_c"),
    ("torus", "to_torus", "torus.to_torus"),
    ("torus", "canonicalize", "torus.canonicalize"),
    ("affine", "AffinePermutation.compose", "affine.compose"),
    ("affine", "AffinePermutation.inverse", "affine.inverse"),
    ("affine", "grassmannian_companion", "affine.grassmannian_companion"),
    ("signedperm", "weyl_group", "signedperm.weyl_group"),
    ("rootposet", "to_parking_function", "rootposet.to_parking_function"),
    ("verify", "uniform_oracle", "verify.uniform_oracle"),
    ("verify", "anderson_check", "verify.anderson_check"),
    ("cli", "main", "cli.main"),
)
TRACED_GENERATORS = (
    ("paths", "enumerate_paths", "paths.enumerate_paths", lambda a, k: ("paths", a[0].shape, a[0].params)),
    ("torus", "enumerate_vert", "torus.enumerate_vert", lambda a, k: ("vert", a[0], a[1])),
)


def _lookup(zk, module: str, attr: str):
    obj = getattr(zk, module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def install(tracer: Tracer, zk) -> None:
    """Wrap every traced function wherever zetakit holds a reference to it."""
    tracer.unpatch()
    mods = [zk.pkg] + [getattr(zk, m) for m in MODULES]
    for module, attr, name in TRACED_FUNCTIONS:
        fn = _lookup(zk, module, attr)
        tracer.patch(mods, fn, tracer.wrap_function(fn, name))
    for module, attr, name, key_of in TRACED_GENERATORS:
        fn = _lookup(zk, module, attr)
        tracer.patch(mods, fn, tracer.wrap_generator(fn, name, key_of))

    def on_diag(args, ok):
        # a call made while a stream of target (ballot) paths is the
        # innermost open stream is one try of the exhaustive labelling scan
        inner = tracer.innermost_stream()
        if inner is not None and inner[0] == "paths" and inner[1] in ("ballot", "signed_ballot"):
            key = (args[2], args[1].n)
            tracer.count(("scan_tries",) + key)
            if ok:
                tracer.count(("scan_accepts",) + key)

    diag = zk.rootposet.diag_validate
    tracer.patch(mods, diag, tracer.wrap_function(diag, "rootposet.diag_validate", on_diag))
    run_suite = zk.verify.run_suite

    def check_span(args, kwargs):
        # the traced run issues one check per run_suite call
        return "verify.check." + ",".join(args[2] or ["all"])

    tracer.patch(mods, run_suite, tracer.wrap_function(run_suite, check_span))


def traced_pass(zk, tracer: Tracer, wl: Workload, expected: dict, seed: int, out: Outcome) -> None:
    """One traced pass: all verify commands, or two query batches."""
    if wl.kind == "verify":
        verify_pass(zk, wl, expected, out, tracer)
    else:
        gc.collect()
        stream = query_stream(seed, wl.top)
        for _ in range(2):
            torus_batch(zk, wl, stream, out, tracer)
