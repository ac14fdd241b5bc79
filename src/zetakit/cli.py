"""Command line front end: transform paths, run the verification suite,
and export statistic tables.

Exit codes: 2 for malformed input, bad flag combinations, a check that
does not apply to the type, a rank below the type's smallest or over the
enumeration cap; 3 for shape or labelling violations; 1 for failed
verification checks or I/O problems.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import stats, zeta
from .errors import (
    CapExceeded,
    InvalidLabelling,
    MalformedToken,
    NotBijective,
    RankMismatch,
    ShapeMismatch,
    ShapeViolation,
    Unsupported,
)
from .paths import parse_path, path_to_json, render_path
from .signedperm import SignedPermutation
from .torus import vert
from .typespec import type_spec
from .verify import run_suite

_PARSE_ERRORS = (MalformedToken, NotBijective, ValueError)
_SHAPE_ERRORS = (ShapeViolation, ShapeMismatch, InvalidLabelling)


def _cmd_zeta(args) -> int:
    lt = args.type
    spec = type_spec(lt)
    # a path kind of rank n has 2n - 1 or 2n steps
    n = (args.path.count("N") + args.path.count("E") + 1) // 2
    kind = (spec.target if args.inverse else spec.source).kind(n)
    try:
        path = parse_path(args.path, kind)
    except ShapeViolation:
        # a path too short for its type is refused for its rank, as the
        # maps refuse it, also where the kind has no paths at all
        spec.kind_rank(n, kind)
        raise
    if args.inverse:
        out = {"type": lt, "input": path_to_json(path), "preimage": path_to_json(zeta.inverse_zeta(path, lt))}
        print(json.dumps(out))
        return 0
    out = {
        "type": lt,
        "input": path_to_json(path),
        "area_vector": list(zeta.area_vector(path, lt)),
        "zeta": path_to_json(zeta.zeta_path(path, lt)),
    }
    if args.labels is not None:
        vp = vert(path, SignedPermutation.from_text(args.labels), lt)
        out["reading_word"] = list(zeta.reading_word(vp, lt).window)
    if args.sweep:
        out["sweep_labels"] = zeta.sweep_labels(path)
    print(json.dumps(out))
    return 0


def _cmd_verify(args) -> int:
    checks = None
    if args.check is not None:
        checks = [c.strip() for c in args.check.split(",") if c.strip()]
    report = run_suite(args.type, args.n, checks)
    print(report.to_json())
    return 0 if report.passed else 1


def _cmd_table(args) -> int:
    lt = args.type
    wanted = [s.strip() for s in args.stats.split(",") if s.strip()]
    if not wanted:
        raise Unsupported("no statistics requested")
    allowed = {
        "A": ("area", "dinv"),
        "B": ("area", "dinv_b_exp"),
        "C": ("area", "dinv"),
        "D": ("area",),
    }[lt]
    bad = [s for s in wanted if s not in allowed]
    if bad:
        raise Unsupported("statistics %s not available in type %s" % (", ".join(bad), lt))
    spec = type_spec(lt)
    rows = []
    if args.n != 0:  # rank 0 writes the header alone
        for p in spec.sources(spec.check_rank(args.n)):
            image = zeta.zeta_path(p, lt)
            row = {"path": render_path(p)}
            for s in wanted:
                if s == "area":
                    row[s] = sum(zeta.area_vector(p, "A")) if lt == "A" else stats.area(image, lt)
                elif s == "dinv":
                    row[s] = stats.dinv_c(p)
                else:
                    row[s] = stats.dinv_b_experimental(p)
            rows.append(row)
    try:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["path", *wanted])
            for row in rows:
                writer.writerow([row["path"], *(row[s] for s in wanted)])
    except OSError as exc:
        print("cannot write %s: %s" % (args.out, exc), file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zetakit")
    sub = parser.add_subparsers(dest="command", required=True)

    z = sub.add_parser("zeta", help="apply a zeta map to a path")
    z.add_argument("--type", required=True, choices=("A", "B", "C", "D"))
    z.add_argument("--path", required=True)
    z.add_argument("--labels", help="window text for a vertical labelling")
    z.add_argument(
        "--inverse", action="store_true", help="invert the map (by table lookup in types B and D)"
    )
    z.add_argument("--sweep", action="store_true", help="include the sweep label trace")
    z.set_defaults(func=_cmd_zeta)

    v = sub.add_parser("verify", help="run the verification suite")
    v.add_argument("--type", required=True, choices=("A", "B", "C", "D"))
    v.add_argument("--n", required=True, type=int)
    v.add_argument("--check", help="comma separated check names")
    v.set_defaults(func=_cmd_verify)

    t = sub.add_parser("table", help="export a statistics table")
    t.add_argument("--type", required=True, choices=("A", "B", "C", "D"))
    t.add_argument("--n", required=True, type=int)
    t.add_argument("--stats", required=True)
    t.add_argument("--out", required=True)
    t.set_defaults(func=_cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "zeta":
        if args.sweep and args.type != "C":
            parser.error("--sweep is only defined for --type C")
        if args.inverse and (args.labels is not None or args.sweep):
            parser.error("--inverse takes neither --labels nor --sweep")
    try:
        return args.func(args)
    except CapExceeded as exc:
        print("cap exceeded: %s" % exc, file=sys.stderr)
        return 2
    except RankMismatch as exc:
        print("rank error: %s" % exc, file=sys.stderr)
        return 2
    except _SHAPE_ERRORS as exc:
        print("shape error: %s" % exc, file=sys.stderr)
        return 3
    except _PARSE_ERRORS as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
