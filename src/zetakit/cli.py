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
)
from .paths import enumerate_paths, is_dyck, parse_path, path_to_json, render_path
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
    if args.inverse:
        target = parse_path(args.path, spec.target.kind(n))
        preimage = zeta.inverse_zeta_c(target) if lt == "C" else zeta.inverse_by_table(target, lt)
        out = {"type": lt, "input": path_to_json(target), "preimage": path_to_json(preimage)}
        print(json.dumps(out))
        return 0
    source = parse_path(args.path, spec.source.kind(n))
    out = {
        "type": lt,
        "input": path_to_json(source),
        "area_vector": list(zeta.area_vector(source, lt)),
        "zeta": path_to_json(zeta.zeta_path(source, lt)),
    }
    if args.labels is not None:
        vp = vert(source, SignedPermutation.from_text(args.labels), lt)
        out["reading_word"] = list(zeta.reading_word(vp, lt).window)
    if args.sweep:
        out["sweep_labels"] = zeta.sweep_labels(source)
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
    allowed = {
        "A": ("area", "dinv"),
        "B": ("area", "dinv_b_exp"),
        "C": ("area", "dinv"),
        "D": ("area",),
    }[lt]
    bad = [s for s in wanted if s not in allowed]
    if bad:
        raise ValueError("statistics %s not available in type %s" % (", ".join(bad), lt))
    spec = type_spec(lt)
    rows = []
    if args.n != 0:  # rank 0 writes the header alone
        sources = enumerate_paths(spec.source.kind(spec.check_rank(args.n)))
        if spec.dyck:
            sources = filter(is_dyck, sources)
        for p in sources:
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
        if args.inverse and args.labels:
            parser.error("--inverse does not take --labels")
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
