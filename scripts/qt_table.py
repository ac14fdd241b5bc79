#!/usr/bin/env python3
"""Joint distribution tables of the diagonal inversion count against the
area of the zeta image, printed as coefficient dictionaries of a
two-variable generating function.  Exploratory output only."""

import argparse
import json
from collections import Counter

from zetakit.paths import enumerate_paths
from zetakit.stats import area, dinv_c
from zetakit.typespec import type_spec
from zetakit.zeta import zeta_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--type", default="C", choices=("B", "C", "D"))
    parser.add_argument("--n", type=int, default=4)
    args = parser.parse_args()

    table = Counter()
    for p in enumerate_paths(type_spec(args.type).source.kind(args.n)):
        image_area = area(zeta_path(p, args.type), args.type)
        if args.type == "C":
            table[(dinv_c(p), image_area)] += 1
        else:
            table[(image_area,)] += 1
    printable = {",".join(map(str, k)): v for k, v in sorted(table.items())}
    print(json.dumps({"type": args.type, "n": args.n, "coefficients": printable}, indent=2))


if __name__ == "__main__":
    main()
