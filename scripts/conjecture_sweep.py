#!/usr/bin/env python3
"""Sweep the order-comparison question across families and ranks.

For every requested (family, p, q) this saturates the computed closure
order, compares it against the order induced by rank-number comparison,
and reports either coincidence or the list of induced-only pairs.

Usage:
    python3 scripts/conjecture_sweep.py               # default sweep
    python3 scripts/conjecture_sweep.py --max-rank 4  # deeper symmetric sweep
"""

from __future__ import annotations

import argparse
import sys
import time

from orbitcalc.clans import CASES, case_from_params
from orbitcalc.orbits import check_conjecture, weak_order_graph

COINCIDENCE_FAMILIES = ("b-so", "c-spxsp", "c-sp-gl")


def shapes_for(tag: str, max_rank: int):
    row = CASES[tag]
    if row.symmetry == "skew":  # the GL pairs: p == q == n
        low = 3 if tag == "d-so-gl" else row.least
        return [(n, n) for n in range(low, max_rank + 1)]
    return [(p, n - p) for n in range(row.least, max_rank + 1) for p in range(1, n)]


def sweep(tag: str, shapes, max_witnesses: int) -> None:
    for p, q in shapes:
        case = case_from_params(tag, p, q)
        start = time.perf_counter()
        report = check_conjecture(weak_order_graph(case))
        elapsed = time.perf_counter() - start
        if report.coincides:
            verdict = "coincide"
        else:
            verdict = f"strictly finer ({len(report.witnesses)} witnesses)"
        print(f"{tag:<11} ({p},{q})  {elapsed:6.2f}s  {verdict}")
        for a, b in report.witnesses[:max_witnesses]:
            print(f"    {a.to_text()} < {b.to_text()} only for rank numbers")
        if len(report.witnesses) > max_witnesses:
            print(f"    ... {len(report.witnesses) - max_witnesses} more")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-rank", type=int, default=4,
                        help="largest p+q (or n for GL families) to test")
    parser.add_argument("--max-witnesses", type=int, default=5)
    args = parser.parse_args()

    print("== types B and C: families where the computed and induced orders coincide ==")
    for tag in COINCIDENCE_FAMILIES:
        sweep(tag, shapes_for(tag, args.max_rank), args.max_witnesses)

    print()
    print("== type D, (SO(2n), GL(n)): coincides at (3,3), strictly finer at (4,4) and (5,5) ==")
    sweep("d-so-gl", shapes_for("d-so-gl", args.max_rank), args.max_witnesses)

    print()
    print("== type D, orthogonal pairs: strictly finer already at small rank ==")
    sweep("d-oxo-even", [(2, 1)], args.max_witnesses)
    sweep("d-oxo-odd", [(1, 2)], args.max_witnesses)
    sweep("d-oxo-even", [(2, 2)], args.max_witnesses)
    sweep("d-oxo-odd", [(2, 2)], args.max_witnesses)
    return 0


if __name__ == "__main__":
    sys.exit(main())
