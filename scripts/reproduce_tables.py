#!/usr/bin/env python3
"""Recompute every shipped class table from scratch and diff against the
frozen fixtures in tests/data/.

Usage: python3 scripts/reproduce_tables.py [--data-dir DIR]
Exit status is nonzero when any recomputed table disagrees with its fixture.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from orbitcalc.clans import DESK_RANKS, case_from_params, parse_clan
from orbitcalc.formulas import all_classes, formula_ring
from orbitcalc.poly import parse_poly


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--data-dir",
        default=str(Path(__file__).resolve().parent.parent / "tests" / "data"),
    )
    args = parser.parse_args()
    data_dir = Path(args.data_dir)

    bad = 0
    for tag, p, q in DESK_RANKS:
        case = case_from_params(tag, p, q)
        ring = formula_ring(case)
        fixture_path = data_dir / f"classes_{tag}_{p}_{q}.json"
        fixture = json.loads(fixture_path.read_text(encoding="utf-8"))
        expected = {
            text: parse_poly(expr, ring)
            for text, expr in fixture["classes"].items()
        }

        start = time.perf_counter()
        computed = all_classes(case)
        elapsed = time.perf_counter() - start

        P, Q = case.ambient_shape
        mismatches = []
        if {c.to_text() for c in computed} != set(expected):
            mismatches.append("orbit sets differ")
        else:
            for text, poly in expected.items():
                c = parse_clan(text, P, Q)
                if computed[c] != poly:
                    mismatches.append(text)

        status = "OK " if not mismatches else "FAIL"
        print(
            f"{status} {tag:<11} ({p},{q})  {len(expected):>3} rows  "
            f"{elapsed * 1000:7.1f} ms"
        )
        for m in mismatches:
            print(f"      mismatch: {m}")
        bad += len(mismatches)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
