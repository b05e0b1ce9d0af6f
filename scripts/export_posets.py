#!/usr/bin/env python3
"""Export the weak-order graph of every desk-scale family as DOT and JSON.

Usage: python3 scripts/export_posets.py [--out-dir build/posets] [--full]
DOT files render with graphviz:  dot -Tsvg a_2_2.dot -o a_2_2.svg
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from orbitcalc.clans import DESK_RANKS, case_from_params
from orbitcalc.orbits import (
    full_closure_order,
    poset_json_text,
    poset_to_dot,
    weak_order_graph,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="build/posets")
    parser.add_argument("--full", action="store_true",
                        help="also saturate and embed the full closure order")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    for tag, p, q in DESK_RANKS:
        case = case_from_params(tag, p, q)
        poset = weak_order_graph(case)
        if args.full:
            poset = full_closure_order(poset)
        stem = f"{tag}_{p}_{q}"
        (out / f"{stem}.dot").write_text(poset_to_dot(poset), encoding="utf-8")
        (out / f"{stem}.json").write_text(poset_json_text(poset),
                                          encoding="utf-8")
        print(f"wrote {stem}.dot / {stem}.json  "
              f"({len(poset.nodes)} nodes, {len(poset.weak_edges)} edges)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
