"""Command-line interface.

Subcommands: enumerate, poset, classes, verify, oracle, conjecture, chern.
Exit codes: 0 success, 1 verification failure (a failed localization or
oracle check, or an internal consistency check), 2 usage or i/o error.

A handler imports the layers it calls, and ``json`` only where it writes JSON:
every call is a fresh process, and start-up was about 3/4 of a ``conjecture``
call's CPU time.  ``enumerate`` loads ``clans`` alone; ``conjecture`` and ``poset``
add ``orbits`` and ``weyl``; ``classes``, ``verify`` and ``chern`` add ``formulas``
and ``poly``; only ``oracle`` loads ``geometry``.

Every handler hands ``_emit`` its output as chunks, written as they are
produced: ``classes`` renders one line (or one JSON entry) per orbit, so
its table is never held whole in memory, and ``verify`` writes each case's
lines once that case is checked.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable

from .clans import (CASE_TAGS, CASES, DESK_RANKS, CaseId, CheckError, ClanError,
                    case_from_params, enumerate_case_clans, enumerate_clans, parse_clan,
                    rank_table)

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _emit(args, chunks: Iterable[str]) -> None:
    """Write each chunk of text as it is produced, to ``--output`` (opened
    once) or to stdout, so no command holds its whole output at once."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            out.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _resolve_case(args) -> CaseId:
    if args.case is None:
        raise ClanError("--case is required")
    if args.n is not None:
        if args.p is not None or args.q is not None:
            raise ClanError("give either --n or --p/--q, not both")
        if CASES[args.case].symmetry != "skew":
            raise ClanError(f"case {args.case} takes --p/--q, not --n")
        p = q = args.n
    else:
        if args.p is None or args.q is None:
            raise ClanError("give --p and --q (or --n for the GL families)")
        p, q = args.p, args.q
    return case_from_params(args.case, p, q)


def _guardrail(args, case: CaseId, count: int) -> None:
    if count > args.max_nodes:
        print(
            f"warning: case {case.tag} ({case.p},{case.q}) has {count} orbits, "
            f"above the --max-nodes cap {args.max_nodes}; this may take long",
            file=sys.stderr,
        )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    case = _resolve_case(args)
    clans = enumerate_case_clans(case)
    _guardrail(args, case, len(clans))
    if args.fmt == "json":
        import json
        data = {
            "case": {"tag": case.tag, "p": case.p, "q": case.q},
            "count": len(clans),
            "clans": [c.to_text() for c in clans],
        }
        _emit(args, [json.dumps(data, indent=2, sort_keys=True) + "\n"])
    else:
        _emit(args, (c.to_text() + "\n" for c in clans))
    return 0


def cmd_poset(args) -> int:
    from .orbits import full_closure_order, poset_json_text, poset_to_dot, weak_order_graph
    case = _resolve_case(args)
    poset = weak_order_graph(case)
    _guardrail(args, case, len(poset.nodes))
    if args.full:
        poset = full_closure_order(poset)
    if args.fmt == "dot":
        _emit(args, [poset_to_dot(poset)])
    else:
        _emit(args, [poset_json_text(poset)])
    return 0


def cmd_classes(args) -> int:
    from .formulas import all_classes, closed_class, expand_class, verify_localization
    from .orbits import weak_order_graph
    from .weyl import is_closed_clan
    case = _resolve_case(args)
    poset = weak_order_graph(case)
    _guardrail(args, case, len(poset.nodes))
    classes = all_classes(poset)
    if args.verify:
        report = verify_localization(poset, classes)
        if not report.ok:
            for line in report.failures:
                print(f"verify: {line}", file=sys.stderr)
            return VERIFY_ERROR

    def render(c) -> str:
        if args.factored and is_closed_clan(case, c):
            return closed_class(case, c).to_text()
        return expand_class(case, classes[c]).to_text()

    if args.fmt == "json":
        import json

        # the text json.dumps(data, indent=2, sort_keys=True) writes, one entry at a time
        def entries():
            head = json.dumps({"tag": case.tag, "p": case.p, "q": case.q},
                              indent=2, sort_keys=True)
            yield '{\n  "case": ' + head.replace("\n", "\n  ") + ',\n  "classes": {'
            sep = "\n"
            for c in sorted(poset.nodes, key=lambda clan: clan.to_text()):
                yield f"{sep}    {json.dumps(c.to_text())}: {json.dumps(render(c))}"
                sep = ",\n"
            yield "\n  }\n}\n"

        _emit(args, entries())
    else:
        width = max(len(c.to_text()) for c in poset.nodes)
        _emit(args, (f"{c.to_text():<{width}}  {render(c)}\n" for c in poset.nodes))
    return 0


def cmd_verify(args) -> int:
    from .formulas import all_classes, verify_localization
    from .orbits import weak_order_graph
    if args.case is None:
        targets = [case_from_params(t, p, q) for t, p, q in DESK_RANKS]
    else:
        targets = [_resolve_case(args)]
    failed = []

    def reports():
        for case in targets:
            poset = weak_order_graph(case)
            _guardrail(args, case, len(poset.nodes))
            report = verify_localization(poset, all_classes(poset))
            status = "OK" if report.ok else "FAIL"
            support = (
                f"support pairs {report.support_pairs_checked}"
                if report.support_checked
                else "support skipped (no fixed-point dictionary)"
            )
            yield (f"{status}  {case.tag} ({case.p},{case.q}): "
                   f"closed points {report.closed_points_checked}, {support}, "
                   f"dense {'ok' if report.dense_ok else 'FAIL'}\n")
            if not report.ok:
                failed.append(case)
                yield from (f"      {f}\n" for f in report.failures)

    _emit(args, reports())
    return VERIFY_ERROR if failed else 0


def cmd_oracle(args) -> int:
    import random

    from .geometry import (GeometryError, block_diagonal_matrix, measure_rank_numbers,
                           representative_flag)
    move_max = args.max_n
    measure_max = args.measure_max_n
    rng = random.Random("oracle")  # a str seed does not depend on PYTHONHASHSEED
    mismatches = []
    measured = 0
    moved = 0
    for n in range(1, max(measure_max, move_max) + 1):
        for p in range(0, n + 1):
            q = n - p
            for c in enumerate_clans(p, q):
                at = f"at {c.to_text()} ({p},{q})"
                try:
                    flag, table = representative_flag(c), rank_table(c)
                    if n <= measure_max:
                        measured += 1
                        if measure_rank_numbers(flag, p, q) != table:
                            mismatches.append(f"measure mismatch {at}")
                    if n <= move_max:
                        moved += 1
                        k = block_diagonal_matrix(rng, p, q)
                        if measure_rank_numbers(flag.transformed(k), p, q) != table:
                            mismatches.append(f"K-invariance mismatch {at}")
                except GeometryError as exc:
                    raise GeometryError(f"{exc} {at}") from exc
    status = "OK" if not mismatches else "FAIL"
    out = [
        f"{status}  measured {measured} representative flags (p+q <= {measure_max}), "
        f"moved {moved} by a block-diagonal k (p+q <= {move_max})"
    ]
    out.extend("      " + m for m in mismatches)
    _emit(args, (line + "\n" for line in out))
    return VERIFY_ERROR if mismatches else 0


def cmd_conjecture(args) -> int:
    from .orbits import check_conjecture, weak_order_graph
    case = _resolve_case(args)
    poset = weak_order_graph(case)
    _guardrail(args, case, len(poset.nodes))
    report = check_conjecture(poset)
    if args.fmt == "json":
        import json
        data = {
            "case": {"tag": case.tag, "p": case.p, "q": case.q},
            "coincides": report.coincides,
            "witnesses": [
                [a.to_text(), b.to_text()] for a, b in report.witnesses
            ],
        }
        _emit(args, [json.dumps(data, indent=2, sort_keys=True) + "\n"])
        return 0
    if report.coincides:
        _emit(args, [
            f"case {case.tag} ({case.p},{case.q}): computed closure order "
            "coincides with the rank-number order\n",
        ])
    else:
        lines = [
            f"case {case.tag} ({case.p},{case.q}): computed closure order is "
            f"strictly finer; {len(report.witnesses)} induced-only pairs:"
        ]
        lines.extend(
            f"  {a.to_text()} < {b.to_text()} only for rank numbers"
            for a, b in report.witnesses
        )
        _emit(args, (line + "\n" for line in lines))
    return 0


def cmd_chern(args) -> int:
    from .formulas import chern_factored
    case = _resolve_case(args)
    if args.clan is None:
        raise ClanError("--clan is required for chern")
    P, Q = case.ambient_shape
    # argparse drops the value "--" of --clan=--, leaving an empty list
    c = parse_clan("--" if args.clan == [] else args.clan, P, Q)
    formula = chern_factored(case, c)
    if args.fmt == "json":
        import json
        data = {
            "case": {"tag": case.tag, "p": case.p, "q": case.q},
            "clan": c.to_text(),
            "chern": formula.to_text(),
        }
        _emit(args, [json.dumps(data, indent=2, sort_keys=True) + "\n"])
    else:
        _emit(args, [formula.to_text() + "\n"])
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitcalc",
        description="Exact computation of orbit posets and equivariant "
        "classes for two-block flag-variety orbit families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, fn in [
        ("enumerate", cmd_enumerate),
        ("poset", cmd_poset),
        ("classes", cmd_classes),
        ("verify", cmd_verify),
        ("oracle", cmd_oracle),
        ("conjecture", cmd_conjecture),
        ("chern", cmd_chern),
    ]:
        p = commands[name] = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--output", default=None, help="write to file")

    for name, p in commands.items():
        if name != "oracle":
            p.add_argument("--case", choices=sorted(CASE_TAGS), default=None,
                           help="orbit family selector")
            p.add_argument("--p", type=int, default=None)
            p.add_argument("--q", type=int, default=None)
            p.add_argument("--n", type=int, default=None,
                           help="the rank of a GL family (c-sp-gl, d-so-gl)")
        if name not in ("oracle", "chern"):
            p.add_argument("--max-nodes", type=int, default=5000,
                           help="warn when the family is larger than this")
        if name not in ("oracle", "verify"):
            formats = ["text", "json", "dot"] if name == "poset" else ["text", "json"]
            p.add_argument("--format", dest="fmt", default="text", choices=formats)

    commands["poset"].add_argument(
        "--full", action="store_true",
        help="saturate and include the full closure order")
    commands["classes"].add_argument("--factored", action="store_true")
    commands["classes"].add_argument(
        "--verify", action="store_true",
        help="run localization checks before emitting")
    commands["chern"].add_argument("--clan", default=None)
    commands["oracle"].add_argument(
        "--max-n", type=int, default=4, metavar="N",
        help="move each representative flag with p+q <= N by a random "
        "block-diagonal k in GL(p) x GL(q) and measure it again")
    commands["oracle"].add_argument(
        "--measure-max-n", type=int, default=5, metavar="N",
        help="measure each representative flag with p+q <= N")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ClanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except CheckError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
