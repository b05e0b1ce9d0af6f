"""``orbitcalc conjecture``: the computed closure order against the rank-number order."""

from .cli import emit, emit_json, guardrail, resolve_case


def run(args) -> int:
    from .orbits import check_conjecture, weak_order_graph
    case = resolve_case(args)
    poset = weak_order_graph(case)
    guardrail(args, case, len(poset.nodes))
    report = check_conjecture(poset)
    if args.fmt == "json":
        emit_json(args, case, coincides=report.coincides,
                  witnesses=[[a.to_text(), b.to_text()] for a, b in report.witnesses])
        return 0
    if report.coincides:
        emit(args, [
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
        emit(args, (line + "\n" for line in lines))
    return 0
