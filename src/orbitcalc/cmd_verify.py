"""``orbitcalc verify``: localization checks of the classes of a family, or
of every desk rank."""

from .cli import VERIFY_ERROR, emit, guardrail, resolve_case


def run(args) -> int:
    from .clans import DESK_RANKS, case_from_params
    from .formulas import all_classes, verify_localization
    from .orbits import weak_order_graph
    if args.case is None:
        targets = [case_from_params(t, p, q) for t, p, q in DESK_RANKS]
    else:
        targets = [resolve_case(args)]
    failed = []

    def reports():
        for case in targets:
            poset = weak_order_graph(case)
            guardrail(args, case, len(poset.nodes))
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

    emit(args, reports())
    return VERIFY_ERROR if failed else 0
