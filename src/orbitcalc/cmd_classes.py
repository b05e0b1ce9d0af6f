"""``orbitcalc classes``: the class of every orbit closure, checked by
localization with ``--verify``."""

from .cli import VERIFY_ERROR, emit, guardrail, resolve_case, warn


def run(args) -> int:
    from .clans import is_closed_clan
    from .formulas import all_classes, chern_expansion, closed_class, verify_localization
    from .orbits import weak_order_graph
    case = resolve_case(args)
    poset = weak_order_graph(case)
    guardrail(args, case, len(poset.nodes))
    classes = all_classes(poset)
    if args.verify:
        report = verify_localization(poset, classes)
        if not report.ok:
            for line in report.failures:
                warn(f"verify: {line}")
            return VERIFY_ERROR

    def render(c) -> str:
        if args.factored and is_closed_clan(case, c):
            return closed_class(case, c).to_text()
        return chern_expansion(case).text(classes[c])

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

        emit(args, entries())
    else:
        width = max(len(c.to_text()) for c in poset.nodes)
        emit(args, (f"{c.to_text():<{width}}  {render(c)}\n" for c in poset.nodes))
    return 0
