"""``orbitcalc enumerate``: the clans of a family, in canonical order."""

from .cli import emit, emit_json, guardrail, resolve_case


def run(args) -> int:
    from .clans import enumerate_case_clans
    case = resolve_case(args)
    clans = enumerate_case_clans(case)
    guardrail(args, case, len(clans))
    if args.fmt == "json":
        emit_json(args, case, count=len(clans), clans=[c.to_text() for c in clans])
    else:
        emit(args, (c.to_text() + "\n" for c in clans))
    return 0
