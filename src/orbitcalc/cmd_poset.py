"""``orbitcalc poset``: the weak-order graph, and with ``--full`` the closure
order, written as DOT or JSON."""

from itertools import groupby

from .clans import Clan
from .cli import emit, guardrail, resolve_case
from .orbits import OrbitPoset


def run(args) -> int:
    from .orbits import full_closure_order, weak_order_graph
    case = resolve_case(args)
    poset = weak_order_graph(case)
    guardrail(args, case, len(poset.nodes))
    if args.full:
        poset = full_closure_order(poset)
    if args.fmt == "dot":
        emit(args, [poset_to_dot(poset)])
    else:
        emit(args, [poset_json_text(poset)])
    return 0


def _canonical_edges(poset: OrbitPoset) -> list[tuple[Clan, Clan, int, int]]:
    """The weak edges by their source's place in the canonical order (that of
    ``poset.ranks``), then by root: a source and a root have one target."""
    place = {c: k for k, c in enumerate(poset.ranks)}
    return sorted(poset.weak_edges, key=lambda e: (place[e[0]], e[2]))


def poset_to_json(poset: OrbitPoset) -> dict:
    data = {
        "case": {"tag": poset.case.tag, "p": poset.case.p, "q": poset.case.q},
        "nodes": [{"clan": c.to_text(), "rank": poset.ranks[c]} for c in poset.nodes],
        "weak_edges": [
            {
                "src": src.to_text(),
                "dst": dst.to_text(),
                "root": i,
                "degree": deg,
            }
            for src, dst, i, deg in _canonical_edges(poset)
        ],
    }
    full = poset.full_order
    if full is not None:
        data["full_order"] = {c.to_text(): sorted(v.to_text() for v in full[c])
                              for c in poset.nodes}
    return data


def poset_to_dot(poset: OrbitPoset) -> str:
    """Graphviz rendering of the weak order; degree-2 edges are blue."""
    lines = [
        "digraph weak_order {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    for _, row in groupby(poset.nodes, key=poset.ranks.__getitem__):
        names = " ".join(f'"{c.to_text()}";' for c in row)
        lines.append(f"  {{ rank=same; {names} }}")
    for src, dst, i, deg in _canonical_edges(poset):
        attrs = [f'label="{i}"']
        if deg == 2:
            attrs.append("color=blue")
        lines.append(
            f'  "{src.to_text()}" -> "{dst.to_text()}" [{", ".join(attrs)}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_json_text(poset: OrbitPoset) -> str:
    import json
    return json.dumps(poset_to_json(poset), indent=2, sort_keys=True) + "\n"
