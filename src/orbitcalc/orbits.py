"""Weak order moves, cross action, the weak-order graph with edge degrees,
the full closure order via saturation, and the order-comparison checker.

Simple-root actions on clans are computed in the ambient one-sided clan
alphabet.  For the folded cases the root acts through a short schedule of
two-position windows (mirror pairs, a middle window, a middle braid, or the
two extra windows at the branched end), each of which fires exactly when the
standard one-sided rule ascends.  If a schedule produces a clan outside the
case's family, the move is treated as not applicable and the input is
returned unchanged.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Mapping, Sequence

from .clans import (CaseId, CheckError, Clan, ClanError, Record, enumerate_case_clans,
                    in_case_family, rank_table)
from .weyl import Weyl, embed_in_ambient, simple_reflection, validate_weyl


class OrbitError(CheckError):
    """Raised when graph construction or order saturation detects a bug."""


SIGNS = ("+", "-")


def simple_root_indices(case: CaseId) -> range:
    """Simple-root indices of the ambient group for this case."""
    n = case.grank
    return range(1, n) if case.family == "A" else range(1, n + 1)


# ---------------------------------------------------------------------------
# Window operations (the one-sided two-position rule)
# ---------------------------------------------------------------------------


def _mate(symbols: Sequence, pos: int) -> int:
    label = symbols[pos - 1]
    for j, s in enumerate(symbols, start=1):
        if j != pos and s == label:
            return j
    raise OrbitError(f"symbol at position {pos} has no mate")


def _fresh_label(symbols: Sequence) -> int:
    return max((s for s in symbols if isinstance(s, int)), default=0) + 1


def _window_op(symbols: list, a: int, b: int) -> list | None:
    """Apply the ascending two-position rule to positions a < b.

    Returns the new symbol list if the rule fires, else None:
      * opposite signs          -> they become a new pair;
      * sign then pair symbol   -> swap when the pair opens rightward of b;
      * pair symbol then sign   -> swap when the pair opens leftward of a;
      * two different pairs     -> swap when a's mate precedes b's mate.
    """
    sa, sb = symbols[a - 1], symbols[b - 1]
    a_sign, b_sign = sa in SIGNS, sb in SIGNS
    if a_sign and b_sign:
        if sa == sb:
            return None
        out = list(symbols)
        out[a - 1] = out[b - 1] = _fresh_label(symbols)
        return out
    if a_sign:
        if _mate(symbols, b) > b:
            out = list(symbols)
            out[a - 1], out[b - 1] = sb, sa
            return out
        return None
    if b_sign:
        if _mate(symbols, a) < a:
            out = list(symbols)
            out[a - 1], out[b - 1] = sb, sa
            return out
        return None
    if sa == sb:
        return None
    if _mate(symbols, a) < _mate(symbols, b):
        out = list(symbols)
        out[a - 1], out[b - 1] = sb, sa
        return out
    return None


def _apply_schedule(symbols: list, windows: Iterable[tuple[int, int]]) -> list:
    current = symbols
    for a, b in windows:
        result = _window_op(current, a, b)
        if result is not None:
            current = result
    return current


# ---------------------------------------------------------------------------
# Weak move
# ---------------------------------------------------------------------------


def weak_move(case: CaseId, c: Clan, i: int) -> Clan:
    """The weak-order action of the i-th simple root: the clan of s_i . Q.

    Returns ``c`` itself when the root does not ascend (including the folded
    situations where the schedule would leave the case's clan family)."""
    if not in_case_family(case, c):
        raise ClanError(f"{c.to_text()} is not a clan of case {case.tag}")
    if i not in simple_root_indices(case):
        raise OrbitError(f"simple root {i} out of range for case {case.tag}")
    n = case.grank
    N = case.ambient_len
    symbols = list(c.symbols)

    if case.family == "A":
        moved = _apply_schedule(symbols, [(i, i + 1)])
    elif i < n or (case.family == "D" and i == n - 1):
        moved = _apply_schedule(symbols, [(i, i + 1), (N - i, N + 1 - i)])
    elif case.family == "C":
        moved = _apply_schedule(symbols, [(n, n + 1)])
    elif case.family == "D":
        moved = _apply_schedule(symbols, [(n - 1, n + 1), (n, n + 2)])
    else:  # type B middle root
        middle = symbols[n]  # position n+1, the fixed middle sign
        if symbols[n - 1] in SIGNS:
            if middle in SIGNS and middle != symbols[n - 1]:
                moved = list(symbols)
                label = _fresh_label(symbols)
                moved[n] = moved[n - 1]
                moved[n - 1] = moved[n + 1] = label
            else:
                moved = symbols
        else:
            moved = _apply_schedule(symbols, [(n, n + 1), (n + 1, n + 2), (n, n + 1)])

    if moved == symbols:
        return c
    P, Q = c.p, c.q
    result = Clan(tuple(moved), P, Q)
    if case.family != "A" and not in_case_family(case, result):
        return c
    return result


# ---------------------------------------------------------------------------
# Cross action
# ---------------------------------------------------------------------------


def cross_action(case: CaseId, c: Clan, w: Weyl) -> Clan:
    """Permute the symbols of c by the ambient permutation attached to w."""
    if not in_case_family(case, c):
        raise ClanError(f"{c.to_text()} is not a clan of case {case.tag}")
    sigma = validate_weyl(w, case.family)
    if case.family != "A":
        sigma = embed_in_ambient(sigma, "odd" if case.ambient_len % 2 else "even")
    if len(sigma) != case.ambient_len:
        raise OrbitError("permutation length does not match the ambient clan length")
    old = c.symbols
    new = [None] * len(old)
    for j, target in enumerate(sigma, start=1):
        new[target - 1] = old[j - 1]
    return Clan(tuple(new), c.p, c.q)


def cross_action_simple(case: CaseId, c: Clan, i: int) -> Clan:
    return cross_action(case, c, simple_reflection(case.family, case.grank, i))


# ---------------------------------------------------------------------------
# The weak order graph
# ---------------------------------------------------------------------------


class OrbitPoset(Record):
    """Weak-order graph of a case, with optional saturated full order; equal only to itself."""

    __slots__ = _fields = ("case", "nodes", "weak_edges", "ranks", "full_order")
    _defaults = {"full_order": None}
    __eq__, __hash__ = object.__eq__, object.__hash__
    case: CaseId
    nodes: tuple[Clan, ...]
    weak_edges: tuple[tuple[Clan, Clan, int, int], ...]  # (src, dst, root, degree)
    ranks: Mapping[Clan, int]
    full_order: Mapping[Clan, frozenset[Clan]] | None  # b -> {a <= b}

    @property
    def top(self) -> Clan:
        return max(self.nodes, key=lambda c: self.ranks[c])

    @property
    def max_rank(self) -> int:
        return max(self.ranks.values())

    def minima(self) -> tuple[Clan, ...]:
        targets = {dst for _, dst, _, _ in self.weak_edges}
        return tuple(c for c in self.nodes if c not in targets)


def weak_order_graph(case: CaseId) -> OrbitPoset:
    """All orbits of the case with their ascending weak-order edges.  An
    edge along root i has degree 2 exactly when the cross action of s_i
    fixes its source."""
    nodes = tuple(enumerate_case_clans(case))
    edges = []
    below: dict[Clan, list[Clan]] = {c: [] for c in nodes}
    for c in nodes:
        for i in simple_root_indices(case):
            dst = weak_move(case, c, i)
            if dst == c:
                continue
            deg = 2 if cross_action_simple(case, c, i) == c else 1
            edges.append((c, dst, i, deg))
            below[dst].append(c)

    # longest-path rank from the minima
    rank: dict[Clan, int] = {}
    try:
        for c in TopologicalSorter(below).static_order():
            rank[c] = max((rank[b] + 1 for b in below[c]), default=0)
    except CycleError:
        raise OrbitError("weak-order moves produced a cycle") from None

    ranks = {c: rank[c] for c in nodes}
    sources = {src for src, _, _, _ in edges}
    tops = [c for c in nodes if c not in sources]
    if len(tops) != 1:
        raise OrbitError(f"expected a unique dense clan, found {len(tops)}")
    for src, dst, i, _ in edges:
        if ranks[dst] != ranks[src] + 1:
            raise OrbitError(
                f"weak edge {src.to_text()} -> {dst.to_text()} (root {i}) "
                "is not graded"
            )
    return OrbitPoset(case, nodes, tuple(edges), ranks)


# ---------------------------------------------------------------------------
# Full closure order
# ---------------------------------------------------------------------------


def full_closure_order(case_or_poset: CaseId | OrbitPoset) -> OrbitPoset:
    """Saturate the weak order into the full closure order.

    Down-sets start at {self}; for every weak edge Q -> Q' along root s, the
    down-set of Q' absorbs, for every V below Q: V itself, the weak move of V
    along s, and the cross action of s on V.  Down-sets are closed under
    transitivity and the whole pass repeats until stable."""
    poset = (
        case_or_poset
        if isinstance(case_or_poset, OrbitPoset)
        else weak_order_graph(case_or_poset)
    )
    case = poset.case
    nodes = poset.nodes
    index = {c: k for k, c in enumerate(nodes)}
    m = len(nodes)
    roots = list(simple_root_indices(case))
    # a root that does not ascend moves an orbit to itself
    move_tbl = [[k] * (len(roots) + 1) for k in range(m)]
    cross_tbl = [[0] * (len(roots) + 1) for _ in range(m)]
    for src, dst, i, _ in poset.weak_edges:
        move_tbl[index[src]][i] = index[dst]
    for c in nodes:
        k = index[c]
        for i in roots:
            cross_tbl[k][i] = index[cross_action_simple(case, c, i)]

    down: list[set[int]] = [{k} for k in range(m)]
    by_rank = sorted(range(m), key=lambda k: (poset.ranks[nodes[k]], k))
    edge_list = sorted(
        ((index[src], index[dst], i) for src, dst, i, _ in poset.weak_edges),
        key=lambda t: (poset.ranks[nodes[t[0]]], t),
    )

    changed = True
    while changed:
        changed = False
        for src, dst, i in edge_list:
            target = down[dst]
            before = len(target)
            for v in list(down[src]):
                target.add(v)
                target.add(move_tbl[v][i])
                target.add(cross_tbl[v][i])
            if len(target) != before:
                changed = True
        for k in by_rank:
            extra: set[int] = set()
            for v in down[k]:
                extra |= down[v]
            if not extra <= down[k]:
                down[k] |= extra
                changed = True

    # sanity: antisymmetry, containment of weak order, containment in the
    # rank-number order on ambient clans
    for a in range(m):
        for b in down[a]:
            if b != a and a in down[b]:
                raise OrbitError("saturated order is not antisymmetric")
    for src, dst, _, _ in poset.weak_edges:
        if index[src] not in down[index[dst]]:
            raise OrbitError("saturated order does not contain the weak order")
    tables = [rank_table(c) for c in nodes]
    for a in range(m):
        for b in down[a]:
            if not tables[b].below(tables[a]):
                raise OrbitError(
                    "saturated order is not contained in the rank-number order: "
                    f"{nodes[b].to_text()} vs {nodes[a].to_text()}"
                )

    full = {nodes[k]: frozenset(nodes[v] for v in down[k]) for k in range(m)}
    return OrbitPoset(case, nodes, poset.weak_edges, poset.ranks, full)


# ---------------------------------------------------------------------------
# Conjecture check
# ---------------------------------------------------------------------------


class OrderComparison(Record):
    """Computed closure order versus the order induced by rank numbers."""

    __slots__ = _fields = ("case", "coincides", "witnesses")
    case: CaseId
    coincides: bool
    witnesses: tuple[tuple[Clan, Clan], ...]  # (lower, upper) induced-only pairs


def check_conjecture(case_or_poset: CaseId | OrbitPoset) -> OrderComparison:
    poset = (
        case_or_poset
        if isinstance(case_or_poset, OrbitPoset) and case_or_poset.full_order
        else full_closure_order(case_or_poset)
    )
    tables = {c: rank_table(c) for c in poset.nodes}
    witnesses = []
    for b in poset.nodes:
        downs = poset.full_order[b]
        for a in poset.nodes:
            if a is b:
                continue
            if a not in downs and tables[a].below(tables[b]):
                witnesses.append((a, b))
    witnesses.sort(key=lambda pair: (pair[0].sort_key(), pair[1].sort_key()))
    return OrderComparison(poset.case, not witnesses, tuple(witnesses))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def poset_to_json(poset: OrbitPoset) -> dict:
    nodes = sorted(poset.nodes, key=lambda c: (poset.ranks[c], c.sort_key()))
    data = {
        "case": {"tag": poset.case.tag, "p": poset.case.p, "q": poset.case.q},
        "nodes": [{"clan": c.to_text(), "rank": poset.ranks[c]} for c in nodes],
        "weak_edges": [
            {
                "src": src.to_text(),
                "dst": dst.to_text(),
                "root": i,
                "degree": deg,
            }
            for src, dst, i, deg in sorted(
                poset.weak_edges,
                key=lambda e: (e[0].sort_key(), e[2], e[1].sort_key()),
            )
        ],
    }
    if poset.full_order is not None:
        data["full_order"] = {
            c.to_text(): sorted(v.to_text() for v in poset.full_order[c])
            for c in nodes
        }
    return data


def poset_to_dot(poset: OrbitPoset) -> str:
    """Graphviz rendering of the weak order; degree-2 edges are blue."""
    lines = [
        "digraph weak_order {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    by_rank: dict[int, list[Clan]] = {}
    for c in poset.nodes:
        by_rank.setdefault(poset.ranks[c], []).append(c)
    for r in sorted(by_rank):
        row = sorted(by_rank[r], key=lambda c: c.sort_key())
        names = " ".join(f'"{c.to_text()}";' for c in row)
        lines.append(f"  {{ rank=same; {names} }}")
    for src, dst, i, deg in sorted(
        poset.weak_edges, key=lambda e: (e[0].sort_key(), e[2], e[1].sort_key())
    ):
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
