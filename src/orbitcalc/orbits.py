"""Weak order moves, cross action, the weak-order graph with edge degrees,
the full closure order via saturation, and the order-comparison checker.

Simple-root actions on clans are computed in the ambient one-sided clan
alphabet.  For the folded cases the root acts through a short schedule of
two-position windows (mirror pairs, a middle window, a middle braid, or the
two extra windows at the branched end), each of which fires exactly when the
standard one-sided rule ascends.  If a schedule produces a clan outside the
case's family, the move is treated as not applicable and the input is
returned unchanged.  The moves trust their input to be a clan of the case:
the enumeration vouches for every clan the graph and the saturation pass,
and the CLI checks the clans a user gives.

A simple reflection's cross action permutes clan positions.  Each root's
ambient permutation is written down once per case (``root_permutations``):
the position pairs it swaps are the windows of its weak move.  The
weak-order graph crosses only the sources of its edges, for their degrees;
the saturation tabulates every orbit's cross image once.  Images under
moves and permutations are built with ``Clan._image``, which relabels and
checks nothing.

Saturation and comparison work on ``int`` bitsets over the orbits as the
weak-order graph lists them, by rank and canonically within a rank (every
later stage takes that order): bit k stands for ``nodes[k]``, so an orbit's
down-set is one ``int`` and a union is one ``|``.  The rank-number order is
read off column bitsets: for each entry of the rank table and each value
it takes, the bitset of orbits whose sign rank there is at least that
value, or whose crossing rank is at most it.  An orbit's rank-number
down-set is the AND of one column bitset per entry.
"""

from __future__ import annotations

from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from itertools import groupby, takewhile
from typing import Iterable, Mapping, Sequence

from .clans import (CaseId, CheckError, Clan, Record, enumerate_case_clans, in_case_family,
                    rank_table)


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


def _root_windows(case: CaseId, i: int) -> tuple[tuple[int, int], ...]:
    """The position pairs (1-based) that the i-th simple reflection swaps
    in the ambient clan alphabet, whose mirror is j -> N + 1 - j: i and
    i + 1 (with their mirrors in the folded families); at the middle root n,
    n and its mirror in types B and C, and in type D n - 1 and n each with
    the other's mirror."""
    n, N = case.grank, case.ambient_len
    if case.family == "A":
        return ((i, i + 1),)
    if i < n:
        return ((i, i + 1), (N - i, N + 1 - i))
    if case.family == "D":
        return ((n - 1, N + 1 - n), (n, N + 2 - n))
    return ((n, N + 1 - n),)


def weak_move(case: CaseId, c: Clan, i: int) -> Clan:
    """The weak-order action of the i-th simple root: the clan of s_i . Q.

    Returns ``c`` itself when the root does not ascend (including the folded
    situations where the schedule would leave the case's clan family).
    ``c`` must be a clan of the case.  Outside the middle root of type B,
    the schedule is the root's windows, in order."""
    if i not in simple_root_indices(case):
        raise OrbitError(f"simple root {i} out of range for case {case.tag}")
    n = case.grank
    symbols = list(c.symbols)

    if case.family != "B" or i < n:
        moved = _apply_schedule(symbols, _root_windows(case, i))
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
    result = Clan._image(moved, c.p, c.q)
    if case.family != "A" and not in_case_family(case, result):
        return c
    return result


# ---------------------------------------------------------------------------
# Cross action
# ---------------------------------------------------------------------------


def root_permutations(case: CaseId) -> dict[int, tuple[int, ...]]:
    """For each simple root i, the ambient permutation of s_i as source
    positions: position j of the cross action s_i x c holds c's symbol at
    position ``source[j]`` (0-based).  The permutation swaps the pairs of
    :func:`_root_windows`, so it is its own inverse."""
    out = {}
    for i in simple_root_indices(case):
        source = list(range(case.ambient_len))
        for a, b in _root_windows(case, i):
            source[a - 1], source[b - 1] = b - 1, a - 1
        out[i] = tuple(source)
    return out


def cross_reflect(c: Clan, source: tuple[int, ...]) -> Clan:
    """The cross action on c of the reflection with these source positions;
    ``c`` itself when the permuted symbols are c's."""
    symbols = tuple(map(c.symbols.__getitem__, source))
    return c if symbols == c.symbols else Clan._image(symbols, c.p, c.q)


def _cross_table(case: CaseId, nodes: Sequence[Clan]) -> dict[int, tuple[int, ...]]:
    """For each simple root i, the place in ``nodes`` of each node's cross
    image under s_i.  Nodes share one shape, so their symbols tell them apart."""
    pos = {c.symbols: k for k, c in enumerate(nodes)}
    return {i: tuple([pos[cross_reflect(c, source).symbols] for c in nodes])
            for i, source in root_permutations(case).items()}


# ---------------------------------------------------------------------------
# The weak order graph
# ---------------------------------------------------------------------------


class OrderBits(Record):
    """A saturated order as bitsets over a poset's ``nodes``: bit k stands
    for ``nodes[k]``.  ``down[k]`` is the down-set of ``nodes[k]`` in the
    closure order and ``rank_down[k]`` in the rank-number order."""

    __slots__ = _fields = ("down", "rank_down")
    down: tuple[int, ...]
    rank_down: tuple[int, ...]


class OrbitPoset(Record):
    """Weak-order graph of a case, with optional saturated full order; equal only to itself."""

    __slots__ = ("case", "nodes", "weak_edges", "ranks", "order_bits",
                 "__dict__")  # __dict__ holds full_order once it is read
    _fields = ("case", "nodes", "weak_edges", "ranks", "order_bits")
    _defaults = {"order_bits": None}
    __eq__, __hash__ = object.__eq__, object.__hash__
    case: CaseId
    nodes: tuple[Clan, ...]  # by rank, canonical within a rank
    weak_edges: tuple[tuple[Clan, Clan, int, int], ...]  # (src, dst, root, degree)
    ranks: Mapping[Clan, int]
    order_bits: OrderBits | None  # set by full_closure_order

    @cached_property
    def full_order(self) -> dict[Clan, frozenset[Clan]] | None:
        """The saturated order as sets, b -> {a <= b}, built from
        ``order_bits`` when first read; ``None`` before saturation."""
        bits = self.order_bits
        if bits is None:
            return None
        nodes = self.nodes
        return {c: frozenset(map(nodes.__getitem__, _members(down)))
                for c, down in zip(nodes, bits.down)}

    @property
    def top(self) -> Clan:
        return self.nodes[-1]

    @property
    def max_rank(self) -> int:
        return self.ranks[self.top]

    def minima(self) -> tuple[Clan, ...]:
        """The orbits of rank 0, the closed ones: a prefix of ``nodes``."""
        return tuple(takewhile(lambda c: not self.ranks[c], self.nodes))


def weak_order_graph(case: CaseId) -> OrbitPoset:
    """All orbits of the case with their ascending weak-order edges.  An
    edge along root i has degree 2 exactly when the cross action of s_i
    fixes its source.  The orbits come by rank, canonical within a rank, and
    the edges by their source's place among them, then by root."""
    clans = enumerate_case_clans(case)
    perms = root_permutations(case)
    edges = []
    below: dict[Clan, list[Clan]] = {c: [] for c in clans}
    for c in clans:
        for i, source in perms.items():
            dst = weak_move(case, c, i)
            if dst == c:
                continue
            deg = 2 if cross_reflect(c, source) == c else 1
            edges.append((c, dst, i, deg))
            below[dst].append(c)

    # longest-path rank from the minima
    rank: dict[Clan, int] = {}
    try:
        for c in TopologicalSorter(below).static_order():
            rank[c] = max((rank[b] + 1 for b in below[c]), default=0)
    except CycleError:
        raise OrbitError("weak-order moves produced a cycle") from None

    nodes = tuple(sorted(clans, key=rank.__getitem__))
    pos = {c: k for k, c in enumerate(nodes)}
    edges.sort(key=lambda e: (pos[e[0]], e[2]))
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


def _members(bits: int) -> list[int]:
    """The positions of the set bits, lowest first."""
    digits = bin(bits)[:1:-1]
    out = []
    k = digits.find("1")
    while k >= 0:
        out.append(k)
        k = digits.find("1", k + 1)
    return out


def full_closure_order(poset: OrbitPoset) -> OrbitPoset:
    """Saturate the weak order into the full closure order.

    Down-sets start at {self}; for every weak edge Q -> Q' along root s, the
    down-set of Q' absorbs, for every V below Q: V itself, the weak move of V
    along s, and the cross action of s on V, each with its own down-set.

    Each down-set is an ``int`` over ``poset.nodes`` (bit k is ``nodes[k]``),
    which come by rank, so a pass in that order meets every edge's source,
    and every image, before it needs their down-sets.  One pass then suffices,
    as it shows by no down-set having a bit above its own orbit's (and no
    edge being a loop).  Failing that (only a doctored graph fails it),
    passes repeat until stable.  The result is the least family of down-sets closed under the
    edge rule and transitivity, whatever the order of the pass.

    Three checks follow: the order is antisymmetric (no two orbits share a
    down-set), it contains the weak order, and it is contained in the
    rank-number order.  That order's down-sets come from column bitsets
    (see the module docstring), from one rank table per orbit; both kinds
    of down-set are kept in ``order_bits`` for :func:`check_conjecture`."""
    nodes = poset.nodes
    pos = {c: k for k, c in enumerate(nodes)}
    m = len(nodes)
    cross = _cross_table(poset.case, nodes)
    # a root that does not ascend moves an orbit to itself
    move = {i: list(range(m)) for i in cross}
    into: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for src, dst, i, _ in poset.weak_edges:
        move[i][pos[src]] = pos[dst]
        into[pos[dst]].append((pos[src], i))
    # the orbits some root moves or crosses elsewhere
    active = {i: sum(1 << v for v in range(m) if move[i][v] != v or cross[i][v] != v)
              for i in cross}
    loops = any(src == dst for src, dst, _, _ in poset.weak_edges)

    down = [1 << k for k in range(m)]
    while True:
        changed, forward = False, loops
        for k in range(m):
            acc = down[k]
            for src, i in into[k]:
                below, moved, crossed = down[src], move[i], cross[i]
                acc |= below
                for v in _members(below & active[i]):
                    acc |= down[moved[v]] | down[crossed[v]]
            if acc != down[k]:
                down[k] = acc
                changed = True
            if acc >> (k + 1):
                forward = True
        if not (changed and forward):
            break

    # one rank table per orbit; crossing ranks negated, so every column reads "at least"
    flat = [t.plus + t.minus + tuple(-x for row in t.cross for x in row)
            for t in map(rank_table, nodes)]
    rank_down = [(1 << m) - 1] * m
    for column in set(zip(*flat)):
        at_least: dict[int, int] = {}
        for k, value in enumerate(column):
            at_least[value] = at_least.get(value, 0) | 1 << k
        if len(at_least) == 1:
            continue
        acc = 0
        for value in sorted(at_least, reverse=True):
            acc |= at_least[value]
            at_least[value] = acc
        rank_down = [r & at_least[value] for r, value in zip(rank_down, column)]

    first: dict[int, int] = {}
    for k, below in enumerate(down):
        if below in first:
            raise OrbitError(
                f"saturated order is not antisymmetric: {nodes[first[below]].to_text()} "
                f"and {nodes[k].to_text()} lie below each other"
            )
        first[below] = k
    for src, dst, i, _ in poset.weak_edges:
        if not down[pos[dst]] >> pos[src] & 1:
            raise OrbitError(
                "saturated order does not contain the weak order: "
                f"{src.to_text()} -> {dst.to_text()} (root {i})"
            )
    for k in range(m):
        outside = down[k] & ~rank_down[k]
        if outside:
            v = (outside & -outside).bit_length() - 1
            raise OrbitError(
                "saturated order is not contained in the rank-number order: "
                f"{nodes[v].to_text()} vs {nodes[k].to_text()}"
            )

    bits = OrderBits(tuple(down), tuple(rank_down))
    return OrbitPoset(poset.case, nodes, poset.weak_edges, poset.ranks, bits)


# ---------------------------------------------------------------------------
# Conjecture check
# ---------------------------------------------------------------------------


class OrderComparison(Record):
    """Computed closure order versus the order induced by rank numbers."""

    __slots__ = _fields = ("case", "coincides", "witnesses")
    case: CaseId
    coincides: bool
    witnesses: tuple[tuple[Clan, Clan], ...]  # (lower, upper) induced-only pairs


def check_conjecture(poset: OrbitPoset) -> OrderComparison:
    """Compare the closure order with the rank-number order: the witnesses
    are the pairs below only in the latter, ``rank_down & ~down`` per orbit.
    A poset that does not carry ``order_bits`` is saturated first."""
    if poset.order_bits is None:
        poset = full_closure_order(poset)
    bits, nodes = poset.order_bits, poset.nodes
    witnesses = [(nodes[a], upper)
                 for upper, below, ranked in zip(nodes, bits.down, bits.rank_down)
                 for a in _members(ranked & ~below)]
    witnesses.sort(key=lambda pair: (pair[0].sort_key(), pair[1].sort_key()))
    return OrderComparison(poset.case, not witnesses, tuple(witnesses))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


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
            for src, dst, i, deg in sorted(
                poset.weak_edges,
                key=lambda e: (e[0].sort_key(), e[2], e[1].sort_key()),
            )
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
