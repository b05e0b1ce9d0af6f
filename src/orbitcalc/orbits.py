"""Weak order moves, cross action, the weak-order graph with edge degrees,
the full closure order via saturation, and the order-comparison checker.

The weak-order graph moves orbits by place, on their mate codes (a clan's
``mates``, described in :mod:`orbitcalc.clans`).  A simple root acts on a
code through a short schedule of two-position windows (the windows a
simple reflection swaps: one in type A, a window and its mirror in the
folded families, a middle window in type C, and at the middle root of
type B the braid of windows around the fixed middle), each of which fires
exactly when the standard one-sided rule ascends.  A fired window swaps
two entries and repoints their mates.  Type D's middle root moves as root
n - 1 conjugated by tau, the swap of the middle positions: the diagram
automorphism (as ``poly._dd_pair`` conjugates), which permutes the orbits
of the orthogonal pairs.  A folded image may leave the case's family; it
is then no node's code, and the move is not applicable.

A simple reflection's cross action permutes clan positions.  Each root's
ambient permutation is written down once per case (``root_permutations``):
the position pairs it swaps are its windows.  On a mate code it is one pass,
as the permutation is its own inverse.  Only the sources of weak edges are
crossed: for their degrees, and for the saturation's candidates.

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
from itertools import takewhile
from typing import Mapping, Sequence

from .clans import CaseId, CheckError, Clan, Record, enumerate_case_clans, rank_table


class OrbitError(CheckError):
    """Raised when graph construction or order saturation detects a bug."""


def simple_root_indices(case: CaseId) -> range:
    """Simple-root indices of the ambient group for this case."""
    n = case.grank
    return range(1, n) if case.family == "A" else range(1, n + 1)


# ---------------------------------------------------------------------------
# The weak move
# ---------------------------------------------------------------------------


def _root_windows(case: CaseId, i: int) -> tuple[tuple[int, int], ...]:
    """The position pairs (0-based) that the i-th simple reflection swaps
    in the ambient clan alphabet, whose mirror is j -> N - 1 - j: i - 1 and
    i (with their mirrors in the folded families); at the middle root n,
    n - 1 and its mirror in types B and C, and in type D n - 2 and n - 1
    each with the other's mirror (root n - 1's, conjugated by tau)."""
    n, N = case.grank, case.ambient_len
    if case.family == "A":
        return ((i - 1, i),)
    if i < n:
        return ((i - 1, i), (N - 1 - i, N - i))
    if case.family == "D":
        return ((n - 2, N - n), (n - 1, N + 1 - n))
    return ((n - 1, N - n),)


def move_schedules(case: CaseId) -> dict[int, tuple]:
    """For each simple root, the schedule :func:`weak_move` takes: its
    windows, in order, and a permutation tau to conjugate them by, or None.
    At the middle root n, type B takes the braid n - 1, n, n - 1 of windows
    around the fixed middle n (0-based; on signs at n - 1 and n + 1 it pairs
    them exactly when the middle differs, and the middle takes their sign),
    and type D root n - 1's windows, with tau the swap of n - 1 and n."""
    schedules = {i: (_root_windows(case, i), None) for i in simple_root_indices(case)}
    n = case.grank
    if case.family == "B":
        schedules[n] = (((n - 1, n), (n, n + 1), (n - 1, n)), None)
    elif case.family == "D":
        tau = (*range(n - 1), n, n - 1, *range(n + 1, case.ambient_len))
        schedules[n] = (_root_windows(case, n - 1), tau)
    return schedules


def weak_move(m: tuple, windows: Sequence[tuple[int, int]], tau=None) -> tuple:
    """The weak-order action of a simple root on the mate code ``m``, given
    the root's schedule (:func:`move_schedules`); with ``tau``, the move is
    tau o (the windows' move) o tau, tau acting as a cross action.

    Each window a < b fires when the ascending one-sided rule does:
      * opposite signs          -> they become a pair;
      * sign then pair symbol   -> swap when the pair opens rightward of b;
      * pair symbol then sign   -> swap when the pair opens leftward of a;
      * two different pairs     -> swap when a's mate precedes b's mate.
    A swap moves the two entries and repoints their mates.  Returns ``m``
    itself when no window fires.  The image may lie outside the case's
    family; the caller decides."""
    out = list(m if tau is None else _cross(m, tau))
    fired = False
    for a, b in windows:
        x, y = out[a], out[b]
        if x.__class__ is str:
            if y.__class__ is str:
                if x == y:
                    continue
                out[a], out[b] = b, a
            elif y > b:
                out[a], out[b], out[y] = y, x, a
            else:
                continue
        elif y.__class__ is str:
            if x > a:
                continue
            out[a], out[b], out[x] = y, x, b
        elif x < y:
            out[a], out[b], out[x], out[y] = y, x, b, a
        else:
            continue
        fired = True
    if not fired:
        return m
    return tuple(out) if tau is None else _cross(tuple(out), tau)


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
            source[a], source[b] = b, a
        out[i] = tuple(source)
    return out


def _cross(m: tuple, source: tuple[int, ...]) -> tuple:
    """The mate code of the cross action by the reflection with these
    source positions: position j takes the entry at ``source[j]``, a mate
    moved to its own image, ``source`` being an involution."""
    return tuple([x if x.__class__ is str else source[x] for x in map(m.__getitem__, source)])


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
    ranks: Mapping[Clan, int]  # in enumeration order, the canonical one
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
    """All orbits of the case with their ascending weak-order edges.

    Every (orbit, root) makes one :func:`weak_move` call on the orbit's mate
    code, and the image is looked up among the codes by place.  The lookup
    is the family check: :func:`enumerate_case_clans` yields exactly the
    clans of the case, a move keeps the clan's shape, and a code names one
    clan of that shape, so an image that leaves the family is no node's
    code and gives no edge.  (In type A every image is a node.)  An edge
    along root i has degree 2 exactly when the cross action of s_i fixes
    its source's code.

    Ranks are longest paths from the minima, set in one pass that takes an
    orbit once every edge into it has been seen; an orbit the pass never
    takes lies on or above a cycle.  The orbits come by rank, canonical
    within a rank, and the edges by their source's place among them, then
    by root."""
    clans = enumerate_case_clans(case)
    codes = [c.mates for c in clans]
    place = {m: k for k, m in enumerate(codes)}
    perms = root_permutations(case)
    roots = [(i, windows, tau, perms[i]) for i, (windows, tau) in move_schedules(case).items()]
    up: list[list[tuple[int, int, int]]] = []  # by source place: (target place, root, degree)
    indegree = [0] * len(codes)
    for m in codes:
        out = []
        for i, windows, tau, source in roots:
            image = weak_move(m, windows, tau)
            if image is m or (dst := place.get(image)) is None:
                continue
            out.append((dst, i, 2 if _cross(m, source) == m else 1))
            indegree[dst] += 1
        up.append(out)

    rank = [0] * len(codes)
    ready = [k for k, d in enumerate(indegree) if not d]
    for k in ready:  # grows as orbits become ready
        higher = rank[k] + 1
        for dst, _, _ in up[k]:
            if rank[dst] < higher:
                rank[dst] = higher
            indegree[dst] -= 1
            if not indegree[dst]:
                ready.append(dst)
    if len(ready) < len(codes):
        stuck = next(k for k, d in enumerate(indegree) if d)
        raise OrbitError(f"weak-order moves produced a cycle: {clans[stuck].to_text()} "
                         "cannot be ranked")

    order = sorted(range(len(codes)), key=rank.__getitem__)
    tops = sum(1 for out in up if not out)
    if tops != 1:
        raise OrbitError(f"expected a unique dense clan, found {tops}")
    edges = []
    for k in order:
        src = clans[k]
        for dst, i, deg in up[k]:
            if rank[dst] != rank[k] + 1:
                raise OrbitError(f"weak edge {src.to_text()} -> {clans[dst].to_text()} "
                                 f"(root {i}) is not graded")
            edges.append((src, clans[dst], i, deg))
    nodes = tuple(map(clans.__getitem__, order))
    return OrbitPoset(case, nodes, tuple(edges), dict(zip(clans, rank)))


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
    """Saturate the weak order into the full closure order, in one pass.

    For a weak edge Q -> Q' along root s, the closure of Q' is P_s Q-bar
    (Richardson-Springer 1990), the union of the closures of the
    candidates: Q; Q's cross image along s when it has Q's rank; and the
    move along s of each cover V of Q (V itself when s does not ascend V).
    So Q' has its own bit OR their down-sets, and its covers are the
    candidates of Q's rank.  Every edge into Q' must give the same, or the
    closures disagree.  Down-sets are ``int`` bitsets over ``poset.nodes``,
    which come by rank, so a pass in that order has each candidate's
    down-set and covers before it needs them.

    Three checks follow: the order is antisymmetric (no two orbits share a
    down-set), it contains the weak order, and it is contained in the
    rank-number order.  That order's down-sets come from column bitsets
    (see the module docstring), from one rank table per orbit; both kinds
    of down-set are kept in ``order_bits`` for :func:`check_conjecture`."""
    nodes = poset.nodes
    place = {c.mates: k for k, c in enumerate(nodes)}
    m = len(nodes)
    perms = root_permutations(poset.case)
    rank = [poset.ranks[c] for c in nodes]
    # a root that does not ascend moves an orbit to itself
    move = {i: list(range(m)) for i in perms}
    into: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for src, dst, i, _ in poset.weak_edges:
        move[i][place[src.mates]] = place[dst.mates]
        into[place[dst.mates]].append((place[src.mates], i))

    down = [1 << k for k in range(m)]
    covers: list[tuple[int, ...]] = [()] * m
    for k, edges in enumerate(into):
        seen = None
        for q, i in edges:
            candidates = {q, *map(move[i].__getitem__, covers[q])}
            crossed = place[_cross(nodes[q].mates, perms[i])]
            if rank[crossed] == rank[q]:
                candidates.add(crossed)
            below = 1 << k
            for v in candidates:
                below |= down[v]
            result = (below, tuple(sorted(v for v in candidates if rank[v] == rank[q])))
            if seen is None:
                seen = (q, i, result)
                down[k], covers[k] = result
            elif result != seen[2]:
                raise OrbitError(f"closures disagree at {nodes[k].to_text()}: via root "
                                 f"{seen[1]} from {nodes[seen[0]].to_text()} and via "
                                 f"root {i} from {nodes[q].to_text()}")

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
            raise OrbitError("saturated order is not antisymmetric: "
                             f"{nodes[first[below]].to_text()} and {nodes[k].to_text()} "
                             "lie below each other")
        first[below] = k
    for src, dst, i, _ in poset.weak_edges:
        if not down[place[dst.mates]] >> place[src.mates] & 1:
            raise OrbitError("saturated order does not contain the weak order: "
                             f"{src.to_text()} -> {dst.to_text()} (root {i})")
    for k in range(m):
        outside = down[k] & ~rank_down[k]
        if outside:
            v = (outside & -outside).bit_length() - 1
            raise OrbitError("saturated order is not contained in the rank-number order: "
                             f"{nodes[v].to_text()} vs {nodes[k].to_text()}")

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
    are the pairs below only in the latter, ``rank_down & ~down`` per orbit,
    sorted by the canonical places of (lower, upper).  A poset that does not
    carry ``order_bits`` is saturated first."""
    if poset.order_bits is None:
        poset = full_closure_order(poset)
    bits, nodes = poset.order_bits, poset.nodes
    witnesses = [(nodes[a], upper)
                 for upper, below, ranked in zip(nodes, bits.down, bits.rank_down)
                 for a in _members(ranked & ~below)]
    place = {c: k for k, c in enumerate(poset.ranks)}
    witnesses.sort(key=lambda pair: (place[pair[0]], place[pair[1]]))
    return OrderComparison(poset.case, not witnesses, tuple(witnesses))
