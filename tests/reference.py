"""Reference code the tests share: routines no command of orbitcalc runs,
kept here as checks on the code that does.

* ``clans``: the inverse of ``rank_table`` and the covering moves, a
  third description of the rank-number order;
* ``weyl``: signed-permutation composition, the statistic phi_p, the
  subgroup W_K with its order, and the closed clans of a case;
* ``formulas``: the per-component closed-orbit classes of b-so, whose
  sum is ``closed_class``;
* ``poly``: the simple reflections on the x-variables and the simple
  roots, the two halves of the defining relation of a divided difference.

Test modules import it as ``from reference import ...``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from orbitcalc.clans import (
    MINUS,
    PLUS,
    CaseId,
    Clan,
    ClanError,
    RankTable,
    enumerate_case_clans,
    make_clan,
    rank_table,
)
from orbitcalc.formulas import FormulaError, _pair_factors, _sign, formula_ring
from orbitcalc.poly import FactoredPoly, Polynomial, PolyError, Ring, _check_root_index
from orbitcalc.weyl import (
    Weyl,
    WeylError,
    is_closed_clan,
    stat_lp,
    validate_weyl,
    weyl_abs,
    weyl_inverse,
)


# ---------------------------------------------------------------------------
# Clans: the inverse of rank_table and the covering moves
# ---------------------------------------------------------------------------


def clan_from_rank_table(t: RankTable) -> Clan:
    """Reconstruct the unique clan with the given rank table.

    Raises :class:`ClanError` when no clan has this table.
    """
    n = t.n
    if n < 1:
        raise ClanError("empty rank table")
    plus = (0,) + t.plus
    minus = (0,) + t.minus
    kinds = []  # '+', '-', 'F' (first of a pair), 'S' (second of a pair)
    for i in range(1, n + 1):
        dp = plus[i] - plus[i - 1]
        dm = minus[i] - minus[i - 1]
        if (dp, dm) == (1, 0):
            kinds.append(PLUS)
        elif (dp, dm) == (0, 1):
            kinds.append(MINUS)
        elif (dp, dm) == (0, 0):
            kinds.append("F")
        elif (dp, dm) == (1, 1):
            kinds.append("S")
        else:
            raise ClanError(f"rank table has invalid jump ({dp}, {dm}) at position {i}")
    symbols: list = [None] * n
    open_firsts: list[int] = []  # 1-based positions of unmatched first occurrences
    next_label = 1
    for i, kind in enumerate(kinds, start=1):
        if kind in (PLUS, MINUS):
            symbols[i - 1] = kind
        elif kind == "F":
            open_firsts.append(i)
        else:  # second occurrence: mate with the first open position i_l with cross(i_l, i) < l
            mate_pos = None
            for l, cand in enumerate(open_firsts, start=1):
                if t.cross[cand - 1][i - cand - 1] < l:
                    mate_pos = cand
                    break
            if mate_pos is None:
                raise ClanError(f"rank table admits no mate for the pair closing at {i}")
            open_firsts.remove(mate_pos)
            symbols[mate_pos - 1] = next_label
            symbols[i - 1] = next_label
            next_label += 1
    if open_firsts:
        raise ClanError("rank table leaves unmatched pair openings")
    p = t.plus[-1]
    q = t.minus[-1]
    clan = Clan(tuple(symbols), p, q)
    if rank_table(clan) != t:
        raise ClanError("rank table is not realized by any clan")
    return clan


def covering_moves(c: Clan) -> tuple[tuple[str, tuple[int, ...], Clan], ...]:
    """All single-step ascents from ``c``: (kind, positions, result) triples.

    The ten kinds, with 1-based positions:

    - ``signs-to-pair``      (a, b): '+','-' or '-','+' at a < b becomes a pair {a, b}.
    - ``pair-plus-right``    (a, b, k): pair (a,b) and '+' at k > b -> pair (a,k), '+' at b.
    - ``pair-minus-right``   likewise for '-'.
    - ``plus-pair-left``     (a, b, cpos): '+' at a < b, pair (b,cpos) -> pair (a,cpos), '+' at b.
    - ``minus-pair-left``    likewise for '-'.
    - ``nested-to-crossing`` (a, b, cpos, d): pairs (a,b),(cpos,d), b < cpos -> (a,cpos),(b,d).
    - ``pairs-to-plusminus`` same support -> pair (a,d), '+' at b, '-' at cpos.
    - ``pairs-to-minusplus`` same support -> pair (a,d), '-' at b, '+' at cpos.
    - ``crossing-to-nesting`` (a, b, cpos, d): pairs (a,cpos),(b,d), a<b<cpos<d -> (a,d),(b,cpos).
    """
    n = c.n
    syms = c.symbols
    pairs = c.pairs()
    out = []

    def build(new_syms: list) -> Clan:
        return make_clan(new_syms, c.p, c.q)

    fresh = n + 1  # label guaranteed unused

    # signs-to-pair
    for a in range(1, n + 1):
        if syms[a - 1] not in (PLUS, MINUS):
            continue
        for b in range(a + 1, n + 1):
            if syms[b - 1] in (PLUS, MINUS) and syms[b - 1] != syms[a - 1]:
                new = list(syms)
                new[a - 1] = fresh
                new[b - 1] = fresh
                out.append(("signs-to-pair", (a, b), build(new)))

    # pair-plus-right / pair-minus-right
    for (a, b) in pairs:
        for k in range(b + 1, n + 1):
            s = syms[k - 1]
            if s in (PLUS, MINUS):
                new = list(syms)
                new[b - 1] = s
                new[k - 1] = new[a - 1]
                kind = "pair-plus-right" if s == PLUS else "pair-minus-right"
                out.append((kind, (a, b, k), build(new)))

    # plus-pair-left / minus-pair-left
    for (b, cpos) in pairs:
        for a in range(1, b):
            s = syms[a - 1]
            if s in (PLUS, MINUS):
                new = list(syms)
                new[a - 1] = new[b - 1]
                new[b - 1] = s
                kind = "plus-pair-left" if s == PLUS else "minus-pair-left"
                out.append((kind, (a, b, cpos), build(new)))

    # two disjoint pairs (a,b), (cpos,d) with b < cpos
    for (a, b) in pairs:
        for (cpos, d) in pairs:
            if b < cpos:
                new = list(syms)
                new[b - 1], new[cpos - 1] = new[cpos - 1], new[b - 1]
                out.append(("nested-to-crossing", (a, b, cpos, d), build(new)))
                new = list(syms)
                label = new[a - 1]
                new[b - 1] = PLUS
                new[cpos - 1] = MINUS
                new[d - 1] = label
                out.append(("pairs-to-plusminus", (a, b, cpos, d), build(new)))
                new = list(syms)
                new[b - 1] = MINUS
                new[cpos - 1] = PLUS
                new[d - 1] = label
                out.append(("pairs-to-minusplus", (a, b, cpos, d), build(new)))

    # crossing-to-nesting: pairs (a,cpos),(b,d) with a < b < cpos < d
    for (a, cpos) in pairs:
        for (b, d) in pairs:
            if a < b < cpos < d:
                new = list(syms)
                new[cpos - 1], new[d - 1] = new[d - 1], new[cpos - 1]
                out.append(("crossing-to-nesting", (a, b, cpos, d), build(new)))

    return tuple(out)


def covering_successors(c: Clan) -> frozenset[Clan]:
    """The clans reached from ``c`` by one covering move."""
    return frozenset(res for (_, _, res) in covering_moves(c))


# ---------------------------------------------------------------------------
# Weyl groups: composition, phi_p, W_K and the closed clans
# ---------------------------------------------------------------------------


def identity_weyl(n: int) -> Weyl:
    return tuple(range(1, n + 1))


def weyl_compose(u: Weyl, w: Weyl) -> Weyl:
    """(u o w)(i) = u(w(i)), with u(-k) = -u(k)."""
    if len(u) != len(w):
        raise WeylError("cannot compose signed permutations of different sizes")
    out = []
    for v in w:
        uv = u[abs(v) - 1]
        out.append(uv if v > 0 else -uv)
    return tuple(out)


def stat_phip(w: Weyl, p: int) -> int:
    """#{i : w(i) < 0 and |w(i)| <= p}."""
    return sum(1 for v in w if v < 0 and -v <= p)


def wk_member(case: CaseId, w: Weyl) -> bool:
    """Membership in the symmetric subgroup's Weyl group W_K: |w| maps every
    K block onto itself, with no negative entry in an A block and an even
    number in a D block (so an uncovered coordinate is fixed up to sign)."""
    w = validate_weyl(w, case.family)
    for lie_type, block in case.k_blocks:
        if any(abs(w[i - 1]) not in block for i in block):
            return False
        negs = sum(1 for i in block if w[i - 1] < 0)
        if (lie_type == "A" and negs) or (lie_type == "D" and negs % 2):
            return False
    return True


def _weyl_order(lie_type: str, k: int) -> int:
    if lie_type == "A":
        return math.factorial(k)
    order = 2 ** k * math.factorial(k)
    return order // 2 if lie_type == "D" else order


def wk_order(case: CaseId) -> int:
    """Order of W_K (the group tested by wk_member): the product of the
    block Weyl-group orders."""
    return math.prod(_weyl_order(t, len(block)) for t, block in case.k_blocks)


def closed_clans(case: CaseId) -> list[Clan]:
    return [c for c in enumerate_case_clans(case) if is_closed_clan(case, c)]


# ---------------------------------------------------------------------------
# Formulas: per-component classes in b-so
# ---------------------------------------------------------------------------


def component_class(case: CaseId, u: Weyl) -> FactoredPoly:
    """One subgroup-component summand of a closed-orbit class in the odd
    special orthogonal family; the full class is the sum over the two
    components' representatives u and (-1,2,...,n) o u.

    Signed indices act on variables by x_{-k} = -x_k."""
    if case.tag != "b-so":
        raise FormulaError("component classes only arise in the b-so case")
    ring = formula_ring(case)
    n, p = case.grank, case.p
    uinv = weyl_inverse(u)
    sign = _sign(stat_phip(u, p) + stat_lp(weyl_abs(u), p))
    mono_x = ring.one
    for i in range(1, p + 1):
        v = uinv[i - 1]
        mono_x = mono_x * ring.x(abs(v)) * (1 if v > 0 else -1)
    mono_y = ring.one
    for i in range(1, p + 1):
        mono_y = mono_y * ring.y(i)
    factors = [mono_x + mono_y]
    for i in range(1, p + 1):
        a = abs(uinv[i - 1])
        for j in range(p + 1, n + 1):
            factors += _pair_factors(ring, a, j)
    return FactoredPoly(ring, sign * Fraction(1, 2), factors)


# ---------------------------------------------------------------------------
# Polynomials: simple reflections and simple roots
# ---------------------------------------------------------------------------


def reflect_x(f: Polynomial, lie_type: str, rank: int, i: int) -> Polynomial:
    """Apply the i-th simple reflection (acting on x1..x_rank) to f."""
    ring = f.ring
    if rank > ring.nx:
        raise PolyError("rank exceeds number of x variables")
    _check_root_index(lie_type, rank, i)
    xa = ring.var_index("x", i)
    if lie_type == "A" or i < rank:
        xb = ring.var_index("x", i + 1)
        return f.substitute({xa: ring.x(i + 1), xb: ring.x(i)})
    if lie_type in ("B", "C"):
        return f.substitute({xa: -ring.x(i)})
    # type D, i == rank: x_{rank-1} -> -x_rank, x_rank -> -x_{rank-1}
    xprev = ring.var_index("x", rank - 1)
    return f.substitute({xprev: -ring.x(rank), xa: -ring.x(rank - 1)})


def simple_root_poly(ring: Ring, lie_type: str, rank: int, i: int) -> Polynomial:
    """The i-th simple root as a linear polynomial in the x variables."""
    _check_root_index(lie_type, rank, i)
    if lie_type == "A" or i < rank:
        return ring.x(i) - ring.x(i + 1)
    if lie_type == "B":
        return ring.x(rank)
    if lie_type == "C":
        return ring.x(rank) * 2
    return ring.x(rank - 1) + ring.x(rank)
