"""Reference code the tests share: routines no command of orbitcalc runs,
kept here as checks on the code that does.

* ``clans``: the inverse of ``rank_table`` and the covering moves, a
  third description of the rank-number order, and the counting
  ``rank_table`` that the one-pass table replaced;
* ``orbits``: the cross action of a whole Weyl element, and the set-based
  saturation and order comparison that the bitset versions replaced;
* ``weyl``: signed-permutation composition, the statistic phi_p, the
  subgroup W_K with its order, and the closed clans of a case;
* ``formulas``: the per-component closed-orbit classes of b-so, whose
  sum is ``closed_class``, the propagation on y-monomials that the
  z-form propagation replaced, and the support check at every fixed point
  of every orbit, the reference for the one-point check;
* ``poly``: the simple reflections on the x-variables and the simple
  roots, the two halves of the defining relation of a divided difference,
  and the kernels on exponent tuples that the packed-key kernels replaced
  (product, sum, graded-lex order and text, Chern rewrite), the
  ``Fraction``-coefficient arithmetic that int numerators over one
  denominator replaced, and the text renderer with one memo entry per
  full monomial key that the split x and y/z memos replaced.

Test modules import it as ``from reference import ...``.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import add
from typing import Mapping

from orbitcalc.clans import (
    MINUS,
    PLUS,
    CaseId,
    Clan,
    ClanError,
    RankTable,
    enumerate_case_clans,
    in_case_family,
    make_clan,
    rank_table,
)
from orbitcalc.formulas import (
    FormulaError,
    LocalizationReport,
    _block_factors,
    _sign,
    closed_class,
    closed_restriction_product,
    expand_class,
    formula_ring,
    restrict_at,
)
from orbitcalc.orbits import (
    OrbitError,
    OrbitPoset,
    OrderBits,
    OrderComparison,
    full_closure_order,
    simple_root_indices,
)
from orbitcalc.poly import (
    FactoredPoly,
    Polynomial,
    PolyError,
    Ring,
    _check_root_index,
    divided_difference,
)
from orbitcalc.weyl import (
    Weyl,
    WeylError,
    ambient_weyl,
    closed_orbit_fixed_points,
    embed_in_ambient,
    fixed_points_by_clan,
    is_closed_clan,
    simple_reflection,
    stat_lp,
    validate_weyl,
    weyl_abs,
    weyl_inverse,
    weyl_order,
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


def counting_rank_table(c: Clan) -> RankTable:
    """The rank-number table, each entry counted from scratch."""
    n = c.n
    pairs = c.pairs()
    plus = []
    minus = []
    for i in range(1, n + 1):
        np_ = sum(1 for s in c.symbols[:i] if s == PLUS)
        nm = sum(1 for s in c.symbols[:i] if s == MINUS)
        complete = sum(1 for (a, b) in pairs if b <= i)
        plus.append(np_ + complete)
        minus.append(nm + complete)
    cross = []
    for i in range(1, n):
        row = []
        for j in range(i + 1, n + 1):
            row.append(sum(1 for (a, b) in pairs if a <= i and b > j))
        cross.append(tuple(row))
    return RankTable(tuple(plus), tuple(minus), tuple(cross))


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


def wk_order(case: CaseId) -> int:
    """Order of W_K (the group tested by wk_member): the product of the
    block Weyl-group orders."""
    return math.prod(weyl_order(t, len(block)) for t, block in case.k_blocks)


def closed_clans(case: CaseId) -> list[Clan]:
    return [c for c in enumerate_case_clans(case) if is_closed_clan(case, c)]


def k_weyl_group(case: CaseId) -> frozenset[Weyl]:
    """N_K(T)/T as signed permutations: W_K (``wk_member``, the Weyl group
    of K's identity component), and where a K block has type D, W_K composed
    with the sign change of the first coordinate of each D block.  That sign
    change comes from K's other component in the S(O x O) pairs: a
    reflection in each orthogonal factor (det -1 twice), which negates one
    coordinate of each factor's torus; in b-so the odd factor's -1 fixes
    the torus.  Elsewhere K is connected and the group is W_K."""
    wk = [u for u in ambient_weyl(case) if wk_member(case, u)]
    flip = list(identity_weyl(case.grank))
    for lie_type, block in case.k_blocks:
        if lie_type == "D" and block:
            flip[block.start - 1] = -block.start
    return frozenset(wk) | {weyl_compose(tuple(flip), u) for u in wk}


# ---------------------------------------------------------------------------
# Orbits: the cross action of a Weyl element, set-based saturation and
# comparison
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


def set_full_closure_order(poset: OrbitPoset) -> OrbitPoset:
    """Saturate the weak order into the full closure order.

    Down-sets start at {self}; for every weak edge Q -> Q' along root s, the
    down-set of Q' absorbs, for every V below Q: V itself, the weak move of V
    along s, and the cross action of s on V.  Down-sets are closed under
    transitivity and the whole pass repeats until stable."""
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
    tables = [counting_rank_table(c) for c in nodes]
    for a in range(m):
        for b in down[a]:
            if not tables[b].below(tables[a]):
                raise OrbitError(
                    "saturated order is not contained in the rank-number order: "
                    f"{nodes[b].to_text()} vs {nodes[a].to_text()}"
                )

    # the sets as bits over the nodes, bit k for nodes[k], the form OrbitPoset keeps
    rank_down = [sum(1 << v for v in range(m) if tables[v].below(tables[k])) for k in range(m)]
    bits = OrderBits(tuple(sum(1 << v for v in down[k]) for k in range(m)), tuple(rank_down))
    return OrbitPoset(case, nodes, poset.weak_edges, poset.ranks, bits)


def set_check_conjecture(poset: OrbitPoset) -> OrderComparison:
    if poset.order_bits is None:
        poset = set_full_closure_order(poset)
    tables = {c: counting_rank_table(c) for c in poset.nodes}
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
        factors += _block_factors(ring, abs(uinv[i - 1]), range(p + 1, n + 1), (-1, 1), False)
    return FactoredPoly(ring, sign * Fraction(1, 2), factors)


def y_all_classes(poset: OrbitPoset) -> dict[Clan, Polynomial]:
    """``all_classes`` as it was before propagation moved to z-form: the
    closed classes expanded in y, every divided difference on y-monomials,
    and the plain degree checked."""
    case = poset.case
    ring = formula_ring(case)
    family, n = case.family, case.grank
    classes = {c: closed_class(case, c).expand() for c in poset.minima()}
    for src, dst, i, deg in poset.weak_edges:
        value = divided_difference(classes[src], family, n, i)
        if deg == 2:
            value = value / 2
        known = classes.get(dst)
        if known is None:
            classes[dst] = value
        elif known != value:
            raise FormulaError(
                "propagation is path dependent at "
                f"{dst.to_text()} (via root {i} from {src.to_text()})"
            )
    if classes[poset.top] != ring.one:
        raise FormulaError("the dense orbit's class is not 1")
    for c, f in classes.items():
        expected = poset.max_rank - poset.ranks[c]
        if set(map(sum, f.terms)) != {expected}:
            raise FormulaError(
                f"class of {c.to_text()} is not homogeneous of degree {expected}"
            )
    return classes


def verify_localization_every_point(
    poset: OrbitPoset, classes: Mapping[Clan, Polynomial]
) -> LocalizationReport:
    """``verify_localization`` as it was before the one-point checks, for
    classes in z-form, as ``all_classes`` gives them: each closed class is
    expanded and checked at every fixed point of its orbit, and the support
    of each class at every fixed point of every orbit not below it,
    stopping at the first nonzero restriction.  The support restrictions
    run on the z-form and expand only the result, which equals restricting
    the expanded class (``test_restriction_commutes_with_expansion``) and
    halves the time of this loop."""
    poset = full_closure_order(poset)
    case = poset.case
    ring = formula_ring(case)
    failures: list[str] = []

    closed_points = 0
    for c in poset.minima():
        f = expand_class(case, classes[c])
        for w in closed_orbit_fixed_points(case, c):
            closed_points += 1
            if restrict_at(case, f, w) != closed_restriction_product(case, w):
                failures.append(
                    f"closed restriction mismatch at {c.to_text()}, "
                    f"fixed point {w}"
                )

    support_pairs = 0
    support_checked = not case.uncovered
    if support_checked:
        by_clan = fixed_points_by_clan(case)
        for c in poset.nodes:
            f = classes[c]
            below = poset.full_order[c]
            for other, points in by_clan.items():
                if other in below:
                    continue
                support_pairs += 1
                for w in points:
                    if not expand_class(case, restrict_at(case, f, w)).is_zero():
                        failures.append(
                            f"nonzero restriction of {c.to_text()} at a fixed "
                            f"point {w} of {other.to_text()}"
                        )
                        break

    dense_ok = classes[poset.top] == ring.one
    return LocalizationReport(
        case, closed_points, support_pairs, support_checked, dense_ok,
        tuple(failures),
    )


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


# ---------------------------------------------------------------------------
# Polynomials: the kernels on exponent tuples
# ---------------------------------------------------------------------------


def tuple_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    """The product, with exponent tuples added slot by slot."""
    out: dict = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return Polynomial(f.ring, out)


def tuple_add(f: Polynomial, g: Polynomial) -> Polynomial:
    out = dict(f.terms)
    for exps, c in g.terms.items():
        out[exps] = out.get(exps, 0) + c
    return Polynomial(f.ring, out)


def grlex(exps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Graded-lex key: the larger key is the higher term."""
    return sum(exps), exps


def tuple_sorted_terms(f: Polynomial) -> list:
    terms = f.terms
    return [(e, terms[e]) for e in sorted(terms, key=grlex, reverse=True)]


def tuple_term_text(ring: Ring, exps: tuple[int, ...], coeff) -> str:
    parts = [name if e == 1 else f"{name}^{e}"
             for name, e in zip(ring.names, exps) if e]
    if not parts:
        return str(coeff)
    if coeff != 1:
        parts.insert(0, str(coeff))
    return "*".join(parts)


def tuple_to_text(f: Polynomial) -> str:
    return fraction_to_text(f.ring, f.terms)


def fraction_to_text(ring: Ring, terms: Mapping) -> str:
    """The text of a mapping exponent tuple -> coefficient, each coefficient
    written by ``str``."""
    if not terms:
        return "0"
    pieces = []
    for exps in sorted(terms, key=grlex, reverse=True):
        coeff = terms[exps]
        body = tuple_term_text(ring, exps, abs(coeff))
        if not pieces:
            pieces.append(("-" if coeff < 0 else "") + body)
        else:
            pieces.append((" - " if coeff < 0 else " + ") + body)
    return "".join(pieces)


@functools.cache
def full_key_text(ring: Ring, key: int) -> str:
    """A monomial as text, e.g. ``x1*y3^2``; ``""`` for 1: the renderer
    with one memo entry per full key, which the split x and y/z memos
    replaced."""
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(ring.names, ring._unpack(key)) if e)


def full_key_term_text(ring: Ring, key: int, num: int, den: int = 1) -> str:
    """One term with a non-negative coefficient ``num/den``, e.g.
    ``2*x1*y3^2`` or ``1/2*x1``."""
    if den != 1:
        g = math.gcd(num, den)
        num, den = num // g, den // g
    coeff = num if den == 1 else f"{num}/{den}"
    mono = full_key_text(ring, key)
    if not mono:
        return str(coeff)
    return mono if coeff == 1 else f"{coeff}*{mono}"


def full_key_to_text(f: Polynomial) -> str:
    """``Polynomial.to_text`` through :func:`full_key_term_text`."""
    terms = f._terms
    if not terms:
        return "0"
    pieces = []
    for key in sorted(terms, reverse=True):
        c = terms[key]
        pieces.append((" - " if c < 0 else " + ")
                      + full_key_term_text(f.ring, key, abs(c), f._den))
    text = "".join(pieces)
    return text[3:] if text[1] == "+" else "-" + text[3:]


def full_key_factored_text(fp: FactoredPoly) -> str:
    """``FactoredPoly.to_text`` through the full-key renderer."""
    if fp.scalar == 0:
        return "0"
    prefix_exps = [0] * fp.ring.width
    num, den = fp.scalar, fp.den
    wrapped: list[Polynomial] = []
    for fac in fp.factors:
        if fac.is_zero():
            return "0"
        if len(fac._terms) == 1:
            (key, c), = fac._terms.items()
            num, den = num * c, den * fac._den
            prefix_exps = list(map(add, prefix_exps, fp.ring._unpack(key)))
        else:
            wrapped.append(fac)
    body = "".join(f"({full_key_to_text(fac)})" for fac in wrapped)
    sign = "-" if num < 0 else ""
    mono = full_key_term_text(fp.ring, fp.ring._pack(prefix_exps), abs(num), den)
    if body:
        if mono == "1":
            return sign + body
        return sign + mono + body
    return sign + mono


def tuple_chern_substitute(f: Polynomial, blocks) -> Polynomial:
    """``chern_substitute`` on exponent tuples: peel off the graded-lex
    leading term that uses a block variable, as a product of elementary
    symmetric polynomials of the blocks, until none is left."""
    ring = f.ring
    covered = set()
    block_slots: list[tuple[list[int], int]] = []
    for start, size in blocks:
        slots = [ring.var_index("y", start + t) for t in range(size)]
        covered.update(slots)
        block_slots.append((slots, start - 1))
        if start - 1 + size > ring.nz:
            raise PolyError("ring has too few z variables for these blocks")

    for idx in f.used_vars():
        if ring.nx <= idx < ring.nx + ring.ny and idx not in covered:
            raise PolyError(
                f"variable {ring.names[idx]} is outside every symmetric block"
            )

    def block_e(bi: int, k: int) -> Polynomial:
        slots, _ = block_slots[bi]
        return Polynomial(ring, {
            tuple(int(idx in subset) for idx in range(ring.width)): 1
            for subset in itertools.combinations(slots, k)
        })

    result = ring.zero
    current = f
    while True:
        candidates = [
            (exps, coeff)
            for exps, coeff in current.terms.items()
            if any(exps[s] for slots, _ in block_slots for s in slots)
        ]
        if not candidates:
            return tuple_add(result, current)
        exps, coeff = max(candidates, key=lambda t: grlex(t[0]))
        stripped = list(exps)
        subtrahend = ring.const(coeff)
        image_exps = list(exps)
        for bi, (slots, zoffset) in enumerate(block_slots):
            lam = [exps[s] for s in slots]
            if any(lam[t] < lam[t + 1] for t in range(len(lam) - 1)):
                raise PolyError(
                    "polynomial is not symmetric in a variable block; "
                    f"offending monomial exponents {lam}"
                )
            for s in slots:
                stripped[s] = 0
                image_exps[s] = 0
            lam.append(0)
            for k in range(1, len(slots) + 1):
                mult = lam[k - 1] - lam[k]
                for _ in range(mult):
                    subtrahend = tuple_mul(subtrahend, block_e(bi, k))
                image_exps[ring.var_index("z", zoffset + k)] += mult
        spectator = ring.monomial(tuple(stripped))
        peeled = tuple_mul(subtrahend, spectator)
        current = tuple_add(current, Polynomial(ring, {e: -c for e, c in peeled.terms.items()}))
        result = tuple_add(result, ring.monomial(tuple(image_exps), coeff))


# ---------------------------------------------------------------------------
# Polynomials: Fraction-coefficient arithmetic
# ---------------------------------------------------------------------------
# A polynomial as a dict exponent tuple -> nonzero Fraction, each coefficient
# reduced on its own, as ``Polynomial`` stored it before it kept int
# numerators over one denominator.


def fraction_terms(f: Polynomial) -> dict[tuple[int, ...], Fraction]:
    return {exps: Fraction(c) for exps, c in f.terms.items()}


def _fraction_collect(pairs) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, c in pairs:
        out[exps] = out.get(exps, Fraction(0)) + c
    return {exps: c for exps, c in out.items() if c}


def fraction_add(a: Mapping, b: Mapping) -> dict[tuple[int, ...], Fraction]:
    return _fraction_collect(itertools.chain(a.items(), b.items()))


def fraction_scale(a: Mapping, c) -> dict[tuple[int, ...], Fraction]:
    return _fraction_collect((exps, k * Fraction(c)) for exps, k in a.items())


def fraction_mul(a: Mapping, b: Mapping) -> dict[tuple[int, ...], Fraction]:
    return _fraction_collect(
        (tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in a.items() for e2, c2 in b.items())


def fraction_pow(a: Mapping, k: int, width: int) -> dict[tuple[int, ...], Fraction]:
    out = {(0,) * width: Fraction(1)}
    for _ in range(k):
        out = fraction_mul(out, a)
    return out


def fraction_substitute(a: Mapping, images: Mapping) -> dict[tuple[int, ...], Fraction]:
    """Substitute signed variables for variables, all at once: ``images``
    maps an exponent slot to ``(target slot, sign)``, or to ``None`` for 0."""
    pairs = []
    for exps, c in a.items():
        if any(exps[s] for s, image in images.items() if image is None):
            continue
        new = [0 if s in images else e for s, e in enumerate(exps)]
        for s, image in images.items():
            if exps[s]:
                target, sign = image
                new[target] += exps[s]
                c *= sign ** exps[s]
        pairs.append((tuple(new), c))
    return _fraction_collect(pairs)
