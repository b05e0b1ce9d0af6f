"""Reference code the tests share: routines no command of orbitcalc runs,
kept here as checks on the code that does.

* ``clans``: clans as canonical labelled symbols, the representation that
  mate codes replaced, with its text, sort key, symmetry predicates,
  family check and enumerations (type A and the folded walk), the
  differential reference for the code-level ones; the cases of every
  family up to a rank, the inverse of ``rank_table`` and the covering
  moves, a third description of the rank-number order, the counting
  ``rank_table`` that the one-pass table replaced, the reversed and
  negated clans that define the symmetric and skew clans, and the
  symmetric and skew checks on mate codes, which no command needs since
  ``in_case_family`` reads the fold rules;
* ``orbits``: the cross action of a whole Weyl element, the set-based
  saturation and order comparison that the bitset versions replaced, and
  the weak-order graph that validates every clan it builds: its weak move
  on labelled symbols, with its own window rule, its cross action and its
  family check, which the moves on mate codes and the lookup by place
  replaced; and the clan of a mate code;
* ``weyl``: signed-permutation composition, absolute value and inverse,
  the simple reflections and their embedding in the ambient permutations
  (the source of ``root_permutations``), the statistics l_p, psi, sigma,
  phi_p and tau (``closed_class`` reads the first three off the clan's
  signs; ``tag_closed_class`` evaluates them at w), the root lists of
  G and K built per family and per block, which ``weyl._roots`` replaced,
  the subgroup W_K with its order, and the closed clans of a case;
* ``formulas``: the closed-orbit classes by tag, which the case-table
  ``closed_class`` replaced, the per-component closed-orbit classes of
  b-so, whose sum is ``closed_class``, the expansion of a whole class to y, whose text
  ``ChernExpansion.text`` writes without building it, the propagation on
  y-monomials that the z-form propagation replaced, and the support check
  at every fixed point of every orbit, the reference for the one-point
  check;
* ``poly``: the simple reflections on the x-variables and the simple
  roots, the two halves of the defining relation of a divided difference,
  and the kernels on exponent tuples that the packed-key kernels replaced
  (product, sum, graded-lex order and text, Chern rewrite), the
  ``Fraction``-coefficient arithmetic that int numerators over one
  denominator replaced, and the text renderer with one memo entry per
  full monomial key that the split x and y/z memos replaced;
* ``cli``: the argparse parser that ``cli.COMMANDS`` and ``cli.parse_args``
  replaced, the reference the differential parser test reads every call
  with.

Test modules import it as ``from reference import ...``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
from fractions import Fraction
from graphlib import TopologicalSorter
from operator import add
from typing import Iterator, Mapping

from orbitcalc.clans import (
    CASES,
    MINUS,
    PLUS,
    CaseId,
    Clan,
    ClanError,
    RankTable,
    _FOLD_SIGNS,
    _fold_fixes,
    enumerate_case_clans,
    in_case_family,
    is_closed_clan,
    make_clan,
    rank_table,
)
from orbitcalc.cli import (
    cmd_chern,
    cmd_classes,
    cmd_conjecture,
    cmd_enumerate,
    cmd_oracle,
    cmd_poset,
    cmd_verify,
)
from orbitcalc.formulas import (
    FormulaError,
    LocalizationReport,
    _block_factors,
    _sign,
    chern_expansion,
    closed_class,
    closed_restriction_product,
    formula_ring,
    point_images,
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
    determinant,
    divided_difference,
    elem_sym,
)
from orbitcalc.weyl import (
    Root,
    Weyl,
    WeylError,
    ambient_weyl,
    closed_orbit_fixed_points,
    distinguished_representative,
    fixed_points_by_clan,
    validate_weyl,
    weyl_order,
)


# ---------------------------------------------------------------------------
# Clans as canonical labelled symbols
# ---------------------------------------------------------------------------

SIGNS = (PLUS, MINUS)


def canonical(symbols) -> tuple:
    """The symbols with their pair labels renumbered 1, 2, ... by first occurrence."""
    relabel: dict = {}
    return tuple([s if s in SIGNS else relabel.setdefault(s, len(relabel) + 1)
                  for s in symbols])


@functools.lru_cache(maxsize=1 << 16)
def clan_symbols(c: Clan) -> tuple:
    """The canonical symbols of a clan: each pair labelled by the position
    of its left end, then renumbered by first occurrence."""
    return canonical([s if s in SIGNS else min(j, s) for j, s in enumerate(c.mates)])


def mate_code(symbols) -> tuple:
    """The mate code of labelled symbols, each mate found by a search."""
    return tuple(s if s in SIGNS else next(k for k, t in enumerate(symbols) if t == s and k != j)
                 for j, s in enumerate(symbols))


def symbols_text(symbols) -> str:
    """The text of canonical symbols: labels above 9 in parentheses."""
    return "".join(s if s in SIGNS else str(s) if s < 10 else f"({s})" for s in symbols)


def _token_sort_key(sym) -> tuple[int, int]:
    if sym == PLUS:
        return (0, 0)
    if sym == MINUS:
        return (1, 0)
    return (2, sym)


def symbols_sort_key(symbols) -> tuple:
    """Canonical-string order: '+' < '-' < pair labels by number."""
    return tuple(_token_sort_key(s) for s in symbols)


def label_pairs(symbols) -> tuple[tuple[int, int], ...]:
    """Matched position pairs (a, b), a < b, 1-based, sorted by a."""
    first: dict = {}
    out = []
    for pos, sym in enumerate(symbols, start=1):
        if sym not in SIGNS:
            if sym in first:
                out.append((first[sym], pos))
            else:
                first[sym] = pos
    return tuple(sorted(out))


def _matchings(positions: tuple[int, ...]):
    """All perfect matchings of an even-size position tuple."""
    if not positions:
        yield ()
        return
    first, rest = positions[0], positions[1:]
    for k, other in enumerate(rest):
        for sub in _matchings(rest[:k] + rest[k + 1:]):
            yield ((first, other),) + sub


def label_enumerate_clans(p: int, q: int) -> list[tuple]:
    """The canonical symbols of every clan of shape (p, q), in
    canonical-string order."""
    n = p + q
    out = []
    for m in range(0, min(p, q) + 1):
        for pair_positions in itertools.combinations(range(1, n + 1), 2 * m):
            rest = [i for i in range(1, n + 1) if i not in pair_positions]
            for matching in _matchings(pair_positions):
                for plus_positions in itertools.combinations(rest, p - m):
                    symbols: list = [MINUS] * n
                    for pos in plus_positions:
                        symbols[pos - 1] = PLUS
                    for label, (a, b) in enumerate(matching, start=1):
                        symbols[a - 1] = symbols[b - 1] = label
                    out.append(canonical(symbols))
    out.sort(key=symbols_sort_key)
    return out


_NEGATE = {PLUS: MINUS, MINUS: PLUS}


def label_is_symmetric(symbols: tuple) -> bool:
    return canonical(symbols[::-1]) == symbols


def label_is_skew_symmetric(symbols: tuple, p: int, q: int) -> bool:
    return p == q and canonical([_NEGATE.get(s, s) for s in reversed(symbols)]) == symbols


def label_has_self_mirror_pair(symbols: tuple) -> bool:
    return any(x == y and x not in SIGNS for x, y in zip(symbols, reversed(symbols)))


def label_in_case_family(case: CaseId, symbols: tuple, p: int, q: int) -> bool:
    """``in_case_family`` on canonical symbols of shape (p, q)."""
    if (p, q) != case.ambient_shape:
        return False
    row = case.row
    if row.symmetry == "none":
        return True
    if row.symmetry == "mirror":
        return label_is_symmetric(symbols) and not (
            row.family == "C" and label_has_self_mirror_pair(symbols))
    if not label_is_skew_symmetric(symbols, p, q):
        return False
    if row.family == "C":
        return True
    if label_has_self_mirror_pair(symbols):
        return False
    n = case.grank
    closed = sum(1 for _, b in label_pairs(symbols) if b <= n)
    return (symbols[:n].count(MINUS) + closed) % 2 == 0


def label_folded_clans(P: int, Q: int, skew: bool) -> Iterator[tuple]:
    """The canonical symbols of every clan of shape (P, Q) fixed by the fold
    i -> N + 1 - i, filled left to right with each choice's image."""
    N = P + Q
    image = _NEGATE if skew else {PLUS: PLUS, MINUS: MINUS}
    syms: list = [None] * N

    def fill(i: int, label: int) -> Iterator[tuple]:
        while i < N and syms[i] is not None:
            i += 1
        if i == N:
            if syms.count(PLUS) - syms.count(MINUS) == P - Q:
                yield canonical(syms)
            return
        i_bar = N - 1 - i
        for s in SIGNS:
            syms[i_bar] = image[s]
            syms[i] = s
            yield from fill(i + 1, label)
        syms[i] = syms[i_bar] = None
        for j in range(i + 1, i_bar + 1):
            j_bar = N - 1 - j
            if syms[j] is not None or j == j_bar:
                continue
            syms[i] = syms[j] = label
            if j == i_bar:
                yield from fill(i + 1, label + 1)
            else:
                syms[j_bar] = syms[i_bar] = label + 1
                yield from fill(i + 1, label + 2)
                syms[j_bar] = syms[i_bar] = None
            syms[i] = syms[j] = None

    return fill(0, 1)


def label_enumerate_case_clans(case: CaseId) -> list[tuple]:
    """The canonical symbols of the case's family in canonical-string
    order: every clan of the shape in type A, else the fold-fixed clans
    that :func:`label_in_case_family` admits."""
    P, Q = case.ambient_shape
    if case.row.symmetry == "none":
        return label_enumerate_clans(P, Q)
    found = [s for s in label_folded_clans(P, Q, case.row.symmetry == "skew")
             if label_in_case_family(case, s, P, Q)]
    found.sort(key=symbols_sort_key)
    return found


# ---------------------------------------------------------------------------
# Clans: the cases up to a rank, the inverse of rank_table and the covering moves
# ---------------------------------------------------------------------------


def cases_up_to_rank(max_rank: int) -> list[CaseId]:
    """Every case of every family whose ambient rank is at most ``max_rank``."""
    out = []
    for tag in CASES:
        for p in range(0, max_rank + 1):
            for q in range(0, max_rank + 1):
                try:
                    case = CaseId(tag, p, q)
                except ClanError:
                    continue
                if case.grank <= max_rank:
                    out.append(case)
    return out


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
    clan = make_clan(symbols, p, q)
    if rank_table(clan) != t:
        raise ClanError("rank table is not realized by any clan")
    return clan


def counting_rank_table(c: Clan) -> RankTable:
    """The rank-number table, each entry counted from scratch."""
    n = c.n
    symbols = clan_symbols(c)
    pairs = label_pairs(symbols)
    plus = []
    minus = []
    for i in range(1, n + 1):
        np_ = sum(1 for s in symbols[:i] if s == PLUS)
        nm = sum(1 for s in symbols[:i] if s == MINUS)
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
    syms = clan_symbols(c)
    pairs = label_pairs(syms)
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
# Clans: reversal, negation, the symmetry predicates and the family check
# ---------------------------------------------------------------------------


def reversed_clan(c: Clan) -> Clan:
    """The clan read right-to-left (pair structure mirrored)."""
    return make_clan(clan_symbols(c)[::-1], c.p, c.q)


def negated_clan(c: Clan) -> Clan:
    """The clan with '+' and '-' exchanged; shape becomes (q, p)."""
    return make_clan([_NEGATE.get(s, s) for s in clan_symbols(c)], c.q, c.p)


def clan_is_symmetric(c: Clan) -> bool:
    return reversed_clan(c) == c


def clan_is_skew_symmetric(c: Clan) -> bool:
    return c.p == c.q and reversed_clan(c) == negated_clan(c)


def is_symmetric(c: Clan) -> bool:
    """True when the clan equals its own reversal, read on the mate code by
    the fold check ``in_case_family`` uses."""
    return _fold_fixes(c.mates, _FOLD_SIGNS["mirror"])


def is_skew_symmetric(c: Clan) -> bool:
    """True when the reversal equals the sign-negated clan, read on the mate
    code by the fold check ``in_case_family`` uses."""
    return c.p == c.q and _fold_fixes(c.mates, _FOLD_SIGNS["skew"])


def has_self_mirror_pair(c: Clan) -> bool:
    return any(a + b == c.n + 1 for a, b in label_pairs(clan_symbols(c)))


def clan_in_case_family(case: CaseId, c: Clan) -> bool:
    """``in_case_family`` with the symmetry checks that build clans and the
    self-mirror test on the list of pairs."""
    if (c.p, c.q) != case.ambient_shape:
        return False
    row = case.row
    if row.symmetry == "none":
        return True
    if row.symmetry == "mirror":
        return clan_is_symmetric(c) and not (row.family == "C" and has_self_mirror_pair(c))
    if not clan_is_skew_symmetric(c):
        return False
    if row.family == "C":
        return True
    if has_self_mirror_pair(c):
        return False
    return rank_table(c).minus[case.grank - 1] % 2 == 0


# ---------------------------------------------------------------------------
# Weyl groups: simple reflections and their embedding, composition, phi_p
# and tau, the root lists per family and block, W_K and the closed clans
# ---------------------------------------------------------------------------


def simple_reflection(lie_type: str, n: int, i: int) -> Weyl:
    """The i-th simple reflection as a signed permutation of 1..n."""
    vals = list(range(1, n + 1))
    if lie_type == "A":
        if not 1 <= i <= n - 1:
            raise WeylError(f"type A rank {n} has simple roots 1..{n - 1}")
        vals[i - 1], vals[i] = vals[i], vals[i - 1]
    elif lie_type in ("B", "C"):
        if not 1 <= i <= n:
            raise WeylError(f"type {lie_type} rank {n} has simple roots 1..{n}")
        if i < n:
            vals[i - 1], vals[i] = vals[i], vals[i - 1]
        else:
            vals[n - 1] = -n
    elif lie_type == "D":
        if not 1 <= i <= n or n < 2:
            raise WeylError(f"type D rank {n} has simple roots 1..{n}")
        if i < n:
            vals[i - 1], vals[i] = vals[i], vals[i - 1]
        else:
            vals[n - 2], vals[n - 1] = -n, -(n - 1)
    else:
        raise WeylError(f"unknown Lie type {lie_type!r}")
    return tuple(vals)


def embed_in_ambient(w: Weyl, parity: str) -> tuple[int, ...]:
    """Embed a signed permutation of n as an honest permutation of
    {1..2n} (parity='even') or {1..2n+1} (parity='odd')."""
    w = validate_weyl(w)
    n = len(w)
    if parity == "even":
        big = 2 * n + 1  # sigma(i) + sigma(2n+1-i) = 2n+1
        total = 2 * n
    elif parity == "odd":
        big = 2 * n + 2
        total = 2 * n + 1
    else:
        raise WeylError("parity must be 'even' or 'odd'")
    sigma = [0] * total
    for i, v in enumerate(w, start=1):
        sigma[i - 1] = v if v > 0 else big - (-v)
        sigma[total - i] = big - sigma[i - 1]
    if parity == "odd":
        sigma[n] = n + 1
    return tuple(sigma)


def ambient_source(case: CaseId, i: int) -> tuple[int, ...]:
    """The ambient permutation of the i-th simple reflection, embedded, in
    the source form of ``root_permutations``: 0-based positions with
    ``source[sigma(j) - 1] = j - 1``."""
    sigma = simple_reflection(case.family, case.grank, i)
    if case.family != "A":
        sigma = embed_in_ambient(sigma, "odd" if case.ambient_len % 2 else "even")
    source = [0] * len(sigma)
    for j, target in enumerate(sigma):
        source[target - 1] = j
    return tuple(source)


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


def weyl_abs(w: Weyl) -> Weyl:
    return tuple(abs(v) for v in w)


def weyl_inverse(w: Weyl) -> Weyl:
    inv = [0] * len(w)
    for i, v in enumerate(w, start=1):
        if v > 0:
            inv[v - 1] = i
        else:
            inv[-v - 1] = -i
    return tuple(inv)


def stat_lp(w: Weyl, p: int) -> int:
    """#{(i, j) : i < j <= n, w(j) <= p < w(i)} for an unsigned permutation."""
    if any(v < 0 for v in w):
        raise WeylError("stat_lp is defined for unsigned permutations")
    n = len(w)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if w[j] <= p < w[i]
    )


def stat_psi(w: Weyl) -> int:
    return sum(1 for v in w if v < 0)


def stat_sigma(w: Weyl) -> int:
    """Sum of (n - i) over the positions i whose entry is negative."""
    n = len(w)
    return sum(n - i for i, v in enumerate(w, start=1) if v < 0)


def stat_phip(w: Weyl, p: int) -> int:
    """#{i : w(i) < 0 and |w(i)| <= p}."""
    return sum(1 for v in w if v < 0 and -v <= p)


def stat_tau(w: Weyl, p: int) -> int:
    """Sum over i <= n-1 with w(i) > p+1 of #{j : i < j <= n-1, w(j) <= p}:
    the sign statistic of d-oxo-odd's closed classes before ``stat_lp``
    took its place."""
    n = len(w)
    total = 0
    for i in range(1, n):
        if w[i - 1] > p + 1:
            total += sum(1 for j in range(i + 1, n) if w[j - 1] <= p)
    return total


def _unit(n: int, i: int, coeff: int = 1) -> Root:
    vec = [0] * n
    vec[i - 1] = coeff
    return tuple(vec)


def _pair_root(n: int, i: int, j: int, sign: int) -> Root:
    vec = [0] * n
    vec[i - 1] = 1
    vec[j - 1] = sign
    return tuple(vec)


def block_positive_roots(case: CaseId) -> tuple[Root, ...]:
    """Positive roots of the ambient group, as coefficient vectors, listed
    by family: the lister that ``weyl._roots`` replaced."""
    n = case.grank
    fam = case.family
    roots: list[Root] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            roots.append(_pair_root(n, i, j, -1))
            if fam != "A":
                roots.append(_pair_root(n, i, j, +1))
    if fam == "B":
        roots.extend(_unit(n, i) for i in range(1, n + 1))
    elif fam == "C":
        roots.extend(_unit(n, i, 2) for i in range(1, n + 1))
    return tuple(roots)


def _full_pair_system(n: int, block: range, with_short: bool,
                      short_coeff: int = 1) -> list[Root]:
    """All +/- pair roots within a block, optionally with +/- short roots."""
    roots: list[Root] = []
    members = list(block)
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            i, j = members[a], members[b]
            for si in (1, -1):
                for sj in (1, -1):
                    vec = [0] * n
                    vec[i - 1] = si
                    vec[j - 1] = sj
                    roots.append(tuple(vec))
    if with_short:
        for i in members:
            roots.append(_unit(n, i, short_coeff))
            roots.append(_unit(n, i, -short_coeff))
    return roots


def block_subgroup_roots(case: CaseId) -> tuple[Root, ...]:
    """The full (positive and negative) root list of the symmetric subgroup,
    the root systems of K's blocks: the lister that ``weyl._roots``
    replaced."""
    n = case.grank
    roots: list[Root] = []
    for lie_type, block in case.k_blocks:
        if lie_type == "A":
            roots += [_pair_root(n, i, j, -1) for i in block for j in block if i != j]
        else:
            roots += _full_pair_system(n, block, with_short=lie_type != "D",
                                       short_coeff=2 if lie_type == "C" else 1)
    return tuple(roots)


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
    old = clan_symbols(c)
    new = [None] * len(old)
    for j, target in enumerate(sigma, start=1):
        new[target - 1] = old[j - 1]
    return make_clan(new, c.p, c.q)


def cross_action_simple(case: CaseId, c: Clan, i: int) -> Clan:
    return cross_action(case, c, simple_reflection(case.family, case.grank, i))


def clan_from_mates(code, p: int, q: int) -> Clan:
    """The validated clan of a mate code: its signs, and a pair labelled
    by first occurrence at each position and its mate."""
    symbols = list(code)
    label = 0
    for j, mate in enumerate(code):
        if mate not in SIGNS and mate > j:
            label += 1
            symbols[j] = symbols[mate] = label
    return make_clan(symbols, p, q)


def _mate(symbols, pos: int) -> int:
    label = symbols[pos - 1]
    for j, s in enumerate(symbols, start=1):
        if j != pos and s == label:
            return j
    raise OrbitError(f"symbol at position {pos} has no mate")


def _fresh_label(symbols) -> int:
    return max((s for s in symbols if isinstance(s, int)), default=0) + 1


def _window_op(symbols: list, a: int, b: int) -> list | None:
    """The ascending two-position rule at positions a < b (1-based) on
    labelled symbols: the new symbol list if it fires, else None."""
    sa, sb = symbols[a - 1], symbols[b - 1]
    a_sign, b_sign = sa in SIGNS, sb in SIGNS
    if a_sign and b_sign:
        if sa == sb:
            return None
        out = list(symbols)
        out[a - 1] = out[b - 1] = _fresh_label(symbols)
        return out
    if a_sign:
        fires = _mate(symbols, b) > b
    elif b_sign:
        fires = _mate(symbols, a) < a
    else:
        fires = sa != sb and _mate(symbols, a) < _mate(symbols, b)
    if not fires:
        return None
    out = list(symbols)
    out[a - 1], out[b - 1] = sb, sa
    return out


def _apply_schedule(symbols: list, windows) -> list:
    current = symbols
    for a, b in windows:
        result = _window_op(current, a, b)
        if result is not None:
            current = result
    return current


def clan_weak_move(case: CaseId, c: Clan, i: int) -> Clan:
    """``weak_move`` with each root's windows written out, its result built
    as a validated clan and checked by :func:`clan_in_case_family`."""
    if i not in simple_root_indices(case):
        raise OrbitError(f"simple root {i} out of range for case {case.tag}")
    n = case.grank
    N = case.ambient_len
    symbols = list(clan_symbols(c))
    if case.family == "A":
        moved = _apply_schedule(symbols, [(i, i + 1)])
    elif i < n:
        moved = _apply_schedule(symbols, [(i, i + 1), (N - i, N + 1 - i)])
    elif case.family == "C":
        moved = _apply_schedule(symbols, [(n, n + 1)])
    elif case.family == "D":
        moved = _apply_schedule(symbols, [(n - 1, n + 1), (n, n + 2)])
    else:  # type B middle root
        middle = symbols[n]
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
    result = make_clan(moved, c.p, c.q)
    if case.family != "A" and not clan_in_case_family(case, result):
        return c
    return result


def clan_weak_order_graph(case: CaseId) -> OrbitPoset:
    """The weak-order graph from validated clans: the clans of
    :func:`label_enumerate_case_clans`, with :func:`clan_weak_move` edges
    whose degree is 2 where the embedded simple reflection
    (:func:`ambient_source`, the permutation of :func:`cross_action_simple`)
    fixes the source.  Nodes by rank, then canonically; edges by their
    source's place, then by root; ranks in canonical order."""
    P, Q = case.ambient_shape
    clans = [make_clan(s, P, Q) for s in label_enumerate_case_clans(case)]
    sources = {i: ambient_source(case, i) for i in simple_root_indices(case)}
    edges = []
    below: dict[Clan, list[Clan]] = {c: [] for c in clans}
    for c in clans:
        for i, source in sources.items():
            dst = clan_weak_move(case, c, i)
            if dst != c:
                symbols = clan_symbols(c)
                crossed = make_clan([symbols[j] for j in source], P, Q)
                edges.append((c, dst, i, 2 if crossed == c else 1))
                below[dst].append(c)
    rank: dict[Clan, int] = {}
    for c in TopologicalSorter(below).static_order():
        rank[c] = max((rank[b] + 1 for b in below[c]), default=0)
    nodes = tuple(sorted(clans, key=lambda c: (rank[c], symbols_sort_key(clan_symbols(c)))))
    pos = {c: k for k, c in enumerate(nodes)}
    edges.sort(key=lambda e: (pos[e[0]], e[2]))
    return OrbitPoset(case, nodes, tuple(edges), {c: rank[c] for c in clans})


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
    witnesses.sort(key=lambda pair: (symbols_sort_key(clan_symbols(pair[0])),
                                     symbols_sort_key(clan_symbols(pair[1]))))
    return OrderComparison(poset.case, not witnesses, tuple(witnesses))


# ---------------------------------------------------------------------------
# Formulas: closed classes by tag, per-component classes in b-so
# ---------------------------------------------------------------------------


def orbit_delta(ring: Ring, m: int, w: Weyl, chern: bool = False) -> Polynomial:
    """``formulas.delta`` as it was before it was built once per case: the
    m x m determinant det(c_{m+1+j-2i}) at the group element w, from the
    signed x-variables sgn(w^{-1}(i)) * x_{|w^{-1}(i)|}; with ``chern``,
    z_k stands for e_k(y_1..y_n) in its entries."""
    n = ring.nx
    if len(w) != n:
        raise FormulaError("group element length does not match the ring")
    winv = weyl_inverse(w)
    xs = [ring.x(abs(v)) * (1 if v > 0 else -1) for v in winv]
    ys = [ring.y(j) for j in range(1, n + 1)]
    c_cache = {
        k: elem_sym(ring, k, xs) + (ring.var("z", k) if chern else elem_sym(ring, k, ys))
        for k in range(1, n + 1)
    }

    def c(k: int) -> Polynomial:
        if k == 0:
            return ring.const(2)
        if 0 < k <= n:
            return c_cache[k]
        return ring.zero

    matrix = [[c(m + 1 + j - 2 * i) for j in range(1, m + 1)]
              for i in range(1, m + 1)]
    return determinant(matrix)


def tag_closed_class(case: CaseId, c: Clan, chern: bool = False) -> FactoredPoly:
    """``closed_class`` as it was before it read the case table: one branch
    per tag, the paper's statistics evaluated at the orbit's
    ``distinguished_representative`` w (``stat_tau`` for the sign in
    d-oxo-odd), and the linear factors at |w|^{-1}(1..p); and for the GL
    pairs, a determinant built at w (``orbit_delta``)."""
    if not is_closed_clan(case, c):
        raise ClanError(f"{c.to_text()} is not a closed-orbit clan of {case.tag}")
    ring = formula_ring(case)
    n, p = case.grank, case.p
    w = distinguished_representative(case, c)
    tag = case.tag
    block = case.k_blocks[-1][1]  # the factors' y-variables: K's second block

    if tag == "a":
        winv = weyl_inverse(w)
        factors = []
        for i in range(1, p + 1):
            factors += _block_factors(ring, winv[i - 1], block, (-1,), chern)
        return FactoredPoly(ring, _sign(stat_lp(w, p)), factors)

    if tag in ("b-so", "c-spxsp", "d-oxo-even"):
        awinv = weyl_inverse(weyl_abs(w))
        factors = [ring.x(awinv[i - 1]) for i in range(1, p + 1)] if tag == "b-so" else []
        for i in range(1, p + 1):
            factors += _block_factors(ring, awinv[i - 1], block, (-1, 1), chern)
        return FactoredPoly(ring, _sign(stat_lp(weyl_abs(w), p)), factors)

    if tag == "c-sp-gl":
        sign = _sign(stat_psi(w) + stat_sigma(w))
        return FactoredPoly(ring, sign, [orbit_delta(ring, n, w, chern=chern)])

    if tag == "d-so-gl":
        return FactoredPoly(ring, _sign(stat_sigma(w)), [orbit_delta(ring, n - 1, w, chern=chern)],
                            2 ** (n - 1))

    # branched orthogonal pair (odd ranks): the standard representative
    winv = weyl_inverse(w)
    factors = [ring.x(i) for i in range(1, n)]
    for i in range(1, p + 1):
        factors += _block_factors(ring, winv[i - 1], block, (-1, 1), chern)
    return FactoredPoly(ring, _sign(stat_tau(w, p)), factors)


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


def expand_class(case: CaseId, f: Polynomial) -> Polynomial:
    """A class of ``all_classes`` in the y-variables: each z_{a-1+k} of a
    block starting at y_a becomes e_k of the block."""
    return chern_expansion(case)(f)


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
    halves the time of this loop.  Each fixed point's images are built
    once, on first use, and serve every restriction there."""
    poset = full_closure_order(poset)
    case = poset.case
    ring = formula_ring(case)
    failures: list[str] = []
    images: dict[Weyl, dict[int, Polynomial]] = {}

    def restrict(f: Polynomial, w: Weyl) -> Polynomial:
        if w not in images:
            images[w] = point_images(case, ring, w)
        return restrict_at(case, f, w, images[w])

    closed_points = 0
    for c in poset.minima():
        f = expand_class(case, classes[c])
        for w in closed_orbit_fixed_points(case, c):
            closed_points += 1
            if restrict(f, w) != closed_restriction_product(case, w):
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
                    if not expand_class(case, restrict(f, w)).is_zero():
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


def _check_root_index(lie_type: str, rank: int, i: int) -> None:
    if lie_type == "A":
        if not 1 <= i <= rank - 1:
            raise PolyError(f"type A rank {rank} has simple roots 1..{rank - 1}")
    elif lie_type in ("B", "C", "D"):
        if not 1 <= i <= rank:
            raise PolyError(f"type {lie_type} rank {rank} has simple roots 1..{rank}")
        if lie_type == "D" and rank < 2:
            raise PolyError("type D needs rank >= 2")
    else:
        raise PolyError(f"unknown Lie type {lie_type!r}")


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


# ---------------------------------------------------------------------------
# The argparse parser that the option table replaced
# ---------------------------------------------------------------------------


def _count(what: str):
    """The argparse type of an option that takes ``what``, 0 or more."""
    def parse(text: str) -> int:
        if not text.strip().isdecimal():
            raise argparse.ArgumentTypeError(f"expected {what}, 0 or more, not {text!r}")
        return int(text)
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitcalc",
        description="Exact computation of orbit posets and equivariant "
        "classes for two-block flag-variety orbit families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, fn in [
        ("enumerate", cmd_enumerate),
        ("poset", cmd_poset),
        ("classes", cmd_classes),
        ("verify", cmd_verify),
        ("oracle", cmd_oracle),
        ("conjecture", cmd_conjecture),
        ("chern", cmd_chern),
    ]:
        p = commands[name] = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--output", default=None, help="write to file")

    for name, p in commands.items():
        if name != "oracle":
            p.add_argument("--case", choices=sorted(CASES), default=None,
                           help="orbit family selector")
            p.add_argument("--p", type=int, default=None)
            p.add_argument("--q", type=int, default=None)
            p.add_argument("--n", type=int, default=None,
                           help="the rank of a GL family (c-sp-gl, d-so-gl)")
        if name not in ("oracle", "chern"):
            p.add_argument("--max-nodes", type=_count("a count of orbits"), default=5000,
                           help="warn when the family is larger than this")
        if name not in ("oracle", "verify"):
            formats = ["text", "json", "dot"] if name == "poset" else ["text", "json"]
            p.add_argument("--format", dest="fmt", default="text", choices=formats)

    commands["poset"].add_argument(
        "--full", action="store_true",
        help="saturate and include the full closure order")
    commands["classes"].add_argument("--factored", action="store_true")
    commands["classes"].add_argument(
        "--verify", action="store_true",
        help="run localization checks before emitting")
    commands["chern"].add_argument("--clan", default=None)
    commands["oracle"].add_argument(
        "--max-n", type=_count("a bound on p+q"), default=4, metavar="N",
        help="move each representative flag with p+q <= N by a random "
        "block-diagonal k in GL(p) x GL(q) and measure it again")
    commands["oracle"].add_argument(
        "--measure-max-n", type=_count("a bound on p+q"), default=5, metavar="N",
        help="measure each representative flag with p+q <= N")
    return parser
