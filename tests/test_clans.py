"""Tests for clan parsing, rank tables, enumeration, order, and covering moves.

Run as a script (``PYTHONPATH=src python tests/test_clans.py``), this module
re-records ``tests/data/census_folded_rank5.json`` from
:func:`reference_enumerate_case_clans`.
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orbitcalc.clans import (
    CASES,
    DESK_RANKS,
    MINUS,
    PLUS,
    CaseId,
    Clan,
    ClanError,
    RankTable,
    _has_self_mirror_pair,
    enumerate_case_clans,
    enumerate_clans,
    in_case_family,
    leq,
    make_clan,
    parse_clan,
    rank_table,
)
from orbitcalc.orbits import full_closure_order, weak_order_graph
from orbitcalc.poly import Ring
from reference import (cases_up_to_rank, clan_from_mates, clan_from_rank_table,
                       clan_in_case_family, clan_is_skew_symmetric, clan_is_symmetric,
                       clan_symbols, counting_rank_table, covering_moves, covering_successors,
                       has_self_mirror_pair, is_skew_symmetric, is_symmetric,
                       label_enumerate_case_clans, label_enumerate_clans,
                       label_has_self_mirror_pair, label_in_case_family,
                       label_is_skew_symmetric, label_is_symmetric, label_pairs, mate_code,
                       symbols_sort_key, symbols_text)

DATA = Path(__file__).parent / "data"
CENSUS_RANK5 = DATA / "census_folded_rank5.json"


# ---------------------------------------------------------------------------
# Parsing, canonical form, equality
# ---------------------------------------------------------------------------


def test_parse_and_canonical_equality():
    assert parse_clan("1212", 2, 2) == parse_clan("2121", 2, 2) == parse_clan("5757", 2, 2)
    assert parse_clan("1221", 2, 2) != parse_clan("1212", 2, 2)
    assert parse_clan("2121", 2, 2).to_text() == "1212"


def test_parse_bracketed_labels():
    text = "(10)+(10)-"
    c = parse_clan(text, 2, 2)
    assert c.to_text() == "1+1-"
    big = make_clan(list(range(100, 112)) + list(range(100, 112)), 12, 12)
    assert "(10)" in big.to_text() and "(11)" in big.to_text()
    assert parse_clan(big.to_text(), 12, 12) == big


def test_parse_accepts_any_two_occurrence_labels():
    # distinct numerals may label pairs in any order
    assert parse_clan("11+", 2, 1) == make_clan([7, 7, "+"], 2, 1)


def test_parse_errors():
    with pytest.raises(ClanError):
        parse_clan("1+", 1, 1)  # pair label occurs once
    with pytest.raises(ClanError):
        parse_clan("111+", 2, 2)  # three occurrences
    with pytest.raises(ClanError):
        parse_clan("++-", 1, 1)  # wrong length
    with pytest.raises(ClanError):
        parse_clan("++--", 3, 1)  # sign counts off
    with pytest.raises(ClanError):
        parse_clan("+*-", 2, 1)  # bad token


def test_unicode_minus_accepted():
    assert parse_clan("+−", 1, 1) == parse_clan("+-", 1, 1)


# ---------------------------------------------------------------------------
# Record semantics of the value classes
# ---------------------------------------------------------------------------


def test_equal_records_hash_equal():
    pairs = [
        (parse_clan("1+1", 2, 1), make_clan(["x", "+", "x"], 2, 1)),
        (rank_table(parse_clan("1212", 2, 2)), rank_table(parse_clan("2121", 2, 2))),
        (CaseId("b-so", 2, 1), CaseId(tag="b-so", p=2, q=1)),
        (Ring(2, 3), Ring(nx=2, ny=3, nz=0)),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
    assert parse_clan("1+1", 2, 1) != parse_clan("+11", 2, 1)
    assert CaseId("b-so", 2, 1) != CaseId("c-spxsp", 2, 1)
    assert Ring(2, 2) == Ring(nx=2, ny=2, nz=0) != Ring(2, 2, 1)
    assert Ring(2, 2).names == ("x1", "x2", "y1", "y2")


def test_records_are_immutable():
    for record, name in [(parse_clan("1+1", 2, 1), "p"), (CaseId("a", 1, 1), "tag"),
                         (rank_table(parse_clan("+-", 1, 1)), "plus"), (Ring(1, 1), "nz")]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.other = 0


@pytest.mark.parametrize("build", [
    lambda: CaseId("a", 1),  # missing
    lambda: CaseId("a", 1, 1, 1),  # one too many
    lambda: CaseId("a", 1, 1, r=1),  # unknown
    lambda: CaseId("a", 1, q=1, p=1),  # given twice
    lambda: Ring(1),
    lambda: Ring(1, 1, nw=0),
    lambda: RankTable((), ()),
    lambda: Clan((PLUS,), 1),
    lambda: Clan((PLUS,), 1, 0, r=1),
])
def test_missing_or_unknown_field_is_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_case_id_equality_ignores_derived_fields():
    a, b = CaseId("d-oxo-odd", 1, 2), CaseId("d-oxo-odd", 1, 2)
    assert a.row is b.row and a.ambient_shape == (3, 3) and a.grank == 3
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "CaseId(tag='d-oxo-odd', p=1, q=2)"
    assert CaseId("a", 2, 1) != CaseId("a", 1, 2)


def test_orbit_poset_equality_is_identity():
    case = CaseId("a", 1, 1)
    a, b = weak_order_graph(case), weak_order_graph(case)
    assert a.nodes == b.nodes and a.weak_edges == b.weak_edges
    assert a == a and a != b and hash(a) != hash(b)
    full = full_closure_order(a)
    assert full != a and full.weak_edges is a.weak_edges and a.full_order is None


def test_clan_repr():
    assert repr(parse_clan("1+1", 2, 1)) == "Clan(mates=(2, '+', 0), p=2, q=1)"
    assert repr(rank_table(parse_clan("+-", 1, 1))) == (
        "RankTable(plus=(1, 1), minus=(0, 1), cross=((0,),))")


# ---------------------------------------------------------------------------
# Rank tables
# ---------------------------------------------------------------------------


def cross_rank(t: RankTable, i: int, j: int) -> int:
    """The crossing rank at 1 <= i < j <= n."""
    return t.cross[i - 1][j - i - 1]


def test_rank_table_basic_example():
    t = rank_table(parse_clan("1+1-", 2, 2))
    assert t.plus == (0, 1, 2, 2)
    assert t.minus == (0, 0, 1, 2)
    assert cross_rank(t, 1, 2) == 1
    assert all(
        cross_rank(t, i, j) == 0 for i in range(1, 4) for j in range(i + 1, 5) if (i, j) != (1, 2)
    )


def test_rank_table_crossing_example():
    t = rank_table(parse_clan("1221", 2, 2))
    assert cross_rank(t, 1, 2) == 1 and cross_rank(t, 1, 3) == 1 and cross_rank(t, 2, 3) == 1


def test_rank_table_matches_counting_reference():
    # every clan with p, q <= 4: 4,824 clans
    clans = [c for p in range(5) for q in range(5) if p + q
             for c in enumerate_clans(p, q)]
    assert len(clans) == 4824
    for c in clans:
        assert rank_table(c) == counting_rank_table(c), c.to_text()


def test_reconstruction_worked_example():
    vals = {(1, 2): 1, (1, 3): 1, (2, 3): 1}
    cross = tuple(tuple(vals.get((i, j), 0) for j in range(i + 1, 7)) for i in range(1, 6))
    t = RankTable((0, 0, 1, 2, 2, 3), (0, 0, 1, 2, 2, 3), cross)
    assert clan_from_rank_table(t).to_text() == "122133"


def test_reconstruction_round_trip_all_small_shapes():
    for p in range(0, 8):
        for q in range(0, 8 - p):
            if p + q < 1 or p + q > 7:
                continue
            for c in enumerate_clans(p, q):
                assert clan_from_rank_table(rank_table(c)) == c


def test_reconstruction_rejects_bogus_table():
    t = rank_table(parse_clan("1212", 2, 2))
    bad = RankTable(t.plus, t.minus, tuple(tuple(2 for _ in row) for row in t.cross))
    with pytest.raises(ClanError):
        clan_from_rank_table(bad)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_enumerate_1_1():
    assert [c.to_text() for c in enumerate_clans(1, 1)] == ["+-", "-+", "11"]


def test_enumerate_counts():
    assert len(enumerate_clans(2, 2)) == 21
    assert len(enumerate_clans(3, 3)) == 215
    assert len(enumerate_clans(2, 4)) == 120
    assert len(enumerate_clans(3, 0)) == 1


def test_census_2_2_matches_fixture():
    expected = set(json.loads((DATA / "census_2_2.json").read_text()))
    got = {c.to_text() for c in enumerate_clans(2, 2)}
    assert got == expected and len(expected) == 21


def test_enumeration_sorted_and_unique():
    cs = enumerate_clans(2, 3)
    keys = [symbols_sort_key(clan_symbols(c)) for c in cs]
    assert keys == sorted(keys)
    assert len(set(cs)) == len(cs)


# ---------------------------------------------------------------------------
# Symmetry predicates and case families
# ---------------------------------------------------------------------------


def test_symmetry_examples():
    assert is_symmetric(parse_clan("1221", 2, 2))
    assert is_symmetric(parse_clan("1212", 2, 2))
    assert is_skew_symmetric(parse_clan("1212", 2, 2))
    assert is_symmetric(parse_clan("+11-22+", 4, 3))
    assert not is_symmetric(parse_clan("+-", 1, 1))
    assert is_skew_symmetric(parse_clan("+-", 1, 1))
    assert not is_skew_symmetric(parse_clan("+--+", 2, 2))


def test_symbol_level_symmetry_matches_reversed_and_negated_clans():
    # the checks read mate codes; the reference builds the reversed and the
    # negated clan and compares clans
    seen = {True: 0, False: 0}
    for n in range(1, 8):
        for p in range(n + 1):
            for c in enumerate_clans(p, n - p):
                assert is_symmetric(c) == clan_is_symmetric(c), c.to_text()
                assert is_skew_symmetric(c) == clan_is_skew_symmetric(c), c.to_text()
                seen[is_symmetric(c)] += 1
                seen[is_skew_symmetric(c)] += 1
    assert min(seen.values()) > 100


def test_symmetric_odd_length_has_middle_sign():
    for c in enumerate_clans(2, 3):
        if is_symmetric(c):
            assert c.mates[2] in ("+", "-")


def test_case_family_counts():
    assert len(enumerate_case_clans(CaseId("b-so", 2, 1))) == 25
    assert len(enumerate_case_clans(CaseId("c-spxsp", 2, 1))) == 9
    assert len(enumerate_case_clans(CaseId("c-sp-gl", 2, 2))) == 11
    assert len(enumerate_case_clans(CaseId("d-oxo-even", 2, 1))) == 12
    assert len(enumerate_case_clans(CaseId("d-so-gl", 3, 3))) == 10
    assert len(enumerate_case_clans(CaseId("d-oxo-odd", 1, 2))) == 13


def test_case_family_membership_details():
    case3 = CaseId("c-spxsp", 2, 1)
    assert not in_case_family(case3, parse_clan("+1221+", 4, 2))  # self-mirror pair
    assert in_case_family(CaseId("d-oxo-even", 2, 1), parse_clan("+1221+", 4, 2))
    case6 = CaseId("d-so-gl", 3, 3)
    assert in_case_family(case6, parse_clan("12+-12", 3, 3))
    assert not in_case_family(case6, parse_clan("123321", 3, 3))  # self-mirror pairs
    case7 = CaseId("d-oxo-odd", 1, 2)
    assert in_case_family(case7, parse_clan("+-11-+", 3, 3))


def test_d_so_gl_family_has_even_middle_minus_rank():
    for n in (2, 3, 4):
        case = CaseId("d-so-gl", n, n)
        for c in enumerate_clans(n, n):
            if is_skew_symmetric(c) and not any(a + b == 2 * n + 1 for a, b in c.pairs()):
                assert in_case_family(case, c) == (rank_table(c).minus[n - 1] % 2 == 0)


def test_case_id_validation():
    with pytest.raises(ClanError):
        CaseId("c-sp-gl", 2, 3)
    with pytest.raises(ClanError):
        CaseId("nope", 1, 1)
    with pytest.raises(ClanError):
        CaseId("d-oxo-odd", 1, 0)
    with pytest.raises(ClanError, match="n >= 2"):
        CaseId("d-so-gl", 1, 1)


# ---------------------------------------------------------------------------
# Direct enumeration of the folded families against the type-A filter
# ---------------------------------------------------------------------------


def reference_enumerate_case_clans(case):
    """The case's family as a filter over every type-A clan of its shape:
    the definition :func:`enumerate_case_clans` must reproduce, in order."""
    P, Q = case.ambient_shape
    return tuple(c for c in enumerate_clans(P, Q) if in_case_family(case, c))


RANK4_CASES = cases_up_to_rank(4)


def folded_rank5_cases():
    return [case for case in cases_up_to_rank(5)
            if case.grank == 5 and case.row.symmetry != "none"]


def census_entry(case, clans):
    """Count and SHA-256 of the newline-joined clan texts of one case."""
    text = "\n".join(c.to_text() for c in clans)
    return {"tag": case.tag, "p": case.p, "q": case.q, "count": len(clans),
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def test_rank4_cases_cover_every_tag():
    assert {case.tag for case in RANK4_CASES} == set(CASES)
    assert len(RANK4_CASES) == 45


@pytest.mark.parametrize("case", RANK4_CASES, ids=lambda c: f"{c.tag}-{c.p}-{c.q}")
def test_enumerate_case_clans_matches_reference(case):
    assert enumerate_case_clans(case) == reference_enumerate_case_clans(case)


def test_folded_rank5_census_matches_fixture():
    recorded = json.loads(CENSUS_RANK5.read_text(encoding="utf-8"))
    got = [census_entry(case, enumerate_case_clans(case)) for case in folded_rank5_cases()]
    assert len(got) == 18
    assert got == recorded


# ---------------------------------------------------------------------------
# Mate codes against the labelled-symbol reference
# ---------------------------------------------------------------------------

# every case of every family with at most twelve positions; type A stops at
# ten, as a(6,6) alone has 845,691 clans
CODE_CASES = tuple(case for case in cases_up_to_rank(12)
                   if case.ambient_len <= (10 if case.row.symmetry == "none" else 12))


def test_code_cases_cover_every_family():
    assert {case.tag for case in CODE_CASES} == set(CASES)
    assert sum(case.row.symmetry != "none" for case in CODE_CASES) == 66
    assert max(case.ambient_len for case in CODE_CASES) == 12


@pytest.mark.parametrize("case", CODE_CASES, ids=lambda c: f"{c.tag}-{c.p}-{c.q}")
def test_enumeration_matches_the_label_reference(case):
    # the codes filled directly, in order, against canonical labelled
    # symbols enumerated, relabelled and sorted as strings
    clans = enumerate_case_clans(case)
    ref = label_enumerate_case_clans(case)
    assert [clan_symbols(c) for c in clans] == ref
    assert [c.mates for c in clans] == [mate_code(s) for s in ref]
    assert [c.to_text() for c in clans] == [symbols_text(s) for s in ref]


def test_enumeration_reads_no_sort_key(monkeypatch):
    # the walk fills codes in canonical-string order, so no sort by labels may
    # creep back
    def labels(self):
        raise AssertionError(f"enumeration read the labels of {self.mates}")

    monkeypatch.setattr(Clan, "_labels", labels)
    for case in [CaseId(*rank) for rank in DESK_RANKS] + [CaseId("a", 3, 3)]:
        clans = enumerate_case_clans(case)
        assert [clan_symbols(c) for c in clans] == label_enumerate_case_clans(case), case
    assert [clan_symbols(c) for c in enumerate_clans(2, 3)] == label_enumerate_clans(2, 3)


def test_code_predicates_match_the_label_reference():
    # every clan of every shape with at most eight positions, inside and
    # outside each family of that shape
    by_shape: dict = {}
    for case in cases_up_to_rank(8):
        by_shape.setdefault(case.ambient_shape, []).append(case)
    members = {True: 0, False: 0}
    for n in range(1, 9):
        for p in range(n + 1):
            q = n - p
            clans, ref = enumerate_clans(p, q), label_enumerate_clans(p, q)
            assert [clan_symbols(c) for c in clans] == ref
            other_shape = CaseId("a", p + 1, q)
            for c, symbols in zip(clans, ref):
                text = c.to_text()
                assert c.mates == mate_code(symbols) and text == symbols_text(symbols)
                assert c.pairs() == label_pairs(symbols), text
                assert is_symmetric(c) == label_is_symmetric(symbols), text
                assert is_skew_symmetric(c) == label_is_skew_symmetric(symbols, p, q), text
                assert _has_self_mirror_pair(c) == has_self_mirror_pair(c), text
                if label_is_symmetric(symbols) or label_is_skew_symmetric(symbols, p, q):
                    # the labelled test reads a pair symbol at the middle as a pair
                    assert _has_self_mirror_pair(c) == label_has_self_mirror_pair(symbols)
                assert rank_table(c) == counting_rank_table(c), text
                assert not in_case_family(other_shape, c)
                for case in by_shape.get((p, q), ()):
                    member = in_case_family(case, c)
                    assert member == label_in_case_family(case, symbols, p, q), (case, text)
                    assert member == clan_in_case_family(case, c), (case, text)
                    members[member] += 1
    assert min(members.values()) > 10_000


# ---------------------------------------------------------------------------
# Partial order
# ---------------------------------------------------------------------------


def test_leq_examples():
    assert leq(parse_clan("+-", 1, 1), parse_clan("11", 1, 1))
    assert not leq(parse_clan("11", 1, 1), parse_clan("+-", 1, 1))
    a, b = parse_clan("++--", 2, 2), parse_clan("+-+-", 2, 2)
    assert not leq(a, b) and not leq(b, a)
    with pytest.raises(ClanError):
        leq(parse_clan("+-", 1, 1), parse_clan("++--", 2, 2))


def test_below_is_the_entrywise_rank_comparison():
    def entrywise(ta, tb):
        n = ta.n
        return all(
            ta.plus[i - 1] >= tb.plus[i - 1] and ta.minus[i - 1] >= tb.minus[i - 1]
            for i in range(1, n + 1)
        ) and all(
            cross_rank(ta, i, j) <= cross_rank(tb, i, j)
            for i in range(1, n) for j in range(i + 1, n + 1)
        )

    for shape in [(2, 2), (3, 2)]:
        tables = [rank_table(c) for c in enumerate_clans(*shape)]
        for ta in tables:
            for tb in tables:
                assert ta.below(tb) == entrywise(ta, tb)


def test_leq_is_partial_order_2_2():
    cs = enumerate_clans(2, 2)
    for a in cs:
        assert leq(a, a)
    for a, b in itertools.permutations(cs, 2):
        if leq(a, b) and leq(b, a):
            assert a == b
    for a in cs:
        for b in cs:
            if not leq(a, b):
                continue
            for c in cs:
                if leq(b, c):
                    assert leq(a, c)


# ---------------------------------------------------------------------------
# Covering moves
# ---------------------------------------------------------------------------


def _expected_deltas(kind, pos, src):
    """Predicted rank-table deltas for one covering move."""
    n = src.n
    dplus = [0] * (n + 1)
    dminus = [0] * (n + 1)
    dcross = {}

    def add_cross(s_range, t_range, amount=1):
        for s in s_range:
            for t in t_range:
                if s < t:
                    dcross[(s, t)] = dcross.get((s, t), 0) + amount

    if kind == "signs-to-pair":
        a, b = pos
        target = dplus if src.mates[a - 1] == "+" else dminus
        for i in range(a, b):
            target[i] -= 1
        add_cross(range(a, b), range(a + 1, b))
    elif kind in ("pair-plus-right", "pair-minus-right"):
        a, b, k = pos
        target = dminus if kind == "pair-plus-right" else dplus
        for i in range(b, k):
            target[i] -= 1
        add_cross(range(a, k), range(b, k))
    elif kind in ("plus-pair-left", "minus-pair-left"):
        a, b, cpos = pos
        target = dplus if kind == "plus-pair-left" else dminus
        for i in range(a, b):
            target[i] -= 1
        add_cross(range(a, b), range(a + 1, cpos))
    elif kind == "nested-to-crossing":
        a, b, cpos, d = pos
        for i in range(b, cpos):
            dplus[i] -= 1
            dminus[i] -= 1
        add_cross(range(a, b), range(b, cpos))
        add_cross(range(b, cpos), range(cpos, d))
        add_cross(range(b, cpos), range(b + 1, cpos), 2)
    elif kind in ("pairs-to-plusminus", "pairs-to-minusplus"):
        a, b, cpos, d = pos
        target = dminus if kind == "pairs-to-plusminus" else dplus
        for i in range(b, cpos):
            target[i] -= 1
        add_cross(range(a, b), range(b, d))
        add_cross(range(b, cpos), range(b + 1, d))
    elif kind == "crossing-to-nesting":
        a, b, cpos, d = pos
        add_cross(range(a, b), range(cpos, d))
    else:  # pragma: no cover
        raise AssertionError(f"unknown move kind {kind}")
    return dplus, dminus, dcross


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_covering_move_delta_signatures(shape):
    p, q = shape
    for src in enumerate_clans(p, q):
        t0 = rank_table(src)
        for kind, pos, dst in covering_moves(src):
            assert dst != src
            t1 = rank_table(dst)
            dplus, dminus, dcross = _expected_deltas(kind, pos, src)
            n = src.n
            for i in range(1, n + 1):
                assert t1.plus[i - 1] - t0.plus[i - 1] == dplus[i], (str(src), kind, pos, i)
                assert t1.minus[i - 1] - t0.minus[i - 1] == dminus[i], (str(src), kind, pos, i)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    assert cross_rank(t1, i, j) - cross_rank(t0, i, j) == dcross.get((i, j), 0), (
                        str(src), kind, pos, i, j)
            assert leq(src, dst)


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 2)])
def test_covering_closure_equals_rank_order(shape):
    p, q = shape
    cs = enumerate_clans(p, q)
    reach = {c: {c} for c in cs}
    frontier = {c: {c} for c in cs}
    changed = True
    while changed:
        changed = False
        for c in cs:
            new = set()
            for d in frontier[c]:
                for succ in covering_successors(d):
                    if succ not in reach[c]:
                        new.add(succ)
            if new:
                reach[c] |= new
                frontier[c] = new
                changed = True
            else:
                frontier[c] = set()
    for a in cs:
        for b in cs:
            assert (b in reach[a]) == leq(a, b), (str(a), str(b))


def test_sign_clans_are_minimal():
    for c in enumerate_clans(2, 2):
        for _, _, dst in covering_moves(c):
            assert dst.pairs(), "covering moves always produce at least one pair"
    top = parse_clan("1221", 2, 2)
    assert covering_successors(top) == frozenset()


def test_simple_covering_examples():
    assert covering_successors(parse_clan("+-", 1, 1)) == {parse_clan("11", 1, 1)}
    succ = covering_successors(parse_clan("1122", 2, 2))
    assert parse_clan("1212", 2, 2) in succ
    assert parse_clan("1+-1", 2, 2) in succ
    assert parse_clan("1-+1", 2, 2) in succ


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------


@st.composite
def random_clans(draw):
    p = draw(st.integers(min_value=0, max_value=4))
    q = draw(st.integers(min_value=1 if p == 0 else 0, max_value=4))
    n = p + q
    m = draw(st.integers(min_value=0, max_value=min(p, q)))
    positions = list(range(1, n + 1))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**9)))
    rng.shuffle(positions)
    pair_positions, rest = positions[: 2 * m], positions[2 * m:]
    symbols: list = [None] * n
    for label in range(1, m + 1):
        a, b = pair_positions[2 * label - 2], pair_positions[2 * label - 1]
        symbols[a - 1] = label
        symbols[b - 1] = label
    plus_rest = rest[: p - m]
    for pos in rest:
        symbols[pos - 1] = "+" if pos in plus_rest else "-"
    return make_clan(symbols, p, q)


@given(random_clans())
@settings(max_examples=100, deadline=None)
def test_text_round_trip(c):
    assert parse_clan(c.to_text(), c.p, c.q) == c


@given(random_clans(), st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100, deadline=None)
def test_relabeling_invariance(c, seed):
    symbols = clan_symbols(c)
    labels = sorted({s for s in symbols if isinstance(s, int)})
    rng = random.Random(seed)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(labels, shuffled))
    relabeled = make_clan(
        [mapping.get(s, s) if isinstance(s, int) else s for s in symbols], c.p, c.q
    )
    assert relabeled == c
    assert is_symmetric(relabeled) == is_symmetric(c)
    assert is_skew_symmetric(relabeled) == is_skew_symmetric(c)
    assert rank_table(relabeled) == rank_table(c)


# any hashable pair label but the two signs
LABELS = st.one_of(
    st.integers(),
    st.text(min_size=1).filter(lambda t: t not in (PLUS, MINUS)),
    st.tuples(st.integers(), st.booleans()),
    st.frozensets(st.integers(), max_size=2),
)


@st.composite
def labelled_symbols(draw):
    """Symbols of a clan with at most twelve positions, its pairs under
    distinct hashable labels in any order, with the clan's shape."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.integers(0, n // 2))
    labels = draw(st.lists(LABELS, min_size=pairs, max_size=pairs, unique=True))
    signs = draw(st.lists(st.sampled_from((PLUS, MINUS)), min_size=n - 2 * pairs,
                          max_size=n - 2 * pairs))
    symbols = draw(st.permutations(signs + labels + labels))
    plus = signs.count(PLUS)
    return symbols, plus + pairs, len(signs) - plus + pairs


@given(labelled_symbols(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_labelled_input_round_trip(drawn, rng):
    symbols, p, q = drawn
    c = make_clan(symbols, p, q)
    assert c.mates == mate_code(symbols) and clan_from_mates(c.mates, p, q) == c
    back = parse_clan(c.to_text(), p, q)
    assert back == c and hash(back) == hash(c) and back.mates == c.mates
    labels = list(dict.fromkeys(s for s in symbols if s not in (PLUS, MINUS)))
    for new in (rng.sample(labels, len(labels)), [f"pair {k}" for k in range(len(labels))]):
        relabel = dict(zip(labels, new))
        other = make_clan([relabel.get(s, s) for s in symbols], p, q)
        assert other == c and hash(other) == hash(c) and other.to_text() == c.to_text()


@given(random_clans())
@settings(max_examples=100, deadline=None)
def test_rank_table_round_trip_property(c):
    assert clan_from_rank_table(rank_table(c)) == c


if __name__ == "__main__":
    entries = [census_entry(case, reference_enumerate_case_clans(case))
               for case in folded_rank5_cases()]
    lines = ",\n".join(json.dumps(e, sort_keys=True) for e in entries)
    CENSUS_RANK5.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
