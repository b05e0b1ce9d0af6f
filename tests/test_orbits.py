"""Tests for weak-order moves, cross action, closure orders, and exports.

Run as a script (``PYTHONPATH=src python tests/test_orbits.py``), this module
re-records ``tests/data/atlas_rank5.json`` from the set-based reference
:func:`set_check_conjecture`.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcalc import cli, orbits
from orbitcalc.clans import (CASES, DESK_RANKS, CaseId, Clan, case_from_params,
                             enumerate_case_clans, in_case_family, leq)
from orbitcalc.cmd_chern import make_clan, parse_clan
from orbitcalc.cmd_poset import poset_json_text, poset_to_dot, poset_to_json
from orbitcalc.orbits import (
    OrbitError,
    check_conjecture,
    full_closure_order,
    simple_root_indices,
    weak_move,
    weak_order_graph,
)
from reference import (ambient_source, canonical, cases_up_to_rank, clan_from_mates,
                       clan_symbols, clan_weak_order_graph, closed_clans, cross_action,
                       cross_action_simple, set_check_conjecture, set_full_closure_order,
                       symbols_sort_key, weyl_compose)

ROOT = Path(__file__).parent.parent
ATLAS_RANK5 = ROOT / "tests" / "data" / "atlas_rank5.json"
ATLAS_D_OXO = ROOT / "tests" / "data" / "atlas_rank5_d_oxo.json"
SWEEP = ROOT / "scripts" / "conjecture_sweep.py"
STAGE_TIMES = ROOT / "scripts" / "stage_times.py"
ATLAS_FAMILIES = ("b-so", "c-spxsp", "c-sp-gl", "d-so-gl")

A22 = case_from_params("a", 2, 2)
A32 = case_from_params("a", 3, 2)
B21 = case_from_params("b-so", 2, 1)
C3_21 = case_from_params("c-spxsp", 2, 1)
C4_2 = case_from_params("c-sp-gl", 2, 2)
D5_21 = case_from_params("d-oxo-even", 2, 1)
D6_3 = case_from_params("d-so-gl", 3, 3)
D7_12 = case_from_params("d-oxo-odd", 1, 2)

DESK_CASES = (A22, B21, C3_21, C4_2, D5_21, D6_3, D7_12)


def pc(case: CaseId, text: str):
    P, Q = case.ambient_shape
    return parse_clan(text, P, Q)


def move(case: CaseId, c: Clan, i: int) -> Clan:
    """The clan of :func:`weak_move`'s image of ``c`` along root i, which
    may leave the case's family; ``c`` itself when no window fires."""
    m = c.mates
    image = weak_move(m, *orbits.move_schedules(case)[i])
    return c if image is m else clan_from_mates(image, c.p, c.q)


def graph_move(case: CaseId, c: Clan, i: int) -> Clan:
    """The target of the graph's edge out of ``c`` along root i; ``c``
    itself when the graph has none."""
    targets = [dst for src, dst, root, _ in weak_order_graph(case).weak_edges
               if src == c and root == i]
    assert len(targets) <= 1
    return targets[0] if targets else c


# ---------------------------------------------------------------------------
# weak_move
# ---------------------------------------------------------------------------


class TestWeakMove:
    def test_two_pairs_swap(self):
        assert move(A32, pc(A32, "112+2"), 2) == pc(A32, "121+2")

    def test_opposite_signs_become_pair(self):
        assert move(A32, pc(A32, "1+-1+"), 2) == pc(A32, "1221+")

    def test_pair_opening_left_does_not_move(self):
        c = pc(A32, "1+122")
        assert move(A32, c, 2) is c

    def test_equal_signs_do_not_move(self):
        c = pc(A22, "++--")
        assert move(A22, c, 1) is c

    def test_mirrored_windows_fire_together(self):
        # both windows of root 2 create pairs
        assert move(C3_21, pc(C3_21, "++--++"), 2) == pc(C3_21, "+1122+")

    def test_family_escape_returns_input(self):
        # the swap creates a self-mirror pair, which this family forbids: the
        # image is no node's code, so the graph has no edge
        c = pc(C3_21, "12++12")
        assert move(C3_21, c, 1) == pc(C3_21, "12++21")
        assert not in_case_family(C3_21, move(C3_21, c, 1))
        assert graph_move(C3_21, c, 1) == c

    def test_escape_second_example(self):
        c = pc(C3_21, "+1212+")
        assert move(C3_21, c, 2) == pc(C3_21, "+1221+")
        assert not in_case_family(C3_21, move(C3_21, c, 2))
        assert graph_move(C3_21, c, 2) == c

    def test_same_swap_is_legal_when_family_allows(self):
        assert move(D5_21, pc(D5_21, "+1212+"), 2) == pc(D5_21, "+1221+")
        assert graph_move(D5_21, pc(D5_21, "+1212+"), 2) == pc(D5_21, "+1221+")

    def test_b_middle_sign_rule(self):
        # opposite middle sign: ends pair up and the middle flips
        assert move(B21, pc(B21, "+-+-+-+"), 3) == pc(B21, "+-1+1-+")

    def test_b_middle_sign_rule_idle(self):
        c = pc(B21, "++---++")
        assert move(B21, c, 3) is c

    def test_b_middle_braid(self):
        assert move(B21, pc(B21, "122+331"), 3) == pc(B21, "123+231")

    def test_d_branch_root(self):
        assert move(D7_12, pc(D7_12, "122331"), 3) == pc(D7_12, "123321")

    @pytest.mark.parametrize("case", DESK_CASES, ids=lambda c: c.tag)
    def test_graph_stays_in_the_family(self, case):
        # weak_move trusts its input; the graph only ever hands it family clans
        g = weak_order_graph(case)
        assert all(in_case_family(case, c) for c in g.nodes)
        assert all(in_case_family(case, dst) for _, dst, _, _ in g.weak_edges)

    def test_out_of_family_clan_rejected_at_the_cli(self, capsys):
        # a mirror clan with a self-mirror pair, which type C bars
        assert not in_case_family(C3_21, pc(C3_21, "+1221+"))
        code = cli.main(["chern", "--case", "c-spxsp", "--p", "2", "--q", "1",
                         "--clan=+1221+"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "+1221+" in captured.err

    def test_root_out_of_range(self):
        # a schedule exists for each simple root and no other
        for case in (A22, B21):
            schedules = orbits.move_schedules(case)
            assert 4 not in schedules
            assert list(schedules) == list(simple_root_indices(case))

    @pytest.mark.parametrize("case", DESK_CASES, ids=lambda c: c.tag)
    def test_idempotent(self, case):
        schedules = orbits.move_schedules(case)
        for c in weak_order_graph(case).nodes:
            for i, schedule in schedules.items():
                once = weak_move(c.mates, *schedule)
                assert weak_move(once, *schedule) is once
                once = graph_move(case, c, i)
                assert graph_move(case, once, i) == once


# ---------------------------------------------------------------------------
# cross_action
# ---------------------------------------------------------------------------


class TestCrossAction:
    def test_transposition_on_signs(self):
        assert cross_action(A22, pc(A22, "+-11"), (2, 1, 3, 4)) == pc(A22, "-+11")

    def test_simple_reflection_on_mixed(self):
        assert cross_action_simple(A22, pc(A22, "1+-1"), 2) == pc(A22, "1-+1")

    def test_moves_both_ends_of_pairs(self):
        # the folded reflection permutes mirrored positions simultaneously
        assert cross_action_simple(C4_2, pc(C4_2, "+-+-"), 1) == pc(C4_2, "-+-+")

    def test_fixes_symmetric_crossing(self):
        c = pc(D7_12, "123312")
        assert cross_action_simple(D7_12, c, 1) == c

    def test_preserves_family(self):
        from orbitcalc.clans import in_case_family
        from orbitcalc.weyl import weyl_elements

        for case in (B21, C3_21, C4_2, D5_21, D6_3, D7_12):
            nodes = enumerate_case_clans(case)
            for w in weyl_elements(case.family, case.grank):
                for c in nodes[:3]:
                    assert in_case_family(case, cross_action(case, c, w))

    def test_group_action_composition(self):
        from orbitcalc.weyl import weyl_elements

        elems = weyl_elements("D", 3)[:12]
        c = pc(D5_21, "1+12+2")
        for u in elems:
            for w in elems:
                lhs = cross_action(D5_21, cross_action(D5_21, c, w), u)
                rhs = cross_action(D5_21, c, weyl_compose(u, w))
                assert lhs == rhs


# ---------------------------------------------------------------------------
# edge degrees
# ---------------------------------------------------------------------------


def edge_degree(case: CaseId, text: str, root: int) -> int:
    src = pc(case, text)
    (deg,) = [d for s, _, i, d in weak_order_graph(case).weak_edges
              if s == src and i == root]
    return deg


class TestEdgeDegree:
    def test_degree_two_when_cross_action_fixes(self):
        assert cross_action_simple(C4_2, pc(C4_2, "1212"), 1) == pc(C4_2, "1212")
        assert edge_degree(C4_2, "1212", 1) == 2

    def test_degree_one_when_cross_action_moves(self):
        assert cross_action_simple(C4_2, pc(C4_2, "+-+-"), 1) != pc(C4_2, "+-+-")
        assert edge_degree(C4_2, "+-+-", 1) == 1

    def test_braid_edge_degree_one(self):
        assert edge_degree(B21, "122+331", 3) == 1

    def test_branch_edge_degree_two(self):
        assert edge_degree(D7_12, "122331", 3) == 2

    def test_type_a_has_no_degree_two_edges(self):
        for p, q in [(1, 1), (2, 2), (3, 2)]:
            g = weak_order_graph(case_from_params("a", p, q))
            assert all(deg == 1 for *_, deg in g.weak_edges)

    def test_blue_edges_symplectic_gl(self):
        g = weak_order_graph(C4_2)
        blue = [(s.to_text(), i, d.to_text()) for s, d, i, deg in g.weak_edges if deg == 2]
        assert blue == [("1212", 1, "1221")]

    def test_blue_edges_even_orthogonal_pair(self):
        g = weak_order_graph(D5_21)
        blue = sorted((s.to_text(), i, d.to_text()) for s, d, i, deg in g.weak_edges if deg == 2)
        assert blue == [
            ("+1122+", 3, "+1221+"),
            ("+1212+", 2, "+1221+"),
            ("12++12", 1, "12++21"),
        ]

    def test_blue_edges_odd_orthogonal_pair(self):
        g = weak_order_graph(D7_12)
        blue = sorted((s.to_text(), i, d.to_text()) for s, d, i, deg in g.weak_edges if deg == 2)
        assert blue == [
            ("122331", 3, "123321"),
            ("123231", 2, "123321"),
            ("123312", 1, "123321"),
        ]

    def test_blue_edges_odd_special_orthogonal(self):
        g = weak_order_graph(B21)
        blue = sorted((s.to_text(), i, d.to_text()) for s, d, i, deg in g.weak_edges if deg == 2)
        assert ("+12-12+", 2, "+12-21+") in blue
        assert ("+-+-+-+", 3, "+-1+1-+") in blue
        assert len(blue) == 11


# ---------------------------------------------------------------------------
# weak order graph
# ---------------------------------------------------------------------------


EXPECTED_SIZES = {
    "a": 21,
    "b-so": 25,
    "c-spxsp": 9,
    "c-sp-gl": 11,
    "d-oxo-even": 12,
    "d-so-gl": 10,
    "d-oxo-odd": 13,
}

EXPECTED_TOPS = {
    "a": "1221",
    "b-so": "123+321",
    "c-spxsp": "12++12",
    "c-sp-gl": "1221",
    "d-oxo-even": "12++21",
    "d-so-gl": "12+-12",
    "d-oxo-odd": "123321",
}


STRETCH_RANKS = {
    "a": [(1, 4), (2, 3), (3, 3)],
    "b-so": [(2, 2), (3, 1)],
    "c-spxsp": [(2, 2)],
    "c-sp-gl": [(3, 3), (4, 4)],
    "d-oxo-even": [(2, 2)],
    "d-so-gl": [(4, 4)],
    "d-oxo-odd": [(2, 2), (1, 3), (3, 1)],
}


class TestWeakOrderGraph:
    @pytest.mark.parametrize("case", DESK_CASES, ids=lambda c: c.tag)
    def test_node_count_and_top(self, case):
        g = weak_order_graph(case)
        assert len(g.nodes) == EXPECTED_SIZES[case.tag]
        assert g.top.to_text() == EXPECTED_TOPS[case.tag]

    def test_type_a_minima_are_sign_clans(self):
        g = weak_order_graph(A22)
        minima = sorted(c.to_text() for c in g.minima())
        assert minima == ["++--", "+-+-", "+--+", "-++-", "-+-+", "--++"]

    def test_symplectic_gl_minima(self):
        g = weak_order_graph(C4_2)
        assert sorted(c.to_text() for c in g.minima()) == [
            "++--", "+-+-", "-+-+", "--++",
        ]

    @pytest.mark.parametrize("case", DESK_CASES, ids=lambda c: c.tag)
    def test_minima_are_the_closed_orbits(self, case):
        # localization reads the closed orbits off the minima, in this order
        for p, q in [(case.p, case.q), *STRETCH_RANKS[case.tag]]:
            other = case_from_params(case.tag, p, q)
            assert weak_order_graph(other).minima() == tuple(closed_clans(other))

    @pytest.mark.parametrize("case", DESK_CASES, ids=lambda c: c.tag)
    def test_graded_by_longest_path(self, case):
        g = weak_order_graph(case)
        for src, dst, _, _ in g.weak_edges:
            assert g.ranks[dst] == g.ranks[src] + 1
        assert g.ranks[g.top] == g.max_rank
        assert all(g.ranks[c] == 0 for c in g.minima())

    @pytest.mark.parametrize("case", DESK_CASES, ids=lambda c: c.tag)
    def test_edges_respect_rank_number_order(self, case):
        g = weak_order_graph(case)
        for src, dst, _, _ in g.weak_edges:
            assert leq(src, dst)
            assert src != dst

    def test_successors_and_predecessors(self):
        g = weak_order_graph(C4_2)
        top = pc(C4_2, "1221")
        assert [e for e in g.weak_edges if e[0] == top] == []
        preds = {(root, src.to_text()) for src, dst, root, _ in g.weak_edges
                 if dst == top}
        assert preds == {(1, "1212"), (2, "1+-1"), (2, "1-+1")}
        assert move(C4_2, top, 1) is top

    @staticmethod
    def fake_moves(monkeypatch, case, moves):
        """Make weak_move follow {(clan, root): clan} on mate codes; other
        moves fix."""
        root = {schedule: i for i, schedule in orbits.move_schedules(case).items()}
        table = {(pc(case, a).mates, i): pc(case, b).mates for (a, i), b in moves.items()}
        monkeypatch.setattr(orbits, "weak_move",
                            lambda m, windows, tau: table.get((m, root[windows, tau]), m))

    def test_cycle_is_an_error(self, monkeypatch):
        case = case_from_params("a", 1, 1)
        self.fake_moves(monkeypatch, case, {("+-", 1): "-+", ("-+", 1): "+-"})
        message = r"weak-order moves produced a cycle: \+- cannot be ranked"
        with pytest.raises(OrbitError, match=message):
            weak_order_graph(case)

    def test_several_tops_are_an_error(self, monkeypatch):
        case = case_from_params("a", 1, 1)
        self.fake_moves(monkeypatch, case, {})
        with pytest.raises(OrbitError, match="expected a unique dense clan, found 3"):
            weak_order_graph(case)

    def test_ungraded_edge_is_an_error(self, monkeypatch):
        case = case_from_params("a", 2, 1)
        moves = {("++-", 1): "+-+", ("+-+", 1): "11+", ("++-", 2): "11+"}
        moves.update({(c, 1): "11+" for c in ("-++", "1+1", "+11")})
        self.fake_moves(monkeypatch, case, moves)
        message = r"weak edge \+\+- -> 11\+ \(root 2\) is not graded"
        with pytest.raises(OrbitError, match=message):
            weak_order_graph(case)


# ---------------------------------------------------------------------------
# full closure order
# ---------------------------------------------------------------------------


class TestFullClosureOrder:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (1, 3), (3, 2)])
    def test_type_a_matches_rank_number_order(self, shape):
        case = case_from_params("a", *shape)
        poset = full_closure_order(weak_order_graph(case))
        for x in poset.nodes:
            for y in poset.nodes:
                assert (x in poset.full_order[y]) == leq(x, y)

    def test_smallest_type_a_example(self):
        case = case_from_params("a", 1, 1)
        poset = full_closure_order(weak_order_graph(case))
        top = pc(case, "11")
        assert pc(case, "+-") in poset.full_order[top]
        assert pc(case, "-+") in poset.full_order[top]
        assert top not in poset.full_order[pc(case, "+-")]

    def test_crossing_below_nesting(self):
        poset = full_closure_order(weak_order_graph(A22))
        assert pc(A22, "1212") in poset.full_order[pc(A22, "1221")]

    @pytest.mark.parametrize("case", DESK_CASES, ids=lambda c: c.tag)
    def test_contains_weak_order_and_refines_rank_order(self, case):
        poset = full_closure_order(weak_order_graph(case))
        for src, dst, _, _ in poset.weak_edges:
            assert src in poset.full_order[dst]
        for b in poset.nodes:
            for a in poset.full_order[b]:
                assert leq(a, b)

    @pytest.mark.parametrize("case", DESK_CASES, ids=lambda c: c.tag)
    def test_dense_clan_is_unique_maximum(self, case):
        poset = full_closure_order(weak_order_graph(case))
        assert poset.full_order[poset.top] == frozenset(poset.nodes)

    def test_reuses_precomputed_graph(self):
        g = weak_order_graph(C4_2)
        poset = full_closure_order(g)
        assert poset.nodes == g.nodes
        assert poset.full_order is not None
        assert g.full_order is None

    def test_down_sets_become_sets_only_when_read(self):
        poset = full_closure_order(weak_order_graph(A22))
        check_conjecture(poset)
        assert "full_order" not in vars(poset)
        assert poset.full_order is poset.full_order
        assert poset.full_order[poset.top] == frozenset(poset.nodes)


# ---------------------------------------------------------------------------
# conjecture comparison
# ---------------------------------------------------------------------------


class TestOrderComparison:
    @pytest.mark.parametrize(
        "tag,shape",
        [
            ("b-so", (1, 1)), ("b-so", (2, 1)), ("b-so", (1, 2)), ("b-so", (2, 2)),
            ("c-spxsp", (1, 1)), ("c-spxsp", (2, 1)), ("c-spxsp", (2, 2)),
            ("c-sp-gl", (1, 1)), ("c-sp-gl", (2, 2)), ("c-sp-gl", (3, 3)),
        ],
    )
    def test_coincidence_families(self, tag, shape):
        rep = check_conjecture(weak_order_graph(case_from_params(tag, *shape)))
        assert rep.coincides
        assert rep.witnesses == ()

    def test_even_orthogonal_pair_witness_at_rank_four(self):
        case = case_from_params("d-oxo-even", 2, 2)
        rep = check_conjecture(weak_order_graph(case))
        assert not rep.coincides
        assert (pc(case, "+-1122-+"), pc(case, "+-1212-+")) in rep.witnesses

    def test_orthogonal_gl_witnesses_at_rank_four(self):
        case = case_from_params("d-so-gl", 4, 4)
        rep = check_conjecture(weak_order_graph(case))
        assert not rep.coincides
        assert (pc(case, "1+-12+-2"), pc(case, "12341234")) in rep.witnesses
        assert len(rep.witnesses) == 3

    def test_odd_orthogonal_pair_witness_at_rank_four(self):
        case = case_from_params("d-oxo-odd", 2, 2)
        rep = check_conjecture(weak_order_graph(case))
        assert not rep.coincides
        assert (pc(case, "+121323+"), pc(case, "+123123+")) in rep.witnesses

    def test_orthogonal_gl_coincides_at_rank_three(self):
        rep = check_conjecture(weak_order_graph(D6_3))
        assert rep.coincides

    def test_orthogonal_pairs_already_strict_at_desk_rank(self):
        # two orbits of equal weak rank can still be comparable for rank
        # numbers, so the induced order is strictly coarser here
        rep5 = check_conjecture(weak_order_graph(D5_21))
        assert [(a.to_text(), b.to_text()) for a, b in rep5.witnesses] == [
            ("+1122+", "+1212+"),
            ("+1122+", "1+21+2"),
            ("1+12+2", "1+21+2"),
        ]
        g = weak_order_graph(D5_21)
        assert g.ranks[pc(D5_21, "+1122+")] == g.ranks[pc(D5_21, "+1212+")]
        rep7 = check_conjecture(weak_order_graph(D7_12))
        assert [(a.to_text(), b.to_text()) for a, b in rep7.witnesses] == [
            ("121323", "123123"),
            ("121323", "123231"),
            ("122331", "123231"),
        ]


# ---------------------------------------------------------------------------
# bitset saturation and comparison: the set-based reference, the frozen
# rank-5 atlas, and the saturation checks on doctored graphs
# ---------------------------------------------------------------------------


def shapes_up_to(tag: str, top: int) -> list[tuple[int, int]]:
    """Every (p, q) of the family at rank p + q (n for the GL pairs) <= top."""
    row = CASES[tag]
    if row.symmetry == "skew":
        return [(n, n) for n in range(row.least, top + 1)]
    low = 0 if row.symmetry == "none" else 1
    return [(p, n - p) for n in range(row.least, top + 1) for p in range(low, n + 1 - low)]


REFERENCE_CASES = [case_from_params(tag, p, q) for tag in CASES
                   for p, q in shapes_up_to(tag, 4)] + [case_from_params("a", 3, 3)]


@pytest.mark.parametrize("case", REFERENCE_CASES,
                         ids=lambda c: f"{c.tag}-{c.p}-{c.q}")
def test_bitset_order_matches_set_reference(case):
    g = weak_order_graph(case)
    poset, reference = full_closure_order(g), set_full_closure_order(g)
    assert poset.full_order == reference.full_order
    assert check_conjecture(poset) == set_check_conjecture(reference)


ORDER_CASES = [case_from_params(*rank) for rank in DESK_RANKS] + [case_from_params("a", 3, 3)]


@pytest.mark.parametrize("case", ORDER_CASES, ids=lambda c: f"{c.tag}-{c.p}-{c.q}")
def test_graph_decides_the_orbit_order(case):
    # the order every later stage takes as given: orbits by rank, canonical
    # within a rank; edges by source position, then root; bit k is nodes[k]
    g = weak_order_graph(case)
    assert list(g.ranks) == list(enumerate_case_clans(case))
    assert list(g.nodes) == sorted(enumerate_case_clans(case), key=lambda c: (
        g.ranks[c], symbols_sort_key(clan_symbols(c))))
    pos = {c: k for k, c in enumerate(g.nodes)}
    assert list(g.weak_edges) == sorted(g.weak_edges, key=lambda e: (pos[e[0]], e[2]))
    assert g.top is g.nodes[-1]
    closed = sum(1 for c in g.nodes if g.ranks[c] == 0)
    assert closed > 0 and g.minima() == g.nodes[:closed]
    poset = full_closure_order(g)
    assert poset.nodes is g.nodes
    assert poset.order_bits == set_full_closure_order(g).order_bits
    assert all(down >> k & 1 for k, down in enumerate(poset.order_bits.down))


def atlas_rows(compare, families=ATLAS_FAMILIES) -> list[dict]:
    """The rank-5 order-comparison atlas: verdict and witnesses at every
    shape ``scripts/conjecture_sweep.py`` sweeps for the families."""
    spec = importlib.util.spec_from_file_location("conjecture_sweep", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    rows = []
    for tag in families:
        for p, q in sweep.shapes_for(tag, 5):
            report = compare(weak_order_graph(case_from_params(tag, p, q)))
            rows.append({"tag": tag, "p": p, "q": q, "coincides": report.coincides,
                         "witnesses": [[a.to_text(), b.to_text()]
                                       for a, b in report.witnesses]})
    return rows


def test_rank5_atlas_matches_frozen_record():
    recorded = json.loads(ATLAS_RANK5.read_text(encoding="utf-8"))
    assert len(recorded) == 28
    assert sum(len(row["witnesses"]) for row in recorded) == 24
    assert atlas_rows(check_conjecture) == recorded


def test_d_oxo_rank5_comparison_matches_the_window_rule_record():
    # recorded with type D's middle root moved by its own windows and the
    # fixed-point saturation, before the one-pass rule; not re-recorded
    recorded = json.loads(ATLAS_D_OXO.read_text(encoding="utf-8"))
    assert len(recorded) == 20
    assert sum(len(row["witnesses"]) for row in recorded) == 1837
    assert atlas_rows(check_conjecture, ("d-oxo-even", "d-oxo-odd")) == recorded


def test_stage_times_reports_both_stages_or_timeout(monkeypatch):
    spec = importlib.util.spec_from_file_location("stage_times", STAGE_TIMES)
    stage_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stage_times)
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    row = stage_times.measure("b-so", 2, 1, cap=60)
    assert (row["orbits"], row["witnesses"]) == (25, 0)
    assert all(isinstance(row[k], float) for k in ("weak_s", "saturate_compare_s"))
    assert isinstance(row["enumerate_s"], float) and row["enumerate_s"] <= row["weak_s"]
    # the weak graph alone takes seconds here (147,345 orbits)
    stopped = stage_times.measure("c-sp-gl", 8, 8, cap=0.5)
    assert stopped == {"case": "c-sp-gl", "p": 8, "q": 8,
                       "weak_s": "timeout", "saturate_compare_s": "timeout"}
    # a classes row times propagation, then the text of the classes
    row = stage_times.measure("a", 2, 2, cap=60, command="classes")
    assert row["orbits"] == 21 and row["z_terms"] > 0 and row["text_chars"] > 0
    assert all(isinstance(row[k], float) for k in ("propagate_s", "render_s", "peak_rss_mib"))
    # propagation alone takes seconds here
    stopped = stage_times.measure("a", 4, 4, cap=0.5, command="classes")
    assert stopped == {"case": "a", "p": 4, "q": 4,
                       "propagate_s": "timeout", "render_s": "timeout"}


class TestSaturationChecks:
    """Each check fires on a doctored graph, and names the clans.  The
    weak containment check is not among them: every in-edge's down-set
    holds its source's, which holds the source, and the agreement check
    makes the in-edges' down-sets equal."""

    def test_downward_edge_makes_closures_disagree(self):
        g = weak_order_graph(A22)
        src, dst, i, _ = next(e for e in g.weak_edges if e[0] == pc(A22, "+-+-"))
        doctored = orbits.OrbitPoset(A22, g.nodes, g.weak_edges + ((dst, src, i, 1),),
                                     g.ranks)
        # above src, the edge out of it along root 3 now brings 11+- along too
        with pytest.raises(OrbitError, match="closures disagree") as err:
            full_closure_order(doctored)
        assert str(err.value) == ("closures disagree at +-11: via root 3 from +-+- "
                                  "and via root 3 from +--+")
        with pytest.raises(OrbitError, match="not antisymmetric"):
            set_full_closure_order(doctored)

    def test_edge_between_rank_incomparable_orbits(self):
        g = weak_order_graph(A22)
        low, high = pc(A22, "++--"), pc(A22, "--++")
        assert not leq(low, high) and not leq(high, low)
        # root 1 does not move ++--, so the fake edge adds nothing else below --++
        assert move(A22, low, 1) is low
        doctored = orbits.OrbitPoset(A22, g.nodes, g.weak_edges + ((low, high, 1, 1),),
                                     g.ranks)
        # --++ now covers ++--, whose move along root 2 the other in-edge of
        # -11+ does not bring
        with pytest.raises(OrbitError, match="closures disagree") as err:
            full_closure_order(doctored)
        assert str(err.value) == ("closures disagree at -11+: via root 2 from -+-+ "
                                  "and via root 2 from --++")
        with pytest.raises(OrbitError, match="rank-number order") as err:
            set_full_closure_order(doctored)
        assert str(err.value).endswith("++-- vs --++")

    def test_cycle_breaks_antisymmetry(self):
        case = case_from_params("a", 1, 1)
        g = weak_order_graph(case)
        a, b = pc(case, "+-"), pc(case, "-+")
        doctored = orbits.OrbitPoset(case, g.nodes, ((a, b, 1, 1), (b, a, 1, 1)), g.ranks)
        with pytest.raises(OrbitError, match="not antisymmetric: \\+- and -\\+ lie below"):
            full_closure_order(doctored)

    def test_loop_leaves_the_rank_number_order(self):
        # the loop brings the cross image -+ below +-
        case = case_from_params("a", 1, 1)
        g = weak_order_graph(case)
        loop = (pc(case, "+-"), pc(case, "+-"), 1, 1)
        doctored = orbits.OrbitPoset(case, g.nodes, g.weak_edges + (loop,), g.ranks)
        with pytest.raises(OrbitError, match="rank-number order") as err:
            full_closure_order(doctored)
        assert str(err.value).endswith("-+ vs +-")

    def test_edge_drops_raise_or_keep_the_order(self):
        # dropping one weak edge at b-so(2,1): the fixed-point saturation
        # gives a different order with no error for 15 of the 37 drops; the
        # one-pass rule raises on each of those, and on 32 drops in all
        g = weak_order_graph(B21)
        full = full_closure_order(g).order_bits
        raised, silent = 0, 0
        for k in range(len(g.weak_edges)):
            edges = g.weak_edges[:k] + g.weak_edges[k + 1:]
            doctored = orbits.OrbitPoset(B21, g.nodes, edges, g.ranks)
            try:
                moved = set_full_closure_order(doctored).order_bits != full
            except OrbitError:
                moved = False
            silent += moved
            try:
                bits = full_closure_order(doctored).order_bits
            except OrbitError:
                raised += 1
            else:
                assert bits == full and not moved
        assert (len(g.weak_edges), raised, silent) == (37, 32, 15)


@pytest.mark.parametrize("n", range(2, 7))
def test_d_so_gl_middle_move_is_the_window_rule(n):
    # the reflection swapping e_n and e_{-n} takes L to neither L nor L*, so
    # the conjugation argument does not reach d-so-gl; its moves agree
    case = CaseId("d-so-gl", n, n)
    schedule, windows = orbits.move_schedules(case)[n], orbits._root_windows(case, n)
    for c in weak_order_graph(case).nodes:
        assert weak_move(c.mates, *schedule) == weak_move(c.mates, windows)


def test_window_rule_for_the_middle_root_makes_closures_disagree(monkeypatch):
    # type D's middle root moved by its own two windows, as before it became
    # the conjugate of root n - 1
    case = CaseId("d-oxo-even", 2, 2)
    full_closure_order(weak_order_graph(case))
    move_schedules = orbits.move_schedules

    def window_rule(case: CaseId) -> dict:
        schedules = move_schedules(case)
        schedules[case.grank] = (orbits._root_windows(case, case.grank), None)
        return schedules

    monkeypatch.setattr(orbits, "move_schedules", window_rule)
    with pytest.raises(OrbitError, match="closures disagree"):
        full_closure_order(weak_order_graph(case))


@pytest.mark.parametrize("case", DESK_CASES, ids=lambda c: c.tag)
def test_root_permutations_match_reference_cross_action(case):
    perms = orbits.root_permutations(case)
    assert list(perms) == list(simple_root_indices(case))
    for c in weak_order_graph(case).nodes:
        for i, source in perms.items():
            assert orbits._cross(c.mates, source) == cross_action_simple(case, c, i).mates


def test_root_permutations_are_the_embedded_simple_reflections():
    cases = cases_up_to_rank(6)
    # among the folded families only b-so has odd ambient lengths, where the
    # middle root fixes the middle position (d-oxo-odd's is 2p+1 + 2q-1)
    assert {c.tag for c in cases if c.family != "A" and c.ambient_len % 2} == {"b-so"}
    assert {c.tag for c in cases} == set(CASES)
    for case in cases:
        expected = {i: ambient_source(case, i) for i in simple_root_indices(case)}
        assert orbits.root_permutations(case) == expected, case


def cross_places(case: CaseId, nodes) -> dict[int, tuple[int, ...]]:
    """For each simple root, the place in ``nodes`` of each node's cross
    image: ``_cross`` by the root's permutation, found among the nodes' codes
    as ``full_closure_order`` finds the cross images of edge sources."""
    place = {c.mates: k for k, c in enumerate(nodes)}
    return {i: tuple(place[orbits._cross(c.mates, source)] for c in nodes)
            for i, source in orbits.root_permutations(case).items()}


def _case_id(case):
    return f"{case.tag}({case.p},{case.q})"


# the desk ranks, one larger case per family and every d-oxo case at rank <= 4
DIFFERENTIAL_CASES = tuple(dict.fromkeys([
    *DESK_CASES, CaseId("a", 3, 3), CaseId("b-so", 2, 2), CaseId("c-sp-gl", 4, 4),
    CaseId("d-so-gl", 5, 5),
    *(CaseId(tag, p, n - p) for tag in ("d-oxo-even", "d-oxo-odd")
      for n in range(2, 5) for p in range(1, n)),
]))


@pytest.mark.parametrize("case", DIFFERENTIAL_CASES, ids=_case_id)
def test_graph_and_saturation_match_the_validating_reference(case):
    # every clan the reference builds is validated, every family check
    # builds the reversed and negated clans, and its cross images come from
    # the embedded simple reflections
    poset = full_closure_order(weak_order_graph(case))
    ref = set_full_closure_order(clan_weak_order_graph(case))
    assert poset.nodes == ref.nodes
    assert poset.weak_edges == ref.weak_edges
    assert poset.ranks == ref.ranks
    assert poset.order_bits == ref.order_bits
    pos = {c: k for k, c in enumerate(poset.nodes)}
    expected = {i: tuple(pos[cross_action_simple(case, c, i)] for c in poset.nodes)
                for i in simple_root_indices(case)}
    assert cross_places(case, poset.nodes) == expected


# every case of every family whose clans have at most twelve positions;
# type A stops at ten, as a(6,6) alone has 845,691 clans
SMALL_CASES = tuple(case for case in cases_up_to_rank(12)
                    if case.ambient_len <= (10 if case.row.symmetry == "none" else 12))


@pytest.mark.parametrize("case", SMALL_CASES, ids=_case_id)
def test_graph_and_cross_table_match_the_reference(case):
    # the moves by place against validated clans: the labelled-symbol
    # enumeration, the reference's own window rule and family check, and
    # cross images of the labelled symbols under the embedded reflections,
    # found among the nodes
    g, ref = weak_order_graph(case), clan_weak_order_graph(case)
    assert g.nodes == ref.nodes
    assert g.weak_edges == ref.weak_edges
    assert g.ranks == ref.ranks
    symbols = [clan_symbols(c) for c in g.nodes]
    place = {s: k for k, s in enumerate(symbols)}
    expected = {}
    for i in simple_root_indices(case):
        source = ambient_source(case, i)
        expected[i] = tuple(place[canonical([s[j] for j in source])] for s in symbols)
    assert cross_places(case, g.nodes) == expected


def test_small_cases_cover_every_family():
    assert {case.tag for case in SMALL_CASES} == set(CASES)
    assert {CaseId("d-oxo-even", 2, 3), CaseId("d-oxo-odd", 3, 2)} <= set(SMALL_CASES)
    assert max(case.ambient_len for case in SMALL_CASES) == 12
    assert max(case.ambient_len for case in SMALL_CASES if case.tag == "a") == 10


# count and SHA-256 of the lines "rank text" of the nodes, in order, as the
# weak-order graph gave them when clans were stored as labelled symbols
NODE_HASHES = {
    ("b-so", 3, 4): (8393, "baa2fe934e921f24d54dd4214c31e8461a56e2a4dfcf88e69667a0c03b876f43"),
    ("c-spxsp", 4, 4): (14630, "7443c8f1414adcf39c3a099f250bf4e06cd80cbbeb0c438a4a4558e046cfe4b1"),
    ("a", 4, 4): (2835, "92e7d5a241ea19b30d15be4206bdafe5622f2b36a2b691ff06936b499a04a0a7"),
}


@pytest.mark.parametrize("key", NODE_HASHES, ids=lambda key: "{}({},{})".format(*key))
def test_node_lists_hash_as_recorded(key):
    g = weak_order_graph(case_from_params(*key))
    text = "".join(f"{g.ranks[c]} {c.to_text()}\n" for c in g.nodes)
    assert (len(g.nodes), hashlib.sha256(text.encode("utf-8")).hexdigest()) == NODE_HASHES[key]


@st.composite
def clans(draw) -> Clan:
    """A clan of any shape with at most twelve positions."""
    n = draw(st.integers(1, 12))
    places = draw(st.permutations(range(n)))
    pairs = draw(st.integers(0, n // 2))
    symbols = [None] * n
    for label in range(pairs):
        symbols[places[2 * label]] = symbols[places[2 * label + 1]] = label
    plus = 0
    for j in places[2 * pairs:]:
        symbols[j] = draw(st.sampled_from("+-"))
        plus += symbols[j] == "+"
    signs = n - 2 * pairs
    return make_clan(symbols, plus + pairs, signs - plus + pairs)


@settings(max_examples=200, deadline=None)
@given(c=clans())
def test_mate_code_round_trip(c):
    m, symbols = c.mates, clan_symbols(c)
    assert len(m) == c.n
    for j, x in enumerate(m):
        if x in ("+", "-"):
            assert symbols[j] == x
        else:
            assert x != j and m[x] == j and symbols[x] == symbols[j]
    assert clan_from_mates(m, c.p, c.q) == c
    assert clan_from_mates(m, c.p, c.q).mates == m


@pytest.mark.parametrize("case", DIFFERENTIAL_CASES, ids=_case_id)
def test_move_and_cross_images_pass_validation(case):
    # each image is the code of a validated clan of the case's shape
    perms, schedules = orbits.root_permutations(case), orbits.move_schedules(case)
    for c in weak_order_graph(case).nodes:
        assert make_clan(clan_symbols(c), c.p, c.q) == c
        m = c.mates
        for i, source in perms.items():
            for image in (weak_move(m, *schedules[i]), orbits._cross(m, source)):
                assert clan_from_mates(image, c.p, c.q).mates == image


# ---------------------------------------------------------------------------
# export formats
# ---------------------------------------------------------------------------


class TestExports:
    def test_dot_contains_labels_and_colors(self):
        g = weak_order_graph(C4_2)
        dot = poset_to_dot(g)
        assert dot.startswith("digraph weak_order {")
        assert '"1212" -> "1221" [label="1", color=blue];' in dot
        assert '"+-+-" -> "1122" [label="1"];' in dot
        assert "rank=same" in dot

    def test_dot_deterministic(self):
        g = weak_order_graph(B21)
        assert poset_to_dot(g) == poset_to_dot(weak_order_graph(B21))

    def test_json_round_trip_structure(self):
        poset = full_closure_order(weak_order_graph(C4_2))
        data = json.loads(poset_json_text(poset))
        assert data["case"] == {"tag": "c-sp-gl", "p": 2, "q": 2}
        assert len(data["nodes"]) == 11
        names = [node["clan"] for node in data["nodes"]]
        assert names[0] in {"++--", "+-+-", "-+-+", "--++"}  # rank 0 first
        assert data["nodes"][-1] == {"clan": "1221", "rank": 3}
        edges = {(e["src"], e["dst"], e["root"], e["degree"])
                 for e in data["weak_edges"]}
        assert ("1212", "1221", 1, 2) in edges
        assert sorted(data["full_order"]["1221"]) == sorted(names)
        assert data["full_order"]["++--"] == ["++--"]

    def test_json_without_full_order(self):
        data = poset_to_json(weak_order_graph(C4_2))
        assert "full_order" not in data


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------


CASE_POOL = st.sampled_from(DESK_CASES)


@settings(max_examples=60, deadline=None)
@given(case=CASE_POOL, data=st.data())
def test_weak_move_raises_rank_by_one_or_fixes(case, data):
    g = weak_order_graph(case)
    c = data.draw(st.sampled_from(list(g.nodes)))
    i = data.draw(st.sampled_from(list(simple_root_indices(case))))
    out = move(case, c, i)
    if out is c:
        return
    assert leq(c, out)
    if out in g.ranks:
        assert g.ranks[out] == g.ranks[c] + 1
    else:
        assert not in_case_family(case, out)


@settings(max_examples=60, deadline=None)
@given(case=CASE_POOL, data=st.data())
def test_cross_action_is_an_involution_for_reflections(case, data):
    g = weak_order_graph(case)
    c = data.draw(st.sampled_from(list(g.nodes)))
    i = data.draw(st.sampled_from(list(simple_root_indices(case))))
    once = cross_action_simple(case, c, i)
    assert cross_action_simple(case, once, i) == c


if __name__ == "__main__":
    rows = atlas_rows(set_check_conjecture)
    lines = ",\n".join(json.dumps(row, sort_keys=True) for row in rows)
    ATLAS_RANK5.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
