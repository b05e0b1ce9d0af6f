"""Tests for signed permutations, subgroups, fixed points, and root data."""

import math
from collections import Counter

import pytest

from orbitcalc.clans import CASES, CaseId, Clan, ClanError, enumerate_case_clans
from orbitcalc.cmd_chern import parse_clan
from orbitcalc.formulas import chern_blocks
from orbitcalc.weyl import (
    WeylError,
    _roots,
    ambient_weyl,
    apply_weyl_to_root,
    closed_orbit_fixed_points,
    distinguished_representative,
    fixed_point_to_clan,
    fixed_points_by_clan,
    is_closed_clan,
    restriction_weights,
    validate_weyl,
    weyl_elements,
    weyl_order,
)
from reference import (
    block_positive_roots,
    block_subgroup_roots,
    cases_up_to_rank,
    closed_clans,
    embed_in_ambient,
    identity_weyl,
    simple_reflection,
    stat_lp,
    stat_phip,
    stat_psi,
    stat_sigma,
    stat_tau,
    weyl_abs,
    weyl_compose,
    weyl_inverse,
    wk_member,
    wk_order,
)

DESK_CASES = [
    CaseId("a", 2, 2),
    CaseId("b-so", 2, 1),
    CaseId("c-spxsp", 2, 1),
    CaseId("c-sp-gl", 2, 2),
    CaseId("d-oxo-even", 2, 1),
    CaseId("d-so-gl", 3, 3),
    CaseId("d-oxo-odd", 1, 2),
]


# ---------------------------------------------------------------------------
# Element basics
# ---------------------------------------------------------------------------


def test_validate_types():
    validate_weyl((1, 2, 3), "A")
    with pytest.raises(WeylError):
        validate_weyl((-1, 2, 3), "A")
    validate_weyl((-1, -2), "D")
    with pytest.raises(WeylError):
        validate_weyl((-1, 2), "D")
    validate_weyl((-1, 2), "B")


def test_abs_neg_inverse_compose():
    w = (-2, -4, 1, 3, -5)
    assert weyl_abs(w) == (2, 4, 1, 3, 5)
    assert weyl_compose(w, weyl_inverse(w)) == identity_weyl(5)
    assert weyl_compose(weyl_inverse(w), w) == identity_weyl(5)
    u = (-2, 1, 3)
    v = (3, -1, 2)
    assert weyl_compose(u, v) == (3, 2, 1)


def test_weyl_group_sizes():
    assert len(weyl_elements("A", 4)) == 24
    assert len(weyl_elements("B", 3)) == 48
    assert len(weyl_elements("C", 2)) == 8
    assert len(weyl_elements("D", 3)) == 24
    assert len(weyl_elements("D", 4)) == 192


@pytest.mark.parametrize("lie_type", ["A", "B", "C", "D"])
def test_weyl_order_counts_the_elements(lie_type):
    for n in range(1, 6):
        assert weyl_order(lie_type, n) == len(weyl_elements(lie_type, n))


def test_simple_reflections():
    assert simple_reflection("A", 3, 1) == (2, 1, 3)
    assert simple_reflection("B", 3, 3) == (1, 2, -3)
    assert simple_reflection("C", 2, 2) == (1, -2)
    assert simple_reflection("D", 3, 3) == (1, -3, -2)
    with pytest.raises(WeylError):
        simple_reflection("A", 3, 3)
    for lie_type, n in [("A", 3), ("B", 3), ("C", 3), ("D", 3)]:
        top = n - 1 if lie_type == "A" else n
        for i in range(1, top + 1):
            s = simple_reflection(lie_type, n, i)
            assert s in weyl_elements(lie_type, n)
            assert weyl_compose(s, s) == identity_weyl(n)


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------


def test_embed_examples():
    sigma = embed_in_ambient((-2, -4, 1, 3, -5), "even")
    assert sigma[:5] == (9, 7, 1, 3, 6)
    assert all(sigma[9 - i] == 11 - sigma[i] for i in range(5))
    assert embed_in_ambient((1, 2, 3), "even") == (1, 2, 3, 4, 5, 6)
    assert embed_in_ambient((-1,), "odd") == (3, 2, 1)
    with pytest.raises(WeylError):
        embed_in_ambient((1, 2), "sideways")


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_embed_is_homomorphism(parity, n):
    elements = weyl_elements("B", n)
    for u in elements:
        su = embed_in_ambient(u, parity)
        for w in elements:
            sw = embed_in_ambient(w, parity)
            combined = embed_in_ambient(weyl_compose(u, w), parity)
            composed = tuple(su[sw[i] - 1] for i in range(len(sw)))
            assert combined == composed


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def test_stat_examples():
    assert stat_lp((1, 2, 3, 4), 2) == 0
    assert stat_lp((3, 4, 1, 2), 2) == 4
    assert stat_lp((3, 1, 4, 2), 2) == 3
    with pytest.raises(WeylError):
        stat_lp((-1, 2), 1)
    assert stat_phip((-2, -4, 1, 3, -5), 3) == 1
    assert stat_psi(identity_weyl(3)) == 0
    assert stat_sigma(identity_weyl(3)) == 0
    assert stat_psi((-1, 2, -3)) == 2
    assert stat_sigma((-2, 1)) == 1
    assert stat_sigma((1, -2)) == 0
    assert stat_tau((1, 2, 5, 3, 6, 4), 2) == 0
    assert stat_tau((1, 3, 2), 1) == 0
    assert stat_tau((3, 1, 2), 1) == 1


def test_stat_lp_coset_invariance_case_a():
    for p in range(0, 5):
        for q in range(0, 5 - p):
            if p + q < 1 or p + q > 5:
                continue
            case = CaseId("a", p, q)
            members = [u for u in ambient_weyl(case) if wk_member(case, u)]
            for w in ambient_weyl(case):
                base = stat_lp(w, p)
                for u in members:
                    assert stat_lp(weyl_compose(u, w), p) == base


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)])
def test_case2_coset_constancy(shape):
    case = CaseId("b-so", *shape)
    p = case.p
    members = [u for u in ambient_weyl(case) if wk_member(case, u)]
    for w in ambient_weyl(case):
        phi0 = stat_phip(w, p) % 2
        lp0 = stat_lp(weyl_abs(w), p)
        for u in members:
            uw = weyl_compose(u, w)
            assert stat_phip(uw, p) % 2 == phi0
            assert stat_lp(weyl_abs(uw), p) == lp0


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------


def test_wk_member_examples():
    case1 = CaseId("a", 2, 2)
    assert wk_member(case1, (2, 1, 3, 4))
    assert not wk_member(case1, (1, 3, 2, 4))
    case4 = CaseId("c-sp-gl", 2, 2)
    assert wk_member(case4, (2, 1))
    assert not wk_member(case4, (-1, 2))
    case2 = CaseId("b-so", 1, 1)
    assert not wk_member(case2, (-1, 2))
    assert wk_member(case2, (1, -2))


@pytest.mark.parametrize("case", DESK_CASES, ids=lambda c: c.tag)
def test_wk_is_a_subgroup_of_predicted_order(case):
    members = [w for w in ambient_weyl(case) if wk_member(case, w)]
    assert len(members) == wk_order(case)
    member_set = set(members)
    assert identity_weyl(case.grank) in member_set
    for u in members:
        assert weyl_inverse(u) in member_set
        for v in members:
            assert weyl_compose(u, v) in member_set


# ---------------------------------------------------------------------------
# Fixed-point dictionary
# ---------------------------------------------------------------------------


def test_fixed_point_to_clan_examples():
    case1 = CaseId("a", 2, 2)
    assert fixed_point_to_clan(case1, (1, 3, 2, 4)).to_text() == "+-+-"
    assert fixed_point_to_clan(case1, (1, 2, 3, 4)).to_text() == "++--"
    case4 = CaseId("c-sp-gl", 2, 2)
    assert fixed_point_to_clan(case4, (1, 2)).to_text() == "++--"
    case2 = CaseId("b-so", 2, 1)
    assert fixed_point_to_clan(case2, (1, 2, 3)).to_text() == "++---++"
    with pytest.raises(WeylError):
        fixed_point_to_clan(CaseId("d-oxo-odd", 1, 2), (1, 2, 3))


@pytest.mark.parametrize("case", DESK_CASES[:-1], ids=lambda c: c.tag)
def test_fixed_points_partition_ambient_group(case):
    groups = fixed_points_by_clan(case)
    seen = [w for pts in groups.values() for w in pts]
    assert len(seen) == len(set(seen)) == len(ambient_weyl(case))
    for c, pts in groups.items():
        assert is_closed_clan(case, c)
        assert closed_orbit_fixed_points(case, c) == pts
    assert set(groups) == set(closed_clans(case))


def test_case1_closed_orbit_counts():
    for p in range(0, 4):
        for q in range(0, 4 - p):
            if p + q < 1:
                continue
            case = CaseId("a", p, q)
            groups = fixed_points_by_clan(case)
            assert len(groups) == math.comb(p + q, p)
            for pts in groups.values():
                assert len(pts) == math.factorial(p) * math.factorial(q)


def test_closed_orbit_examples():
    case1 = CaseId("a", 2, 2)
    pts = closed_orbit_fixed_points(case1, parse_clan("++--", 2, 2))
    assert set(pts) == {(1, 2, 3, 4), (2, 1, 3, 4), (1, 2, 4, 3), (2, 1, 4, 3)}
    with pytest.raises(ClanError):
        closed_orbit_fixed_points(case1, parse_clan("11--++", 3, 3))
    with pytest.raises(ClanError):
        closed_orbit_fixed_points(case1, parse_clan("1+1-", 2, 2))


@pytest.mark.parametrize("case", DESK_CASES, ids=lambda c: c.tag)
def test_closed_fixed_points_are_wk_stable(case):
    members = [u for u in ambient_weyl(case) if wk_member(case, u)]
    for c in closed_clans(case):
        pts = set(closed_orbit_fixed_points(case, c))
        assert pts
        assert len(pts) % wk_order(case) == 0
        for w in pts:
            for u in members:
                assert weyl_compose(u, w) in pts


def test_case2_closed_orbit_has_two_components():
    case = CaseId("b-so", 2, 1)
    c = parse_clan("++---++", 4, 3)
    pts = closed_orbit_fixed_points(case, c)
    assert len(pts) == 2 * wk_order(case) == 16


def test_case7_closed_structure():
    for p, q in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (1, 4), (4, 1), (2, 3), (3, 2)]:
        case = CaseId("d-oxo-odd", p, q)
        n = case.grank
        if n > 5:
            continue
        clans = closed_clans(case)
        assert len(clans) == math.comb(n - 1, p)
        covered = set()
        for c in clans:
            pts = closed_orbit_fixed_points(case, c)
            assert len(pts) == wk_order(case)
            covered.update(pts)
        predicted = {w for w in ambient_weyl(case) if abs(w[n - 1]) == p + 1}
        assert covered == predicted


def test_distinguished_representatives_pinned():
    case2 = CaseId("b-so", 2, 1)
    reps2 = {c.to_text(): distinguished_representative(case2, c)
             for c in closed_clans(case2)}
    assert reps2 == {
        "++---++": (-2, -1, -3),
        "+-+-+-+": (-2, -3, -1),
        "-++-++-": (-3, -2, -1),
    }
    case5 = CaseId("d-oxo-even", 2, 1)
    reps5 = sorted(distinguished_representative(case5, c) for c in closed_clans(case5))
    assert reps5 == sorted([(-2, -1, 3), (-2, -3, 1), (-3, -2, 1)])
    case7 = CaseId("d-oxo-odd", 1, 2)
    assert distinguished_representative(case7, parse_clan("+-11-+", 3, 3)) == (1, 3, 2)
    assert distinguished_representative(case7, parse_clan("-+11+-", 3, 3)) == (3, 1, 2)
    case6 = CaseId("d-so-gl", 3, 3)
    assert distinguished_representative(case6, parse_clan("+++---", 3, 3)) == (1, 2, 3)
    # the standard representative never has negative entries and ends in p+1
    for p, q in [(1, 2), (2, 1), (2, 2)]:
        case = CaseId("d-oxo-odd", p, q)
        for c in closed_clans(case):
            w = distinguished_representative(case, c)
            assert all(v > 0 for v in w)
            assert w[case.grank - 1] == case.p + 1


# the covered cases on which the direct least point is compared with the
# least fixed point of each closed orbit's fibre
LEAST_POINT_CASES = [
    CaseId("a", 2, 2), CaseId("a", 1, 4), CaseId("a", 3, 3),
    CaseId("a", 0, 2), CaseId("a", 3, 0),
    CaseId("b-so", 2, 1), CaseId("b-so", 2, 2), CaseId("b-so", 3, 1),
    CaseId("b-so", 1, 3),
    CaseId("c-spxsp", 2, 1), CaseId("c-spxsp", 2, 2), CaseId("c-spxsp", 1, 3),
    CaseId("c-sp-gl", 1, 1), CaseId("c-sp-gl", 2, 2), CaseId("c-sp-gl", 3, 3),
    CaseId("d-oxo-even", 2, 1), CaseId("d-oxo-even", 2, 2),
    CaseId("d-oxo-even", 1, 2), CaseId("d-oxo-even", 3, 2),
    CaseId("d-so-gl", 2, 2), CaseId("d-so-gl", 3, 3), CaseId("d-so-gl", 4, 4),
    CaseId("d-so-gl", 5, 5),
]


@pytest.mark.parametrize("case", LEAST_POINT_CASES, ids=lambda c: f"{c.tag}-{c.p}-{c.q}")
def test_distinguished_representative_is_the_least_fixed_point(case):
    groups = fixed_points_by_clan(case)
    assert sorted(groups, key=Clan.to_text) == sorted(closed_clans(case), key=Clan.to_text)
    for c, points in groups.items():
        assert distinguished_representative(case, c) == min(points)


@pytest.mark.parametrize("p,q", [(1, 2), (2, 1), (2, 2), (1, 3), (3, 1)])
def test_standard_representative_lies_in_its_closed_orbit(p, q):
    case = CaseId("d-oxo-odd", p, q)
    for c in closed_clans(case):
        assert distinguished_representative(case, c) in closed_orbit_fixed_points(case, c)


@pytest.mark.parametrize("case", DESK_CASES, ids=lambda c: c.tag)
def test_distinguished_representative_rejects_other_clans(case):
    c = next(c for c in enumerate_case_clans(case) if not is_closed_clan(case, c))
    with pytest.raises(ClanError):
        distinguished_representative(case, c)


# ---------------------------------------------------------------------------
# Root data
# ---------------------------------------------------------------------------


def positive_roots(case):
    """G's positive roots, as ``restriction_weights`` builds them."""
    n = case.grank
    return _roots(case.family, range(1, n + 1), n, True)


def subgroup_roots(case):
    """The roots of K's blocks, positive and negative, as
    ``restriction_weights`` builds them."""
    return [r for t, block in case.k_blocks for r in _roots(t, block, case.grank, False)]


def test_positive_root_counts():
    assert len(positive_roots(CaseId("a", 2, 2))) == 6
    assert len(positive_roots(CaseId("b-so", 2, 1))) == 9
    assert len(positive_roots(CaseId("c-spxsp", 2, 1))) == 9
    assert len(positive_roots(CaseId("c-sp-gl", 2, 2))) == 4
    assert len(positive_roots(CaseId("d-oxo-even", 2, 1))) == 6
    assert len(positive_roots(CaseId("d-so-gl", 3, 3))) == 6
    assert len(positive_roots(CaseId("d-oxo-odd", 1, 2))) == 6


def test_subgroup_root_counts():
    assert len(subgroup_roots(CaseId("a", 2, 2))) == 4
    assert len(subgroup_roots(CaseId("b-so", 2, 1))) == 6
    assert len(subgroup_roots(CaseId("c-spxsp", 2, 1))) == 10
    assert len(subgroup_roots(CaseId("c-sp-gl", 2, 2))) == 2
    assert len(subgroup_roots(CaseId("d-oxo-even", 2, 1))) == 4
    assert len(subgroup_roots(CaseId("d-so-gl", 3, 3))) == 6
    assert len(subgroup_roots(CaseId("d-oxo-odd", 1, 2))) == 4
    assert len(subgroup_roots(CaseId("d-oxo-odd", 2, 2))) == 10


@pytest.mark.parametrize("case", cases_up_to_rank(5), ids=lambda c: f"{c.tag}-{c.p}-{c.q}")
def test_roots_match_the_block_reference(case):
    assert Counter(positive_roots(case)) == Counter(block_positive_roots(case))
    assert Counter(subgroup_roots(case)) == Counter(block_subgroup_roots(case))
    assert len(set(positive_roots(case))) == len(positive_roots(case))


@pytest.mark.parametrize("case", [c for c in cases_up_to_rank(6) if c.tag == "d-oxo-odd"],
                         ids=lambda c: f"{c.p}-{c.q}")
def test_stat_lp_is_stat_tau_on_the_standard_representatives(case):
    # d-oxo-odd's standard representative has w(n) = p+1, so no inversion
    # counted by stat_lp involves position n, and stat_lp is stat_tau there
    for c in closed_clans(case):
        w = distinguished_representative(case, c)
        assert w[-1] == case.p + 1
        assert stat_lp(w, case.p) == stat_tau(w, case.p)


def test_apply_weyl_to_root():
    assert apply_weyl_to_root((2, -1, 3), (1, -1, 0)) == (1, 1, 0)
    assert apply_weyl_to_root((-1, 2), (2, 0)) == (-2, 0)


def test_restriction_weights_spot_checks():
    case2 = CaseId("b-so", 2, 1)
    assert Counter(restriction_weights(case2, (1, 2, 3))) == Counter(
        [(1, 0, -1), (0, 1, -1), (1, 0, 1), (0, 1, 1), (1, 0, 0), (0, 1, 0)]
    )
    case4 = CaseId("c-sp-gl", 2, 2)
    assert Counter(restriction_weights(case4, (1, 2))) == Counter(
        [(1, 1), (2, 0), (0, 2)]
    )
    case6 = CaseId("d-so-gl", 3, 3)
    assert Counter(restriction_weights(case6, (1, 2, 3))) == Counter(
        [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    )
    case7 = CaseId("d-oxo-odd", 1, 2)
    assert Counter(restriction_weights(case7, (1, 3, 2))) == Counter(
        [(1, 0, -1), (1, 0, 1), (1, 0, 0), (0, 0, 1)]
    )


def test_restriction_weight_count_matches_closed_class_degree():
    # every closed orbit of a case has the same codimension-style weight count
    for case in DESK_CASES:
        counts = set()
        for c in closed_clans(case):
            for w in closed_orbit_fixed_points(case, c):
                counts.add(len(restriction_weights(case, w)))
        assert len(counts) == 1, (case.tag, counts)


# ---------------------------------------------------------------------------
# The K-block rules against the earlier per-tag code
# ---------------------------------------------------------------------------
#
# The functions below are the per-tag versions that the rules derived from
# K's blocks (``CASES``) replaced.  They are kept as references only.


def _reference_blocks_preserved(w, p):
    return all((abs(v) <= p) == (i <= p) for i, v in enumerate(w, start=1))


def reference_wk_member(case, w):
    w = validate_weyl(w, case.family)
    p, n = case.p, case.grank
    tag = case.tag
    if tag == "a":
        return all(v > 0 for v in w) and _reference_blocks_preserved(w, p)
    if tag == "b-so":
        if not _reference_blocks_preserved(w, p):
            return False
        return sum(1 for v in w[:p] if v < 0) % 2 == 0
    if tag == "c-spxsp":
        return _reference_blocks_preserved(w, p)
    if tag in ("c-sp-gl", "d-so-gl"):
        return all(v > 0 for v in w)
    if tag == "d-oxo-even":
        if not _reference_blocks_preserved(w, p):
            return False
        first = sum(1 for v in w[:p] if v < 0)
        second = sum(1 for v in w[p:] if v < 0)
        return first % 2 == 0 and second % 2 == 0
    if abs(w[p]) != p + 1:
        return False
    return all((abs(v) <= p) == (i <= p) for i, v in enumerate(w, start=1) if i != p + 1)


def reference_wk_order(case):
    p, q, n = case.p, case.q, case.grank
    tag = case.tag
    if tag == "a":
        return math.factorial(p) * math.factorial(q)
    if tag == "b-so":
        return 2 ** (p - 1) * math.factorial(p) * 2 ** q * math.factorial(q)
    if tag == "c-spxsp":
        return 2 ** p * math.factorial(p) * 2 ** q * math.factorial(q)
    if tag in ("c-sp-gl", "d-so-gl"):
        return math.factorial(n)
    if tag == "d-oxo-even":
        return 2 ** (p - 1) * math.factorial(p) * 2 ** (q - 1) * math.factorial(q)
    return 2 ** (n - 1) * math.factorial(p) * math.factorial(q - 1)


def reference_fixed_point_to_clan(case, w):
    w = validate_weyl(w, case.family)
    p, n = case.p, case.grank
    if len(w) != n:
        raise WeylError(f"expected a signed permutation of {n}")
    tag = case.tag
    P, Q = case.ambient_shape
    if tag == "a":
        symbols = ["+" if v <= p else "-" for v in w]
        return Clan(tuple(symbols), P, Q)
    if tag in ("b-so", "c-spxsp", "d-oxo-even"):
        half = ["+" if abs(v) <= p else "-" for v in w]
        if tag == "b-so":
            symbols = half + ["-"] + half[::-1]
        else:
            symbols = half + half[::-1]
        return Clan(tuple(symbols), P, Q)
    if tag in ("c-sp-gl", "d-so-gl"):
        half = ["+" if v > 0 else "-" for v in w]
        flipped = ["-" if s == "+" else "+" for s in half]
        return Clan(tuple(half + flipped[::-1]), P, Q)
    raise WeylError(
        "the fixed-point dictionary is not available for case d-oxo-odd"
    )


def _reference_pair_system(n, block, with_short, short_coeff=1):
    roots = []
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
            for coeff in (short_coeff, -short_coeff):
                vec = [0] * n
                vec[i - 1] = coeff
                roots.append(tuple(vec))
    return roots


def _reference_type_a_roots(n, block):
    members = list(block)
    roots = []
    for a in range(len(members)):
        for b in range(len(members)):
            if a != b:
                vec = [0] * n
                vec[members[a] - 1] = 1
                vec[members[b] - 1] = -1
                roots.append(tuple(vec))
    return roots


def reference_subgroup_roots(case):
    p, n = case.p, case.grank
    tag = case.tag
    first = range(1, p + 1)
    second = range(p + 1, n + 1)
    if tag == "a":
        return tuple(_reference_type_a_roots(n, first) + _reference_type_a_roots(n, second))
    if tag == "b-so":
        return tuple(_reference_pair_system(n, first, False)
                     + _reference_pair_system(n, second, True))
    if tag == "c-spxsp":
        return tuple(_reference_pair_system(n, first, True, 2)
                     + _reference_pair_system(n, second, True, 2))
    if tag in ("c-sp-gl", "d-so-gl"):
        return tuple(_reference_type_a_roots(n, range(1, n + 1)))
    if tag == "d-oxo-even":
        return tuple(_reference_pair_system(n, first, False)
                     + _reference_pair_system(n, second, False))
    return tuple(_reference_pair_system(n, range(1, p + 1), True)
                 + _reference_pair_system(n, range(p + 2, n + 1), True))


def reference_chern_blocks(case):
    p, q, n = case.p, case.q, case.grank
    if case.tag in ("c-sp-gl", "d-so-gl"):
        blocks = [(1, n)]
    elif case.tag == "d-oxo-odd":
        blocks = [(1, p), (p + 2, q - 1)]
    else:
        blocks = [(1, p), (p + 1, q)]
    return tuple((start, size) for start, size in blocks if size > 0)


RANK4_CASES = cases_up_to_rank(4)


def test_rank4_case_list_covers_every_tag():
    assert {case.tag for case in RANK4_CASES} == set(CASES)
    assert len(RANK4_CASES) == 45


@pytest.mark.parametrize("case", RANK4_CASES, ids=lambda c: f"{c.tag}-{c.p}-{c.q}")
def test_block_rules_match_per_tag_reference(case):
    assert wk_order(case) == reference_wk_order(case)
    assert Counter(subgroup_roots(case)) == Counter(reference_subgroup_roots(case))
    assert chern_blocks(case) == reference_chern_blocks(case)
    expected_uncovered = (case.p + 1,) if case.tag == "d-oxo-odd" else ()
    assert case.uncovered == expected_uncovered
    for w in ambient_weyl(case):
        assert wk_member(case, w) == reference_wk_member(case, w), w
        if case.uncovered:
            with pytest.raises(WeylError, match="not available for case d-oxo-odd"):
                fixed_point_to_clan(case, w)
        else:
            assert fixed_point_to_clan(case, w) == reference_fixed_point_to_clan(case, w)
