"""Tests for orbit-closure classes, localization, and Chern-class forms."""

import itertools
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcalc.clans import DESK_RANKS, CaseId, ClanError, case_from_params, parse_clan
from orbitcalc.formulas import (
    FormulaError,
    all_classes,
    chern_blocks,
    chern_class,
    chern_expansion,
    chern_factored,
    closed_class,
    closed_restriction_product,
    delta,
    formula_ring,
    restrict_at,
    verify_localization,
)
from orbitcalc import formulas
from orbitcalc.orbits import OrbitPoset, full_closure_order, weak_order_graph
from orbitcalc.parse import parse_poly
from orbitcalc.poly import FactoredPoly, PolyError, Ring, chern_substitute, determinant, elem_sym
from orbitcalc.weyl import (
    ambient_weyl,
    closed_orbit_fixed_points,
    distinguished_representative,
    fixed_points_by_clan,
    weyl_elements,
)
from reference import (
    cases_up_to_rank,
    closed_clans,
    component_class,
    expand_class,
    identity_weyl,
    k_weyl_group,
    orbit_delta,
    tag_closed_class,
    verify_localization_every_point,
    weyl_compose,
    wk_member,
    y_all_classes,
)

DATA = Path(__file__).parent / "data"

DESK = {t: (t, p, q) for t, p, q in DESK_RANKS}


def desk_case(tag: str) -> CaseId:
    t, p, q = DESK[tag]
    return case_from_params(t, p, q)


def fixture_table(tag: str) -> dict:
    t, p, q = DESK[tag]
    return json.loads((DATA / f"classes_{t}_{p}_{q}.json").read_text())


def pc(case: CaseId, text: str):
    P, Q = case.ambient_shape
    return parse_clan(text, P, Q)


def y_classes(poset) -> dict:
    """The classes of ``all_classes`` expanded in the y-variables."""
    return {c: expand_class(poset.case, f) for c, f in all_classes(poset).items()}


# ---------------------------------------------------------------------------
# frozen class tables
# ---------------------------------------------------------------------------


class TestClassTables:
    @pytest.mark.parametrize("tag", sorted(DESK))
    def test_matches_frozen_table(self, tag):
        case = desk_case(tag)
        table = fixture_table(tag)
        assert table["case"] == {"tag": case.tag, "p": case.p, "q": case.q}
        ring = formula_ring(case)
        classes = {c.to_text(): f for c, f in y_classes(weak_order_graph(case)).items()}
        assert set(classes) == set(table["classes"])
        for text, expr in table["classes"].items():
            assert classes[text] == parse_poly(expr, ring), text

    @pytest.mark.parametrize("tag", sorted(DESK))
    def test_degrees_equal_codimension(self, tag):
        case = desk_case(tag)
        g = weak_order_graph(case)
        classes = y_classes(g)
        for c, f in classes.items():
            assert set(map(sum, f.terms)) == {g.max_rank - g.ranks[c]}
            assert f.degree() == g.max_rank - g.ranks[c]

    def test_dense_class_is_one(self):
        case = desk_case("a")
        classes = all_classes(weak_order_graph(case))
        ring = formula_ring(case)
        assert classes[pc(case, "1221")] == ring.one


class TestClosedClass:
    def test_factored_type_a(self):
        case = desk_case("a")
        fp = closed_class(case, pc(case, "++--"))
        assert fp.to_text() == "(x1 - y3)(x1 - y4)(x2 - y3)(x2 - y4)"

    def test_factored_with_sign(self):
        case = desk_case("a")
        fp = closed_class(case, pc(case, "+-+-"))
        assert fp.scalar == -1
        assert fp.expand() == parse_poly(
            "-(x1-y3)(x1-y4)(x3-y3)(x3-y4)", formula_ring(case)
        )

    def test_factored_odd_orthogonal(self):
        case = desk_case("b-so")
        fp = closed_class(case, pc(case, "++---++"))
        assert fp.expand() == parse_poly(
            "x1*x2(x1-y3)(x1+y3)(x2-y3)(x2+y3)", formula_ring(case)
        )

    def test_determinantal_family(self):
        case = desk_case("c-sp-gl")
        fp = closed_class(case, pc(case, "++--"))
        assert fp.expand() == parse_poly(
            "(x1+x2+y1+y2)(x1*x2+y1*y2)", formula_ring(case)
        )

    def test_branched_family_standard_rep(self):
        case = desk_case("d-oxo-odd")
        fp = closed_class(case, pc(case, "-+11+-"))
        assert fp.expand() == parse_poly(
            "-x1*x2(x2-y3)(x2+y3)", formula_ring(case)
        )

    def test_rejects_non_closed(self):
        case = desk_case("a")
        with pytest.raises(ClanError):
            closed_class(case, pc(case, "1122"))


@pytest.mark.parametrize("case", cases_up_to_rank(5), ids=lambda c: f"{c.tag}-{c.p}-{c.q}")
def test_closed_classes_match_the_tag_reference(case):
    """The case-table ``closed_class`` writes and expands every closed class
    as the per-tag one did, in y and in z; for the GL pairs, the reference
    builds each orbit's determinant at its representative."""
    for c in closed_clans(case):
        for chern in (False, True):
            got, want = closed_class(case, c, chern), tag_closed_class(case, c, chern)
            assert got.to_text() == want.to_text(), (c.to_text(), chern)
            assert got.expand() == want.expand(), (c.to_text(), chern)


# ---------------------------------------------------------------------------
# the determinant
# ---------------------------------------------------------------------------


def gl_case(tag: str, n: int) -> CaseId:
    return case_from_params(tag, n, n)


class TestDelta:
    def test_size_one(self):
        case = gl_case("c-sp-gl", 1)
        assert delta(case) == parse_poly("x1+y1", formula_ring(case))

    def test_size_two_identity(self):
        case = gl_case("c-sp-gl", 2)
        assert delta(case) == parse_poly(
            "(x1*x2+y1*y2)(x1+x2+y1+y2)", formula_ring(case)
        )

    def test_smaller_determinant_uses_c_zero(self):
        # d-so-gl(3,3): size n-1 = 2, entries in all three variables
        case = gl_case("d-so-gl", 3)
        got = delta(case)
        want = parse_poly(
            "(x1+x2+x3+y1+y2+y3)(x1*x2+x1*x3+x2*x3+y1*y2+y1*y3+y2*y3)"
            " - 2*(x1*x2*x3+y1*y2*y3)",
            formula_ring(case),
        )
        assert got == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sign_substitution_vanishing(self, n):
        # substituting x_i = eps_i * y_i kills the determinant unless every
        # eps_i is +1, where it gives 2^n y_1...y_n prod_{i<j}(y_i + y_j)
        case = gl_case("c-sp-gl", n)
        ring = formula_ring(case)
        d = delta(case)
        for eps in itertools.product([1, -1], repeat=n):
            images = {
                ring.var_index("x", i): ring.y(i) * eps[i - 1]
                for i in range(1, n + 1)
            }
            value = d.substitute(images)
            if all(e == 1 for e in eps):
                want = ring.const(2**n)
                for i in range(1, n + 1):
                    want = want * ring.y(i)
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        want = want * (ring.y(i) + ring.y(j))
                assert value == want
            else:
                assert value.is_zero()

    @pytest.mark.parametrize("n", [2, 3])
    def test_invariant_under_x_and_y_permutations(self, n):
        case = gl_case("c-sp-gl", n)
        ring = formula_ring(case)
        d = delta(case)
        for sigma in itertools.permutations(range(1, n + 1)):
            x_images = {
                ring.var_index("x", i): ring.x(sigma[i - 1])
                for i in range(1, n + 1)
            }
            y_images = {
                ring.var_index("y", i): ring.y(sigma[i - 1])
                for i in range(1, n + 1)
            }
            assert d.substitute(x_images) == d
            assert d.substitute(y_images) == d

    def test_c_zero_switch(self):
        # delta's c_0 is 2; det(c_{3+j-2i}) with c_0 = 1 differs by c_3 = e3
        case = gl_case("d-so-gl", 3)
        ring = formula_ring(case)
        with_two = delta(case)
        xs, ys = [ring.x(i) for i in (1, 2, 3)], [ring.y(i) for i in (1, 2, 3)]
        c = {k: elem_sym(ring, k, xs) + elem_sym(ring, k, ys) for k in (1, 2, 3)}
        with_one = determinant([[c[2], c[3]], [ring.const(1), c[1]]])
        e3 = parse_poly("x1*x2*x3+y1*y2*y3", ring)
        assert with_two == with_one - e3

    @pytest.mark.parametrize("tag,n", [("c-sp-gl", 1), ("c-sp-gl", 4), ("d-so-gl", 2),
                                       ("d-so-gl", 5)])
    def test_one_object_per_case_and_form_at_the_identity(self, tag, n):
        """``delta`` is the per-orbit reference at the identity, of size n
        for c-sp-gl and n-1 for d-so-gl, built once per case and form; its
        z-form expands to its y-form."""
        case = gl_case(tag, n)
        ring = formula_ring(case)
        m = n if tag == "c-sp-gl" else n - 1
        for chern in (False, True):
            assert delta(case, chern) == orbit_delta(ring, m, identity_weyl(n), chern)
            assert delta(case, chern) is delta(case, chern)
        assert chern_expansion(case)(delta(case, True)) == delta(case)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_orbit_delta_depends_on_the_signs_alone(data):
    """The reference determinant at any signed permutation w is the one at
    the identity with x_i negated wherever w(i) < 0: the premise on which
    ``closed_class`` flips the signs of ``delta``."""
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, n))
    chern = data.draw(st.booleans())
    perm = data.draw(st.permutations(range(1, n + 1)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    w = tuple(s * v for s, v in zip(signs, perm))
    ring = Ring(n, n, n)
    flips = {ring.var_index("x", i): -ring.x(i) for i, v in enumerate(w, start=1) if v < 0}
    assert orbit_delta(ring, m, w, chern) == (
        orbit_delta(ring, m, identity_weyl(n), chern).substitute(flips))


# ---------------------------------------------------------------------------
# two-component closed orbits
# ---------------------------------------------------------------------------


class TestComponentClasses:
    @pytest.mark.parametrize("shape", [(2, 1), (1, 2), (3, 1), (2, 2)])
    def test_sum_of_components_is_the_class(self, shape):
        case = case_from_params("b-so", *shape)
        n = case.grank
        pi = tuple([-1] + list(range(2, n + 1)))
        for c in closed_clans(case):
            w = distinguished_representative(case, c)
            total = (
                component_class(case, w).expand()
                + component_class(case, weyl_compose(pi, w)).expand()
            )
            assert total == closed_class(case, c).expand()

    def test_component_halves_are_genuinely_different(self):
        case = desk_case("b-so")
        w = distinguished_representative(case, pc(case, "++---++"))
        pi = (-1, 2, 3)
        f = component_class(case, w).expand()
        g = component_class(case, weyl_compose(pi, w)).expand()
        assert f != g
        # each half uses the y-monomial block the full class cancels
        assert any(
            exps[case.grank] > 0 for exps in f.terms
        ), "expected y1 to appear in a single component"

    def test_rejected_outside_odd_orthogonal(self):
        with pytest.raises(FormulaError):
            component_class(desk_case("a"), (1, 2, 3, 4))


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------


class TestLocalization:
    @pytest.mark.parametrize("tag", sorted(DESK))
    def test_desk_cases_verify(self, tag):
        case = desk_case(tag)
        g = weak_order_graph(case)
        report = verify_localization(g, all_classes(g))
        assert report.ok
        assert report.dense_ok
        assert report.failures == ()
        assert report.support_checked == (tag != "d-oxo-odd")
        if tag == "d-oxo-odd":
            assert report.support_pairs_checked == 0

    def test_support_check_reads_the_down_set_bits(self):
        case = desk_case("a")
        poset = full_closure_order(weak_order_graph(case))
        assert verify_localization(poset, all_classes(poset)).ok
        assert "full_order" not in vars(poset)

    def test_closed_restriction_product_example(self):
        # at the identity of the determinantal family: weights
        # {y1+y2, 2y1, 2y2} multiply to 4 y1 y2 (y1+y2)
        case = desk_case("c-sp-gl")
        ring = formula_ring(case)
        got = closed_restriction_product(case, (1, 2))
        assert got == parse_poly("4*y1*y2*(y1+y2)", ring)

    def test_restriction_at_fixed_point_example(self):
        case = desk_case("a")
        ring = formula_ring(case)
        f = closed_class(case, pc(case, "++--")).expand()
        got = restrict_at(case, f, (1, 2, 3, 4))
        assert got == parse_poly("(y1-y3)(y1-y4)(y2-y3)(y2-y4)", ring)

    def test_restriction_kills_unrelated_closed_orbit(self):
        case = desk_case("a")
        classes = y_classes(weak_order_graph(case))
        f = classes[pc(case, "++--")]
        w = distinguished_representative(case, pc(case, "--++"))
        assert restrict_at(case, f, w).is_zero()

    def test_branched_case_zero_slot(self):
        case = desk_case("d-oxo-odd")
        ring = formula_ring(case)
        # w sends position 1 to absolute value p+1 = 2, which restricts to 0
        f = ring.x(1) + ring.y(3)
        assert restrict_at(case, f, (2, 1, 3)) == ring.y(3)
        assert restrict_at(case, ring.x(1), (-2, 1, 3)).is_zero()

    def test_detects_wrong_class(self):
        case = desk_case("c-sp-gl")
        g = weak_order_graph(case)
        classes = dict(all_classes(g))
        ring = formula_ring(case)
        wrong = dict(classes)
        wrong[pc(case, "++--")] = classes[pc(case, "++--")] + ring.one
        report = verify_localization(g, wrong)
        assert not report.ok
        assert report.failures


# the cases with a fixed-point dictionary, where the support is checked
COVERED = sorted(t for t in DESK if t != "d-oxo-odd")


def _act_on_y(ring, u):
    """The images of the y-variables under the signed permutation u."""
    return {ring.var_index("y", a): ring.y(abs(v)) * (1 if v > 0 else -1)
            for a, v in enumerate(u, start=1)}


class TestOnePointSupport:
    """The premises of checking the support at one fixed point per orbit."""

    @pytest.mark.parametrize("tag", COVERED)
    def test_fixed_points_of_an_orbit_are_one_k_weyl_orbit(self, tag):
        case = desk_case(tag)
        group = k_weyl_group(case)
        for points in fixed_points_by_clan(case).values():
            assert {weyl_compose(u, min(points)) for u in group} == set(points)

    @pytest.mark.parametrize("tag", COVERED)
    def test_identity_component_splits_fibres_only_of_disconnected_k(self, tag):
        """W_K alone (``wk_member``) leaves two orbits in each fibre exactly
        in the S(O x O) pairs, where K has a second component."""
        case = desk_case(tag)
        wk = [u for u in ambient_weyl(case) if wk_member(case, u)]
        disconnected = any(t == "D" for t, _ in case.k_blocks)
        assert disconnected == (tag in ("b-so", "d-oxo-even"))
        assert len(k_weyl_group(case)) == len(wk) * (2 if disconnected else 1)
        for points in fixed_points_by_clan(case).values():
            orbits = {frozenset(weyl_compose(u, w) for u in wk) for w in points}
            assert len(orbits) == (2 if disconnected else 1)

    @pytest.mark.parametrize("tag", COVERED)
    def test_restriction_is_k_weyl_equivariant(self, tag):
        """restrict_at(f, u.w) is u acting on the y's of restrict_at(f, w)."""
        case = desk_case(tag)
        ring = formula_ring(case)
        classes = y_classes(weak_order_graph(case))
        group = sorted(k_weyl_group(case))
        for f in classes.values():
            for w in ambient_weyl(case):
                at_w = restrict_at(case, f, w)
                for u in group:
                    assert restrict_at(case, f, weyl_compose(u, w)) == at_w.substitute(
                        _act_on_y(ring, u))

    @pytest.mark.parametrize("tag,p,q", DESK_RANKS + (("a", 2, 3), ("a", 3, 3),
                                                      ("d-so-gl", 4, 4)))
    def test_matches_check_at_every_fixed_point(self, tag, p, q):
        g = weak_order_graph(case_from_params(tag, p, q))
        classes = all_classes(g)
        report = verify_localization(g, classes)
        assert report.ok
        assert report == verify_localization_every_point(g, classes)

    def test_wrong_class_reported_alike(self):
        case = desk_case("a")
        g = weak_order_graph(case)
        classes = dict(all_classes(g))
        c = pc(case, "1+-1")
        classes[c] = classes[c] + formula_ring(case).one
        report = verify_localization(g, classes)
        assert not report.ok and report.failures
        assert report == verify_localization_every_point(g, classes)


class TestOnePointClosedCheck:
    """The premises of checking each closed orbit at one fixed point, and of
    restricting z-forms before expanding them."""

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 2), (1, 3), (3, 1), (2, 3), (1, 4)])
    def test_d_oxo_odd_closed_points_by_formula(self, p, q):
        """``verify_localization`` counts the closed points of d-oxo-odd by
        formula; it equals the listed fixed points of the closed orbits.
        Only the closed and dense classes are read there (the support is not
        checked), so the seeds stand in for propagation, which is path
        dependent at (1,3), (2,3) and (1,4)."""
        case = CaseId("d-oxo-odd", p, q)
        g = weak_order_graph(case)
        classes = {c: closed_class(case, c, chern=True).expand() for c in g.minima()}
        classes[g.top] = formula_ring(case).one
        report = verify_localization(g, classes)
        assert report.ok and not report.support_checked
        assert report.closed_points_checked == sum(
            len(closed_orbit_fixed_points(case, c)) for c in g.minima())

    @pytest.mark.parametrize("tag,p,q", DESK_RANKS + (("d-so-gl", 5, 5),))
    def test_weight_product_is_k_weyl_equivariant(self, tag, p, q):
        """closed_restriction_product(u.w) is u acting on the y's of
        closed_restriction_product(w), and u.w runs over the closed orbit's
        fixed points."""
        case = case_from_params(tag, p, q)
        ring = formula_ring(case)
        group = sorted(k_weyl_group(case))
        for c in closed_clans(case):
            w = distinguished_representative(case, c)
            product = closed_restriction_product(case, w)
            assert {weyl_compose(u, w) for u in group} == set(
                closed_orbit_fixed_points(case, c))
            for u in group:
                assert closed_restriction_product(case, weyl_compose(u, w)) == (
                    product.substitute(_act_on_y(ring, u)))

    @pytest.mark.parametrize("tag", sorted(DESK))
    def test_restriction_commutes_with_expansion(self, tag):
        case = desk_case(tag)
        for f in all_classes(weak_order_graph(case)).values():
            y_form = expand_class(case, f)
            for w in ambient_weyl(case):
                assert expand_class(case, restrict_at(case, f, w)) == restrict_at(case, y_form, w)

    @pytest.mark.parametrize("tag", sorted(DESK))
    def test_wrong_seed_reported_alike(self, tag, monkeypatch):
        """A seed plus a term in the z's alone propagates unchanged (every
        divided difference kills it), so only the closed check and the
        support of that one closed class see it."""
        case = desk_case(tag)
        g = weak_order_graph(case)
        ring = formula_ring(case)
        target = g.minima()[-1]
        seed = closed_class

        def wrong_seed(case, c, chern=False):
            fp = seed(case, c, chern)
            if c != target:
                return fp
            extra = ring.var("z", 1) ** (g.max_rank - g.ranks[c])
            return FactoredPoly(ring, 1, [fp.expand() + extra])

        monkeypatch.setattr(formulas, "closed_class", wrong_seed)
        classes = all_classes(g)
        report = verify_localization(g, classes)
        every = verify_localization_every_point(g, classes)
        # the reference names every failing fixed point of the orbit, the
        # one-point check its distinguished representative
        mismatch = f"closed restriction mismatch at {target.to_text()}, fixed point "
        w = distinguished_representative(case, target)
        points = closed_orbit_fixed_points(case, target)
        assert report.failures[0] == mismatch + str(w)
        assert every.failures[:len(points)] == tuple(mismatch + str(u) for u in points)
        assert report.failures[1:] == every.failures[len(points):]
        assert (report.closed_points_checked, report.support_pairs_checked) == (
            every.closed_points_checked, every.support_pairs_checked)
        if report.support_checked:
            assert len(report.failures) == len(g.minima())
            assert all(f.startswith(f"nonzero restriction of {target.to_text()} ")
                       for f in report.failures[1:])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_restriction_is_a_ring_homomorphism(data):
    tag = data.draw(st.sampled_from(sorted(DESK)))
    case = desk_case(tag)
    ring = formula_ring(case)
    n = case.grank
    w = data.draw(st.sampled_from(weyl_elements(case.family, n)))

    def small_poly():
        terms = data.draw(
            st.lists(
                st.tuples(
                    st.lists(
                        st.integers(min_value=0, max_value=2),
                        min_size=2 * n,
                        max_size=2 * n,
                    ),
                    st.integers(min_value=-4, max_value=4),
                ),
                max_size=4,
            )
        )
        out = ring.zero
        for exps, coeff in terms:
            out = out + ring.monomial(tuple(exps) + (0,) * n, Fraction(coeff))
        return out

    f, g = small_poly(), small_poly()
    assert restrict_at(case, f + g, w) == restrict_at(case, f, w) + restrict_at(
        case, g, w
    )
    assert restrict_at(case, f * g, w) == restrict_at(case, f, w) * restrict_at(
        case, g, w
    )
    assert restrict_at(case, ring.one, w) == ring.one


# ---------------------------------------------------------------------------
# Chern-class forms
# ---------------------------------------------------------------------------


class TestChern:
    def test_blocks_per_case(self):
        assert chern_blocks(desk_case("a")) == ((1, 2), (3, 2))
        assert chern_blocks(desk_case("b-so")) == ((1, 2), (3, 1))
        assert chern_blocks(desk_case("c-spxsp")) == ((1, 2), (3, 1))
        assert chern_blocks(desk_case("c-sp-gl")) == ((1, 2),)
        assert chern_blocks(desk_case("d-oxo-even")) == ((1, 2), (3, 1))
        assert chern_blocks(desk_case("d-so-gl")) == ((1, 3),)
        assert chern_blocks(desk_case("d-oxo-odd")) == ((1, 1), (3, 1))

    def test_pinned_factored_output(self):
        case = desk_case("a")
        fp = chern_factored(case, pc(case, "++--"))
        assert fp.to_text() == "(x1^2 - x1*z3 + z4)(x2^2 - x2*z3 + z4)"

    def test_monomial_prefix_output(self):
        case = desk_case("d-oxo-odd")
        fp = chern_factored(case, pc(case, "+-11-+"))
        assert fp.to_text() == "x1*x2(x1 - z3)(x1 + z3)"

    def test_single_block_family(self):
        case = desk_case("c-sp-gl")
        f = chern_class(case, pc(case, "1122"))
        assert f == parse_poly("2*x1*x2 - 2*z2", formula_ring(case))

    def test_non_closed_clan_expands(self):
        case = desk_case("a")
        f = chern_class(case, pc(case, "1+-1"))
        # x1+x2-y3-y4 with e_1(y3,y4) -> z3
        assert f == parse_poly("x1+x2-z3", formula_ring(case))

    def test_factored_equals_expanded(self):
        for tag in sorted(DESK):
            case = desk_case(tag)
            for c in closed_clans(case):
                assert chern_factored(case, c).expand() == chern_class(case, c)

    def test_clan_outside_family_rejected(self):
        case = case_from_params("b-so", 2, 1)
        c = parse_clan("++-+-+-", 4, 3)
        for fn in (chern_class, chern_factored):
            with pytest.raises(ClanError, match=r"\+\+-\+-\+- is not a clan of case b-so"):
                fn(case, c)

    def test_unsymmetric_input_rejected(self):
        case = desk_case("a")
        ring = formula_ring(case)
        from orbitcalc.poly import chern_substitute

        with pytest.raises(PolyError):
            chern_substitute(ring.y(3), chern_blocks(case))


# ---------------------------------------------------------------------------
# propagation sanity
# ---------------------------------------------------------------------------


class TestPropagation:
    def test_all_paths_checked(self):
        # the dense clan of the desk type-A case has many incoming paths;
        # all_classes raises if any pair disagrees, so success here means
        # path independence was genuinely exercised
        case = desk_case("a")
        g = weak_order_graph(case)
        in_degree = Counter(dst for _, dst, _, _ in g.weak_edges)
        multi_parent = [c for c in g.nodes if in_degree[c] > 1]
        assert len(multi_parent) >= 5
        all_classes(g)

    def test_divided_difference_drops_degree(self):
        case = desk_case("b-so")
        g = weak_order_graph(case)
        classes = y_classes(g)
        for src, dst, _, _ in g.weak_edges:
            assert classes[dst].degree() == classes[src].degree() - 1


# ---------------------------------------------------------------------------
# z-form propagation against the y-form reference
# ---------------------------------------------------------------------------

ZFORM_RANKS = DESK_RANKS + (("a", 2, 3), ("a", 3, 3), ("d-so-gl", 4, 4))


@pytest.mark.parametrize("tag,p,q", ZFORM_RANKS)
def test_z_classes_match_the_y_form_reference(tag, p, q):
    case = case_from_params(tag, p, q)
    poset = weak_order_graph(case)
    z, y = all_classes(poset), y_all_classes(poset)
    assert z.keys() == y.keys()
    blocks = chern_blocks(case)
    for c, f in z.items():
        assert expand_class(case, f) == y[c], c.to_text()
        assert f == chern_substitute(y[c], blocks), c.to_text()


@pytest.mark.parametrize("tag,p,q", ZFORM_RANKS)
def test_direct_z_seeds_are_the_rewritten_closed_classes(tag, p, q):
    case = case_from_params(tag, p, q)
    blocks = chern_blocks(case)
    for c in weak_order_graph(case).minima():
        seed = closed_class(case, c, chern=True)
        assert seed.expand() == chern_substitute(closed_class(case, c).expand(), blocks)


def _doctored(poset: OrbitPoset, k: int, **change) -> OrbitPoset:
    """The poset with its k-th weak edge's target or degree changed."""
    edges = list(poset.weak_edges)
    src, dst, i, deg = edges[k]
    edges[k] = (src, change.get("dst", dst), i, change.get("deg", deg))
    return OrbitPoset(poset.case, poset.nodes, tuple(edges), poset.ranks)


def _weak_down_set(poset: OrbitPoset, c) -> set:
    down, todo = {c}, [c]
    while todo:
        d = todo.pop()
        for src, dst, _, _ in poset.weak_edges:
            if dst == d and src not in down:
                down.add(src)
                todo.append(src)
    return down


class TestPropagationMutations:
    """A wrong weak graph or a seed of the wrong weight still fails."""

    @pytest.mark.parametrize("tag", sorted(DESK))
    def test_wrong_edge_degree_is_path_dependent(self, tag):
        poset = weak_order_graph(desk_case(tag))
        in_degree = Counter(dst for _, dst, _, _ in poset.weak_edges)
        for k, (_, dst, _, deg) in enumerate(poset.weak_edges):
            if in_degree[dst] > 1:
                with pytest.raises(FormulaError, match="propagation is path dependent"):
                    all_classes(_doctored(poset, k, deg=3 - deg))
                return
        pytest.fail("no orbit with two incoming edges")

    @pytest.mark.parametrize("tag", sorted(DESK))
    def test_edge_to_a_wrong_target_is_path_dependent(self, tag):
        poset = weak_order_graph(desk_case(tag))
        in_degree = Counter(dst for _, dst, _, _ in poset.weak_edges)
        for k, (_, dst, _, _) in enumerate(poset.weak_edges):
            others = [t for t in poset.nodes if t != dst and in_degree[t]
                      and poset.ranks[t] == poset.ranks[dst]]
            if in_degree[dst] > 1 and others:
                with pytest.raises(FormulaError, match="propagation is path dependent"):
                    all_classes(_doctored(poset, k, dst=others[0]))
                return
        pytest.fail("no edge with a target to move")

    def test_term_of_wrong_weight_fails_homogeneity(self, monkeypatch):
        case = desk_case("a")
        ring = formula_ring(case)
        poset = weak_order_graph(case)
        seeds_only = OrbitPoset(case, poset.nodes, (), poset.ranks)
        all_classes(seeds_only)
        closed = closed_class
        # x1^3*z2 has the seeds' plain degree 4 but weight 5 (z2 = e_2(y1, y2))
        extra = parse_poly("x1^3*z2", ring)

        def doctored(case, c, chern=False):
            fp = closed(case, c, chern)
            return FactoredPoly(ring, 1, [fp.expand() + extra]) if c == poset.nodes[0] else fp

        monkeypatch.setattr(formulas, "closed_class", doctored)
        assert extra.degree() == 4
        with pytest.raises(FormulaError, match="not homogeneous of degree 4"):
            all_classes(seeds_only)


class TestChernDownSet:
    @pytest.mark.parametrize("tag", sorted(DESK))
    def test_propagates_the_weak_down_set_alone(self, tag):
        poset = weak_order_graph(desk_case(tag))
        full = all_classes(poset)
        for c in poset.nodes:
            part = all_classes(poset, c)
            assert part.keys() == _weak_down_set(poset, c)
            assert all(part[d] == full[d] for d in part)

    def test_failure_outside_the_down_set_is_not_seen(self):
        case = desk_case("a")
        poset = weak_order_graph(case)
        in_degree = Counter(dst for _, dst, _, _ in poset.weak_edges)
        k, (_, dst, _, deg) = next((k, e) for k, e in enumerate(poset.weak_edges)
                                   if in_degree[e[1]] > 1)
        bad = _doctored(poset, k, deg=3 - deg)
        with pytest.raises(FormulaError, match="propagation is path dependent"):
            all_classes(bad)
        outside = next(c for c in poset.nodes if dst not in _weak_down_set(poset, c)
                       and poset.ranks[c] > 0)
        assert all_classes(bad, outside)[outside] == all_classes(poset)[outside]
        inside = next(c for c in poset.nodes if dst in _weak_down_set(poset, c) and c != dst)
        with pytest.raises(FormulaError, match="propagation is path dependent"):
            all_classes(bad, inside)
