"""Tests for exact polynomial arithmetic, operators, and display."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitcalc.poly import (
    FactoredPoly,
    Polynomial,
    PolyError,
    Ring,
    chern_substitute,
    determinant,
    divided_difference,
    elem_sym,
    parse_poly,
    reflect_x,
    simple_root_poly,
)

R = Ring(4, 4, 4)


@st.composite
def polys(draw, ring=R, max_terms=6, max_exp=3, x_only=False):
    width = ring.nx if x_only else ring.width
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = [0] * ring.width
        for k in range(draw(st.integers(min_value=0, max_value=3))):
            exps[draw(st.integers(min_value=0, max_value=width - 1))] += draw(
                st.integers(min_value=1, max_value=max_exp)
            )
        terms[tuple(exps)] = Fraction(
            draw(st.integers(min_value=-9, max_value=9)),
            draw(st.integers(min_value=1, max_value=4)),
        )
    return Polynomial(ring, terms)


# ---------------------------------------------------------------------------
# Ring and construction
# ---------------------------------------------------------------------------


def test_ring_vars():
    assert R.x(1).to_text() == "x1"
    assert R.y(4).to_text() == "y4"
    assert R.z(2).to_text() == "z2"
    with pytest.raises(PolyError):
        R.x(5)
    with pytest.raises(PolyError):
        R.z(0)
    assert R.const(0).is_zero()
    assert R.zero.to_text() == "0"


def test_arithmetic_basics():
    f = (R.x(1) + R.y(1)) * (R.x(1) - R.y(1))
    assert f == R.x(1) ** 2 - R.y(1) ** 2
    assert (f - f).is_zero()
    assert (R.x(1) * 0).is_zero()
    assert R.x(1) ** 0 == R.one
    assert (R.x(1) + 1) - 1 == R.x(1)
    assert 2 * R.x(1) == R.x(1) + R.x(1)
    with pytest.raises(PolyError):
        R.x(1) ** -1


def test_cross_ring_operations_rejected():
    other = Ring(2, 2, 0)
    with pytest.raises(PolyError):
        R.x(1) + other.x(1)
    with pytest.raises(PolyError):
        R.x(1).substitute({R.var_index("x", 1): other.x(1)})


def test_degree_and_lead():
    f = parse_poly("x1^2 - x1*z3 + z4", R)
    assert f.degree() == 2
    assert not f.is_homogeneous()
    exps, coeff = f.lead()
    assert coeff == 1 and exps[R.var_index("x", 1)] == 2
    assert R.zero.degree() == -1
    with pytest.raises(PolyError):
        R.zero.lead()


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------


def test_print_format_pinned():
    f = parse_poly("x1^2 - x1*z3 + z4", R)
    assert f.to_text() == "x1^2 - x1*z3 + z4"
    assert parse_poly("1/2*x1 + 1", R).to_text() == "1/2*x1 + 1"
    assert (-R.x(1)).to_text() == "-x1"
    assert (R.x(1) * R.x(2) * 2).to_text() == "2*x1*x2"


def test_parse_juxtaposition_and_fractions():
    assert parse_poly("2x1x2", R) == 2 * R.x(1) * R.x(2)
    assert parse_poly("(x1 - y3)(x1 + y3)", R) == R.x(1) ** 2 - R.y(3) ** 2
    assert parse_poly("1/2(x1 + x2)", R) == Fraction(1, 2) * (R.x(1) + R.x(2))
    assert parse_poly("-1/4*(x1)", R) == Fraction(-1, 4) * R.x(1)
    assert parse_poly("-x1*x3", R) == -(R.x(1) * R.x(3))
    assert parse_poly("x1 − x2", R) == R.x(1) - R.x(2)
    assert parse_poly("x1^3", R) == R.x(1) ** 3


def test_parse_errors():
    with pytest.raises(PolyError):
        parse_poly("", R)
    with pytest.raises(PolyError):
        parse_poly("x1 +", R)
    with pytest.raises(PolyError):
        parse_poly("w1", R)
    with pytest.raises(PolyError):
        parse_poly("(x1", R)
    with pytest.raises(PolyError):
        parse_poly("x1/x2", R)
    with pytest.raises(PolyError):
        parse_poly("x9", R)


@given(polys())
@settings(max_examples=100, deadline=None)
def test_text_round_trip(f):
    assert parse_poly(f.to_text(), R) == f


# ---------------------------------------------------------------------------
# Algebraic laws
# ---------------------------------------------------------------------------


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def reference_substitute(f, images):
    """The earlier ``Polynomial.substitute``, kept as the reference: it builds
    each term's image separately and adds it to a running total."""
    if not images:
        return f
    ring = f.ring
    cache = {}

    def power(idx, k):
        key = (idx, k)
        if key not in cache:
            cache[key] = images[idx] ** k
        return cache[key]

    total = ring.zero
    for exps, coeff in f.terms.items():
        untouched = list(exps)
        piece = ring.const(coeff)
        for idx, e in enumerate(exps):
            if e and idx in images:
                untouched[idx] = 0
                piece = piece * power(idx, e)
        if any(untouched):
            piece = piece * ring.monomial(tuple(untouched))
        total = total + piece
    return total


S = Ring(2, 2, 1)  # few variables, so that images of different terms collide


@st.composite
def substitutions(draw):
    """Images for a few slots of S: polynomials, zero, or signed variables.
    Half of the variable images permute the substituted slots, so swaps that
    must happen simultaneously (x1 -> x2, x2 -> x1) occur."""
    slots = draw(st.lists(st.integers(0, S.width - 1), unique=True, max_size=4))
    targets = draw(st.permutations(slots))
    images = {}
    for idx, target in zip(slots, targets):
        kind = draw(st.sampled_from(("poly", "zero", "swap", "var")))
        if kind == "poly":
            images[idx] = draw(polys(ring=S, max_terms=3, max_exp=2))
        elif kind == "zero":
            images[idx] = S.zero
        else:
            if kind == "var":
                target = draw(st.integers(0, S.width - 1))
            images[idx] = S.monomial({target: 1}, draw(st.sampled_from((1, -1))))
    return images


@given(polys(ring=S), substitutions())
@settings(max_examples=200, deadline=None)
def test_substitute_matches_reference(f, images):
    assert f.substitute(images) == reference_substitute(f, images)


def test_substitute_examples():
    x1, x2 = R.var_index("x", 1), R.var_index("x", 2)
    f = R.x(1) + 2 * R.x(2) ** 2 + R.y(1)
    assert f.substitute({x1: R.x(2), x2: R.x(1)}) == R.x(2) + 2 * R.x(1) ** 2 + R.y(1)
    assert f.substitute({x1: R.zero, x2: -R.y(2)}) == 2 * R.y(2) ** 2 + R.y(1)
    assert f.substitute({x2: R.x(1)}) == R.x(1) + 2 * R.x(1) ** 2 + R.y(1)
    assert (R.x(1) + R.x(2)).substitute({x1: R.x(2)}) == 2 * R.x(2)
    assert f.substitute({}) is f
    for idx in (-1, R.width):
        with pytest.raises(PolyError):
            f.substitute({idx: R.one})


# ---------------------------------------------------------------------------
# Weyl action and divided differences
# ---------------------------------------------------------------------------


ALL_TYPES = [("A", 4), ("B", 4), ("C", 4), ("D", 4)]


def _root_indices(lie_type, rank):
    return range(1, rank) if lie_type == "A" else range(1, rank + 1)


@pytest.mark.parametrize("lie_type,rank", ALL_TYPES)
@given(f=polys(x_only=True))
@settings(max_examples=40, deadline=None)
def test_divided_difference_identities(lie_type, rank, f):
    for i in _root_indices(lie_type, rank):
        d = divided_difference(f, lie_type, rank, i)
        alpha = simple_root_poly(R, lie_type, rank, i)
        assert alpha * d + reflect_x(f, lie_type, rank, i) == f
        assert divided_difference(d, lie_type, rank, i).is_zero()


@pytest.mark.parametrize("lie_type,rank", ALL_TYPES)
@given(f=polys(x_only=True), g=polys(x_only=True))
@settings(max_examples=25, deadline=None)
def test_divided_difference_leibniz(lie_type, rank, f, g):
    for i in _root_indices(lie_type, rank):
        lhs = divided_difference(f * g, lie_type, rank, i)
        rhs = divided_difference(f, lie_type, rank, i) * g + reflect_x(
            f, lie_type, rank, i
        ) * divided_difference(g, lie_type, rank, i)
        assert lhs == rhs


def test_divided_difference_examples():
    assert divided_difference(R.x(1), "A", 4, 1) == R.one
    assert divided_difference(R.x(2), "A", 4, 1) == -R.one
    assert divided_difference(R.x(1) ** 2, "A", 4, 1) == R.x(1) + R.x(2)
    assert divided_difference(R.x(4), "B", 4, 4) == 2 * R.one
    assert divided_difference(R.x(4), "C", 4, 4) == R.one
    assert divided_difference(R.x(3), "D", 4, 4) == R.one
    assert divided_difference(R.x(4), "D", 4, 4) == R.one
    assert divided_difference(R.x(3) * R.x(4), "D", 4, 4).is_zero()
    assert divided_difference(R.y(1), "A", 4, 1).is_zero()
    with pytest.raises(PolyError):
        divided_difference(R.x(1), "A", 4, 4)
    with pytest.raises(PolyError):
        divided_difference(R.x(1), "E", 4, 1)


# ---------------------------------------------------------------------------
# Symmetric functions, determinants
# ---------------------------------------------------------------------------


def test_elem_sym_generating_function():
    gens = [R.x(1), -R.x(2), R.y(1)]
    # prod (1 + t g) coefficient check via direct expansion at each degree
    assert elem_sym(R, 0, gens) == R.one
    assert elem_sym(R, 1, gens) == R.x(1) - R.x(2) + R.y(1)
    assert elem_sym(R, 2, gens) == (
        -R.x(1) * R.x(2) + R.x(1) * R.y(1) - R.x(2) * R.y(1)
    )
    assert elem_sym(R, 3, gens) == -R.x(1) * R.x(2) * R.y(1)
    assert elem_sym(R, 4, gens).is_zero()
    assert elem_sym(R, -1, gens).is_zero()


def test_determinant_matches_permutation_expansion():
    entries = [
        [R.x(1), R.y(1), R.one],
        [R.const(2), R.x(2), R.y(2)],
        [R.z(1), R.zero, R.x(3)],
    ]
    expected = R.zero
    for perm in itertools.permutations(range(3)):
        sign = 1
        for a in range(3):
            for b in range(a + 1, 3):
                if perm[a] > perm[b]:
                    sign = -sign
        piece = R.const(sign)
        for row, col in enumerate(perm):
            piece = piece * entries[row][col]
        expected = expected + piece
    assert determinant(entries) == expected


def test_determinant_band_identity():
    c = {0: R.const(2), 1: R.x(1), 2: R.x(2)}
    mat = [[c[1], c[2]], [c[0], c[1]]]
    assert determinant(mat) == c[1] * c[1] - c[0] * c[2]


# ---------------------------------------------------------------------------
# Chern substitution
# ---------------------------------------------------------------------------

BLOCKS_22 = [(1, 2), (3, 2)]


def test_chern_pinned_example():
    f = parse_poly("(x1 - y3)(x1 - y4)(x2 - y3)(x2 - y4)", R)
    assert chern_substitute(f, BLOCKS_22) == parse_poly("(x1^2 - x1*z3 + z4)(x2^2 - x2*z3 + z4)", R)


def test_chern_linear_example():
    f = parse_poly("x1 + x2 - y3 - y4", R)
    assert chern_substitute(f, BLOCKS_22) == parse_poly("x1 + x2 - z3", R)


def test_chern_both_blocks():
    f = parse_poly("(y1 + y2)(y3*y4) + x1", R)
    assert chern_substitute(f, BLOCKS_22) == parse_poly("z1*z4 + x1", R)


def test_chern_single_block_full_width():
    f = elem_sym(R, 2, [R.y(i) for i in range(1, 5)])
    assert chern_substitute(f, [(1, 4)]) == R.z(2)


def test_chern_power_sums():
    f = R.y(3) ** 2 + R.y(4) ** 2
    assert chern_substitute(f, BLOCKS_22) == R.z(3) ** 2 - 2 * R.z(4)


def test_chern_not_symmetric_raises():
    with pytest.raises(PolyError):
        chern_substitute(R.y(3), BLOCKS_22)
    with pytest.raises(PolyError):
        chern_substitute(R.y(3) - R.y(4), BLOCKS_22)
    with pytest.raises(PolyError):
        chern_substitute(R.y(1), [(3, 2)])  # y1 outside every block


def test_chern_needs_enough_z_vars():
    small = Ring(2, 3, 1)
    with pytest.raises(PolyError):
        chern_substitute(small.y(1) + small.y(2) + small.y(3), [(1, 3)])


@given(polys(max_terms=4, max_exp=2))
@settings(max_examples=50, deadline=None)
def test_chern_on_symmetrized_input(f):
    # Symmetrize f within both blocks, then substitution must succeed and be
    # correct under evaluation: reconstruct by replacing z_k with e_k again.
    # Drop z variables from the input so the back-substitution is faithful.
    f = f.substitute({R.var_index("z", k): R.one for k in range(1, R.nz + 1)})
    y1, y2, y3, y4 = (R.var_index("y", i) for i in range(1, 5))

    def swap(poly, a, b):
        return poly.substitute({a: R.monomial({b: 1}), b: R.monomial({a: 1})})

    sym = f + swap(f, y1, y2)
    sym = sym + swap(sym, y3, y4)
    image = chern_substitute(sym, BLOCKS_22)
    back = image.substitute(
        {
            R.var_index("z", 1): R.y(1) + R.y(2),
            R.var_index("z", 2): R.y(1) * R.y(2),
            R.var_index("z", 3): R.y(3) + R.y(4),
            R.var_index("z", 4): R.y(3) * R.y(4),
        }
    )
    assert back == sym


# ---------------------------------------------------------------------------
# Factored form
# ---------------------------------------------------------------------------


def test_factored_display_forms():
    assert FactoredPoly(R, 1, [parse_poly("x1^2 - x1*z3 + z4", R),
                               parse_poly("x2^2 - x2*z3 + z4", R)]).to_text() == \
        "(x1^2 - x1*z3 + z4)(x2^2 - x2*z3 + z4)"
    assert FactoredPoly(R, 2, [R.x(1), R.x(2), parse_poly("x1 - y3", R)]).to_text() == \
        "2*x1*x2(x1 - y3)"
    assert FactoredPoly(R, Fraction(1, 2), [parse_poly("x1 + x2", R)]).to_text() == \
        "1/2(x1 + x2)"
    assert FactoredPoly(R, -1, [parse_poly("x1 - y3", R)]).to_text() == "-(x1 - y3)"
    assert FactoredPoly(R, 1, []).to_text() == "1"
    assert FactoredPoly(R, 2, [R.x(1)]).to_text() == "2*x1"
    assert FactoredPoly(R, 0, [R.x(1)]).to_text() == "0"
    assert FactoredPoly(R, 3, [R.zero, R.x(1)]).to_text() == "0"


def test_factored_expand_and_mul():
    fp = FactoredPoly(R, 2, [R.x(1)]) * (R.x(2) + 1) * Fraction(1, 2)
    assert fp.expand() == R.x(1) * (R.x(2) + 1)
    assert isinstance(fp, FactoredPoly)


def test_factored_text_parses_back():
    cases = [
        FactoredPoly(R, 1, [parse_poly("x1 - y3", R), parse_poly("x1 + y3", R)]),
        FactoredPoly(R, -3, [R.x(2), parse_poly("x1 + x2 - y3 - y4", R)]),
        FactoredPoly(R, Fraction(1, 4), [parse_poly("x1 + y1", R)] * 2),
        FactoredPoly(R, Fraction(-1, 2), []),
    ]
    for fp in cases:
        assert parse_poly(fp.to_text(), R) == fp.expand()
