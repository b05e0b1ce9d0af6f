"""Tests for exact polynomial arithmetic, operators, and display."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitcalc.clans import DESK_RANKS, case_from_params, enumerate_case_clans
from orbitcalc.formulas import (all_classes, chern_blocks, chern_factored, closed_class, delta,
                                formula_ring, restrict_at)
from orbitcalc.orbits import weak_order_graph
from orbitcalc.poly import (
    ChernExpansion,
    FactoredPoly,
    Polynomial,
    MAX_DEGREE,
    PolyError,
    Ring,
    chern_substitute,
    determinant,
    divided_difference,
    elem_sym,
)
from orbitcalc.parse import parse_poly
from orbitcalc.weyl import closed_orbit_fixed_points
from reference import (
    expand_class,
    fraction_add,
    fraction_mul,
    fraction_pow,
    fraction_scale,
    fraction_substitute,
    fraction_terms,
    fraction_to_text,
    full_key_factored_text,
    full_key_to_text,
    reflect_x,
    simple_root_poly,
    tuple_add,
    tuple_chern_substitute,
    tuple_mul,
    tuple_sorted_terms,
    tuple_to_text,
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
    assert R.var("z", 2).to_text() == "z2"
    with pytest.raises(PolyError):
        R.x(5)
    with pytest.raises(PolyError):
        R.var("z", 0)
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
    assert set(map(sum, f.terms)) == {1, 2}
    # homogeneous once z3 = e_1(y3, y4) weighs 1 and z4 = e_2(y3, y4) weighs 2
    assert ChernExpansion(R, BLOCKS_22).degrees(f) == {2}
    exps, coeff = tuple_sorted_terms(f)[0]  # the graded-lex leading term
    assert coeff == 1 and exps[R.var_index("x", 1)] == 2
    assert R.zero.degree() == -1
    assert tuple_sorted_terms(R.zero) == []


def test_integral_coefficients_compare_and_hash_as_ints():
    one = (0,) * R.width
    assert type(Polynomial(R, {one: Fraction(6, 2)}).terms[one]) is int
    assert type(R.const(Fraction(6, 2)).terms[one]) is int
    over_two = Polynomial._from_clean(R, {0: 6}, 2)  # 0 is the packed key of 1
    assert type(over_two.terms[one]) is int and over_two._den == 1
    assert over_two == R.const(3) == 3
    assert hash(over_two) == hash(R.const(3))
    summed = Fraction(1, 2) * R.x(1) + Fraction(5, 2) * R.x(1)
    assert summed == 3 * R.x(1) and hash(summed) == hash(3 * R.x(1))


def test_constructor_rejects_bad_exponent_vectors():
    small = Ring(2, 2, 0)
    for exps in ((1, 0, 0, 0, 5), (1, 0, 0), (-1, 0, 0, 0), (2, -1, 0, 0)):
        with pytest.raises(PolyError):
            Polynomial(small, {exps: 1})
        with pytest.raises(PolyError):
            small.monomial(exps)
    for exps in ({0: -1}, {-1: 1}, {4: 1}):
        with pytest.raises(PolyError):
            small.monomial(exps)


def test_degree_bound():
    top = R.x(1) ** MAX_DEGREE
    assert MAX_DEGREE == 65535
    assert top.degree() == MAX_DEGREE and top.to_text() == "x1^65535"
    assert parse_poly(top.to_text(), R) == top
    with pytest.raises(PolyError, match="70000"):
        parse_poly("x1^70000", R)
    with pytest.raises(PolyError, match="70000"):
        R.x(1) ** 40000 * R.x(2) ** 30000
    with pytest.raises(PolyError, match="65536"):
        top * (R.y(1) + 1)
    with pytest.raises(PolyError, match="65536"):
        R.monomial({0: 65536})
    with pytest.raises(PolyError, match="65536"):
        Polynomial(R, {(65535, 1) + (0,) * (R.width - 2): 1})
    assert (R.x(1) - R.x(1)) ** 70000 == R.zero
    assert R.const(2) ** 70000 == 2 ** 70000


def test_terms_view_shows_exponent_tuples():
    f = parse_poly("3*x1^2*y4 - z1 + 1/2", R)
    x1, y4, z1 = R.var_index("x", 1), R.var_index("y", 4), R.var_index("z", 1)
    exps = tuple(2 if k == x1 else int(k == y4) for k in range(R.width))
    assert len(f.terms) == 3
    assert f.terms[exps] == 3 and exps in f.terms
    assert f.terms[(0,) * R.width] == Fraction(1, 2)
    assert (0,) * (R.width - 1) not in f.terms and (-1,) * R.width not in f.terms
    assert dict(f.terms) == dict(tuple_sorted_terms(f))
    assert f.used_vars() == {x1, y4, z1}
    assert Polynomial(R, f.terms) == f


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
# Packed kernels against the kernels on exponent tuples
# ---------------------------------------------------------------------------

# every bank alone, mixed banks, and the width of the a(3,3) ring
BANK_RINGS = [Ring(3, 0, 0), Ring(0, 2, 0), Ring(0, 0, 2), Ring(1, 1, 1),
              Ring(2, 2, 1), R, Ring(6, 6, 6)]


@st.composite
def ring_and_polys(draw):
    """A ring, two polynomials in it with int and Fraction coefficients and
    small or large exponents, and the second one cancelling a drawn subset
    of the first one's terms when the two are added."""
    ring = draw(st.sampled_from(BANK_RINGS))
    # a term adds up to three exponents, so with 7000 the product f * g * f
    # stays within MAX_DEGREE, above which the product is refused
    max_exp = draw(st.sampled_from((3, 7000)))
    f = draw(polys(ring=ring, max_exp=max_exp))
    g = draw(polys(ring=ring, max_exp=max_exp))
    cancel = draw(st.sets(st.sampled_from(sorted(f.terms)))) if f.terms else set()
    terms = dict(g.terms)
    terms.update({e: -f.terms[e] for e in cancel})
    return ring, f, Polynomial(ring, terms)


@given(ring_and_polys())
@settings(max_examples=150, deadline=None)
def test_arithmetic_matches_tuple_kernels(drawn):
    _, f, g = drawn
    assert f + g == tuple_add(f, g)
    assert f - f == tuple_add(f, -f) == 0
    assert f * g == tuple_mul(f, g)
    assert f * g * f == tuple_mul(tuple_mul(f, g), f)


@given(ring_and_polys())
@settings(max_examples=150, deadline=None)
def test_term_order_and_text_match_tuple_kernels(drawn):
    _, f, g = drawn
    for h in (f, g, f + g, f * g):
        # integer order of the packed keys is graded-lex order
        assert [h.ring._unpack(k) for k in sorted(h._terms, reverse=True)] == [
            e for e, _ in tuple_sorted_terms(h)]
        assert h.to_text() == tuple_to_text(h)
        assert h.degree() == max(map(sum, h.terms), default=-1)


def test_product_cancellation_to_zero():
    f = parse_poly("x1 + y1 - 1/2*z1", R)
    g = parse_poly("x1 - y1 + 1/2*z1", R)
    assert f * g == tuple_mul(f, g) == parse_poly("x1^2 - y1^2 + y1*z1 - 1/4*z1^2", R)
    assert (f * g - tuple_mul(f, g)).is_zero()
    assert (f - f) * g == R.zero and (f - f).to_text() == "0"


@given(polys(max_terms=4, max_exp=2), st.booleans())
@settings(max_examples=60, deadline=None)
def test_chern_substitute_matches_tuple_kernel(f, symmetrize):
    """Symmetric input gives the same rewrite; other input fails in both."""
    if symmetrize:
        y1, y2, y3, y4 = (R.var_index("y", i) for i in range(1, 5))
        for a, b in ((y1, y2), (y3, y4)):
            f = f + f.substitute({a: R.monomial({b: 1}), b: R.monomial({a: 1})})
    try:
        expected = tuple_chern_substitute(f, BLOCKS_22)
    except PolyError:
        with pytest.raises(PolyError):
            chern_substitute(f, BLOCKS_22)
    else:
        assert chern_substitute(f, BLOCKS_22) == expected


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
        kind = draw(st.sampled_from(("poly", "zero", "swap", "var", "scaled", "linear")))
        if kind == "poly":
            images[idx] = draw(polys(ring=S, max_terms=3, max_exp=2))
        elif kind == "zero":
            images[idx] = S.zero
        elif kind == "scaled":  # one variable, coefficient not +-1: 2*x1
            coeff = draw(st.sampled_from((2, -2, 3, Fraction(1, 2), Fraction(-1, 2))))
            images[idx] = S.monomial({target: 1}, coeff)
        elif kind == "linear":  # two variables: x1 - y1
            other = draw(st.integers(0, S.width - 1).filter(lambda k: k != target))
            images[idx] = S.monomial({target: 1}) + S.monomial(
                {other: 1}, draw(st.sampled_from((1, -1)))
            )
        else:
            if kind == "var":
                target = draw(st.integers(0, S.width - 1))
            images[idx] = S.monomial({target: 1}, draw(st.sampled_from((1, -1))))
    return images


def is_signed_variable(image):
    """Whether the image is 0 or +-1 times one variable."""
    ring = image.ring
    return image.is_zero() or any(
        image == sign * ring.monomial({k: 1}) for k in range(ring.width) for sign in (1, -1)
    )


@given(polys(ring=S), substitutions())
@settings(max_examples=200, deadline=None)
def test_substitute_matches_reference(f, images):
    """Signed-variable images agree with the reference; any other image is
    refused."""
    try:
        got = f.substitute(images)
    except PolyError:
        assert not all(is_signed_variable(image) for image in images.values())
    else:
        assert all(is_signed_variable(image) for image in images.values())
        assert got == reference_substitute(f, images)


def _signed_variable_images(case, ring, w):
    """The images of the x-variables at the fixed point w (see restrict_at)."""
    zero_abs = case.p + 1 if case.tag == "d-oxo-odd" else None
    return {
        ring.var_index("x", i): (
            ring.zero if abs(v) == zero_abs else ring.y(abs(v)) * (1 if v > 0 else -1)
        )
        for i, v in enumerate(w, start=1)
    }


@pytest.mark.parametrize("tag,p,q", DESK_RANKS)
def test_restriction_matches_general_substitution(tag, p, q):
    case = case_from_params(tag, p, q)
    poset = weak_order_graph(case)
    classes = {c: expand_class(case, f) for c, f in all_classes(poset).items()}
    ring = formula_ring(case)
    points = 0
    for c in poset.minima():
        for w in closed_orbit_fixed_points(case, c):
            images = _signed_variable_images(case, ring, w)
            assert restrict_at(case, classes[c], w) == reference_substitute(
                classes[c], images
            )
            points += 1
    assert points


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
    for image in (R.one, 2 * R.x(2), R.x(1) + R.y(1), R.x(2) ** 2):
        with pytest.raises(PolyError):
            f.substitute({x1: image})


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


def _reference_dd_swap(f, a, b):
    """The earlier Fraction-based kernels, kept as references."""
    out = {}
    for exps, coeff in f.terms.items():
        i, j = exps[a], exps[b]
        if i == j:
            continue
        lo, hi = (j, i) if i > j else (i, j)
        sign = 1 if i > j else -1
        base = list(exps)
        for t in range(lo, hi):
            base[a] = t
            base[b] = i + j - 1 - t
            key = tuple(base)
            s = out.get(key, Fraction(0)) + sign * coeff
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return Polynomial(f.ring, out)


def _reference_dd_single(f, a, alpha_coeff):
    out = {}
    scale = Fraction(2, alpha_coeff)
    for exps, coeff in f.terms.items():
        i = exps[a]
        if i % 2 == 0:
            continue
        base = list(exps)
        base[a] = i - 1
        key = tuple(base)
        s = out.get(key, Fraction(0)) + scale * coeff
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return Polynomial(f.ring, out)


def _reference_dd_sum(f, a, b):
    out = {}
    for exps, coeff in f.terms.items():
        i, j = exps[a], exps[b]
        if i == j and (i + j) % 2 == 0:
            continue
        lo = min(i, j)
        d = abs(i - j)
        if (i + j) % 2 == 0:
            sign = 1 if i > j else -1
        else:
            sign = 1
        base = list(exps)
        for t in range(d):
            base[a] = lo + d - 1 - t
            base[b] = lo + t
            key = tuple(base)
            term_sign = sign * (1 if t % 2 == 0 else -1)
            s = out.get(key, Fraction(0)) + term_sign * coeff
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return Polynomial(f.ring, out)


def reference_divided_difference(f, lie_type, rank, i):
    x = f.ring.var_index
    if lie_type == "A" or i < rank:
        return _reference_dd_swap(f, x("x", i), x("x", i + 1))
    if lie_type in ("B", "C"):
        return _reference_dd_single(f, x("x", rank), 1 if lie_type == "B" else 2)
    return _reference_dd_sum(f, x("x", rank - 1), x("x", rank))


TYPES_AND_RANKS = [(t, n) for t in "ABCD" for n in (2, 3, 4)]


@pytest.mark.parametrize("lie_type,rank", TYPES_AND_RANKS)
@given(f=polys())
@settings(max_examples=40, deadline=None)
def test_divided_difference_matches_reference(lie_type, rank, f):
    for i in _root_indices(lie_type, rank):
        assert divided_difference(f, lie_type, rank, i) == reference_divided_difference(
            f, lie_type, rank, i
        )


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
    # roots that do not exist; at ("A", 5, 4), x5 lies outside R (nx = 4),
    # so its slot must not be read as the y digit after x4's
    for lie_type, rank, i in [("A", 4, 4), ("E", 4, 1), ("A", 4, 0), ("B", 3, 4),
                              ("D", 1, 1), ("A", 5, 4)]:
        with pytest.raises(PolyError):
            divided_difference(R.x(1), lie_type, rank, i)


# ---------------------------------------------------------------------------
# Optional cross-checks against sympy
# ---------------------------------------------------------------------------


def _to_sympy(sympy, f):
    gens = sympy.symbols(" ".join(f.ring.names))
    total = sympy.Integer(0)
    for exps, coeff in f.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for g, e in zip(gens, exps):
            term *= g ** e
        total += term
    return total, gens


SYMPY_SAMPLES = [
    "x1^3*x2 - 1/2*x2^2*x3 + 3*x1*x4^2 + x3^3*y1",
    "x1*x2*x3*x4 + 2/3*x3^4 - x4^3*z2 + 5",
    "(x1 + x4)^3(x2 - y2) - 1/4*x3*x4^2",
    "(x3 - x4)^2(x3 + x4 + y1)^2 + x2^5",
]


@pytest.mark.parametrize("lie_type,rank", TYPES_AND_RANKS)
def test_divided_difference_matches_sympy(lie_type, rank):
    sympy = pytest.importorskip("sympy")
    for text in SYMPY_SAMPLES:
        f = parse_poly(text, R)
        expr, gens = _to_sympy(sympy, f)
        x = gens[:R.nx]
        for i in _root_indices(lie_type, rank):
            if lie_type == "A" or i < rank:
                alpha = x[i - 1] - x[i]
                swap = {x[i - 1]: x[i], x[i]: x[i - 1]}
            elif lie_type in ("B", "C"):
                alpha = x[rank - 1] * (1 if lie_type == "B" else 2)
                swap = {x[rank - 1]: -x[rank - 1]}
            else:
                alpha = x[rank - 2] + x[rank - 1]
                swap = {x[rank - 2]: -x[rank - 1], x[rank - 1]: -x[rank - 2]}
            expected = sympy.cancel((expr - expr.subs(swap, simultaneous=True)) / alpha)
            got, _ = _to_sympy(sympy, divided_difference(f, lie_type, rank, i))
            assert sympy.expand(expected - got) == 0


@pytest.mark.parametrize("tag,p,q", [("c-sp-gl", 2, 2), ("d-so-gl", 3, 3)])
def test_delta_matches_sympy(tag, p, q):
    """delta(case) with x_j negated where w(j) < 0, as ``closed_class``
    takes it, against the module docstring's definition of
    det(c_{m+1+j-2i}) at w, a fixed point of a closed orbit with a sign."""
    sympy = pytest.importorskip("sympy")
    case = case_from_params(tag, p, q)
    ring = formula_ring(case)
    n = case.grank
    m = n if tag == "c-sp-gl" else n - 1
    points = [w for c in weak_order_graph(case).minima()
              for w in closed_orbit_fixed_points(case, c)]
    w = next(w for w in points if min(w) < 0)
    winv = [0] * n
    for i, v in enumerate(w, start=1):
        winv[abs(v) - 1] = i if v > 0 else -i
    _, gens = _to_sympy(sympy, ring.zero)
    xs = [gens[abs(v) - 1] * (1 if v > 0 else -1) for v in winv]
    ys = list(gens[n:2 * n])
    t = sympy.Symbol("t")

    def elem(k, values):
        generating = sympy.prod([1 + t * v for v in values])
        return sympy.Poly(generating, t).coeff_monomial(t ** k)

    def c(k):
        if k == 0:
            return 2
        return elem(k, xs) + elem(k, ys) if 0 < k <= n else 0

    matrix = sympy.Matrix(m, m, lambda i, j: c(m + 1 + (j + 1) - 2 * (i + 1)))
    flips = {ring.var_index("x", j): -ring.x(j) for j, v in enumerate(w, start=1) if v < 0}
    got, _ = _to_sympy(sympy, delta(case).substitute(flips))
    assert sympy.expand(matrix.det() - got) == 0


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
        [R.var("z", 1), R.zero, R.x(3)],
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
# z_{a-1+k} -> e_k of the block of BLOCKS_22 starting at y_a
Z_IMAGES = {
    R.var_index("z", 1): R.y(1) + R.y(2),
    R.var_index("z", 2): R.y(1) * R.y(2),
    R.var_index("z", 3): R.y(3) + R.y(4),
    R.var_index("z", 4): R.y(3) * R.y(4),
}


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
    assert chern_substitute(f, [(1, 4)]) == R.var("z", 2)


def test_chern_power_sums():
    f = R.y(3) ** 2 + R.y(4) ** 2
    assert chern_substitute(f, BLOCKS_22) == R.var("z", 3) ** 2 - 2 * R.var("z", 4)


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
    f = reference_substitute(f, {R.var_index("z", k): R.one for k in range(1, R.nz + 1)})
    y1, y2, y3, y4 = (R.var_index("y", i) for i in range(1, 5))

    def swap(poly, a, b):
        return poly.substitute({a: R.monomial({b: 1}), b: R.monomial({a: 1})})

    sym = f + swap(f, y1, y2)
    sym = sym + swap(sym, y3, y4)
    image = chern_substitute(sym, BLOCKS_22)
    back = reference_substitute(image, Z_IMAGES)
    assert back == sym


@given(polys(max_terms=4, max_exp=2))
@settings(max_examples=50, deadline=None)
def test_chern_expansion_is_the_back_substitution(f):
    # on polynomials in the x's and z's, ChernExpansion substitutes e_k of
    # each block for its z's, chern_substitute undoes it, and each term's
    # weighted degree is the degree of its image
    f = reference_substitute(f, {R.var_index("y", k): R.one for k in range(1, R.ny + 1)})
    expand = ChernExpansion(R, BLOCKS_22)
    got = expand(f)
    assert got == reference_substitute(f, Z_IMAGES)
    assert chern_substitute(got, BLOCKS_22) == f
    for exps in f.terms:
        term = R.monomial(exps)
        assert expand.degrees(term) == set(map(sum, expand(term).terms))


def test_chern_expansion_examples():
    expand = ChernExpansion(R, BLOCKS_22)
    f = parse_poly("x1^2 - x1*z3 + z4", R)
    assert expand(f) == parse_poly("(x1 - y3)(x1 - y4)", R)
    assert expand(R.zero) == R.zero and expand(R.one) == R.one
    assert expand(f / 2) == expand(f) / 2
    assert expand(parse_poly("z1^2*z2 + x2*y1", R)) == parse_poly("(y1+y2)^2*y1*y2 + x2*y1", R)
    with pytest.raises(PolyError):
        ChernExpansion(R, [(1, 2)])(R.var("z", 3))  # z3 lies outside every block


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
    fp = FactoredPoly(R, 2, [R.x(1), R.x(2) + 1], den=2)
    assert fp.expand() == R.x(1) * (R.x(2) + 1)


def test_factored_text_parses_back():
    cases = [
        FactoredPoly(R, 1, [parse_poly("x1 - y3", R), parse_poly("x1 + y3", R)]),
        FactoredPoly(R, -3, [R.x(2), parse_poly("x1 + x2 - y3 - y4", R)]),
        FactoredPoly(R, Fraction(1, 4), [parse_poly("x1 + y1", R)] * 2),
        FactoredPoly(R, Fraction(-1, 2), []),
    ]
    for fp in cases:
        assert parse_poly(fp.to_text(), R) == fp.expand()


# ---------------------------------------------------------------------------
# Int numerators over one denominator, against the Fraction arithmetic
# ---------------------------------------------------------------------------

DENOMINATORS = (1, 2, 3, 4, 8)


@st.composite
def rational_terms(draw, ring=R, max_terms=5, max_exp=3, x_only=False,
                   denominators=DENOMINATORS):
    """A dict exponent tuple -> nonzero Fraction with the given denominators."""
    width = ring.nx if x_only else ring.width
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        exps = [0] * ring.width
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            exps[draw(st.integers(min_value=0, max_value=width - 1))] += draw(
                st.integers(min_value=1, max_value=max_exp))
        c = Fraction(draw(st.integers(min_value=-9, max_value=9)),
                     draw(st.sampled_from(denominators)))
        if c:
            terms[tuple(exps)] = c
    return terms


@st.composite
def rational_pairs(draw, ring=R, x_only=False):
    """Two term dicts a and b.  b is drawn freely, or is h - a for an
    integral h, so that a + b is integral, or is -a, so that a + b is 0."""
    a = draw(rational_terms(ring, x_only=x_only))
    kind = draw(st.sampled_from(("free", "integral", "zero")))
    if kind == "free":
        return a, draw(rational_terms(ring, x_only=x_only))
    h = {} if kind == "zero" else draw(rational_terms(ring, x_only=x_only, denominators=(1,)))
    return a, fraction_add(h, fraction_scale(a, -1))


def assert_canonical(f):
    den, nums = f._den, list(f._terms.values())
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in nums)
    assert math.gcd(den, *nums) == 1  # so zero and integral polynomials have den 1


def assert_matches(result, reference):
    """``result`` equals the Fraction reference term by term, is canonical,
    renders as the reference does, and equals and hashes like the equal
    polynomials built from the reference or from unreduced numerators."""
    assert dict(result.terms) == reference
    assert all(type(c) is (int if c.denominator == 1 else Fraction)
               for c in result.terms.values())
    assert_canonical(result)
    assert result.to_text() == fraction_to_text(result.ring, reference)
    for twin in (Polynomial(result.ring, reference),
                 Polynomial._from_clean(result.ring, {k: 6 * c for k, c in result._terms.items()},
                                        6 * result._den)):
        assert result == twin and hash(result) == hash(twin)


@given(rational_pairs())
@settings(max_examples=150, deadline=None)
def test_rational_arithmetic_matches_fraction_reference(pair):
    a, b = pair
    f, g = Polynomial(R, a), Polynomial(R, b)
    assert_matches(f, a)
    assert_matches(g, b)
    assert_matches(f + g, fraction_add(a, b))
    assert_matches(f - g, fraction_add(a, fraction_scale(b, -1)))
    assert_matches(-f, fraction_scale(a, -1))
    assert_matches(f * g, fraction_mul(a, b))
    assert_matches(f ** 2, fraction_pow(a, 2, R.width))
    assert_matches(g ** 3, fraction_pow(b, 3, R.width))
    whole = math.lcm(*(c.denominator for c in a.values()))
    for c in (0, 1, -3, whole, Fraction(1, 2), Fraction(-8, 3), Fraction(3, 4)):
        assert_matches(f * c, fraction_scale(a, c))
        assert_matches(c * f, fraction_scale(a, c))
        assert_matches(f + c, fraction_add(a, {(0,) * R.width: Fraction(c)} if c else {}))
    for k in (1, -1, 2, -3, 4, 8):
        assert_matches(f / k, fraction_scale(a, Fraction(1, k)))
        assert (f / k) * k == f
    assert (f == g) == (a == b)
    assert (f + g == R.zero) == (not fraction_add(a, b))


@pytest.mark.parametrize("lie_type,rank", ALL_TYPES)
@given(a=rational_terms(x_only=True), symmetrize=st.booleans())
@settings(max_examples=40, deadline=None)
def test_rational_divided_difference_matches_fraction_reference(lie_type, rank, a, symmetrize):
    f = Polynomial(R, a)
    for i in _root_indices(lie_type, rank):
        g = f + reflect_x(f, lie_type, rank, i) if symmetrize else f  # dd(g) = 0
        got = divided_difference(g, lie_type, rank, i)
        assert_matches(got, fraction_terms(reference_divided_difference(g, lie_type, rank, i)))
        if symmetrize:
            assert got.is_zero() and got._den == 1


def test_rational_divided_difference_cancels_to_integral():
    f = parse_poly("1/2*x1^2 - 1/2*x2^2", R)
    assert f._den == 2
    got = divided_difference(f, "A", 4, 1)
    assert got == R.x(1) + R.x(2) and got._den == 1
    assert divided_difference(parse_poly("1/4*x4^3", R), "B", 4, 4) == parse_poly("1/2*x4^2", R)
    assert divided_difference(parse_poly("1/2*x4", R), "B", 4, 4) == R.one
    assert divided_difference(parse_poly("1/8*x3 + 1/8*x4", R), "D", 4, 4) == R.const(
        Fraction(1, 4))


@st.composite
def signed_images(draw, ring=S):
    """Images of a few slots: 0 or +-1 times one variable, as pairs (target
    slot, sign) or None for 0, and as polynomials."""
    slots = draw(st.lists(st.integers(0, ring.width - 1), unique=True, max_size=4))
    pairs = {}
    for idx in slots:
        if draw(st.booleans()):
            pairs[idx] = (draw(st.integers(0, ring.width - 1)), draw(st.sampled_from((1, -1))))
        else:
            pairs[idx] = None
    images = {idx: ring.zero if image is None else ring.monomial({image[0]: 1}, image[1])
              for idx, image in pairs.items()}
    return pairs, images


@given(rational_terms(ring=S), signed_images())
@settings(max_examples=150, deadline=None)
def test_rational_substitute_matches_fraction_reference(a, drawn):
    pairs, images = drawn
    assert_matches(Polynomial(S, a).substitute(images), fraction_substitute(a, pairs))


def test_rational_substitute_cancels_to_zero_and_to_integral():
    x1, x2 = S.var_index("x", 1), S.var_index("x", 2)
    f = parse_poly("1/2*x1 - 1/2*x2 + y1", S)
    merged = f.substitute({x1: S.x(2)})
    assert merged == S.y(1) and merged._den == 1
    assert f.substitute({x1: S.zero, x2: S.zero}) == S.y(1)
    with pytest.raises(PolyError):  # one half of a variable is not a signed variable
        f.substitute({x1: S.x(2) / 2})


@given(rational_terms(max_terms=4, max_exp=2))
@settings(max_examples=60, deadline=None)
def test_rational_chern_substitute_matches_fraction_reference(a):
    y1, y2, y3, y4 = (R.var_index("y", i) for i in range(1, 5))
    for s, t in ((y1, y2), (y3, y4)):  # symmetric in both blocks
        a = fraction_add(a, fraction_substitute(a, {s: (t, 1), t: (s, 1)}))
    got = chern_substitute(Polynomial(R, a), BLOCKS_22)
    assert_matches(got, fraction_terms(tuple_chern_substitute(Polynomial(R, a), BLOCKS_22)))


def test_rational_text_and_scalars():
    f = parse_poly("3/6*x1 + 2/8*y1 - 4/8", R)
    assert f._den == 4 and f.to_text() == "1/2*x1 + 1/4*y1 - 1/2"
    assert f * 4 == parse_poly("2*x1 + y1 - 2", R) and (f * 4)._den == 1
    assert R.const(Fraction(1, 2)) == Fraction(1, 2) and R.const(Fraction(1, 2)) != 1
    assert (f / 3).to_text() == "1/6*x1 + 1/12*y1 - 1/6"
    for k in (0, Fraction(1, 2), 0.5):
        with pytest.raises(PolyError):
            f / k
    with pytest.raises(PolyError):
        R.const(0.5)


def test_factored_scalar_is_in_lowest_terms():
    fp = FactoredPoly(R, Fraction(6, 4), [R.x(1) + R.y(1)], den=3)
    assert (fp.scalar, fp.den) == (1, 2)
    assert fp.to_text() == "1/2(x1 + y1)"
    assert fp.expand() == parse_poly("1/2*x1 + 1/2*y1", R) and fp.expand()._den == 2
    assert FactoredPoly(R, Fraction(2, 3), [R.x(1) + R.y(1)], den=2).to_text() == "1/3(x1 + y1)"
    assert FactoredPoly(R, 3, [parse_poly("1/6*x1", R), R.x(2) + R.y(1)]).to_text() == \
        "1/2*x1(x2 + y1)"


# ---------------------------------------------------------------------------
# Rendering: the split x and y/z memos against the full-key renderer
# ---------------------------------------------------------------------------

RENDER_CASES = [case_from_params(*rank) for rank in DESK_RANKS] + [case_from_params("a", 3, 3)]


@pytest.mark.parametrize("case", RENDER_CASES, ids=lambda c: f"{c.tag}-{c.p}-{c.q}")
def test_class_text_matches_full_key_renderer(case):
    for c, f in all_classes(weak_order_graph(case)).items():
        f = expand_class(case, f)
        assert f.to_text() == full_key_to_text(f), c.to_text()


@pytest.mark.parametrize("tag,p,q", DESK_RANKS)
def test_chern_text_matches_full_key_renderer(tag, p, q):
    case = case_from_params(tag, p, q)
    for c in enumerate_case_clans(case):
        fp = chern_factored(case, c)
        assert fp.to_text() == full_key_factored_text(fp), c.to_text()


@pytest.mark.parametrize("n", [3, 4])
def test_halved_closed_classes_match_full_key_renderer(n):
    case = case_from_params("d-so-gl", n, n)
    for c in weak_order_graph(case).minima():
        fp = closed_class(case, c)
        assert fp.den == 2 ** (n - 1)
        assert fp.to_text() == full_key_factored_text(fp), c.to_text()
        f = fp.expand()
        assert f._den > 1 and f.to_text() == full_key_to_text(f), c.to_text()


def test_edge_texts_match_full_key_renderer():
    S = Ring(2, 2, 1)
    pinned = {
        S.zero: "0",
        S.one: "1",
        S.const(-3): "-3",
        S.const(Fraction(-1, 2)): "-1/2",
        -S.x(1) + S.y(2): "-x1 + y2",
        S.var("z", 1) * S.y(1) * -2 + S.x(2) ** 2 * 3: "3*x2^2 - 2*y1*z1",
        Fraction(-3, 4) * S.x(1) * S.var("z", 1) + 2: "-3/4*x1*z1 + 2",
    }
    for f, text in pinned.items():
        assert f.to_text() == full_key_to_text(f) == text
    for fp in (FactoredPoly(S, 0, [S.x(1)]), FactoredPoly(S, 5, [S.zero]),
               FactoredPoly(S, -1, [S.x(1), S.x(1) + S.y(1)]),
               FactoredPoly(S, Fraction(-2, 3), [S.y(2)]), FactoredPoly(S, 1),
               FactoredPoly(S, -1, [S.x(1) - S.var("z", 1)], den=2)):
        assert fp.to_text() == full_key_factored_text(fp)


def test_memos_hold_one_text_per_masked_part():
    # at a(3,3) the classes have 17,668 distinct monomials but only 995
    # x-parts and 64 y-parts; a fresh ring starts with empty memos
    case = case_from_params("a", 3, 3)
    classes = [expand_class(case, f) for f in all_classes(weak_order_graph(case)).values()]
    ring = formula_ring(case)
    fresh = Ring(ring.nx, ring.ny, ring.nz)
    for f in classes:
        Polynomial._from_clean(fresh, f._terms, f._den).to_text()
    keys = {key for f in classes for key in f._terms}
    xmask, yzmask = fresh._masks
    xtexts, yztexts = fresh._texts
    assert set(xtexts) == {key & xmask for key in keys}
    assert set(yztexts) == {key & yzmask for key in keys}
    assert (len(keys), len(xtexts), len(yztexts)) == (17668, 995, 64)


# ---------------------------------------------------------------------------
# ChernExpansion.text: the text of an image, written without building it
# ---------------------------------------------------------------------------

EXPANSION_TEXT_CASES = RENDER_CASES + [
    case_from_params("b-so", 2, 2), case_from_params("c-sp-gl", 3, 3),
    case_from_params("d-so-gl", 4, 4)]


@pytest.mark.parametrize("case", EXPANSION_TEXT_CASES, ids=lambda c: f"{c.tag}-{c.p}-{c.q}")
def test_expansion_text_matches_expanded_text(case):
    # d-so-gl(4,4) has classes over 1/2^(n-1); a fresh expansion writes
    # each class twice, from cold and from warm memos
    expand = ChernExpansion(formula_ring(case), chern_blocks(case))
    for c, f in all_classes(weak_order_graph(case)).items():
        y_form = expand_class(case, f)
        text = y_form.to_text()
        assert text == full_key_to_text(y_form), c.to_text()
        assert expand.text(f) == expand.text(f) == text, c.to_text()


def test_expansion_text_memo_holds_one_entry_per_group_shape():
    # at a(3,3) the 16,045 z-terms of the classes fall in 15,010 groups
    # (one degree and x-part each), written from 210 memoised pieces
    case = case_from_params("a", 3, 3)
    classes = all_classes(weak_order_graph(case)).values()
    expand = ChernExpansion(formula_ring(case), chern_blocks(case))
    for f in classes:
        expand.text(f)
    assert sum(len(f._terms) for f in classes) == 16045
    assert len(expand.pieces) == 210


TEXT_EDGES = {
    "0": "0",
    "3": "3",
    "-1/2": "-1/2",
    "-x1*z3 + x1^2": "x1^2 - x1*y3 - x1*y4",
    "1/2*x1*z4 - 3/4*z1^2": "1/2*x1*y3*y4 - 3/4*y1^2 - 3/2*y1*y2 - 3/4*y2^2",
    "x1^2*x2 - 2*x2": "x1^2*x2 - 2*x2",
    "z1*z2 - z4": "y1^2*y2 + y1*y2^2 - y3*y4",
    # the x-part of z1 is 1; z3^2 weighs 2 and is written before z1
    "z1 + z3^2 + x1": "y3^2 + 2*y3*y4 + y4^2 + x1 + y1 + y2",
    # one group whose images merge and partly cancel
    "x1*z1^2 - 2*x1*z2 + x2*z2": "x1*y1^2 + x1*y2^2 + x2*y1*y2",
    # one group whose images cancel, next to one that survives
    "y1 + y2 - z1 + x2^2": "x2^2",
    "y1 + y2 - z1": "0",
}


@pytest.mark.parametrize("z_form", sorted(TEXT_EDGES))
def test_expansion_text_edge_cases(z_form):
    expand = ChernExpansion(R, BLOCKS_22)
    f = parse_poly(z_form, R)
    y_form = expand(f)
    assert expand.text(f) == expand.text(f) == y_form.to_text() == TEXT_EDGES[z_form]
    assert full_key_to_text(y_form) == TEXT_EDGES[z_form]


@given(polys(max_terms=8, max_exp=2))
@settings(max_examples=100, deadline=None)
def test_expansion_text_is_the_text_of_the_expansion(f):
    # x-, y- and z-terms of any degrees, over denominators up to 12
    expand = ChernExpansion(R, BLOCKS_22)
    assert expand.text(f) == expand(f).to_text() == full_key_to_text(expand(f))
