"""Equivariant classes of orbit closures and their verification.

Closed orbits get explicit factored formulas, read off the case table and
their clans' signs (``closed_class``); only localization imports ``weyl``.
Every other orbit's class is propagated along the weak order: a weak edge
of degree d along simple root alpha_i carries [source] to (1/d) *
divided_difference_i([source]), and propagation along different paths
must agree.  Localization then checks the computed classes
pointwise, at one fixed point of each closed orbit, which decides for all of
that orbit's fixed points (see ``verify_localization``): the restriction of
a closed class must equal the product of the tangent weights there, and
(where the fixed-point dictionary is available) restrictions must vanish
away from the closure.  Each restriction runs on the z-form below, and only
the restricted polynomial is expanded in y.

Propagation runs in z-form: in the x-variables and the Chern variables
z_{a-1+k} = e_k(y_a, ..., y_{a+size-1}) of K's blocks (``chern_blocks``).
Every class is symmetric in each block's y's, so it lies in that subring,
and the seeds are built there directly (``closed_class(..., chern=True)``).
Working there is exact.  The map E sending z_{a-1+k} to e_k of its block
and fixing x is an injective ring map (the e_k of disjoint blocks are
algebraically independent), and graded when z_{a-1+k} has degree k.  The
divided difference d_i acts on the x's alone and is linear over
polynomials that s_i fixes, which every y and z is; so E(d_i F) = d_i E(F).
Hence E carries the z-form of each class to the y-form that propagating
in y would give, equal z-forms mean equal y-forms, and a z-form is
homogeneous of weighted degree d exactly when its y-form is homogeneous of
degree d.  E is applied only where y is printed or restricted:
``classes`` writes each class's image as text straight from its z-form
(``ChernExpansion.text``), and localization expands only restrictions.

Determinantal convention used by the GL-type families: the closed class at
a representative w has the m x m determinant ``det(c_{m+1+j-2i})``, m = n for
c-sp-gl and n-1 for d-so-gl, where ``c_k`` is the sum of the k-th elementary
symmetric polynomials of the signed x-variables
``sgn(w^{-1}(i)) * x_{|w^{-1}(i)|}`` and of all y-variables, ``c_0 = 2``,
and ``c_k = 0`` for k < 0 or k > n.  It depends on w only through w's
signs, so ``delta`` builds it once per case, at the identity, and
``closed_class`` flips in it the signs of the x-variables at the clan's
'-' positions.
"""

from __future__ import annotations

import math
from functools import cache
from typing import TYPE_CHECKING, Mapping

from .clans import (MINUS, PLUS, CaseId, CheckError, Clan, ClanError, Record, in_case_family,
                    is_closed_clan)
from .orbits import OrbitPoset, full_closure_order, weak_order_graph
from .poly import (
    ChernExpansion,
    FactoredPoly,
    Polynomial,
    Ring,
    determinant,
    divided_difference,
    elem_sym,
)

if TYPE_CHECKING:
    from .weyl import Weyl


class FormulaError(CheckError):
    """Raised when class computation or verification fails."""


@cache
def formula_ring(case: CaseId) -> Ring:
    """Polynomial ring for a case: x_1..x_n, y_1..y_n, z_1..z_n; one object
    per case, so that all its classes share the ring's rendered monomials."""
    n = case.grank
    return Ring(n, n, n)


# ---------------------------------------------------------------------------
# Closed-orbit classes
# ---------------------------------------------------------------------------


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def _block_factors(ring: Ring, a: int, block: range, signs: tuple[int, ...],
                   chern: bool) -> list[Polynomial]:
    """The product over j in ``block`` and s in ``signs`` of (x_a + s*y_j):
    as linear factors, or with ``chern`` in z-variables, where the product
    over j is sum_k s^k e_k(block) x_a^(|block|-k) and e_k(block) is
    z_{block.start-1+k}.  In z, a one-element block gives one factor per
    sign, each symmetric in the block already; a larger block gives the
    product over the signs as one factor."""
    if not chern:
        return [ring.x(a) + s * ring.y(j) for j in block for s in signs]
    size = len(block)
    if not size:
        return []
    x, z = ring.var_index("x", a), ring.var_index("z", block.start) - 1
    products = [sum((ring.monomial({x: size - k, z + k: 1}, s ** k) for k in range(1, size + 1)),
                    ring.monomial({x: size}))
                for s in signs]
    if size == 1:
        return products
    out = ring.one
    for f in products:
        out = out * f
    return [out]


@cache
def delta(case: CaseId, chern: bool = False) -> Polynomial:
    """The determinant det(c_{m+1+j-2i}) of the module doc at the identity,
    m = n for c-sp-gl and n-1 for d-so-gl; with ``chern``, z_k stands for
    e_k(y_1..y_n) in its entries.  One object per case and form."""
    ring = formula_ring(case)
    n = case.grank
    m = n if case.family == "C" else n - 1
    xs = [ring.x(i) for i in range(1, n + 1)]
    ys = [ring.y(j) for j in range(1, n + 1)]
    c = [ring.const(2)] + [
        elem_sym(ring, k, xs) + (ring.var("z", k) if chern else elem_sym(ring, k, ys))
        for k in range(1, n + 1)
    ]
    entries = [[m + 1 + j - 2 * i for j in range(1, m + 1)] for i in range(1, m + 1)]
    return determinant([[c[k] if 0 <= k <= n else ring.zero for k in row] for row in entries])


def closed_class(case: CaseId, c: Clan, chern: bool = False) -> FactoredPoly:
    """Factored equivariant class of a closed orbit's closure, read off the
    case table and the signs s_1..s_n of its clan's first n symbols.  With
    ``chern`` it is written in the z-variables of ``chern_blocks``: the
    seed of propagation, and the factored ``chern`` output.

    The paper states the class through l_p(|w|), psi(w), sigma(w) and
    |w|^{-1}(1..p) at a fixed point w.  At the orbit's
    ``distinguished_representative``, built from the signs, each is read
    off them.  Skew (GL) pairs: w(j) < 0 exactly where s_j is '-', so psi
    counts the '-' signs and sigma sums n - j over their positions.  The
    class is (-1)^(psi+sigma) D in c-sp-gl and (-1)^sigma D / 2^(n-1) in
    d-so-gl, D the case's ``delta`` with x_j negated at those j.  That is
    the determinant at w itself: its signed x's sgn(w^{-1}(i)) x_{|w^{-1}(i)|}
    are {sgn w(j) x_j}, as w^{-1}(|w(j)|) = sgn w(j) j.  Other families:
    |w(j)| <= p exactly where s_j is '+' (position n of d-oxo-odd holds
    u = p+1), so l_p(|w|) counts the pairs of a non-'+' before a '+'.  The
    '+' positions take 1..p in order, but -p..-1 for mirror clans outside
    d-oxo-odd, so ``firsts`` = |w|^{-1}(1..p) lists them ascending, or for
    those clans descending.  The class is (-1)^l_p times a product over a
    in ``firsts`` of (x_a - y_j), and of (x_a + y_j) too outside type A,
    for y_j in K's second block; times x_1..x_{n-1} where a coordinate is
    uncovered, or x_a for a in ``firsts`` in type B."""
    if not is_closed_clan(case, c):
        raise ClanError(f"{c.to_text()} is not a closed-orbit clan of {case.tag}")
    ring = formula_ring(case)
    n = case.grank
    symmetry = case.row.symmetry
    if symmetry == "skew":
        minus = [j for j in range(1, n + 1) if c.mates[j - 1] == MINUS]
        factor = delta(case, chern).substitute({ring.var_index("x", j): -ring.x(j) for j in minus})
        sigma = sum(n - j for j in minus)
        if case.family == "C":
            return FactoredPoly(ring, _sign(len(minus) + sigma), [factor])
        return FactoredPoly(ring, _sign(sigma), [factor], 2 ** (n - 1))
    plus = [j for j in range(1, n + 1) if c.mates[j - 1] == PLUS]
    l_p = sum(j - 1 - k for k, j in enumerate(plus))  # j - 1 - k non-'+' before the k-th '+'
    firsts = plus[::-1] if symmetry == "mirror" and not case.uncovered else plus
    if case.uncovered:
        factors = [ring.x(i) for i in range(1, n)]
    elif case.family == "B":
        factors = [ring.x(a) for a in firsts]
    else:
        factors = []
    signs = (-1,) if symmetry == "none" else (-1, 1)
    block = case.k_blocks[-1][1]
    for a in firsts:
        factors += _block_factors(ring, a, block, signs, chern)
    return FactoredPoly(ring, _sign(l_p), factors)


# ---------------------------------------------------------------------------
# Propagation along the weak order
# ---------------------------------------------------------------------------


def all_classes(poset: OrbitPoset, upto: Clan | None = None) -> dict[Clan, Polynomial]:
    """Classes of the orbit closures in z-form, propagated up the weak order
    along ``poset.weak_edges`` in their order, which reaches every source
    after all the edges into it.  With ``upto``, only the orbits of its weak
    down-set get classes: the edges into it are followed, and compared,
    from the closed orbits in it.  ``chern_expansion`` maps a class to the
    y-variables."""
    case = poset.case
    ring = formula_ring(case)
    family, n = case.family, case.grank
    edges = poset.weak_edges
    if upto is not None:
        # an edge goes up one rank and the edges come by source rank, so
        # backwards each target's membership is settled before its edges
        down = {upto}
        for src, dst, _, _ in reversed(edges):
            if dst in down:
                down.add(src)
        edges = [e for e in edges if e[1] in down]
    classes: dict[Clan, Polynomial] = {
        c: closed_class(case, c, chern=True).expand()
        for c in poset.minima() if upto is None or c in down
    }
    for src, dst, i, deg in edges:
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
    if poset.top in classes and classes[poset.top] != ring.one:
        raise FormulaError("the dense orbit's class is not 1")
    codim = poset.max_rank
    degrees = chern_expansion(case).degrees
    for c, f in classes.items():
        expected = codim - poset.ranks[c]
        if degrees(f) != {expected}:
            raise FormulaError(
                f"class of {c.to_text()} is not homogeneous of degree {expected}"
            )
    return classes


@cache
def chern_expansion(case: CaseId) -> ChernExpansion:
    """The map from the z-form of a class of ``all_classes`` to its y-form:
    each z_{a-1+k} of a block starting at y_a becomes e_k of the block.
    One object per case, so that all its classes share its memos."""
    return ChernExpansion(formula_ring(case), chern_blocks(case))


# ---------------------------------------------------------------------------
# Localization
# ---------------------------------------------------------------------------


def point_images(case: CaseId, ring: Ring, w: Weyl) -> dict[int, Polynomial]:
    """The images of the x-variables at the fixed point w, by exponent slot:
    x_i evaluates to the signed y-variable picked out by w(i), or to zero
    where |w(i)| is a coordinate no K block covers (p+1 in the branched odd
    case)."""
    n = case.grank
    if len(w) != n:
        raise FormulaError("fixed point length does not match the case")
    zeroed = case.uncovered
    images = {}
    for i, v in enumerate(w, start=1):
        a = abs(v)
        if a in zeroed:
            images[ring.var_index("x", i)] = ring.zero
        else:
            images[ring.var_index("x", i)] = ring.y(a) if v > 0 else -ring.y(a)
    return images


def restrict_at(case: CaseId, f: Polynomial, w: Weyl,
                images: Mapping[int, Polynomial] | None = None) -> Polynomial:
    """Restrict a class to the fixed point w (see ``point_images``); a caller
    that restricts many classes at w passes w's images, built once."""
    if images is None:
        images = point_images(case, f.ring, w)
    return f.substitute(images)


def closed_restriction_product(case: CaseId, w: Weyl) -> Polynomial:
    """Product of the predicted tangent weights at a closed-orbit fixed
    point, as a polynomial in the y-variables: each weight is one linear
    form in the y's."""
    from .weyl import restriction_weights
    ring = formula_ring(case)
    out = ring.one
    for weights in restriction_weights(case, w):
        out = out * ring.linear("y", weights)
    return out


class LocalizationReport(Record):
    __slots__ = _fields = ("case", "closed_points_checked", "support_pairs_checked",
                           "support_checked", "dense_ok", "failures")
    case: CaseId
    closed_points_checked: int
    support_pairs_checked: int
    support_checked: bool
    dense_ok: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.dense_ok and not self.failures


def verify_localization(
    poset: OrbitPoset, classes: Mapping[Clan, Polynomial]
) -> LocalizationReport:
    """Pointwise correctness checks for the computed classes (z-form, as
    ``all_classes`` gives them).

    * at every fixed point of every closed orbit, the restriction of the
      closed class equals the product of the tangent weights there;
    * where the fixed-point dictionary is available (every case except the
      branched odd one), the restriction of [closure of Q] vanishes at the
      fixed points of each closed orbit not below Q in the full closure
      order (every fixed point lies in a closed orbit);
    * the dense orbit's class is the constant 1.

    A poset that does not carry ``order_bits`` is saturated first.

    Both pointwise checks run at one fixed point per closed orbit, its
    ``distinguished_representative``.  The closure of Q is stable under K,
    so for n in N_K(T) the restriction at the fixed point n.w is n acting on
    the y's of the restriction at w.  The tangent-weight product at n.w is n
    acting on the one at w too: it is the Euler class of the normal space,
    which n carries from w to n.w.  The fixed points of one closed orbit (a
    fibre of ``fixed_points_by_clan``) are one orbit of N_K(T)/T: W_K,
    together with a sign change from K's second component in the S(O x O)
    pairs.  So one point decides for the whole orbit: a restriction is zero,
    or equals the product, at every point exactly when it does at one.  The
    tests check these facts at every desk case.  ``closed points`` counts
    the points the check covers: |W| where every fixed point lies in one of
    the closed orbits.  In d-oxo-odd, where they do not, it is |W_K| =
    (u-1)! (n-u)! 2^(n-1) per closed orbit, u = p+1: there N_K(T)/T is W_K,
    with each odd sign change of a block paired with the sign change of the
    uncovered coordinate u, which keeps the type-D parity.  It acts freely
    on the fixed points of each closed orbit (the w with |w(n)| = u and the
    values below u at the clan's '+' positions) and has as many elements.

    Each restriction runs on the z-form, and only its result is expanded.
    A restriction R sends the x's to signed y's (or 0) and fixes every y and
    z; the expansion E of ``chern_expansion`` sends the z's to polynomials in
    the y's and fixes every x and y.  Both are ring maps, and on each
    variable E(R(v)) = R(E(v)), so E(R(f)) = R(E(f)) for every f: the
    restriction of the y-form is the expansion of the restricted z-form,
    which is far smaller than the class.  No class is expanded whole.
    """
    from .weyl import distinguished_representative, weyl_order
    if poset.order_bits is None:
        poset = full_closure_order(poset)
    case = poset.case
    ring = formula_ring(case)
    expand = chern_expansion(case)
    closed_failures: list[str] = []
    support_failures: list[str] = []
    minima = poset.minima()
    closed = len(minima)
    points = {c: distinguished_representative(case, c) for c in minima}
    images = {w: point_images(case, ring, w) for w in points.values()}
    support_pairs = 0
    support_checked = not case.uncovered
    least = []  # (orbit, its bit, its point) for the support check, by point
    if support_checked:
        closed_points = weyl_order(case.family, case.grank)
        least = sorted(((c, 1 << k, points[c]) for k, c in enumerate(minima)),
                       key=lambda item: item[2])
    else:  # |W_K| = (u-1)! (n-u)! 2^(n-1) points per closed orbit, u = p+1
        closed_points = closed * math.prod(weyl_order(t, len(b)) for t, b in case.k_blocks)
    checked = poset.nodes if support_checked else minima
    for k, (c, below) in enumerate(zip(checked, poset.order_bits.down)):
        f = classes[c]
        if k < closed:
            w = points[c]
            got = expand(restrict_at(case, f, w, images[w]))
            if got != closed_restriction_product(case, w):
                closed_failures.append(
                    f"closed restriction mismatch at {c.to_text()}, "
                    f"fixed point {w}"
                )
        for other, bit, w in least:
            if below & bit:
                continue
            support_pairs += 1
            if not expand(restrict_at(case, f, w, images[w])).is_zero():
                support_failures.append(
                    f"nonzero restriction of {c.to_text()} at a fixed "
                    f"point {w} of {other.to_text()}"
                )

    dense_ok = classes[poset.top] == ring.one
    return LocalizationReport(
        case, closed_points, support_pairs, support_checked, dense_ok,
        tuple(closed_failures + support_failures),
    )


# ---------------------------------------------------------------------------
# Chern-class form
# ---------------------------------------------------------------------------


def chern_blocks(case: CaseId) -> tuple[tuple[int, int], ...]:
    """y-variable blocks whose elementary symmetric polynomials become the
    z-variables of the Chern-class form."""
    return tuple((block.start, len(block)) for _, block in case.k_blocks if block)


def chern_class(case: CaseId, c: Clan) -> Polynomial:
    """The class in Chern-class form (z-variables), propagated through the
    weak down-set of c alone."""
    if not in_case_family(case, c):
        raise ClanError(f"{c.to_text()} is not a clan of case {case.tag}")
    return all_classes(weak_order_graph(case), c)[c]


def chern_factored(case: CaseId, c: Clan) -> FactoredPoly:
    """Chern-class form, factored for a closed orbit: the factors of its
    class in z-variables, ordered by the x-variables they use."""
    if not is_closed_clan(case, c):
        return FactoredPoly(formula_ring(case), 1, [chern_class(case, c)])
    fp = closed_class(case, c, chern=True)
    nx = fp.ring.nx
    factors = sorted(fp.factors, key=lambda f: sorted(v for v in f.used_vars() if v < nx))
    return FactoredPoly(fp.ring, fp.scalar, factors, fp.den)
