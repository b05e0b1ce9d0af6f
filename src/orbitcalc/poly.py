"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials live in a fixed :class:`Ring` with three banks of variables:
``x1..x_nx`` (torus weights of the ambient group), ``y1..y_ny`` (weights of
the symmetric subgroup / bundle roots), and ``z1..z_nz`` (Chern-class
variables).  The module provides substitution of signed variables for
variables (restriction to a fixed point, the Weyl-group action),
divided-difference operators for the four classical root types (one pair
kernel serves x_i - x_{i+1} and, as the swap conjugated by x_n -> -x_n,
type D's branch root x_{n-1} + x_n), elementary
symmetric polynomials, determinants, rewriting of block-symmetric
polynomials in terms of elementary symmetric generators and its inverse
(``ChernExpansion``), and a factored-form container used for
human-readable output.

Coefficients are exact rationals: a polynomial stores ``int`` numerators
over one positive ``int`` denominator, in lowest terms (the gcd of the
denominator and every numerator is 1).  So zero and every integral
polynomial have denominator 1, and two polynomials are equal exactly when
their rings, denominators and numerators are.  Linear maps (divided
differences, substitution, the Chern rewrite, negation) act on the
numerators and keep the denominator; ``+`` and ``*`` combine denominators
and reduce once per result; ``/`` divides exactly by a nonzero ``int``.
``fractions`` is imported only where a ``Fraction`` is handed out
(``terms``).

Each monomial is one ``int`` key: in a ring of width W, exponent slot i
(x1.., y1.., z1..) is the 16-bit digit at bit 16*(W-1-i), and the total
degree sits above them at bit 16*W.  Integer order is then graded-lex order
(degree first, then slot 0, slot 1, ...), so sorting and ``degree`` act on
the keys themselves; the key of a product of monomials is the sum of their
keys, and divided differences and restrictions move digits with shifts.  No
digit may overflow, so a total degree above ``MAX_DEGREE`` (65,535) raises
:class:`PolyError` in the constructors, ``*``, ``**`` and
``FactoredPoly.to_text`` (whose monomial prefix is the sum of the keys of
its single-term factors).  Exponent tuples stay the interface of
``Polynomial(ring, {exps: c})``, ``Ring.monomial`` and ``terms``.

``to_text`` writes each term from the texts of its x-part (``key`` masked
to the x digits) and of its y/z-part, each memoised once per ring.
``ChernExpansion.text`` writes the y-form of a z-form without building it:
it groups the z-terms by the degree and x-part of their images, and joins
each group's x-part text into pieces memoised on the expansion, one entry
per shape of group.  At a(3,3) the classes' 16,045 z-terms fall into
15,010 groups over 995 x-parts, written from 210 entries as 68,552 terms.
Both writers take a term's sign and coefficient from ``_term_text``.  Text
parses back with ``orbitcalc.parse.parse_poly``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cached_property
from math import gcd, lcm
from typing import TYPE_CHECKING

from .clans import Record

if TYPE_CHECKING:
    from fractions import Fraction


class PolyError(ValueError):
    """Raised on invalid polynomial input or an impossible exact operation."""


def _ratio(c: Fraction | int) -> tuple[int, int]:
    """An ``int`` or a ``Fraction`` (any rational number) as ``(numerator,
    denominator)``; raises :class:`PolyError` for anything else."""
    try:
        return c.numerator, c.denominator
    except AttributeError:
        raise PolyError(f"coefficient {c!r} is not an int or a Fraction") from None


def _coefficient(c: int, den: int) -> Fraction | int:
    """``c/den`` as an ``int`` when integral, else as a ``Fraction``."""
    if c % den == 0:
        return c // den
    from fractions import Fraction
    return Fraction(c, den)


_BITS = 16  # bits per exponent digit of a packed key
_DIGIT = (1 << _BITS) - 1
MAX_DEGREE = _DIGIT


def _check_degree(deg: int) -> int:
    if deg > MAX_DEGREE:
        raise PolyError(f"degree {deg} exceeds the largest supported degree {MAX_DEGREE}")
    return deg


# ---------------------------------------------------------------------------
# Ring
# ---------------------------------------------------------------------------


class Ring(Record):
    """A polynomial ring with ``nx`` x-variables, ``ny`` y-variables and
    ``nz`` z-variables.  Exponent vectors are tuples of width nx+ny+nz."""

    __slots__ = ("nx", "ny", "nz", "__dict__")  # __dict__ holds the cached layout
    _fields = ("nx", "ny", "nz")
    _defaults = {"nz": 0}

    def _validate(self) -> None:
        if self.nx < 0 or self.ny < 0 or self.nz < 0:
            raise PolyError("variable counts must be non-negative")

    @property
    def width(self) -> int:
        return self.nx + self.ny + self.nz

    @cached_property
    def names(self) -> tuple[str, ...]:
        """Variable names by exponent slot: x1.., y1.., z1..."""
        banks = (("x", self.nx), ("y", self.ny), ("z", self.nz))
        return tuple(f"{bank}{i}" for bank, count in banks for i in range(1, count + 1))

    @cached_property
    def _shifts(self) -> tuple[int, ...]:
        """Bit offset of each exponent slot's digit in a packed key."""
        return tuple(range(_BITS * (self.width - 1), -1, -_BITS))

    @cached_property
    def _top(self) -> int:
        """Bit offset of the total degree in a packed key."""
        return _BITS * self.width

    @cached_property
    def _masks(self) -> tuple[int, int]:
        """The x digits and the y/z digits of a packed key."""
        low = _BITS * (self.ny + self.nz)
        return (1 << self._top) - (1 << low), (1 << low) - 1

    @cached_property
    def _texts(self) -> tuple[_PartTexts, _PartTexts]:
        """Rendered x-parts and y/z-parts of monomials, by masked key, filled
        as they are printed."""
        return _PartTexts(self), _PartTexts(self)

    def _pack(self, exps: Sequence[int]) -> int:
        """The key of an exponent vector; raises :class:`PolyError` on a wrong
        width, a negative exponent or a degree above ``MAX_DEGREE``."""
        exps = tuple(exps)
        if len(exps) != self.width:
            raise PolyError(f"exponent vector {exps} does not have width {self.width}")
        if min(exps, default=0) < 0:
            raise PolyError(f"negative exponent in {exps}")
        key = _check_degree(sum(exps))
        for e in exps:
            key = key << _BITS | e
        return key

    def _unpack(self, key: int) -> tuple[int, ...]:
        return tuple(key >> s & _DIGIT for s in self._shifts)

    def var_index(self, bank: str, i: int) -> int:
        """0-based exponent slot of x_i / y_i / z_i (1-based i)."""
        if bank == "x":
            if not 1 <= i <= self.nx:
                raise PolyError(f"x{i} not in ring with nx={self.nx}")
            return i - 1
        if bank == "y":
            if not 1 <= i <= self.ny:
                raise PolyError(f"y{i} not in ring with ny={self.ny}")
            return self.nx + i - 1
        if bank == "z":
            if not 1 <= i <= self.nz:
                raise PolyError(f"z{i} not in ring with nz={self.nz}")
            return self.nx + self.ny + i - 1
        raise PolyError(f"unknown variable bank {bank!r}")

    def monomial(self, exps: Mapping[int, int] | Sequence[int],
                 coeff: Fraction | int = 1) -> "Polynomial":
        if isinstance(exps, Mapping):
            vec = [0] * self.width
            for idx, e in exps.items():
                if not 0 <= idx < self.width:
                    raise PolyError(f"variable index {idx} out of range")
                vec[idx] = e
            exps = vec
        num, den = _ratio(coeff)
        return Polynomial._from_clean(self, {self._pack(exps): num}, den)

    def var(self, bank: str, i: int) -> "Polynomial":
        key = 1 << self._top | 1 << self._shifts[self.var_index(bank, i)]
        return Polynomial._from_clean(self, {key: 1})

    def x(self, i: int) -> "Polynomial":
        return self.var("x", i)

    def y(self, i: int) -> "Polynomial":
        return self.var("y", i)

    def linear(self, bank: str, coeffs: Sequence[int]) -> "Polynomial":
        """The linear form sum of ``coeffs[k-1] * bank_k``, e.g. ``2*y1 - y3``
        from ``("y", (2, 0, -1))``, built as one polynomial."""
        one = 1 << self._top
        return Polynomial._from_clean(self, {
            one | 1 << self._shifts[self.var_index(bank, k)]: c
            for k, c in enumerate(coeffs, start=1)})

    def const(self, c: Fraction | int) -> "Polynomial":
        num, den = _ratio(c)
        return Polynomial._from_clean(self, {0: num}, den)

    @property
    def zero(self) -> "Polynomial":
        return Polynomial._from_clean(self, {})

    @property
    def one(self) -> "Polynomial":
        return self.const(1)


class _PartTexts(dict):
    """The texts of a ring's monomial parts (keys masked to their x or their
    y/z digits), each built on its first lookup."""

    def __init__(self, ring: Ring):
        super().__init__()
        self.ring = ring

    def __missing__(self, part: int) -> str:
        ring = self.ring
        text = self[part] = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(ring.names, ring._unpack(part)) if e)
        return text


# ---------------------------------------------------------------------------
# Polynomial
# ---------------------------------------------------------------------------


class _TermView(Mapping):
    """A polynomial's terms as a read-only mapping exponent tuple -> coefficient
    (``int`` when integral, else ``Fraction``)."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "Polynomial"):
        self._poly = poly

    def __getitem__(self, exps):
        poly = self._poly
        try:
            key = poly.ring._pack(exps)
        except (PolyError, TypeError):
            raise KeyError(exps) from None
        return _coefficient(poly._terms[key], poly._den)

    def __iter__(self):
        return map(self._poly.ring._unpack, self._poly._terms)

    def __len__(self):
        return len(self._poly._terms)


class Polynomial:
    """Immutable sparse polynomial: ``int`` numerators by packed monomial key,
    over one positive ``int`` denominator, in lowest terms."""

    __slots__ = ("ring", "_terms", "_den", "_hash")

    def __init__(self, ring: Ring, terms: Mapping[tuple[int, ...], Fraction | int]):
        ratios = {ring._pack(e): _ratio(c) for e, c in terms.items()}
        den = lcm(*(d for _, d in ratios.values()))
        self._fill(ring, {key: n * (den // d) for key, (n, d) in ratios.items()}, den)

    @classmethod
    def _from_clean(cls, ring: Ring, terms: Mapping[int, int], den: int = 1) -> "Polynomial":
        """Trusted constructor: ``terms`` maps packed keys of degree at most
        ``MAX_DEGREE`` to ``int`` numerators (zeros allowed) over the positive
        ``int`` denominator ``den``."""
        self = object.__new__(cls)
        self._fill(ring, terms, den)
        return self

    def _fill(self, ring: Ring, terms: Mapping[int, int], den: int) -> None:
        """Set the slots, dropping zero numerators and reducing to lowest
        terms."""
        terms = {e: c for e, c in terms.items() if c}
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {e: c // g for e, c in terms.items()}
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    # -- basic queries ------------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction | int]:
        return _TermView(self)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not any(self._terms)  # the key of 1 is 0

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(self._terms) >> self.ring._top

    def used_vars(self) -> frozenset[int]:
        used = 0
        for key in self._terms:
            used |= key
        return frozenset(idx for idx, s in enumerate(self.ring._shifts) if used >> s & _DIGIT)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise PolyError("polynomials from different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._check(other)
        den = lcm(self._den, other._den)
        scale, oscale = den // self._den, den // other._den  # both 1 when the dens agree
        out = {key: c * scale for key, c in self._terms.items()}
        for key, c in other._terms.items():
            out[key] = out.get(key, 0) + c * oscale
        return Polynomial._from_clean(self.ring, out, den)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._from_clean(
            self.ring, {e: -c for e, c in self._terms.items()}, self._den)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            try:
                num, den = _ratio(other)
            except PolyError:
                return NotImplemented
            return Polynomial._from_clean(
                self.ring, {e: k * num for e, k in self._terms.items()}, self._den * den)
        self._check(other)
        small, big = (self._terms, other._terms)
        if not small or not big:
            return self.ring.zero
        if len(small) > len(big):
            small, big = big, small
        top = self.ring._top
        _check_degree((max(small) >> top) + (max(big) >> top))
        out: dict[int, int] = {}
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                key = e1 + e2  # no digit carries: the degree fits
                out[key] = out.get(key, 0) + c1 * c2
        return Polynomial._from_clean(self.ring, out, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, k: int):
        """Exact division by a nonzero ``int``."""
        if not isinstance(k, int) or not k:
            raise PolyError(f"a polynomial divides only by a nonzero int, not {k!r}")
        terms = self._terms if k > 0 else {e: -c for e, c in self._terms.items()}
        return Polynomial._from_clean(self.ring, terms, self._den * abs(k))

    def __pow__(self, k: int):
        if k < 0:
            raise PolyError("negative power")
        _check_degree(k * self.degree())
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            try:
                other = self.ring.const(other)
            except PolyError:
                return NotImplemented
        return (self.ring == other.ring and self._den == other._den
                and self._terms == other._terms)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, self._den, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- substitution -------------------------------------------------------

    def substitute(self, images: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Substitute signed variables for variables (by exponent slot), all
        at once: every image is 0 or +-1 times one variable, as in a
        restriction to a fixed point or a Weyl reflection, so each term's
        exponent digits are moved in one pass and the degree is kept.  Any
        other image raises :class:`PolyError`."""
        if not images:
            return self
        for idx, image in images.items():
            if not 0 <= idx < self.ring.width:
                raise PolyError(f"variable index {idx} out of range")
            self._check(image)
        zeroed, kept, negated, moves = _signed_remap(self.ring, images)
        out: dict[int, int] = {}
        for key, coeff in self._terms.items():
            if key & zeroed:
                continue
            new = key & kept
            for digits, left, right in moves:
                new += (key & digits) << left >> right
            if (key & negated).bit_count() & 1:
                out[new] = out.get(new, 0) - coeff
            else:
                out[new] = out.get(new, 0) + coeff
        return Polynomial._from_clean(self.ring, out, self._den)

    # -- display ------------------------------------------------------------

    def to_text(self) -> str:
        """The terms, highest first, e.g. ``x1^2 - 2*x1*y3 + 1/2``; each
        coefficient reads as ``str(Fraction)`` writes it.  A monomial is
        written from the ring's memoised texts of its x-part and y/z-part."""
        ring, terms, den = self.ring, self._terms, self._den
        xmask, yzmask = ring._masks
        xtexts, yztexts = ring._texts
        return _joined([_term_text(terms[key], den, xtexts[key & xmask], yztexts[key & yzmask])
                        for key in sorted(terms, reverse=True)])

    def __repr__(self):  # pragma: no cover
        return f"Polynomial({self.to_text()!r})"


def _term_text(c: int, den: int, x: str, yz: str) -> str:
    """One term with its sign in front, e.g. `` - 2*x1*y3`` or `` + 1/2``:
    the numerator ``c`` over ``den`` times the monomial whose x-part and
    y/z-part read ``x`` and ``yz``."""
    mono = f"{x}*{yz}" if x and yz else x or yz
    sign = " - " if c < 0 else " + "
    c = abs(c)
    if den != 1:
        g = gcd(c, den)
        c = c // g if g == den else f"{c // g}/{den // g}"
    if not mono:
        return f"{sign}{c}"
    return sign + mono if c == 1 else f"{sign}{c}*{mono}"


def _joined(terms: list[str]) -> str:
    """The texts of ``_term_text`` as one polynomial: the first sign as a
    prefix, and ``0`` for no terms."""
    text = "".join(terms)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _signed_remap(
    ring: Ring, images: Mapping[int, Polynomial],
) -> tuple[int, int, int, list[tuple[int, int, int]]]:
    """``(zeroed, kept, negated, moves)`` for ``substitute``: a term with a
    digit under ``zeroed`` maps to 0, else to its bits under ``kept`` plus
    ``(key & digits) << left >> right`` for each move, negated when its
    exponents under ``negated`` (the digits' low bits) have an odd sum.
    Raises :class:`PolyError` unless every image is 0 or +-1 times one
    variable."""
    shifts, one = ring._shifts, 1 << ring._top
    zeroed = negated = substituted = 0
    by_offset: dict[int, int] = {}
    for idx, image in images.items():
        s = shifts[idx]
        digit = _DIGIT << s
        substituted |= digit
        terms = image._terms
        if not terms:
            zeroed |= digit
            continue
        if len(terms) == 1 and image._den == 1:
            (key, c), = terms.items()
            if (c == 1 or c == -1) and key >> ring._top == 1:
                offset = (key - one).bit_length() - 1 - s  # target minus source
                by_offset[offset] = by_offset.get(offset, 0) | digit
                if c == -1:
                    negated |= 1 << s
                continue
        raise PolyError(f"the image of slot {idx} is not 0 or +-1 times one variable")
    moves = [(digits, max(d, 0), max(-d, 0)) for d, digits in by_offset.items()]
    return zeroed, ~substituted, negated, moves


# ---------------------------------------------------------------------------
# Weyl action and divided differences
# ---------------------------------------------------------------------------


def _dd_pair(f: Polynomial, sa: int, sb: int, sign: int) -> Polynomial:
    """Divided difference for alpha = x_a - sign*x_b (``sa``, ``sb``: the bit
    offsets of their digits).  For sign 1, x_a^i x_b^j maps to the sum of
    x_a^t x_b^(i+j-1-t), j <= t < i, negated when i < j: the keys step by
    x_a / x_b.  For sign -1 (type D's branch root x_a + x_b) each of these
    terms also gets the factor (-1)^(i-1-t), so the signs alternate.

    Proof for sign -1: let tau be x_b -> -x_b.  Then tau s tau is the
    reflection in x_a + x_b (x_a -> -x_b, x_b -> -x_a), and
    tau(x_a - x_b) = x_a + x_b, so the operator is tau o (the sign-1
    operator) o tau.  The inner tau gives x_a^i x_b^j the factor (-1)^j,
    the outer one gives x_a^t x_b^(i+j-1-t) the factor (-1)^(i+j-1-t):
    together (-1)^(i-1-t)."""
    step = (1 << sa) - (1 << sb)
    drop = (1 << f.ring._top) + (1 << sb)  # one degree and one x_b
    out: dict[int, int] = {}
    for key, coeff in f._terms.items():
        d = (key >> sa & _DIGIT) - (key >> sb & _DIGIT)
        if not d:
            continue
        key -= drop
        if d > 0:
            key -= d * step
            if sign < 0 and not d & 1:  # the first term's (-1)^(i-1-t), t = j
                coeff = -coeff
        elif sign > 0:
            d, coeff = -d, -coeff
        else:  # the negation and the first term's (-1)^(i-1-t), t = i, cancel
            d = -d
        if sign > 0:
            for _ in range(d):
                out[key] = out.get(key, 0) + coeff
                key += step
        else:
            for _ in range(d):
                out[key] = out.get(key, 0) + coeff
                key += step
                coeff = -coeff
    return Polynomial._from_clean(f.ring, out, f._den)


def divided_difference(f: Polynomial, lie_type: str, rank: int, i: int) -> Polynomial:
    """The operator f -> (f - s_i f) / alpha_i for the given root system.

    The simple roots are x_i - x_{i+1} for i < rank, and in types B, C and D
    a last root x_rank, 2*x_rank and x_{rank-1} + x_rank (type D needs rank
    at least 2).  Any other root, or one whose variables lie outside f's
    ring, raises :class:`PolyError`.  Types B and C send x_rank^k to
    (2 / c) x_rank^(k-1) for odd k (alpha = c*x_rank) and to 0 for even k."""
    if lie_type not in ("A", "B", "C", "D"):
        raise PolyError(f"unknown Lie type {lie_type!r}")
    last = rank - 1 if lie_type == "A" else rank
    if not 1 <= i <= last:
        raise PolyError(f"type {lie_type} rank {rank} has simple roots 1..{last}")
    if lie_type == "D" and rank < 2:
        raise PolyError("type D needs rank >= 2")
    ring = f.ring

    def x(k: int) -> int:
        return ring._shifts[ring.var_index("x", k)]

    if lie_type == "A" or i < rank:
        return _dd_pair(f, x(i), x(i + 1), 1)
    if lie_type == "D":
        return _dd_pair(f, x(rank - 1), x(rank), -1)
    scale, odd = 2 if lie_type == "B" else 1, 1 << x(rank)
    drop = (1 << ring._top) + odd
    return Polynomial._from_clean(
        ring, {key - drop: scale * c for key, c in f._terms.items() if key & odd}, f._den)


# ---------------------------------------------------------------------------
# Symmetric functions, determinants
# ---------------------------------------------------------------------------


def elem_sym(ring: Ring, k: int, gens: Sequence[Polynomial]) -> Polynomial:
    """Elementary symmetric polynomial e_k of the given generators."""
    if k < 0 or k > len(gens):
        return ring.zero
    table = [ring.one] + [ring.zero] * k
    for g in gens:
        for j in range(min(k, len(gens)), 0, -1):
            if not table[j - 1].is_zero():
                table[j] = table[j] + table[j - 1] * g
    return table[k]


def determinant(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a square matrix of polynomials (cofactor with memo)."""
    m = len(matrix)
    if m == 0:
        raise PolyError("empty matrix")
    ring = matrix[0][0].ring
    all_cols = tuple(range(m))

    memo: dict[tuple[int, tuple[int, ...]], Polynomial] = {}

    def minor(row: int, cols: tuple[int, ...]) -> Polynomial:
        if row == m:
            return ring.one
        key = (row, cols)
        if key in memo:
            return memo[key]
        total = ring.zero
        for pos, col in enumerate(cols):
            entry = matrix[row][col]
            if entry.is_zero():
                continue
            sub = minor(row + 1, cols[:pos] + cols[pos + 1:])
            piece = entry * sub
            total = total + (piece if pos % 2 == 0 else -piece)
        memo[key] = total
        return total

    return minor(0, all_cols)


# ---------------------------------------------------------------------------
# Rewriting block-symmetric polynomials in elementary symmetric generators
# ---------------------------------------------------------------------------


def chern_substitute(f: Polynomial, blocks: Sequence[tuple[int, int]]) -> Polynomial:
    """Rewrite every y-variable occurrence through elementary symmetric
    polynomials of the given blocks, mapped to z-variables.

    ``blocks`` is a list of ``(start, size)`` pairs (1-based y indices,
    disjoint).  For a block starting at ``y_a``, the elementary symmetric
    polynomial ``e_k`` of that block's variables is replaced by
    ``z_{a-1+k}``.  Raises PolyError if f is not symmetric in each block
    or uses a y variable outside every block.  The rewrite is linear, so it
    runs on f's numerators and keeps f's denominator.
    """
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

    e_cache: dict[tuple[int, int], Polynomial] = {}

    def block_e(bi: int, k: int) -> Polynomial:
        key = (bi, k)
        if key not in e_cache:
            slots, _ = block_slots[bi]
            gens = [ring.monomial({s: 1}) for s in slots]
            e_cache[key] = elem_sym(ring, k, gens)
        return e_cache[key]

    ymask = 0
    for s in covered:
        ymask |= _DIGIT << ring._shifts[s]
    result = ring.zero
    current = Polynomial._from_clean(ring, f._terms)
    while True:
        lead = max((key for key in current._terms if key & ymask), default=None)
        if lead is None:
            result = result + current
            return result / f._den
        coeff = current._terms[lead]
        exps = ring._unpack(lead)
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
                if mult:
                    subtrahend = subtrahend * (block_e(bi, k) ** mult)
                    zslot = ring.var_index("z", zoffset + k)
                    image_exps[zslot] += mult
        spectator = ring.monomial(tuple(stripped))
        current = current - subtrahend * spectator
        result = result + ring.monomial(tuple(image_exps), coeff)


class ChernExpansion(dict):
    """The inverse of ``chern_substitute``: the ring map that sends
    ``z_{a-1+k}`` to ``e_k(y_a, ..., y_{a+size-1})`` for each block
    ``(start, size)`` and fixes every x and y.

    It maps term by term.  As a dict it memoises, by z-part (a key masked to
    its z digits), the image of the z-part as (key offset, coefficient)
    pairs, built on first lookup as a product of the blocks' elementary
    symmetric polynomials, with its weighted minus its plain degree: a
    term's image keys are its key plus each offset.  A z-variable outside
    every block raises :class:`PolyError`.  ``degrees`` gives the weighted
    degrees of a polynomial's terms, where ``z_{a-1+k}`` weighs k: the
    degrees of their images.  ``text`` writes an image without building it."""

    def __init__(self, ring: Ring, blocks: Sequence[tuple[int, int]]):
        super().__init__()
        self.ring = ring
        self.pieces: dict[tuple, list[str]] = {}
        self.zmask = (1 << _BITS * ring.nz) - 1
        self.slots: list[tuple[int, int, Polynomial]] = []  # (shift, weight, e_k)
        for start, size in blocks:
            gens = [ring.y(start + t) for t in range(size)]
            for k in range(1, size + 1):
                shift = ring._shifts[ring.var_index("z", start - 1 + k)]
                self.slots.append((shift, k, elem_sym(ring, k, gens)))

    def __missing__(self, zpart: int) -> tuple[tuple[tuple[int, int], ...], int]:
        ring = self.ring
        image, extra, left = ring.one, 0, zpart
        for shift, k, e in self.slots:
            b = zpart >> shift & _DIGIT
            if b:
                image = image * e ** b
                extra += (k - 1) * b
                left -= b << shift
        if left:
            raise PolyError("a z-variable lies outside every block")
        zkey = zpart + (sum(ring._unpack(zpart)) << ring._top)
        got = self[zpart] = (tuple((key - zkey, c) for key, c in image._terms.items()), extra)
        return got

    def __call__(self, f: Polynomial) -> Polynomial:
        out: dict[int, int] = {}
        zmask = self.zmask
        for key, coeff in f._terms.items():
            for offset, c in self[key & zmask][0]:
                k = key + offset
                out[k] = out.get(k, 0) + coeff * c
        return Polynomial._from_clean(self.ring, out, f._den)

    def degrees(self, f: Polynomial) -> set[int]:
        top, zmask = self.ring._top, self.zmask
        return {(key >> top) + self[key & zmask][1] for key in f._terms}

    def text(self, f: Polynomial) -> str:
        """``self(f).to_text()``, written without building ``self(f)``.

        The image's keys sort by degree, then x-part, then y-part, so it is
        written in groups: the terms of f whose images share a degree and an
        x-part, highest group first.  A group's text is its x-part's text
        joined into pieces (the signed coefficients and y-parts of the
        group's merged image), memoised in ``pieces`` by f's denominator,
        whether the x-part is 1, and the group's y/z-parts and numerators:
        a case's classes repeat few of these."""
        ring, terms, den, zmask = self.ring, f._terms, f._den, self.zmask
        top = ring._top
        xmask, yzmask = ring._masks
        xtexts, yztexts = ring._texts
        groups: dict[int, list[int]] = {}  # group -> y/z-part, numerator, ...
        for key, coeff in terms.items():
            group = (key >> top) + self[key & zmask][1] << top | key & xmask
            if group in groups:
                groups[group] += key & yzmask, coeff
            else:
                groups[group] = [key & yzmask, coeff]
        out = []
        for group in sorted(groups, reverse=True):
            x = xtexts[group & xmask]
            memo = (den, x != "", *groups[group])
            pieces = self.pieces.get(memo)
            if pieces is None:
                merged: dict[int, int] = {}
                for yz, coeff in zip(memo[2::2], memo[3::2]):
                    for offset, c in self[yz & zmask][0]:
                        y = yz + offset & yzmask
                        merged[y] = merged.get(y, 0) + coeff * c
                pieces = self.pieces[memo] = "".join(
                    _term_text(c, den, x and "\0", yztexts[y])
                    for y, c in sorted(merged.items(), reverse=True) if c).split("\0")
            out.append(x.join(pieces))
        return _joined(out)


# ---------------------------------------------------------------------------
# Factored form
# ---------------------------------------------------------------------------


class FactoredPoly:
    """A polynomial kept as ``scalar / den`` times a product of factors, for
    display: an ``int`` scalar over a positive ``int`` denominator, in lowest
    terms.  ``scalar`` may also be given as a ``Fraction``."""

    __slots__ = ("ring", "scalar", "den", "factors")

    def __init__(self, ring: Ring, scalar: Fraction | int,
                 factors: Sequence[Polynomial] = (), den: int = 1):
        num, d = _ratio(scalar)
        den *= d
        g = gcd(num, den)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "scalar", num // g)
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "factors", tuple(factors))
        for fac in self.factors:
            if fac.ring != ring:
                raise PolyError("factor from a different ring")

    def __setattr__(self, *_):  # pragma: no cover
        raise AttributeError("FactoredPoly is immutable")

    def expand(self) -> Polynomial:
        total = Polynomial._from_clean(self.ring, {0: self.scalar}, self.den)
        for fac in self.factors:
            total = total * fac
        return total

    def to_text(self) -> str:
        if self.scalar == 0:
            return "0"
        prefix = 0  # the key of the product of the single-term factors
        num, den = self.scalar, self.den
        wrapped: list[Polynomial] = []
        for fac in self.factors:
            if fac.is_zero():
                return "0"
            if len(fac._terms) == 1:
                (key, c), = fac._terms.items()
                num, den = num * c, den * fac._den
                prefix += key
            else:
                wrapped.append(fac)
        body = "".join(f"({fac.to_text()})" for fac in wrapped)
        sign = "-" if num < 0 else ""
        _check_degree(prefix >> self.ring._top)
        mono = Polynomial._from_clean(self.ring, {prefix: abs(num)}, den).to_text()
        if body:
            if mono == "1":
                return sign + body
            return sign + mono + body
        return sign + mono

    def __repr__(self):  # pragma: no cover
        return f"FactoredPoly({self.to_text()!r})"
