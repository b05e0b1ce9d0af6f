"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials live in a fixed :class:`Ring` with three banks of variables:
``x1..x_nx`` (torus weights of the ambient group), ``y1..y_ny`` (weights of
the symmetric subgroup / bundle roots), and ``z1..z_nz`` (Chern-class
variables).  A coefficient is an ``int`` when it is integral, else a
:class:`fractions.Fraction`; exact either way.  The module provides
substitution of signed variables for variables (restriction to a fixed
point, the Weyl-group action), divided-difference operators for the four
classical root types, elementary symmetric polynomials, determinants,
rewriting of block-symmetric polynomials in terms of elementary symmetric
generators, and a factored-form container used for human-readable output.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from operator import add, mul
from typing import Mapping, Sequence

from .clans import Record


class PolyError(ValueError):
    """Raised on invalid polynomial input or an impossible exact operation."""


def _exact(c: Fraction | int) -> Fraction | int:
    """A coefficient in normal form: ``int`` when integral, else ``Fraction``."""
    if c.__class__ is int:
        return c
    if c.__class__ is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


# ---------------------------------------------------------------------------
# Ring
# ---------------------------------------------------------------------------


class Ring(Record):
    """A polynomial ring with ``nx`` x-variables, ``ny`` y-variables and
    ``nz`` z-variables.  Exponent vectors are tuples of width nx+ny+nz."""

    __slots__ = ("nx", "ny", "nz", "__dict__")  # __dict__ holds cached names
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
                vec[idx] = e
            key = tuple(vec)
        else:
            key = tuple(exps)
            if len(key) != self.width:
                raise PolyError("exponent vector has wrong width")
        return Polynomial._from_clean(self, {key: _exact(coeff)})

    def var(self, bank: str, i: int) -> "Polynomial":
        return self.monomial({self.var_index(bank, i): 1})

    def x(self, i: int) -> "Polynomial":
        return self.var("x", i)

    def y(self, i: int) -> "Polynomial":
        return self.var("y", i)

    def z(self, i: int) -> "Polynomial":
        return self.var("z", i)

    def const(self, c: Fraction | int) -> "Polynomial":
        return self.monomial({}, c)

    @property
    def zero(self) -> "Polynomial":
        return Polynomial._from_clean(self, {})

    @property
    def one(self) -> "Polynomial":
        return self.const(1)


# ---------------------------------------------------------------------------
# Polynomial
# ---------------------------------------------------------------------------


def _grlex(exps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Graded-lex key: the larger key is the higher term."""
    return sum(exps), exps


class Polynomial:
    """Immutable sparse polynomial: mapping exponent-vector -> coefficient."""

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: Ring, terms: Mapping[tuple[int, ...], Fraction | int]):
        self._fill(ring, {tuple(e): _exact(c) for e, c in terms.items()})

    @classmethod
    def _from_clean(cls, ring: Ring,
                    terms: Mapping[tuple[int, ...], Fraction | int]) -> "Polynomial":
        """Trusted constructor: ``terms`` has tuple keys and coefficients in
        normal form (see ``_exact``) or their sums and products."""
        self = object.__new__(cls)
        self._fill(ring, terms)
        return self

    def _fill(self, ring: Ring, terms: Mapping[tuple[int, ...], Fraction | int]) -> None:
        """Set the slots, dropping zero coefficients."""
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", {e: c for e, c in terms.items() if c})
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    # -- basic queries ------------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise PolyError("polynomial is not constant")
        return Fraction(next(iter(self._terms.values()), 0))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self._terms}
        return len(degs) <= 1

    def used_vars(self) -> frozenset[int]:
        used = set()
        for exps in self._terms:
            for idx, e in enumerate(exps):
                if e:
                    used.add(idx)
        return frozenset(used)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise PolyError("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._check(other)
        out = dict(self._terms)
        for exps, c in other._terms.items():
            out[exps] = out.get(exps, 0) + c
        return Polynomial._from_clean(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._from_clean(self.ring, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _exact(other)
            return Polynomial._from_clean(
                self.ring, {e: _exact(k * c) for e, k in self._terms.items()}
            )
        self._check(other)
        small, big = (self._terms, other._terms)
        if len(small) > len(big):
            small, big = big, small
        out: dict[tuple[int, ...], Fraction | int] = {}
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                key = tuple(map(add, e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return Polynomial._from_clean(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise PolyError("negative power")
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- substitution -------------------------------------------------------

    def substitute(self, images: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Substitute signed variables for variables (by exponent slot), all
        at once: every image is 0 or +-1 times one variable, as in a
        restriction to a fixed point or a Weyl reflection, so each term's
        exponents are moved in one pass.  Any other image raises
        :class:`PolyError`."""
        if not images:
            return self
        for idx, image in images.items():
            if not 0 <= idx < self.ring.width:
                raise PolyError(f"variable index {idx} out of range")
            self._check(image)
        zeroed, moves = _signed_remap(images)
        keep = [idx not in images for idx in range(self.ring.width)]
        out: dict[tuple[int, ...], Fraction | int] = {}
        for exps, coeff in self._terms.items():
            if zeroed and any(exps[idx] for idx in zeroed):
                continue
            vec = list(map(mul, exps, keep))
            odd = False
            for idx, target, negate in moves:
                e = exps[idx]
                if e:
                    vec[target] += e
                    if negate and e & 1:
                        odd = not odd
            key = tuple(vec)
            if odd:
                out[key] = out.get(key, 0) - coeff
            else:
                out[key] = out.get(key, 0) + coeff
        return Polynomial._from_clean(self.ring, out)

    # -- display ------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction | int]]:
        terms = self._terms
        return [(e, terms[e]) for e in sorted(terms, key=_grlex, reverse=True)]

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            body = term_text(self.ring, exps, abs(coeff))
            if not pieces:
                pieces.append(("-" if coeff < 0 else "") + body)
            else:
                pieces.append((" - " if coeff < 0 else " + ") + body)
        return "".join(pieces)

    def __repr__(self):  # pragma: no cover
        return f"Polynomial({self.to_text()!r})"


def _signed_remap(
    images: Mapping[int, Polynomial],
) -> tuple[list[int], list[tuple[int, int, bool]]]:
    """``(zeroed slots, [(slot, target slot, negate)])``; raises
    :class:`PolyError` unless every image is 0 or +-1 times one variable."""
    zeroed, moves = [], []
    for idx, image in images.items():
        terms = image.terms
        if not terms:
            zeroed.append(idx)
            continue
        if len(terms) == 1:
            (exps, c), = terms.items()
            if (c == 1 or c == -1) and sum(exps) == 1:
                moves.append((idx, exps.index(1), c == -1))
                continue
        raise PolyError(f"the image of slot {idx} is not 0 or +-1 times one variable")
    return zeroed, moves


def term_text(ring: Ring, exps: tuple[int, ...], coeff: Fraction | int) -> str:
    """Render one term with a non-negative coefficient, e.g. ``2*x1*y3^2``."""
    parts = [name if e == 1 else f"{name}^{e}"
             for name, e in zip(ring.names, exps) if e]
    if not parts:
        return str(coeff)
    if coeff != 1:
        parts.insert(0, str(coeff))
    return "*".join(parts)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:([xyz])(\d+)|(\d+)|([()+\-*/^]))")


def _tokenize(text: str) -> list[tuple[str, object]]:
    text = text.replace("−", "-").replace("·", "*")
    tokens: list[tuple[str, object]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PolyError(f"cannot tokenize polynomial at: {text[pos:]!r}")
            break
        if m.group(1):
            tokens.append(("var", (m.group(1), int(m.group(2)))))
        elif m.group(3):
            tokens.append(("num", int(m.group(3))))
        else:
            tokens.append(("op", m.group(4)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, object]], ring: Ring):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise PolyError(f"expected {op!r} in polynomial text")

    def parse_expr(self) -> Polynomial:
        kind, val = self.peek()
        sign = 1
        if kind == "op" and val in ("+", "-"):
            self.take()
            sign = -1 if val == "-" else 1
        total = self.parse_term() * sign
        while True:
            kind, val = self.peek()
            if kind == "op" and val in ("+", "-"):
                self.take()
                term = self.parse_term()
                total = total + (term if val == "+" else -term)
            else:
                return total

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                result = result * self.parse_factor()
            elif kind == "op" and val == "/":
                self.take()
                divisor = self.parse_factor()
                if not divisor.is_constant() or divisor.is_zero():
                    raise PolyError("division only by nonzero constants")
                result = result * (1 / divisor.constant_value())
            elif kind in ("var", "num") or (kind == "op" and val == "("):
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self) -> Polynomial:
        base = self.parse_primary()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            k, v = self.take()
            if k != "num":
                raise PolyError("exponent must be a number")
            base = base ** int(v)
        return base

    def parse_primary(self) -> Polynomial:
        kind, val = self.take()
        if kind == "num":
            return self.ring.const(val)
        if kind == "var":
            bank, i = val
            return self.ring.var(bank, i)
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "op" and val == "-":
            return -self.parse_primary()
        raise PolyError(f"unexpected token {val!r} in polynomial text")


def parse_poly(text: str, ring: Ring) -> Polynomial:
    """Parse text like ``"2*x1*x2(x1 - y3)(x1 + y3) + 1/2"`` exactly."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolyError("empty polynomial text")
    parser = _Parser(tokens, ring)
    result = parser.parse_expr()
    if parser.pos != len(tokens):
        raise PolyError(f"trailing junk in polynomial text {text!r}")
    return result


# ---------------------------------------------------------------------------
# Weyl action and divided differences
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


def _dd_swap(f: Polynomial, a: int, b: int) -> Polynomial:
    """Divided difference for alpha = x_a - x_b (0-based exponent slots)."""
    out: dict[tuple[int, ...], Fraction | int] = {}
    for exps, coeff in f.terms.items():
        i, j = exps[a], exps[b]
        if i == j:
            continue
        lo, hi = (j, i) if i > j else (i, j)
        c = coeff if i > j else -coeff
        base = list(exps)
        for t in range(lo, hi):
            base[a] = t
            base[b] = i + j - 1 - t
            key = tuple(base)
            out[key] = out.get(key, 0) + c
    return Polynomial._from_clean(f.ring, out)


def _dd_single(f: Polynomial, a: int, alpha_coeff: int) -> Polynomial:
    """Divided difference for alpha = alpha_coeff * x_a (type B: 1, type C: 2)."""
    out: dict[tuple[int, ...], Fraction | int] = {}
    scale = _exact(Fraction(2, alpha_coeff))
    for exps, coeff in f.terms.items():
        i = exps[a]
        if i % 2 == 0:
            continue
        base = list(exps)
        base[a] = i - 1
        key = tuple(base)
        out[key] = out.get(key, 0) + scale * coeff
    return Polynomial._from_clean(f.ring, out)


def _dd_sum(f: Polynomial, a: int, b: int) -> Polynomial:
    """Divided difference for alpha = x_a + x_b (type D branch node)."""
    out: dict[tuple[int, ...], Fraction | int] = {}
    for exps, coeff in f.terms.items():
        i, j = exps[a], exps[b]
        if i == j and (i + j) % 2 == 0:
            continue
        lo = min(i, j)
        d = abs(i - j)
        c = -coeff if (i + j) % 2 == 0 and i < j else coeff
        signed = (c, -c)
        base = list(exps)
        for t in range(d):
            base[a] = lo + d - 1 - t
            base[b] = lo + t
            key = tuple(base)
            out[key] = out.get(key, 0) + signed[t % 2]
    return Polynomial._from_clean(f.ring, out)


def divided_difference(f: Polynomial, lie_type: str, rank: int, i: int) -> Polynomial:
    """The operator f -> (f - s_i f) / alpha_i for the given root system."""
    ring = f.ring
    _check_root_index(lie_type, rank, i)
    if lie_type == "A" or i < rank:
        return _dd_swap(f, ring.var_index("x", i), ring.var_index("x", i + 1))
    if lie_type == "B":
        return _dd_single(f, ring.var_index("x", rank), 1)
    if lie_type == "C":
        return _dd_single(f, ring.var_index("x", rank), 2)
    return _dd_sum(f, ring.var_index("x", rank - 1), ring.var_index("x", rank))


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
    or uses a y variable outside every block.
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

    result = ring.zero
    current = f
    while True:
        candidates = [
            (exps, coeff)
            for exps, coeff in current.terms.items()
            if any(exps[s] for slots, _ in block_slots for s in slots)
        ]
        if not candidates:
            result = result + current
            return result
        exps, coeff = max(candidates, key=lambda t: _grlex(t[0]))
        stripped = list(exps)
        subtrahend = current.ring.const(coeff)
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


# ---------------------------------------------------------------------------
# Factored form
# ---------------------------------------------------------------------------


class FactoredPoly:
    """A polynomial kept as scalar * product of factors, for display."""

    __slots__ = ("ring", "scalar", "factors")

    def __init__(self, ring: Ring, scalar: Fraction | int,
                 factors: Sequence[Polynomial] = ()):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "scalar", Fraction(scalar))
        object.__setattr__(self, "factors", tuple(factors))
        for fac in self.factors:
            if fac.ring != ring:
                raise PolyError("factor from a different ring")

    def __setattr__(self, *_):  # pragma: no cover
        raise AttributeError("FactoredPoly is immutable")

    def expand(self) -> Polynomial:
        total = self.ring.const(self.scalar)
        for fac in self.factors:
            total = total * fac
        return total

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FactoredPoly(self.ring, self.scalar * other, self.factors)
        if isinstance(other, Polynomial):
            return FactoredPoly(self.ring, self.scalar, self.factors + (other,))
        if isinstance(other, FactoredPoly):
            return FactoredPoly(
                self.ring, self.scalar * other.scalar, self.factors + other.factors
            )
        return NotImplemented

    __rmul__ = __mul__

    def to_text(self) -> str:
        if self.scalar == 0:
            return "0"
        prefix_exps = [0] * self.ring.width
        coeff = self.scalar
        wrapped: list[Polynomial] = []
        for fac in self.factors:
            if fac.is_zero():
                return "0"
            if len(fac.terms) == 1:
                exps, c = next(iter(fac.terms.items()))
                coeff *= c
                for idx, e in enumerate(exps):
                    prefix_exps[idx] += e
            else:
                wrapped.append(fac)
        body = "".join(f"({fac.to_text()})" for fac in wrapped)
        sign = "-" if coeff < 0 else ""
        mono = term_text(self.ring, tuple(prefix_exps), abs(coeff))
        if body:
            if mono == "1":
                return sign + body
            return sign + mono + body
        return sign + mono

    def __repr__(self):  # pragma: no cover
        return f"FactoredPoly({self.to_text()!r})"
