"""Parse polynomial text back into a :class:`~orbitcalc.poly.Polynomial`.

The tables ``classes`` prints read back with :func:`parse_poly`, in the
ring of their case (``formula_ring``).  No command parses polynomials, so
this module is kept apart from ``poly`` and no command loads it.
"""

from __future__ import annotations

import re

from .poly import Polynomial, PolyError, Ring

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
                (num,) = divisor._terms.values()
                result = result * divisor._den / num
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
