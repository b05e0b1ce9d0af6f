"""Exact-rational flag oracle for the two-block type-A family.

Builds an explicit representative flag inside each orbit, measures the three
rank-number families of arbitrary flags by Gaussian elimination over the
rationals, and moves flags by invertible block-diagonal matrices, elements of
K = GL(p) x GL(q).  Rank numbers are K-invariant, so a moved representative
must measure its clan's rank table again: the brute-force geometric ground
truth the rank-number description of the orbits is checked against.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .clans import CheckError, Clan, RankTable, Record

Vector = tuple[Fraction, ...]


class GeometryError(CheckError):
    """Raised for flags that are not full rank or shape mismatches."""


def _to_vector(row: Sequence, n: int) -> Vector:
    if len(row) != n:
        raise GeometryError(f"vector length {len(row)} != {n}")
    return tuple(Fraction(v) for v in row)


def rank_of_rows(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rational matrix given as a list of row vectors."""
    work = [list(r) for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        head = work[rank][col]
        for r in range(rank + 1, len(work)):
            if work[r][col] != 0:
                factor = work[r][col] / head
                row = work[r]
                prow = work[rank]
                for k in range(col, ncols):
                    row[k] -= factor * prow[k]
        rank += 1
        if rank == len(work):
            break
    return rank


class Flag(Record):
    """A complete flag: F_i is the span of the first i vectors."""

    __slots__ = _fields = ("vectors",)
    vectors: tuple[Vector, ...]

    def _validate(self) -> None:
        n = len(self.vectors)
        object.__setattr__(
            self, "vectors", tuple(_to_vector(v, n) for v in self.vectors)
        )
        if rank_of_rows(self.vectors) != n:
            raise GeometryError("flag vectors are not linearly independent")

    @property
    def n(self) -> int:
        return len(self.vectors)

    def transformed(self, matrix: Sequence[Sequence]) -> "Flag":
        """Apply an invertible matrix to every vector (columns act on e_i)."""
        n = self.n
        m = [[Fraction(x) for x in row] for row in matrix]
        if len(m) != n or any(len(row) != n for row in m):
            raise GeometryError("matrix shape does not match the flag")
        new = []
        for v in self.vectors:
            new.append(
                tuple(
                    sum((m[r][c] * v[c] for c in range(n)), Fraction(0))
                    for r in range(n)
                )
            )
        return Flag(tuple(new))


def block_diagonal_matrix(rng: random.Random, p: int, q: int):
    """Random invertible block-diagonal rational matrix (p and q blocks)."""
    n = p + q
    while True:
        m = [[Fraction(0)] * n for _ in range(n)]
        for r in range(p):
            for c in range(p):
                m[r][c] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        for r in range(q):
            for c in range(q):
                m[p + r][p + c] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if rank_of_rows(m) == n:
            return m


def _basis_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if k == i - 1 else 0) for k in range(n))


def representative_flag(c: Clan) -> Flag:
    """The explicit representative of a clan's orbit.

    Plus signs and opening pair symbols take the slots 1..p in reading
    order; minus signs and closing pair symbols take p+1..n.  A sign
    position contributes e_slot; a pair contributes e_a + e_b at its
    opening position and -e_a + e_b at its closing position."""
    n = c.n
    p = c.p
    next_plus = 1
    next_minus = p + 1
    slot = []  # by 0-based position
    for i, j in enumerate(c.mates):
        if j == "+" or (j.__class__ is int and j > i):
            slot.append(next_plus)
            next_plus += 1
        else:
            slot.append(next_minus)
            next_minus += 1
    vectors: list[Vector] = []
    for i, j in enumerate(c.mates):
        if j.__class__ is str:
            vectors.append(_basis_vector(n, slot[i]))
        elif j > i:
            ea = _basis_vector(n, slot[i])
            eb = _basis_vector(n, slot[j])
            vectors.append(tuple(a + b for a, b in zip(ea, eb)))
        else:
            ea = _basis_vector(n, slot[j])
            eb = _basis_vector(n, slot[i])
            vectors.append(tuple(b - a for a, b in zip(ea, eb)))
    return Flag(tuple(vectors))


def measure_rank_numbers(f: Flag, p: int, q: int) -> RankTable:
    """Measure dim(F_i within the plus block), dim(F_i within the minus
    block), and the projected sums dim(proj(F_i) + F_j) - j by exact
    Gaussian elimination."""
    n = f.n
    if p + q != n or p < 0 or q < 0:
        raise GeometryError(f"shape ({p}, {q}) does not match flag size {n}")
    e_plus = [_basis_vector(n, i) for i in range(1, p + 1)]
    e_minus = [_basis_vector(n, i) for i in range(p + 1, n + 1)]
    projected = [v[:p] + (Fraction(0),) * q for v in f.vectors]

    plus = []
    minus = []
    for i in range(1, n + 1):
        head = list(f.vectors[:i])
        plus.append(i + p - rank_of_rows(head + e_plus))
        minus.append(i + q - rank_of_rows(head + e_minus))
    cross = []
    for i in range(1, n):
        row = []
        for j in range(i + 1, n + 1):
            dim = rank_of_rows(projected[:i] + list(f.vectors[:j]))
            row.append(dim - j)
        cross.append(tuple(row))
    return RankTable(tuple(plus), tuple(minus), tuple(cross))
