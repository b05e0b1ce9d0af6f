"""Tests for the exact-rational flag oracle."""

import random
from fractions import Fraction

import pytest

from orbitcalc.clans import enumerate_clans, leq, rank_table
from orbitcalc.cmd_chern import parse_clan
from orbitcalc.geometry import (
    Flag,
    GeometryError,
    block_diagonal_matrix,
    measure_rank_numbers,
    rank_of_rows,
    representative_flag,
)


def span_equal(vectors_a, vectors_b) -> bool:
    rows_a = [tuple(Fraction(x) for x in v) for v in vectors_a]
    rows_b = [tuple(Fraction(x) for x in v) for v in vectors_b]
    r = rank_of_rows(rows_a)
    return (
        rank_of_rows(rows_b) == r and rank_of_rows(rows_a + rows_b) == r
    )


class TestFlag:
    def test_rejects_dependent_vectors(self):
        with pytest.raises(GeometryError):
            Flag(((1, 0), (2, 0)))

    def test_rejects_wrong_length(self):
        with pytest.raises(GeometryError):
            Flag(((1, 0, 0), (0, 1, 0)))

    def test_rank_of_rows(self):
        assert rank_of_rows([[Fraction(1), Fraction(2)],
                             [Fraction(2), Fraction(4)]]) == 1
        assert rank_of_rows([[Fraction(1), Fraction(0)],
                             [Fraction(0), Fraction(1)]]) == 2


class TestRepresentativeFlag:
    def test_pinned_example(self):
        f = representative_flag(parse_clan("1-+1", 2, 2))
        assert f.vectors[0] == (1, 0, 0, 1)
        assert f.vectors[1] == (0, 0, 1, 0)
        assert f.vectors[2] == (0, 1, 0, 0)
        # the closing pair vector spans the same line as e1 - e4
        assert span_equal(f.vectors[:4], [(1, 0, 0, 1), (0, 0, 1, 0),
                                          (0, 1, 0, 0), (1, 0, 0, -1)])

    def test_all_signs_gives_standard_flag(self):
        f = representative_flag(parse_clan("+++---", 3, 3))
        for i, v in enumerate(f.vectors):
            assert v == tuple(Fraction(1 if k == i else 0) for k in range(6))

    def test_smallest_pair(self):
        f = representative_flag(parse_clan("11", 1, 1))
        assert f.vectors[0] == (1, 1)
        assert span_equal(f.vectors, [(1, 1), (1, -1)])

    def test_lands_in_own_orbit(self):
        for c in enumerate_clans(2, 2):
            f = representative_flag(c)
            assert measure_rank_numbers(f, 2, 2) == rank_table(c)


class TestMeasure:
    def test_standard_flag_table(self):
        p, q = 2, 3
        n = p + q
        std = Flag(tuple(
            tuple(Fraction(1 if k == i else 0) for k in range(n))
            for i in range(n)
        ))
        t = measure_rank_numbers(std, p, q)
        assert t.plus == (1, 2, 2, 2, 2)
        assert t.minus == (0, 0, 1, 2, 3)
        assert all(v == 0 for row in t.cross for v in row)

    def test_matches_tables_up_to_rank_five(self):
        for n in range(1, 6):
            for p in range(0, n + 1):
                q = n - p
                for c in enumerate_clans(p, q):
                    f = representative_flag(c)
                    assert measure_rank_numbers(f, p, q) == rank_table(c)

    def test_shape_mismatch_rejected(self):
        f = representative_flag(parse_clan("11", 1, 1))
        with pytest.raises(GeometryError):
            measure_rank_numbers(f, 2, 1)


class TestInClosure:
    """A flag lies in the closure of t's orbit when its measured rank numbers
    are below t's rank table."""

    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
    def test_equivalent_to_rank_number_order(self, shape):
        clans = enumerate_clans(*shape)
        for g in clans:
            measured = measure_rank_numbers(representative_flag(g), *shape)
            for t in clans:
                assert measured.below(rank_table(t)) == leq(g, t)

    def test_dense_clan_contains_everything(self):
        dense = rank_table(parse_clan("1221", 2, 2))
        for g in enumerate_clans(2, 2):
            assert measure_rank_numbers(representative_flag(g), 2, 2).below(dense)

    def test_standard_flag_misses_early_minus_jump(self):
        std = representative_flag(parse_clan("+-", 1, 1))
        assert not measure_rank_numbers(std, 1, 1).below(rank_table(parse_clan("-+", 1, 1)))

    def test_monotone_in_the_target(self):
        clans = enumerate_clans(2, 1)
        for g in clans:
            measured = measure_rank_numbers(representative_flag(g), 2, 1)
            for t in clans:
                if not leq(g, t):
                    continue
                for t2 in clans:
                    if leq(t, t2):
                        assert measured.below(rank_table(t2))

    def test_size_mismatch_rejected(self):
        f = representative_flag(parse_clan("11", 1, 1))
        t = parse_clan("1221", 2, 2)
        with pytest.raises(GeometryError):
            measure_rank_numbers(f, t.p, t.q)


class TestInvariance:
    def test_block_diagonal_action_preserves_measurements(self):
        rng = random.Random(20240816)
        for shape in [(2, 2), (1, 2)]:
            p, q = shape
            for c in enumerate_clans(p, q):
                f = representative_flag(c)
                base = measure_rank_numbers(f, p, q)
                for _ in range(20):
                    m = block_diagonal_matrix(rng, p, q)
                    assert measure_rank_numbers(f.transformed(m), p, q) == base

    def test_general_matrix_can_change_measurements(self):
        # a non-block matrix mixing the two coordinate groups moves the flag
        # out of its orbit, so this direction genuinely depends on the blocks
        f = representative_flag(parse_clan("+-", 1, 1))
        swap = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        moved = measure_rank_numbers(f.transformed(swap), 1, 1)
        assert moved != measure_rank_numbers(f, 1, 1)
