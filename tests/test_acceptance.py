"""Acceptance suite: one test (one pass/fail line under pytest -v) per
shipped guarantee, each with its runtime budget asserted.

Run with `pytest -v tests/test_acceptance.py` to see the ten lines.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from orbitcalc.clans import (
    DESK_RANKS,
    case_from_params,
    enumerate_clans,
    leq,
    rank_table,
)
from orbitcalc.cmd_chern import parse_clan
from orbitcalc.formulas import (
    all_classes,
    chern_factored,
    closed_class,
    delta,
    formula_ring,
    restrict_at,
    verify_localization,
)
from orbitcalc.geometry import block_diagonal_matrix, measure_rank_numbers, representative_flag
from orbitcalc.orbits import check_conjecture, full_closure_order, weak_order_graph
from orbitcalc.parse import parse_poly
from orbitcalc.poly import Ring, divided_difference
from orbitcalc.weyl import closed_orbit_fixed_points, weyl_elements
from reference import (
    closed_clans,
    component_class,
    covering_successors,
    expand_class,
    orbit_delta,
    reflect_x,
    simple_root_poly,
    weyl_compose,
)

DATA = Path(__file__).parent / "data"

def _check_table(tag: str, p: int, q: int) -> int:
    """Recompute one class table and compare against its frozen fixture."""
    case = case_from_params(tag, p, q)
    ring = formula_ring(case)
    fixture = json.loads(
        (DATA / f"classes_{tag}_{p}_{q}.json").read_text(encoding="utf-8")
    )["classes"]
    computed = all_classes(weak_order_graph(case))
    P, Q = case.ambient_shape
    assert {c.to_text() for c in computed} == set(fixture)
    for text, expr in fixture.items():
        got = expand_class(case, computed[parse_clan(text, P, Q)])
        assert got == parse_poly(expr, ring), text
    return len(fixture)


def _budget(started: float, seconds: float, label: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < seconds, f"{label}: {elapsed:.1f}s over the {seconds}s budget"


def test_criterion_01_clan_census():
    start = time.perf_counter()
    clans = enumerate_clans(2, 2)
    got = [c.to_text() for c in clans]
    expected = json.loads((DATA / "census_2_2.json").read_text(encoding="utf-8"))
    assert len(got) == 21
    assert sorted(got) == sorted(expected)
    _budget(start, 1.0, "clan census")
    print("ACCEPTANCE 1 PASS: 21 clans at (2,2), exact string match")


def test_criterion_02_type_a_table():
    start = time.perf_counter()
    rows = _check_table("a", 2, 2)
    assert rows == 21
    _budget(start, 5.0, "type-A table")
    print("ACCEPTANCE 2 PASS: all 21 type-A classes reproduced exactly")


def test_criterion_03_cross_type_tables():
    start = time.perf_counter()
    total = 0
    for tag, p, q in DESK_RANKS[1:]:
        total += _check_table(tag, p, q)
    assert total == 25 + 9 + 11 + 12 + 10 + 13
    _budget(start, 60.0, "cross-type tables")
    print(f"ACCEPTANCE 3 PASS: {total} rows across six tables reproduced exactly")


def test_criterion_04_localization_suite():
    start = time.perf_counter()
    for tag, p, q in DESK_RANKS:
        poset = weak_order_graph(case_from_params(tag, p, q))
        report = verify_localization(poset, all_classes(poset))
        assert report.ok, (tag, report.failures)
        assert report.dense_ok
        assert report.support_checked == (tag != "d-oxo-odd")
    _budget(start, 60.0, "localization")
    print("ACCEPTANCE 4 PASS: localization checks hold at all shipped ranks")


def test_criterion_05_type_a_order_equivalence():
    start = time.perf_counter()
    pairs = 0
    for n in range(1, 7):
        for p in range(0, n + 1):
            q = n - p
            case = case_from_params("a", p, q)
            poset = full_closure_order(weak_order_graph(case))
            clans = list(poset.nodes)
            reach = {}
            for c in clans:
                seen = {c}
                frontier = [c]
                while frontier:
                    nxt = []
                    for u in frontier:
                        for v in covering_successors(u):
                            if v not in seen:
                                seen.add(v)
                                nxt.append(v)
                    frontier = nxt
                reach[c] = seen
            for g in clans:
                for t in clans:
                    pairs += 1
                    expected = leq(g, t)
                    assert (g in poset.full_order[t]) == expected, (str(g), str(t))
                    assert (t in reach[g]) == expected, (str(g), str(t))
    _budget(start, 120.0, "type-A order equivalence")
    print(f"ACCEPTANCE 5 PASS: three-way order equality on {pairs} pairs (p+q <= 6)")


def test_criterion_06_geometric_oracle():
    # rank numbers are K-invariant: a representative flag moved by a
    # block-diagonal k in GL(p) x GL(q) measures its clan's table again
    start = time.perf_counter()
    rng = random.Random("criterion 6")
    measured = moved = 0
    for n in range(1, 6):
        for p in range(0, n + 1):
            q = n - p
            for c in enumerate_clans(p, q):
                flag, table = representative_flag(c), rank_table(c)
                assert measure_rank_numbers(flag, p, q) == table, str(c)
                measured += 1
                if n <= 4:
                    k = block_diagonal_matrix(rng, p, q)
                    assert measure_rank_numbers(flag.transformed(k), p, q) == table, str(c)
                    moved += 1
    _budget(start, 120.0, "geometric oracle")
    print(
        f"ACCEPTANCE 6 PASS: {measured} flags measured (p+q <= 5), "
        f"{moved} moved by a block-diagonal k keep their tables (p+q <= 4)"
    )


def test_criterion_07_order_comparison_sweep():
    start = time.perf_counter()
    for tag in ("b-so", "c-spxsp"):
        for n in range(2, 5):
            for p in range(1, n):
                report = check_conjecture(weak_order_graph(case_from_params(tag, p, n - p)))
                assert report.coincides, (tag, p, n - p)
    for n in range(1, 5):
        report = check_conjecture(weak_order_graph(case_from_params("c-sp-gl", n, n)))
        assert report.coincides, ("c-sp-gl", n)

    pinned = {
        ("d-oxo-even", 2, 2): ("+-1122-+", "+-1212-+"),
        ("d-so-gl", 4, 4): ("1+-12+-2", "12341234"),
        ("d-oxo-odd", 2, 2): ("+121323+", "+123123+"),
    }
    for (tag, p, q), (lo, hi) in pinned.items():
        case = case_from_params(tag, p, q)
        report = check_conjecture(weak_order_graph(case))
        assert not report.coincides, tag
        P, Q = case.ambient_shape
        pair = (parse_clan(lo, P, Q), parse_clan(hi, P, Q))
        assert pair in report.witnesses, (tag, lo, hi)
    _budget(start, 600.0, "order comparison sweep")
    print(
        "ACCEPTANCE 7 PASS: coincidence at ranks <= 4 for the symplectic/odd-"
        "orthogonal families; strictness with pinned witnesses at rank 4"
    )


def test_criterion_08_chern_worked_example():
    case = case_from_params("a", 2, 2)
    c = parse_clan("++--", 2, 2)
    got = chern_factored(case, c).to_text()
    assert got == "(x1^2 - x1*z3 + z4)(x2^2 - x2*z3 + z4)"
    print("ACCEPTANCE 8 PASS: worked Chern example matches exactly")


def test_criterion_09_property_suites():
    rng = random.Random(20260816)
    samples = 100

    def random_poly(ring: Ring, nvars: int):
        out = ring.zero
        for _ in range(rng.randint(1, 4)):
            exps = tuple(
                rng.randint(0, 2) if i < nvars else 0
                for i in range(ring.width)
            )
            out = out + ring.monomial(exps, Fraction(rng.randint(-4, 4)))
        return out

    # divided differences: square to zero, and alpha*dd + reflection = id
    for _ in range(samples):
        family = rng.choice(["A", "B", "C", "D"])
        n = rng.randint(2, 4)
        ring = Ring(n, n, 0)
        i = rng.randint(1, n - 1 if family == "A" else n)
        f = random_poly(ring, 2 * n)
        df = divided_difference(f, family, n, i)
        assert divided_difference(df, family, n, i).is_zero()
        alpha = simple_root_poly(ring, family, n, i)
        assert alpha * df + reflect_x(f, family, n, i) == f

    # restriction at a fixed point is a ring homomorphism
    desk = [case_from_params(t, p, q) for t, p, q in DESK_RANKS]
    for _ in range(samples):
        case = rng.choice(desk)
        ring = formula_ring(case)
        n = case.grank
        w = rng.choice(weyl_elements(case.family, n))
        f = random_poly(ring, 2 * n)
        g = random_poly(ring, 2 * n)
        assert restrict_at(case, f + g, w) == restrict_at(case, f, w) + restrict_at(
            case, g, w
        )
        assert restrict_at(case, f * g, w) == restrict_at(case, f, w) * restrict_at(
            case, g, w
        )
        assert restrict_at(case, ring.one, w) == ring.one

    # determinant: symmetric in x and in y (the per-orbit reference at any
    # size), and the sign-substitution law (the case's determinant)
    for _ in range(samples):
        n = rng.randint(1, 4)
        m = rng.randint(1, n)
        ring = Ring(n, n, 0)
        w = list(range(1, n + 1))
        rng.shuffle(w)
        d = orbit_delta(ring, m, tuple(w))
        assert d == orbit_delta(ring, m, tuple(range(1, n + 1)))
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        x_images = {
            ring.var_index("x", i): ring.x(sigma[i - 1]) for i in range(1, n + 1)
        }
        y_images = {
            ring.var_index("y", i): ring.y(sigma[i - 1]) for i in range(1, n + 1)
        }
        assert d.substitute(x_images) == d
        assert d.substitute(y_images) == d

        case = case_from_params("c-sp-gl", n, n)
        ring = formula_ring(case)
        full = delta(case)
        eps = [rng.choice([1, -1]) for _ in range(n)]
        images = {
            ring.var_index("x", i): ring.y(i) * eps[i - 1]
            for i in range(1, n + 1)
        }
        value = full.substitute(images)
        if all(e == 1 for e in eps):
            want = ring.const(2**n)
            for i in range(1, n + 1):
                want = want * ring.y(i)
            for i, j in itertools.combinations(range(1, n + 1), 2):
                want = want * (ring.y(i) + ring.y(j))
            assert value == want
        else:
            assert value.is_zero()

    # odd-orthogonal closed orbits: the two component classes sum to the
    # closed-orbit class
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]
    pool = []
    for p, q in shapes:
        case = case_from_params("b-so", p, q)
        for c in closed_clans(case):
            pool.append((case, c))
    for _ in range(samples):
        case, c = rng.choice(pool)
        n = case.grank
        w = rng.choice(closed_orbit_fixed_points(case, c))
        pi = (-1,) + tuple(range(2, n + 1))
        total = component_class(case, w).expand() + component_class(
            case, weyl_compose(pi, w)
        ).expand()
        assert total == closed_class(case, c).expand()
    print("ACCEPTANCE 9 PASS: five property suites, 100 seeded samples each")


def test_criterion_10_determinant_convention_documented():
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8"
    )
    assert "c_0 = 2" in readme
    assert "size n-1" in readme
    print("ACCEPTANCE 10 PASS: determinant conventions documented in README")
