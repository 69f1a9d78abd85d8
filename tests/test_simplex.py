"""Exact simplex: worked values, statuses, and a vertex-enumeration oracle."""

from __future__ import annotations

import dataclasses
import itertools
import random
import sys
from fractions import Fraction as F
from math import lcm

import pytest

from conftest import a2
from zonolat import (
    InternalInvariantError,
    InvalidInputError,
    LPProblem,
    cvp_instance,
    lp_problem,
    simplex,
    solve_cvp,
    solve_lp,
)
from zonolat.mmcc import lambda_lp
from zonolat.oracle import row_reduce
from zonolat.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    _certify_optimal,
    eliminate,
)


def _assert_duals_prove_optimum(p, r):
    """A^T y <= den c and b.y == optimum (both den-scaled), for an LP
    without upper bounds."""
    y = r.duals
    assert len(y) == len(p.A)
    for j, cj in enumerate(p.c):
        assert sum(yi * row[j] for yi, row in zip(y, p.A)) <= r.den * cj
    assert sum(yi * bi for yi, bi in zip(y, p.b)) == r.optimum


def test_min_x_at_least_three():
    # min x s.t. x - s = 3, s >= 0
    p = lp_problem([1, 0], [[1, -1]], [3])
    r = solve_lp(p)
    assert r.status == OPTIMAL
    assert r.optimum == 3
    assert r.vertex == (3, 0)
    assert r.duals == (1,)
    _assert_duals_prove_optimum(p, r)


def _a2_instance():
    return cvp_instance(a2(), (F(7, 10), F(-1, 5), F(-1, 2)), project=False)


def test_lambda_lp_a2_optimum():
    # the optimum is -K lambda(0), with K = 5 and lambda(0) = 1/5
    inst = _a2_instance()
    p = lambda_lp((0, 0, 0), inst)
    r = solve_lp(p)
    assert r.status == OPTIMAL
    assert F(r.optimum, r.den) == -inst.K * F(1, 5)
    _assert_duals_prove_optimum(p, r)


@pytest.mark.parametrize("where, bad", [
    (where, bad) for where in ("c", "A", "b", "upper") for bad in (F(1, 2), "1", 1.0, None)
    if (where, bad) != ("upper", None)  # None is +infinity there
])
def test_non_integral_data_rejected(where, bad):
    # _pivot's floor division would silently truncate a Fraction, so both
    # constructors refuse any entry that is not an int
    data = {"c": [1, 0], "A": [[1, -1]], "b": [3], "upper": [2, None]}
    if where == "A":
        data["A"] = [[bad, -1]]
    else:
        data[where] = [bad] + data[where][1:]
    with pytest.raises(InvalidInputError):
        lp_problem(data["c"], data["A"], data["b"], upper=data["upper"])
    with pytest.raises(InvalidInputError):
        LPProblem(c=tuple(data["c"]), A=tuple(map(tuple, data["A"])), b=tuple(data["b"]),
                  upper=tuple(data["upper"]))


def test_integral_fractions_become_ints():
    p = lp_problem([F(2), 0], [[F(4, 2), -1]], [F(3)], upper=[F(6, 3), None])
    assert all(type(x) is int for x in p.c + p.A[0] + p.b + p.upper[:1])
    r = solve_lp(p)
    assert F(r.optimum, r.den) == 3


def test_contradictory_equalities_infeasible():
    p = lp_problem([1], [[1], [1]], [0, 1])
    assert solve_lp(p).status == INFEASIBLE


def test_unbounded():
    p = lp_problem([-1], [], [])
    assert solve_lp(p).status == UNBOUNDED


def test_upper_bound_column():
    p = lp_problem([-1], [], [], upper=[5])
    r = solve_lp(p)
    assert r.status == OPTIMAL and r.optimum == -5 and r.vertex == (5,)
    assert r.duals == ()  # the upper-bound row's dual is left out
    with pytest.raises(InvalidInputError):
        lp_problem([-1], [], [], upper=[-1])


def test_bound_row_slacks_start_basic(monkeypatch):
    # each bound row starts on its slack and there is no A row, so phase 1
    # starts feasible with no artificial; the all-slack basis is also
    # optimal for c >= 0, so the solve makes no pivot at all
    from zonolat import simplex

    pivots = []
    pivot = simplex._pivot

    def counting(tab, rhs, basis, red, den, r, jc):
        pivots.append(jc)
        return pivot(tab, rhs, basis, red, den, r, jc)

    monkeypatch.setattr(simplex, "_pivot", counting)
    r = solve_lp(lp_problem([1, 2, 1], [], [], upper=[3, 1, 7]))
    assert r.status == OPTIMAL and r.optimum == 0 and r.vertex == (0, 0, 0)
    assert pivots == []


def test_bound_rows_have_no_artificial_column():
    # columns: 3 variables, 2 slacks (x_0 and x_2 are bounded), and one
    # artificial per row of A; a bound row gets none
    r = solve_lp(lp_problem([-1, -1, 0], [[1, 1, 1], [1, -1, 0]], [4, 0],
                            upper=[3, None, 1]))
    assert r.status == OPTIMAL and F(r.optimum, r.den) == -4
    rows = r.tableau.rows
    assert len(rows) == 2 + 2 and {len(row) for row in rows} == {3 + 2 + 2}


def test_warm_start_reprices_basis():
    # same constraints, new costs: the warm solve skips phase 1 and must
    # reach the cold optimum; the start itself is left untouched
    inst = _a2_instance()
    p = lambda_lp((0, 0, 0), inst)
    first = solve_lp(p)
    q = lambda_lp((1, 0, -1), inst)
    cold = solve_lp(q)
    warm = solve_lp(q, start=first)
    # lambda(1, 0, -1) = 0: the optimum is K times the least mean cost 1/5
    assert warm.status == OPTIMAL
    assert F(warm.optimum, warm.den) == F(cold.optimum, cold.den) == inst.K * F(1, 5)
    _assert_duals_prove_optimum(q, warm)
    assert solve_lp(p, start=first) == first
    assert first.tableau == solve_lp(p).tableau


def test_warm_start_rejects_other_constraints():
    p = lambda_lp((0, 0, 0), _a2_instance())
    first = solve_lp(p)
    other_b = lp_problem(p.c, p.A, p.b[:-1] + (F(2),))
    other_a = lp_problem(p.c, p.A[:-1] + ((F(1),) * 5 + (F(2),),), p.b)
    for q in (other_b, other_a):
        with pytest.raises(InvalidInputError):
            solve_lp(q, start=first)
    infeasible = solve_lp(lp_problem([1], [[1], [1]], [0, 1]))
    with pytest.raises(InvalidInputError):
        solve_lp(lp_problem([1], [[1], [1]], [0, 1]), start=infeasible)


def test_determinism_repeated_solves():
    p = lambda_lp((0, 0, 0), _a2_instance())
    first = solve_lp(p)
    for _ in range(3):
        assert solve_lp(p) == first


def test_vertex_is_basic_feasible():
    p = lambda_lp((0, 0, 0), _a2_instance())
    r = solve_lp(p)
    x = r.vertex
    for row, b in zip(p.A, p.b):
        assert sum(c * v for c, v in zip(row, x)) == b * r.den
    assert all(v >= 0 for v in x)
    assert sum(1 for v in x if v) <= len(p.A)


# ---------------------------------------------------------------------------
# Independent oracle: enumerate all basic solutions of A x = b, x >= 0
# ---------------------------------------------------------------------------


def _solve_square(rows, rhs):
    n = len(rows)
    a = [list(map(F, rows[i])) + [F(rhs[i])] for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return None
        a[c], a[p] = a[p], a[c]
        pv = a[c][c]
        a[c] = [x / pv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [a[i][n] for i in range(n)]


def _enumerate_optimum(c, A, b):
    """Minimum of c.x over {A x = b, x >= 0} by basis enumeration.

    Returns (status, optimum).  Assumes the feasible region is bounded or
    empty, which holds for the generated family below.
    """
    m, n = len(A), len(c)
    best = None
    feasible = False
    for cols in itertools.combinations(range(n), min(m, n)):
        sub = [[A[i][j] for j in cols] for i in range(m)]
        if len(cols) < m:
            continue
        sol = _solve_square(sub, b)
        if sol is None or any(v < 0 for v in sol):
            continue
        feasible = True
        val = sum(F(c[j]) * v for j, v in zip(cols, sol))
        if best is None or val < best:
            best = val
    if not feasible:
        return INFEASIBLE, None
    return OPTIMAL, best


def _integral_lp(c, A, b, upper=None):
    """A rational LP in ints, and the factor f with optimum = (its optimum) / f.

    The substitution x = x' / s, with s the lcm of the denominators of b and
    the bounds, makes s b and s u integral; each row and c are then scaled by
    the lcm of their own denominators.
    """
    upper = upper or [None] * len(c)
    s = lcm(*(x.denominator for x in b), *(u.denominator for u in upper if u is not None))
    rows, rhs = [], []
    for row, bi in zip(A, b):
        r = lcm(*(x.denominator for x in row))
        rows.append([x * r for x in row])
        rhs.append(bi * s * r)
    cs = lcm(*(x.denominator for x in c))
    bounds = [None if u is None else u * s for u in upper]
    return lp_problem([x * cs for x in c], rows, rhs, upper=bounds), cs * s


def _assert_int_result(r):
    """An optimal result is den-scaled ints over den >= 1."""
    assert type(r.optimum) is int and type(r.den) is int and r.den >= 1
    assert all(type(x) is int for x in r.vertex + r.duals)


def test_random_lps_against_basis_enumeration():
    rng = random.Random(1234)
    for _ in range(40):
        n = rng.randint(2, 5)
        m = rng.randint(1, min(3, n))
        A = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m - 1)]
        # a normalization row keeps the region bounded
        A.append([F(1)] * n)
        b = [F(0)] * (m - 1) + [F(rng.randint(1, 4))]
        c = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        p, factor = _integral_lp(c, A, b)
        got = solve_lp(p)
        status, best = _enumerate_optimum(c, A, b)
        assert got.status == status, (A, b, c)
        if status == OPTIMAL:
            _assert_int_result(got)
            assert F(got.optimum, got.den) / factor == best, (A, b, c)
            _assert_duals_prove_optimum(p, got)


def test_degenerate_redundant_rows():
    # duplicated constraint rows must not confuse phase 1
    p = lp_problem([1, 1], [[1, 1], [1, 1]], [2, 2])
    r = solve_lp(p)
    assert r.status == OPTIMAL and r.optimum == 2
    assert 0 in r.duals  # the row phase 1 dropped
    _assert_duals_prove_optimum(p, r)


def test_random_fractional_lps_against_basis_enumeration():
    # fractional A, b, c and upper bounds, cleared to ints by _integral_lp
    rng = random.Random(4321)
    for _ in range(40):
        n = rng.randint(2, 5)
        m = rng.randint(1, min(3, n))
        A = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(m - 1)]
        A.append([F(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(n)])
        b = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(m - 1)]
        b.append(F(rng.randint(1, 4), rng.randint(1, 5)))
        c = [F(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(n)]
        upper = [F(rng.randint(1, 5), rng.randint(1, 4)) if rng.random() < 0.3 else None
                 for _ in range(n)]
        p, factor = _integral_lp(c, A, b, upper)
        got = solve_lp(p)
        # the oracle sees each bound x_j <= u as a row x_j + s = u
        bounded = [(j, u) for j, u in enumerate(upper) if u is not None]
        wide = [row + [F(0)] * len(bounded) for row in A]
        for k, (j, _u) in enumerate(bounded):
            row = [F(0)] * (n + len(bounded))
            row[j] = row[n + k] = F(1)
            wide.append(row)
        status, best = _enumerate_optimum(c + [F(0)] * len(bounded), wide,
                                          b + [u for _, u in bounded])
        assert got.status == status, (A, b, c, upper)
        if status == OPTIMAL:
            _assert_int_result(got)
            assert F(got.optimum, got.den) / factor == best, (A, b, c, upper)
            if not bounded:
                _assert_duals_prove_optimum(p, got)


def test_integer_tableau_a2_lambda_lp():
    # den * B^-1 [A | I] and den * B^-1 b as ints over den > 0; the
    # rationals they stand for are the rational tableau of the same basis,
    # and the artificial block is den * B^-1
    inst = _a2_instance()
    expected = {  # v: (B^-1 A, B^-1 b, basis)
        (0, 0, 0): ([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]], [F(1, 2)] * 2, (0, 5)),
        (1, 0, -1): ([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]], [F(1, 2)] * 2, (2, 3)),
    }
    for v, (rows, rhs, basis) in expected.items():
        t = solve_lp(lambda_lp(v, inst)).tableau
        assert t.den == 2  # |det B| for B = [[1, -1], [1, 1]], both times
        assert all(type(x) is int for row in t.rows for x in row)
        assert all(type(x) is int for x in t.rhs)
        assert [[F(x, t.den) for x in row[:6]] for row in t.rows] == rows
        assert [F(x, t.den) for x in t.rhs] == rhs
        assert t.basis == basis
        inverse = [list(row[6:]) for row in t.rows]
        assert inverse == [[1, 1], [-1, 1]]  # den * B^-1
        b_matrix = [[row[j] for j in basis] for row in lambda_lp(v, inst).A]
        assert [[sum(x * y for x, y in zip(inv_row, col)) for col in zip(*b_matrix)]
                for inv_row in inverse] == [[t.den, 0], [0, t.den]]


def test_negated_row_duals():
    # min x0 s.t. -x0 + x1 = -3: phase 1 negates the row, and its dual keeps
    # the sign of the row as given
    p = lp_problem([1, 0], [[-1, 1]], [-3])
    r = solve_lp(p)
    assert r.status == OPTIMAL
    assert r.optimum == 3 and r.vertex == (3, 0)
    assert r.duals == (-1,)
    _assert_duals_prove_optimum(p, r)


def test_negative_drive_out_pivot_keeps_den_positive(monkeypatch):
    # rows 0 and 1 are negatives of each other with b = 0: phase 1 ends with
    # their artificials basic at zero, drives row 1's out on its entry -1
    # and drops row 0 as redundant
    c, A, b = [3, -1, 1], [[0, 1, -1], [0, -1, 1], [1, 1, 1]], [0, 0, 2]
    drive_out = []
    pivot = simplex._pivot

    def spy(tab, rhs, basis, red, den, r, jc):
        if red is None:
            drive_out.append(tab[r][jc])
        return pivot(tab, rhs, basis, red, den, r, jc)

    monkeypatch.setattr(simplex, "_pivot", spy)
    p = lp_problem(c, A, b)
    r = solve_lp(p)
    assert any(e < 0 for e in drive_out)
    assert r.status == OPTIMAL and r.tableau.den > 0
    assert len(r.tableau.rows) == 2  # one of the opposite rows was dropped
    # the oracle needs full row rank: leave out row 0, the negative of row 1
    assert (OPTIMAL, F(r.optimum, r.den)) == _enumerate_optimum(c, A[1:], b[1:]) == (OPTIMAL, 0)
    _assert_duals_prove_optimum(p, r)


def _a2_optimum():
    """The A_2 lambda LP at the origin, whose costs are K = 5 times the
    derivatives, and the integer duals Y (over den = 2) of its optimal basis
    (0, 5)."""
    p = lambda_lp((0, 0, 0), _a2_instance())
    r = solve_lp(p)
    assert r.den == 2 and r.duals == (-2, -2)
    return p, list(r.duals)


@pytest.mark.parametrize("rhs", [
    [1, 2],  # 1 . x = 3/2
    [2, 0],  # M (x+ - x-) = 1
])
def test_certify_optimal_rejects_infeasible_solution(rhs):
    p, y = _a2_optimum()
    with pytest.raises(InternalInvariantError, match="primal check failed: A x"):
        _certify_optimal(p, [0, 5], rhs, 2, y)


def test_certify_optimal_rejects_suboptimal_basis():
    # x1 = x5 = 1/2 is a feasible basic solution of the A_2 lambda LP at the
    # origin, with cost 7/10 against the optimum -1/5
    p, y = _a2_optimum()
    assert _certify_optimal(p, [0, 5], [1, 1], 2, y) is None
    with pytest.raises(InternalInvariantError, match="objective mismatch"):
        _certify_optimal(p, [1, 5], [1, 1], 2, y)
    # the basis's own duals, Y = (7, 7), price out column 0
    with pytest.raises(InternalInvariantError, match="negative reduced cost"):
        _certify_optimal(p, [1, 5], [1, 1], 2, [7, 7])


def test_certify_optimal_rejects_negative_solution():
    # x1 = -1 solves x0 - x1 = 1 but is not >= 0
    p = lp_problem([0, 0], [[1, -1]], [1])
    with pytest.raises(InternalInvariantError, match="primal check failed: basic"):
        _certify_optimal(p, [1], [-1], 1, [0])


def test_warm_start_from_corrupted_tableau_raises():
    # pivots keep a corrupted rhs inconsistent with b, so the primal check
    # of the warm solve catches it
    p = lambda_lp((0, 0, 0), _a2_instance())
    first = solve_lp(p)
    bad = dataclasses.replace(first.tableau, rhs=(first.tableau.rhs[0] + 1,)
                              + first.tableau.rhs[1:])
    start = dataclasses.replace(first, tableau=bad)
    with pytest.raises(InternalInvariantError, match="primal check failed"):
        solve_lp(lambda_lp((1, 0, -1), _a2_instance()), start=start)


@pytest.mark.parametrize("i, step", [(0, -1), (0, 1), (1, -1), (1, 1)])
def test_certify_optimal_rejects_tampered_duals(i, step):
    # the optimal basis with one dual numerator off by one no longer proves
    # the optimum
    p, y = _a2_optimum()
    y[i] += step
    with pytest.raises(InternalInvariantError,
                       match="negative reduced cost|objective mismatch"):
        _certify_optimal(p, [0, 5], [1, 1], 2, y)


def _bounded_lp():
    """min -x0 - 2 x1  s.t.  x0 + x1 = 3, x1 <= 2: the optimum -5 at x = (1, 2),
    proved by the dual y = -1 of the row and w = -1 of the bound."""
    p = lp_problem([-1, -2], [[1, 1]], [3], upper=[None, 2])
    r = solve_lp(p)
    assert r.status == OPTIMAL and r.optimum == -5 and r.vertex == (1, 2)
    assert r.duals == (-1,)
    return p


def test_certify_optimal_checks_bounds_through_their_duals():
    p = _bounded_lp()
    # basis x0, x1 with the bound's slack at 0; the duals (y, w) = (-1, -1)
    assert _certify_optimal(p, [0, 1], [1, 2], 1, [-1, -1]) is None
    # x = (0, 3) satisfies A x = b and x >= 0 but not x1 <= 2
    with pytest.raises(InternalInvariantError, match="x above its upper bound"):
        _certify_optimal(p, [0, 1], [0, 3], 1, [-1, -1])


def test_certify_optimal_rejects_positive_bound_dual():
    # min x1 over the same constraints has its optimum 0 at x = (3, 0); the
    # vertex (1, 2) of cost 2 passes every other check with (y, w) = (0, 1)
    p = lp_problem([0, 1], [[1, 1]], [3], upper=[None, 2])
    assert _certify_optimal(p, [0, 2], [3, 2], 1, [0, 0]) is None
    with pytest.raises(InternalInvariantError, match="positive bound dual"):
        _certify_optimal(p, [0, 1], [1, 2], 1, [0, 1])


def test_certify_optimal_bound_dual_off_by_one():
    # w = -2 keeps every reduced cost >= 0 but breaks b.y + u.w == c.x;
    # w = 0 prices out x1
    p = _bounded_lp()
    with pytest.raises(InternalInvariantError, match="objective mismatch"):
        _certify_optimal(p, [0, 1], [1, 2], 1, [-1, -2])
    with pytest.raises(InternalInvariantError, match="negative reduced cost"):
        _certify_optimal(p, [0, 1], [1, 2], 1, [-1, 0])


def test_solve_cvp_never_reeliminates(monkeypatch):
    # the duals come off the tableau and the projection of the set-up runs on
    # eliminate: neither preparing nor solving an instance runs a Fraction
    # elimination
    def spy(rows):
        raise AssertionError("row_reduce called")

    for name, module in list(sys.modules.items()):
        if name.startswith("zonolat") and hasattr(module, "row_reduce"):
            monkeypatch.setattr(module, "row_reduce", spy)
    inst = cvp_instance(a2(), (F(7, 10), F(-1, 5), F(-1, 2)))
    assert solve_cvp(inst).certified


def test_eliminate_worked_example():
    rows = [[0, 2, 4], [3, 1, 1]]
    out, rhs, pivots, den = eliminate(rows, [2, 5])
    assert rows == [[0, 2, 4], [3, 1, 1]]  # input unmodified
    assert (out, rhs, pivots, den) == ([[6, 0, -2], [0, 6, 12]], [8, 6], [0, 1], 6)
    assert eliminate([]) == ([], [], [], 1)
    assert eliminate([[0, 0], [0, 0]])[2:] == ([], 1)


def test_eliminate_is_den_times_the_fraction_reduction():
    # den * RREF, on random consistent integer systems of full and deficient
    # rank, against the oracle's Fraction Gauss-Jordan reduction; on a
    # nonsingular square matrix den is |det|
    rng = random.Random(31)
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        x = [rng.randint(-4, 4) for _ in range(m)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
        out, b, pivots, den = eliminate(rows, rhs)
        reduced, ref_pivots = row_reduce([r + [y] for r, y in zip(rows, rhs)])
        assert pivots == ref_pivots
        for i in range(n):
            assert [F(y, den) for y in out[i] + [b[i]]] == reduced[i]
        if n == m and len(pivots) == n:
            assert den == abs(_det(rows))


def _det(a):
    if not a:
        return 1
    return sum((-1) ** j * a[0][j] * _det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)) if a[0][j])
