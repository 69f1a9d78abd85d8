"""Exact simplex: worked values, statuses, and a vertex-enumeration oracle."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import a2
from zonolat import (
    InternalInvariantError,
    InvalidInputError,
    cvp_instance,
    lp_problem,
    solve_lp,
)
from zonolat.mmcc import lambda_lp
from zonolat.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, _certify_optimal


def _assert_duals_prove_optimum(p, r):
    """A^T y <= c and b.y == optimum, for an LP without upper bounds."""
    y = r.duals
    assert len(y) == len(p.A)
    for j, cj in enumerate(p.c):
        assert sum(yi * row[j] for yi, row in zip(y, p.A)) <= cj
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
    p = lambda_lp((0, 0, 0), _a2_instance())
    r = solve_lp(p)
    assert r.status == OPTIMAL
    assert r.optimum == F(-1, 5)
    _assert_duals_prove_optimum(p, r)


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


def test_warm_start_reprices_basis():
    # same constraints, new costs: the warm solve skips phase 1 and must
    # reach the cold optimum; the start itself is left untouched
    p = lambda_lp((0, 0, 0), _a2_instance())
    first = solve_lp(p)
    q = lambda_lp((1, 0, -1), _a2_instance())
    cold = solve_lp(q)
    warm = solve_lp(q, start=first)
    assert warm.status == OPTIMAL and warm.optimum == cold.optimum == F(1, 5)
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
        assert sum(c * v for c, v in zip(row, x)) == b
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
        got = solve_lp(lp_problem(c, A, b))
        status, best = _enumerate_optimum(c, A, b)
        assert got.status == status, (A, b, c)
        if status == OPTIMAL:
            assert got.optimum == best, (A, b, c)
            _assert_duals_prove_optimum(lp_problem(c, A, b), got)


def test_degenerate_redundant_rows():
    # duplicated constraint rows must not confuse phase 1
    p = lp_problem([1, 1], [[1, 1], [1, 1]], [2, 2])
    r = solve_lp(p)
    assert r.status == OPTIMAL and r.optimum == 2
    assert 0 in r.duals  # the row phase 1 dropped
    _assert_duals_prove_optimum(p, r)


@pytest.mark.parametrize("a, c", [
    ([[1, 1], [2, 2]], [1, 1]),  # basis columns (1, 2) twice: singular
    ([[1, 1]], [1, 2]),  # one row, two basis columns with unequal costs
])
def test_certify_optimal_rejects_bad_basis(a, c):
    a = [[F(x) for x in row] for row in a]
    c = [F(x) for x in c]
    b = [F(1)] * len(a)
    with pytest.raises(InternalInvariantError, match="singular"):
        _certify_optimal(c, a, b, [0, 1], [F(0), F(0)], F(0))
