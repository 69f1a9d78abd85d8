"""Exact simplex: worked values, infeasible and unbounded LPs refused, and a
vertex-enumeration oracle."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import random
import sys
from fractions import Fraction as F
from math import lcm

import pytest

from conftest import a2, corpus_small
from zonolat import (
    DimensionError,
    InternalInvariantError,
    InvalidInputError,
    LPProblem,
    cvp_instance,
    simplex,
    solve_cvp,
    solve_lp,
)
from zonolat.mmcc import lambda_lp
from zonolat.oracle import row_reduce
from zonolat.simplex import LPResult, _certify_optimal, eliminate


def _lp(c, A, b, upper=None) -> LPProblem:
    """The LPProblem of int data given as lists; upper defaults to no bounds."""
    return LPProblem(c=tuple(c), A=tuple(map(tuple, A)), b=tuple(b),
                     upper=(None,) * len(c) if upper is None else tuple(upper))


def _verdict(p, start=None):
    """solve_lp(p, start), or "infeasible" or "unbounded" where it raises
    InvalidInputError naming which of the two p is."""
    try:
        return solve_lp(p, start)
    except InvalidInputError as exc:
        verdict = str(exc).split()[-1]
        assert verdict in ("infeasible", "unbounded"), exc
        return verdict


def _final_basis(r):
    """The warm-start fields of an LPResult, all left out of its ==."""
    return r.constraints, r.rows, r.rhs, r.den, r.basis, r.at_upper


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
    p = _lp([1, 0], [[1, -1]], [3])
    r = solve_lp(p)
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
    assert F(r.optimum, r.den) == -inst.K * F(1, 5)
    _assert_duals_prove_optimum(p, r)


@pytest.mark.parametrize("where, bad", [
    (where, bad) for where in ("c", "A", "b", "upper") for bad in (F(1, 2), "1", 1.0, None)
    if (where, bad) != ("upper", None)  # None is +infinity there
])
def test_non_integral_data_rejected(where, bad):
    # _pivot's floor division would silently truncate a Fraction, so
    # LPProblem refuses any entry that is not an int
    data = {"c": [1, 0], "A": [[1, -1]], "b": [3], "upper": [2, None]}
    if where == "A":
        data["A"] = [[bad, -1]]
    else:
        data[where] = [bad] + data[where][1:]
    with pytest.raises(InvalidInputError):
        LPProblem(c=tuple(data["c"]), A=tuple(map(tuple, data["A"])), b=tuple(data["b"]),
                  upper=tuple(data["upper"]))


@pytest.mark.parametrize("field, value, message", [
    ("A", ((1, -1, 0),), "constraint row length does not match objective"),
    ("b", (3, 0), "right-hand side length does not match row count"),
    ("upper", (2,), "bound vector must match the variable count"),
])
def test_lp_shape_mismatches_are_dimension_errors(field, value, message):
    data = {"c": (1, 0), "A": ((1, -1),), "b": (3,), "upper": (2, None)}
    with pytest.raises(DimensionError, match=message):
        LPProblem(**dict(data, **{field: value}))


def test_contradictory_equalities_infeasible():
    p = _lp([1], [[1], [1]], [0, 1])
    with pytest.raises(InvalidInputError, match="the LP is infeasible"):
        solve_lp(p)


def test_unbounded():
    p = _lp([-1], [], [])
    with pytest.raises(InvalidInputError, match="the LP is unbounded"):
        solve_lp(p)


def test_upper_bound_column():
    p = _lp([-1], [], [], upper=[5])
    r = solve_lp(p)
    assert r.optimum == -5 and r.vertex == (5,)
    assert r.duals == ()  # the bound's dual is left out
    with pytest.raises(InvalidInputError):
        _lp([-1], [], [], upper=[-1])


def test_bound_row_slacks_start_basic(monkeypatch):
    # every variable starts at 0 and there is no A row, so phase 1 starts
    # feasible with no artificial; that start is also optimal for c >= 0,
    # so the solve makes no pivot at all
    from zonolat import simplex

    pivots = []
    pivot = simplex._pivot

    def counting(tab, rhs, basis, red, den, r, jc):
        pivots.append(jc)
        return pivot(tab, rhs, basis, red, den, r, jc)

    monkeypatch.setattr(simplex, "_pivot", counting)
    r = solve_lp(_lp([1, 2, 1], [], [], upper=[3, 1, 7]))
    assert r.optimum == 0 and r.vertex == (0, 0, 0)
    assert pivots == []


def test_bound_rows_have_no_artificial_column():
    # a bound is a status of its variable, not a tableau row: one row per
    # row of A, and columns for the 3 variables and one artificial per row
    # of A, with no slack and no artificial for the bounds of x_0 and x_2
    r = solve_lp(_lp([-1, -1, 0], [[1, 1, 1], [1, -1, 0]], [4, 0],
                            upper=[3, None, 1]))
    assert F(r.optimum, r.den) == -4
    rows = r.rows
    assert len(rows) == 2 and {len(row) for row in rows} == {3 + 2}


def test_bound_flip_makes_no_pivot():
    # both variables rise to their bounds by a flip each; with no row there
    # is nothing to pivot, and the bounds' duals w = (-1, -2), the reduced
    # costs at the bounds, prove the optimum -11
    p = _lp([-1, -2], [], [], upper=[3, 4])
    r = solve_lp(p)
    assert r.vertex == (3, 4) and r.optimum == -11 and r.den == 1
    assert r.pivots == (0, 0) and r.flips == 2
    assert r.rows == () and r.at_upper == (0, 1)
    assert _certify_optimal(p, r.vertex, r.den, [-1, -2]) is None
    with pytest.raises(InternalInvariantError, match="objective mismatch"):
        _certify_optimal(p, r.vertex, r.den, [-1, -3])


def test_pivot_counters_match_a_pivot_spy(monkeypatch):
    # LPResult.pivots counts the _pivot calls of phase 1 (inside
    # _phase_one) and of phase 2; a lambda LP has no bound to flip
    calls, phase = [], [2]
    pivot, phase_one = simplex._pivot, simplex._phase_one

    def counting(*args):
        calls.append(phase[0])
        return pivot(*args)

    def in_phase_one(p):
        phase[0] = 1
        try:
            return phase_one(p)
        finally:
            phase[0] = 2

    monkeypatch.setattr(simplex, "_pivot", counting)
    monkeypatch.setattr(simplex, "_phase_one", in_phase_one)
    inst = _a2_instance()
    first = solve_lp(lambda_lp((0, 0, 0), inst))
    assert first.pivots == (calls.count(1), calls.count(2)) and first.flips == 0
    assert min(first.pivots) > 0
    calls.clear()
    warm = solve_lp(lambda_lp((1, 0, -1), inst), start=first)
    assert warm.pivots == (0, len(calls)) and warm.pivots[1] > 0 and warm.flips == 0
    # the counters are left out of ==
    assert dataclasses.replace(first, pivots=(0, 0), flips=5) == first


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
    assert F(warm.optimum, warm.den) == F(cold.optimum, cold.den) == inst.K * F(1, 5)
    _assert_duals_prove_optimum(q, warm)
    assert solve_lp(p, start=first) == first
    assert _final_basis(first) == _final_basis(solve_lp(p))


def test_warm_start_rejects_other_constraints():
    p = lambda_lp((0, 0, 0), _a2_instance())
    first = solve_lp(p)
    other_b = _lp(p.c, p.A, p.b[:-1] + (2,))
    other_a = _lp(p.c, p.A[:-1] + ((1,) * 5 + (2,),), p.b)
    for q in (other_b, other_a):
        with pytest.raises(InvalidInputError):
            solve_lp(q, start=first)


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
    """Minimum of c.x over {A x = b, x >= 0} by basis enumeration, or None
    when the region is empty.

    Assumes the feasible region is bounded or empty, which holds for the
    generated family below.
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
    return best if feasible else None


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
        rows.append([_int(x * r) for x in row])
        rhs.append(_int(bi * s * r))
    cs = lcm(*(x.denominator for x in c))
    bounds = [None if u is None else _int(u * s) for u in upper]
    return _lp([_int(x * cs) for x in c], rows, rhs, upper=bounds), cs * s


def _int(x: F) -> int:
    """An integral Fraction as an int."""
    assert x.denominator == 1, x
    return x.numerator


def _assert_int_result(r):
    """An optimal result is den-scaled ints over den >= 1."""
    assert type(r.optimum) is int and type(r.den) is int and r.den >= 1
    assert all(type(x) is int for x in r.vertex + r.duals)


def test_random_lps_against_basis_enumeration():
    # an infeasible LP raises, naming it, where the oracle finds no vertex
    rng, infeasible = random.Random(1234), 0
    for _ in range(40):
        n = rng.randint(2, 5)
        m = rng.randint(1, min(3, n))
        A = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m - 1)]
        # a normalization row keeps the region bounded
        A.append([F(1)] * n)
        b = [F(0)] * (m - 1) + [F(rng.randint(1, 4))]
        c = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        p, factor = _integral_lp(c, A, b)
        got = _verdict(p)
        best = _enumerate_optimum(c, A, b)
        if best is None:
            assert got == "infeasible", (A, b, c)
            infeasible += 1
        else:
            _assert_int_result(got)
            assert F(got.optimum, got.den) / factor == best, (A, b, c)
            _assert_duals_prove_optimum(p, got)
    assert infeasible > 0


def test_degenerate_redundant_rows():
    # duplicated constraint rows must not confuse phase 1
    p = _lp([1, 1], [[1, 1], [1, 1]], [2, 2])
    r = solve_lp(p)
    assert r.optimum == 2
    assert 0 in r.duals  # the row whose artificial stays basic
    _assert_duals_prove_optimum(p, r)


def test_random_fractional_lps_against_basis_enumeration():
    # fractional A, b, c and upper bounds, cleared to ints by _integral_lp
    rng, infeasible = random.Random(4321), 0
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
        got = _verdict(p)
        # the oracle sees each bound x_j <= u as a row x_j + s = u
        bounded = [(j, u) for j, u in enumerate(upper) if u is not None]
        wide = [row + [F(0)] * len(bounded) for row in A]
        for k, (j, _u) in enumerate(bounded):
            row = [F(0)] * (n + len(bounded))
            row[j] = row[n + k] = F(1)
            wide.append(row)
        best = _enumerate_optimum(c + [F(0)] * len(bounded), wide,
                                  b + [u for _, u in bounded])
        if best is None:
            assert got == "infeasible", (A, b, c, upper)
            infeasible += 1
        else:
            _assert_int_result(got)
            assert F(got.optimum, got.den) / factor == best, (A, b, c, upper)
            if not bounded:
                _assert_duals_prove_optimum(p, got)
    assert infeasible > 0


def test_random_phase_one_against_basis_enumeration():
    # all-zero costs leave the verdict to phase 1, which here flips and
    # pivots bounded and free variables alike (zero bounds included); every
    # feasible system must come back as a vertex inside its bounds
    rng, infeasible, flips = random.Random(2718), 0, 0
    for _ in range(60):
        n = rng.randint(2, 6)
        m = rng.randint(1, min(3, n))
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-3, 3) for _ in range(m)]
        upper = [rng.randint(0, 3) if rng.random() < 0.6 else None for _ in range(n)]
        got = _verdict(_lp([0] * n, A, b, upper=upper))
        bounded = [(j, u) for j, u in enumerate(upper) if u is not None]
        wide = [row + [0] * len(bounded) for row in A]
        for k, (j, _u) in enumerate(bounded):
            row = [0] * (n + len(bounded))
            row[j] = row[n + k] = 1
            wide.append(row)
        # the oracle enumerates bases of full row rank; a dependent row set
        # has none, so it cannot tell feasible from infeasible there
        if len(eliminate(wide)[1]) < len(wide):
            continue
        best = _enumerate_optimum([0] * len(wide[0]), wide, b + [u for _, u in bounded])
        if best is None:
            assert got == "infeasible", (A, b, upper)
            infeasible += 1
        else:
            x, den = got.vertex, got.den
            assert got.optimum == 0 and got.pivots[1] == 0
            assert all(sum(a * v for a, v in zip(row, x)) == bi * den for row, bi in zip(A, b))
            assert all(0 <= v and (u is None or v <= u * den) for v, u in zip(x, upper))
            flips += got.flips
    assert flips > 0 and infeasible > 0


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
        r = solve_lp(lambda_lp(v, inst))
        assert r.den == 2  # |det B| for B = [[1, -1], [1, 1]], both times
        assert all(type(x) is int for row in r.rows for x in row)
        assert all(type(x) is int for x in r.rhs)
        assert [[F(x, r.den) for x in row[:6]] for row in r.rows] == rows
        assert [F(x, r.den) for x in r.rhs] == rhs
        assert r.basis == basis
        inverse = [list(row[6:]) for row in r.rows]
        assert inverse == [[1, 1], [-1, 1]]  # den * B^-1
        b_matrix = [[row[j] for j in basis] for row in lambda_lp(v, inst).A]
        assert [[sum(x * y for x, y in zip(inv_row, col)) for col in zip(*b_matrix)]
                for inv_row in inverse] == [[r.den, 0], [0, r.den]]


def test_negated_row_duals():
    # min x0 s.t. -x0 + x1 = -3: phase 1 negates the row, and its dual keeps
    # the sign of the row as given
    p = _lp([1, 0], [[-1, 1]], [-3])
    r = solve_lp(p)
    assert r.optimum == 3 and r.vertex == (3, 0)
    assert r.duals == (-1,)
    _assert_duals_prove_optimum(p, r)


def test_negative_pivot_keeps_den_positive(monkeypatch):
    # rows 0 and 1 are multiples of each other with b = 0: phase 1 ends with
    # their artificials basic at zero, and in phase 2 x_1 enters with the
    # entries -1 and -2 there, so row 0's artificial leaves at its bound 0
    # on the pivot -1; row 1's stays basic, and so does its row
    c, A, b = [-2, -3, 0], [[0, -1, 0], [0, -2, 0], [1, 1, 1]], [0, 0, 2]
    pivots = []
    pivot = simplex._pivot

    def spy(tab, rhs, basis, red, den, r, jc):
        pivots.append((basis[r], tab[r][jc]))
        return pivot(tab, rhs, basis, red, den, r, jc)

    monkeypatch.setattr(simplex, "_pivot", spy)
    p = _lp(c, A, b)
    r = solve_lp(p)
    assert pivots[r.pivots[0]:] == [(3, -1)]  # phase 2's one pivot
    assert r.den > 0
    assert len(r.rows) == 3 and 4 in r.basis
    # the oracle needs full row rank: leave out row 0, half of row 1
    assert F(r.optimum, r.den) == _enumerate_optimum(c, A[1:], b[1:]) == -4
    _assert_duals_prove_optimum(p, r)


def test_redundant_row_keeps_its_artificial_basic_at_zero():
    # the second row repeats the first: phase 1 pivots x_0 into row 0, and
    # row 1's artificial (column 2 + 1) stays basic at 0, with the dual 0
    p = _lp([1, 1], [[1, 1], [1, 1]], [2, 2])
    r = solve_lp(p)
    assert (r.vertex, r.den, r.optimum) == ((2, 0), 1, 2)
    assert r.basis == (0, 3) and r.rhs == (2, 0) and len(r.rows) == 2
    assert r.duals == (1, 0)
    _assert_duals_prove_optimum(p, r)


def _dependent_lp(rng):
    """A random feasible LP whose last row is a combination of two others;
    its rhs is that of a point inside the bounds."""
    n, m = rng.randint(3, 6), rng.randint(2, 3)
    A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
    f, g = rng.choice([(1, 0), (-1, 0), (1, 1), (2, -1), (0, -2)])
    A.append([f * x + g * y for x, y in zip(A[0], A[1])])
    upper = [rng.randint(0, 3) if rng.random() < 0.4 else None for _ in range(n)]
    x = [rng.randint(0, 2 if u is None else u) for u in upper]
    b = [sum(a * v for a, v in zip(row, x)) for row in A]
    return _lp([rng.randint(-4, 4) for _ in range(n)], A, b, upper=upper)


def test_basic_artificials_stay_at_zero_in_phase_two(monkeypatch):
    # after every pivot and flip of phase 2, cold or warm, each basic
    # artificial is still at 0; on these LPs with a dependent row some
    # artificial is basic at the optimum, and some leaves in phase 2
    pivot, move, optimize, phase_one = (simplex._pivot, simplex._move, simplex._optimize,
                                        simplex._phase_one)
    phase, state, left = [2], [], []

    def check(n):
        _, rhs, basis = state
        if phase[0] == 2:
            assert all(v == 0 for bi, v in zip(basis, rhs) if bi >= n)

    def spy_pivot(tab, rhs, basis, red, den, r, jc):
        n = len(tab[0]) - len(tab)
        if phase[0] == 2 and basis[r] >= n:
            left.append(basis[r])
        den = pivot(tab, rhs, basis, red, den, r, jc)
        check(n)
        return den

    def spy_move(tab, rhs, j, step):
        move(tab, rhs, j, step)
        check(len(tab[0]) - len(tab))

    def spy_optimize(tab, rhs, basis, *args):
        state[:] = [tab, rhs, basis]
        return optimize(tab, rhs, basis, *args)

    def in_phase_one(p):
        phase[0] = 1
        try:
            return phase_one(p)
        finally:
            phase[0] = 2

    for name, spy in (("_pivot", spy_pivot), ("_move", spy_move), ("_optimize", spy_optimize),
                      ("_phase_one", in_phase_one)):
        monkeypatch.setattr(simplex, name, spy)
    rng = random.Random(1977)
    basic = unbounded = 0
    for _ in range(300):
        p = _dependent_lp(rng)
        r = _verdict(p)  # feasible by construction
        if r == "unbounded":
            unbounded += 1
            continue
        n = len(p.c)
        basic += any(bi >= n for bi in r.basis)
        q = _lp([rng.randint(-4, 4) for _ in range(n)], p.A, p.b, upper=p.upper)
        warm, cold = _verdict(q, start=r), _verdict(q)
        if cold == "unbounded":
            assert warm == "unbounded"
        else:
            assert F(warm.optimum, warm.den) == F(cold.optimum, cold.den)
    assert basic > 0 and left and unbounded > 0


def test_warm_start_from_a_basic_artificial():
    # the start keeps row 1's artificial basic at 0; the warm solve reprices
    # around it, reaches the cold optimum and leaves the start untouched
    p = _lp([1, 1, 0], [[1, 1, 1], [2, 2, 2]], [2, 4], upper=[None, 1, None])
    first = solve_lp(p)
    assert 3 + 1 in first.basis
    q = _lp([-1, -3, 1], p.A, p.b, upper=p.upper)
    warm, cold = solve_lp(q, start=first), solve_lp(q)
    assert warm.pivots[0] == 0
    assert (warm.vertex, warm.den, warm.optimum) == (cold.vertex, cold.den, cold.optimum)
    assert F(warm.optimum, warm.den) == -4 and F(warm.vertex[1], warm.den) == 1
    assert _final_basis(first) == _final_basis(solve_lp(p))


def _dense_pivot(tab, rhs, basis, red, den, r, jc):
    """The reference pivot: _pivot before its sparse p == den path, which
    rewrites every column of each row it touches."""
    prow, prhs = tab[r], rhs[r]
    p = prow[jc]
    if p < 0:
        p = -p
        prow = tab[r] = [-y for y in prow]
        prhs = rhs[r] = -prhs
    for i, row in enumerate(tab):
        f = row[jc]
        if i != r and (f or p != den):
            tab[i] = [(x * p - f * y) // den for x, y in zip(row, prow)]
            rhs[i] = (rhs[i] * p - f * prhs) // den
    if red[jc] or p != den:
        f = red[jc]
        red[:] = [(x * p - f * y) // den for x, y in zip(red, prow)]
    basis[r] = jc
    return p


def _pivot_workload(monkeypatch):
    """solve_lp calls, each (problem, index of its start or None), and
    eliminate calls, each (rows, rhs): random LPs with a dependent row,
    solved cold and then warm twice from the same start, random systems,
    and every call that building and solving instances of the small corpus
    with far targets makes, lambda and box LPs included."""
    rng = random.Random(22)
    lps, systems = [], []
    for _ in range(100):
        p = _dependent_lp(rng)
        lps.append((p, None))
        if isinstance(_verdict(p), LPResult):
            k = len(lps) - 1
            for _ in range(2):
                costs = [rng.randint(-4, 4) for _ in p.c]
                lps.append((_lp(costs, p.A, p.b, upper=p.upper), k))
    for _ in range(100):
        n, m, e = rng.randint(1, 5), rng.randint(1, 7), rng.choice([1, 3])
        systems.append(([[rng.randint(-e, e) for _ in range(m)] for _ in range(n)],
                        [rng.randint(-4, 4) for _ in range(n)]))
    solve, eliminate_, results, offset = simplex.solve_lp, simplex.eliminate, [], len(lps)

    def recording(p, start=None):
        k = None if start is None else offset + next(
            k for k, r in enumerate(results) if r is start)
        lps.append((p, k))
        results.append(solve(p, start))
        return results[-1]

    def recording_eliminate(rows, rhs=None):
        systems.append((rows, rhs))
        return eliminate_(rows, rhs)

    with monkeypatch.context() as patch:
        patch.setattr(simplex, "solve_lp", recording)
        patch.setattr(simplex, "eliminate", recording_eliminate)
        for lattice in corpus_small():
            for _ in range(3):
                target = [F(rng.randint(-60, 60), rng.randint(1, 7)) for _ in range(lattice.m)]
                solve_cvp(cvp_instance(lattice, target))
    return lps, systems


def _replay(lps):
    """Every field of each solve_lp result, the final basis included; a start
    must come out of each reuse unchanged."""
    results = []
    for p, k in lps:
        start = None if k is None else results[k]
        before = copy.deepcopy(start)
        results.append(_verdict(p, start))
        if start is not None:
            assert _final_basis(start) == _final_basis(before) and start.duals == before.duals
    fields = [r if isinstance(r, str) else
              (r.optimum, r.vertex, _final_basis(r), r.duals, r.pivots, r.flips)
              for r in results]
    return fields


def test_sparse_pivot_matches_the_dense_reference(monkeypatch):
    # _pivot's p == den path rewrites only the columns where the pivot row
    # is nonzero; every pivot, flip, final basis and dual must be what the
    # dense pivot gives, and every elimination what the oracle's Fraction
    # reduction gives
    lps, systems = _pivot_workload(monkeypatch)
    assert sum(k is not None for _, k in lps) > 100
    pivot, cases = simplex._pivot, set()

    def spy(tab, rhs, basis, red, den, r, jc):
        p = tab[r][jc]
        cases.add((p < 0, abs(p) == den))
        return pivot(tab, rhs, basis, red, den, r, jc)

    monkeypatch.setattr(simplex, "_pivot", spy)
    sparse = _replay(lps)
    monkeypatch.setattr(simplex, "_pivot", _dense_pivot)
    assert _replay(lps) == sparse
    # p < 0 and p > 0, p == den and p != den
    assert cases == {(False, False), (False, True), (True, False), (True, True)}
    assert len(systems) > 100
    for rows, rhs in systems:
        _assert_matches_row_reduce(rows, rhs, eliminate(rows, rhs))


def test_a_wrong_pivot_raises_instead_of_cycling(monkeypatch):
    # a sparse reduced-cost update that leaves out the first column of the
    # pivot row's support sends the simplex round a cycle of bases on this
    # LP, found by a seeded search, whether Dantzig's or Bland's rule is in
    # charge; the watch on repeated (basis, at_upper, degenerate run) states
    # turns that into an error
    pivot = simplex._pivot

    def skips_a_red_column(tab, rhs, basis, red, den, r, jc):
        k = next(k for k, y in enumerate(tab[r]) if y)
        skip = red is not None and abs(tab[r][jc]) == den and red[jc]
        kept = red[k] if skip else None
        new_den = pivot(tab, rhs, basis, red, den, r, jc)
        if skip:
            red[k] = kept
        return new_den

    p = _lp([-4, 1, 2], [[2, 0, 2], [-1, 0, 3]], [0, 0], upper=[None, 1, 2])
    solve_lp(p)  # optimal, as every result is
    # with no rows the watch starts at once, and distinct states pass it
    free = solve_lp(_lp([-1, 2, -3], [], [], upper=[1, 1, 2]))
    assert (free.vertex, free.flips) == ((1, 0, 2), 2)
    monkeypatch.setattr(simplex, "_pivot", skips_a_red_column)
    for run in (1, simplex.DEGENERATE_RUN, 1000):
        monkeypatch.setattr(simplex, "DEGENERATE_RUN", run)
        with pytest.raises(InternalInvariantError, match="revisited a basis"):
            solve_lp(p)


def _slack_start(p, s):
    """The LPResult at the slack basis of p, whose last len(p.A) columns are
    s times the identity: den = s^k for k rows, and the rows and rhs are
    den * B^-1 [A | I] and den * B^-1 b, with B = s I."""
    k, n = len(p.A), len(p.c)
    scale = s ** (k - 1)  # den / s
    rows = tuple(tuple(scale * a for a in row) + tuple(scale * (q == i) for q in range(k))
                 for i, row in enumerate(p.A))
    return LPResult(optimum=0, vertex=(0,) * n, den=s ** k, duals=(0,) * k, pivots=(0, 0),
                    flips=0, constraints=(p.A, p.b, p.upper), rows=rows,
                    rhs=tuple(scale * bi for bi in p.b), basis=tuple(range(n - k, n)),
                    at_upper=())


# Textbook LPs on which Dantzig's rule, with ratio ties to the least index,
# cycles from the slack basis, each written as a min over rows scaled by
# s to ints, with the slack column s and the known optimum and vertex.
CYCLING_LPS = {
    # Beale (1955): max 3/4 x1 - 20 x2 + 1/2 x3 - 6 x4, rows times 4
    "beale": (_lp([-3, 80, -2, 24, 0, 0, 0],
                  [[1, -32, -4, 36, 4, 0, 0], [2, -48, -2, 12, 0, 4, 0],
                   [0, 0, 4, 0, 0, 0, 4]], [0, 0, 4]),
              4, F(-5), (1, 0, 1, 0, F(3, 4), 0, 0)),
    # Chvatal, Linear Programming (1983), p. 31: max 10 x1 - 57 x2 - 9 x3
    # - 24 x4, rows times 2
    "chvatal": (_lp([-10, 57, 9, 24, 0, 0, 0],
                    [[1, -11, -5, 18, 2, 0, 0], [1, -3, -1, 2, 0, 2, 0],
                     [2, 0, 0, 0, 0, 0, 2]], [0, 0, 2]),
                2, F(-1), (1, 0, 1, 0, 2, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(CYCLING_LPS))
def test_cycling_lps_reach_their_optimum_through_the_fallback(name, monkeypatch):
    # Dantzig's rule goes round its cycle of degenerate pivots until
    # DEGENERATE_RUN of them hand the choice to Bland's rule, which leaves
    # it: more pivots than the run shows the fallback ran.  Any run length
    # gives the same optimum.
    p, s, optimum, vertex = CYCLING_LPS[name]
    for run in (simplex.DEGENERATE_RUN, 5, 1000):
        monkeypatch.setattr(simplex, "DEGENERATE_RUN", run)
        r = solve_lp(p, _slack_start(p, s))
        assert F(r.optimum, r.den) == optimum
        assert tuple(F(x, r.den) for x in r.vertex) == vertex
        assert r.pivots[0] == 0 and r.pivots[1] > run


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
        _certify_optimal(p, (rhs[0], 0, 0, 0, 0, rhs[1]), 2, y)


def test_certify_optimal_rejects_suboptimal_basis():
    # x1 = x5 = 1/2 is a feasible basic solution of the A_2 lambda LP at the
    # origin, with cost 7/10 against the optimum -1/5
    p, y = _a2_optimum()
    assert _certify_optimal(p, (1, 0, 0, 0, 0, 1), 2, y) is None
    with pytest.raises(InternalInvariantError, match="objective mismatch"):
        _certify_optimal(p, (0, 1, 0, 0, 0, 1), 2, y)
    # the basis's own duals, Y = (7, 7), price out column 0
    with pytest.raises(InternalInvariantError, match="negative reduced cost"):
        _certify_optimal(p, (0, 1, 0, 0, 0, 1), 2, [7, 7])


def test_certify_optimal_rejects_negative_solution():
    # x1 = -1 solves x0 - x1 = 1 but is not >= 0
    p = _lp([0, 0], [[1, -1]], [1])
    with pytest.raises(InternalInvariantError, match="primal check failed: basic"):
        _certify_optimal(p, (0, -1), 1, [0])


def test_warm_start_from_corrupted_tableau_raises():
    # pivots keep a corrupted rhs inconsistent with b, so the primal check
    # of the warm solve catches it
    p = lambda_lp((0, 0, 0), _a2_instance())
    first = solve_lp(p)
    start = dataclasses.replace(first, rhs=(first.rhs[0] + 1,) + first.rhs[1:])
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
        _certify_optimal(p, (1, 0, 0, 0, 0, 1), 2, y)


def _bounded_lp():
    """min -x0 - 2 x1  s.t.  x0 + x1 = 3, x1 <= 2: the optimum -5 at x = (1, 2),
    proved by the dual y = -1 of the row and w = -1 of the bound."""
    p = _lp([-1, -2], [[1, 1]], [3], upper=[None, 2])
    r = solve_lp(p)
    assert r.optimum == -5 and r.vertex == (1, 2)
    assert r.duals == (-1,)
    return p


def test_certify_optimal_checks_bounds_through_their_duals():
    p = _bounded_lp()
    # basis x0, x1 with the bound's slack at 0; the duals (y, w) = (-1, -1)
    assert _certify_optimal(p, (1, 2), 1, [-1, -1]) is None
    # x = (0, 3) satisfies A x = b and x >= 0 but not x1 <= 2
    with pytest.raises(InternalInvariantError, match="x above its upper bound"):
        _certify_optimal(p, (0, 3), 1, [-1, -1])


def test_certify_optimal_rejects_positive_bound_dual():
    # min x1 over the same constraints has its optimum 0 at x = (3, 0); the
    # vertex (1, 2) of cost 2 passes every other check with (y, w) = (0, 1)
    p = _lp([0, 1], [[1, 1]], [3], upper=[None, 2])
    assert _certify_optimal(p, (3, 0), 1, [0, 0]) is None
    with pytest.raises(InternalInvariantError, match="positive bound dual"):
        _certify_optimal(p, (1, 2), 1, [0, 1])


def test_certify_optimal_bound_dual_off_by_one():
    # w = -2 keeps every reduced cost >= 0 but breaks b.y + u.w == c.x;
    # w = 0 prices out x1
    p = _bounded_lp()
    with pytest.raises(InternalInvariantError, match="objective mismatch"):
        _certify_optimal(p, (1, 2), 1, [-1, -2])
    with pytest.raises(InternalInvariantError, match="negative reduced cost"):
        _certify_optimal(p, (1, 2), 1, [-1, 0])


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


def _assert_matches_row_reduce(rows, rhs, out):
    """eliminate's output for [rows | rhs] agrees with the oracle's Fraction
    Gauss-Jordan reduction: the same pivot columns, a nonzero residual iff
    the system is inconsistent, and on a consistent system the reduced rhs
    column, den times over."""
    b, pivots, den = out
    width = len(rows[0]) if rows else 0
    rhs = [0] * len(rows) if rhs is None else rhs
    reduced, ref_pivots = row_reduce([list(r) + [y] for r, y in zip(rows, rhs)])
    consistent = width not in ref_pivots
    assert pivots == [p for p in ref_pivots if p < width] and len(b) == len(rows)
    assert any(b[len(pivots):]) != consistent
    if consistent:
        assert [F(y, den) for y in b] == [row[-1] for row in reduced]


def test_eliminate_worked_example():
    rows = [[0, 2, 4], [3, 1, 1]]
    rhs, pivots, den = eliminate(rows, [2, 5])
    assert rows == [[0, 2, 4], [3, 1, 1]]  # input unmodified
    assert (rhs, pivots, den) == ([8, 6], [0, 1], 6)
    assert eliminate([]) == ([], [], 1)
    assert eliminate([[0, 0], [0, 0]])[1:] == ([], 1)
    # a dependent row leaves its residual: 0 when consistent, else not
    assert eliminate([[1, 1], [2, 2]], [3, 6]) == ([3, 0], [0], 1)
    assert eliminate([[1, 1], [2, 2]], [3, 5]) == ([3, -1], [0], 1)
    # ints always divide exactly; a rhs of 1/2 over the pivot 2 does not,
    # and the back-substitution raises instead of rounding
    with pytest.raises(InternalInvariantError, match="back-substitution"):
        eliminate([[2, 1]], [F(1, 2)])


def test_eliminate_is_den_times_the_fraction_reduction():
    # den times the solution, on random integer systems of full and
    # deficient rank, consistent and not, against the oracle's Fraction
    # Gauss-Jordan reduction; on a nonsingular square matrix den is |det|
    rng = random.Random(31)
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        x = [rng.randint(-4, 4) for _ in range(m)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
        if rng.random() < 0.2:
            rhs[-1] += 1
        out = eliminate(rows, rhs)
        _assert_matches_row_reduce(rows, rhs, out)
        _, pivots, den = out
        if n == m and len(pivots) == n:
            assert den == abs(_det(rows))


def _det(a):
    if not a:
        return 1
    return sum((-1) ** j * a[0][j] * _det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)) if a[0][j])
