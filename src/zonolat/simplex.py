"""Exact two-phase simplex with Bland's rule on an integer-preserving tableau.

Minimizes c.x subject to equality constraints A x = b, x >= 0 and
per-variable upper bounds of +infinity or a finite integer; every datum is
a Python int, and callers with rational data clear its denominators first.
The tableau is the only copy of the constraints besides the caller's
problem: each finite bound u_j is a tableau row x_j + s_j = u_j, which
starts on its slack s_j, with no artificial column.
The tableau holds den * B^-1 A and den * B^-1 b over one positive common
denominator den = |det B| of the basis matrix B, so all its entries are
ints: a pivot multiplies and subtracts and then divides by the old den, and
that division is exact because every entry is a subdeterminant of the data
(Edmonds, J. Res. NBS 1967; Bareiss, Math. Comp. 1968).  No gcd is taken
inside the pivot loop.  Optimality, infeasibility and unboundedness are
decided exactly, and identical inputs always produce the identical pivot
sequence and vertex.  The result speaks ints too: the optimum, the vertex
and the duals come out as den times their values, read straight off the
rhs and the reduced-cost row, together with den.  Every optimal solve
also checks, in integers, that its vertex is feasible and that its duals,
those of the bounds included, prove the optimum.
`eliminate` runs the same pivot as a fraction-free Gauss-Jordan reduction,
the one exact elimination of the solver: kernel bases, projections and
circuit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .errors import DimensionError, InternalInvariantError, InvalidInputError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPProblem:
    """min c.x  s.t.  A x = b,  0 <= x <= upper, over ints.

    upper entries are a finite int or None (+infinity).
    """

    c: tuple[int, ...]
    A: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]
    upper: tuple[int | None, ...]

    def __post_init__(self):
        n = len(self.c)
        if any(len(row) != n for row in self.A):
            raise DimensionError("constraint row length does not match objective")
        if len(self.b) != len(self.A):
            raise DimensionError("right-hand side length does not match row count")
        if len(self.upper) != n:
            raise DimensionError("bound vector must match the variable count")
        finite = [up for up in self.upper if up is not None]
        if not set(map(type, chain(self.c, self.b, finite, *self.A))) <= {int}:
            raise InvalidInputError("LP data must be ints")
        if any(up < 0 for up in finite):
            raise InvalidInputError("upper bound below lower bound 0")


@dataclass(frozen=True)
class Tableau:
    """An optimal basis in canonical form over one common denominator.

    `rows` and `rhs` are den * B^-1 [A | I] and den * B^-1 b for the rows
    A, b that _phase_one writes (the problem's rows, each negated where
    b_i < 0, then one row x_j + s_j = u_j per finite bound; I holds one
    artificial column per row of A, zero on the bound rows), and the basis
    matrix B of those rows, with den = |det B| > 0, so every entry is an
    int.  None of it depends on the objective, so it is a feasible starting
    basis for any other objective over the same constraints.  den is also
    the LPResult's den: its vertex is rhs placed on the basic columns.
    """

    constraints: tuple  # (A, b, upper) of the problem it solved
    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    den: int
    basis: tuple[int, ...]


@dataclass(frozen=True)
class LPResult:
    """The outcome of solve_lp.  An optimal one is in ints over den = |det B|
    of its final basis: `optimum`, `vertex` and `duals` are den times c.x,
    the basic optimal vertex x and the duals y, one per row of A (0 for a
    row phase 1 dropped; the bound rows' are left out, so A^T y <= den c and
    b.y == optimum without them).  `tableau` is the warm start of solve_lp."""

    status: str
    optimum: int | None
    vertex: tuple[int, ...] | None
    den: int = 1
    tableau: Tableau | None = field(default=None, compare=False, repr=False)
    duals: tuple[int, ...] | None = field(default=None, compare=False, repr=False)


def lp_problem(c: Iterable, A: Iterable[Iterable], b: Iterable,
               upper: Sequence | None = None) -> LPProblem:
    """Convenience constructor; the default is no upper bounds.  Integral
    ints and Fractions become ints; any other entry raises InvalidInputError."""
    cv = tuple(map(_integer, c))
    av = tuple(tuple(map(_integer, row)) for row in A)
    bv = tuple(map(_integer, b))
    upv = (tuple(None if x is None else _integer(x) for x in upper)
           if upper is not None else (None,) * len(cv))
    return LPProblem(c=cv, A=av, b=bv, upper=upv)


def _integer(x) -> int:
    if isinstance(x, (int, Fraction)) and int(x) == x:
        return int(x)
    raise InvalidInputError(f"LP data must be integral, got {x!r}")


def solve_lp(p: LPProblem, start: LPResult | None = None) -> LPResult:
    """Exact optimum and basic optimal vertex via two-phase Bland simplex.

    `start` is an optimal result of an earlier solve with the same A, b and
    bounds.  Its final tableau stays primal feasible whatever the objective,
    so phase 1 is skipped and phase 2 reprices that basis for p.c.  The
    start is read, never modified, so one result can seed several solves.

    Phase 2 keeps the reduced-cost row over the tableau's denominator too:
    den * c_j - c_B . (den B^-1 A)_j.  On the artificial columns, which
    never enter, and the bound rows' slacks it reads -den c_B B^-1: den
    times the duals, negated, of the sign-adjusted rows, and 0 for a row
    phase 1 dropped.  Pivots replace tableau rows instead of editing them,
    so copying the outer lists of the start leaves it intact.
    """
    constraints = (p.A, p.b, p.upper)
    if start is None:
        feasible = _phase_one(p)
        if feasible is None:
            return LPResult(status=INFEASIBLE, optimum=None, vertex=None)
        tab, rhs, den, basis = feasible
    else:
        warm = start.tableau
        if warm is None or warm.constraints != constraints:
            raise InvalidInputError(
                "start must be an optimal result for the same A, b and bounds"
            )
        tab, rhs, den, basis = list(warm.rows), list(warm.rhs), warm.den, list(warm.basis)
    n = len(p.c)
    c = list(p.c) + [0] * sum(u is not None for u in p.upper)  # slacks cost 0
    nvar = len(c)
    red = [den * cj for cj in c] + [0] * len(p.b)
    for i, bi in enumerate(basis):
        f = c[bi]
        if f:
            red = [r - f * t for r, t in zip(red, tab[i])]
    status, den = _bland(tab, rhs, basis, red, den, nvar)
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED, optimum=None, vertex=None)
    # y_i = -s_i red[nvar + i], with s_i = -1 where phase 1 negated row i,
    # then the bound duals w = -red[n:nvar] off the slacks
    y = [r if bi < 0 else -r for bi, r in zip(p.b, red[nvar:])] + [-r for r in red[n:nvar]]
    _certify_optimal(p, basis, rhs, den, y)
    at = dict(zip(basis, rhs))
    x = tuple(at.get(j, 0) for j in range(n))  # den * x
    tableau = Tableau(constraints=constraints, rows=tuple(map(tuple, tab)),
                      rhs=tuple(rhs), den=den, basis=tuple(basis))
    return LPResult(status=OPTIMAL, optimum=sum(cj * xj for cj, xj in zip(p.c, x)),
                    vertex=x, den=den, tableau=tableau, duals=tuple(y[:len(p.A)]))


# ---------------------------------------------------------------------------
# Core tableau simplex (all ints)
# ---------------------------------------------------------------------------


def _phase_one(p: LPProblem):
    """A feasible basis of p's constraints as (rows, rhs, den, basis) in canonical form.

    The tableau's rows are A x = b, each negated where b_i < 0, then one
    row x_j + s_j = u_j per finite bound u_j, in order of j.  Its columns
    are x, the slacks s in the same order, and one artificial per row of A.
    The artificials and the slacks start basic (det 1); phase 1 minimizes
    the sum of the artificials.  Redundant rows are dropped; None when the
    system is infeasible.

    An artificial of a bound row would copy its slack: both start as e_row,
    and row operations keep equal columns equal.  In phase 1 it would cost
    1 and the slack 0, so its reduced cost would be the slack's plus den,
    at a higher index: Bland's rule never enters it.  In phase 2 both cost
    0, so the slack gives the same bound dual.  Leaving the copies out thus
    changes no other pivot, row or column.
    """
    bounded = [j for j, u in enumerate(p.upper) if u is not None]
    n, k, m = len(p.c), len(bounded), len(p.b)
    nvar = n + k
    rows = [[-a if bi < 0 else a for a in row] + [0] * k for row, bi in zip(p.A, p.b)]
    rows += [[int(i in (j, n + s)) for i in range(nvar)] for s, j in enumerate(bounded)]
    tab = [row + [int(q == i) for q in range(m)] for i, row in enumerate(rows)]
    rhs = [abs(bi) for bi in p.b] + [p.upper[j] for j in bounded]
    basis = [nvar + i for i in range(m)] + [n + s for s in range(k)]
    red = [-sum(row[j] for row in rows[:m]) for j in range(nvar)] + [0] * m
    status, den = _bland(tab, rhs, basis, red, 1, nvar + m)
    if status != OPTIMAL:
        raise InternalInvariantError("phase-1 objective is bounded by zero")
    if any(rhs[i] for i in range(len(tab)) if basis[i] >= nvar):
        return None

    # drive artificial variables out of the basis; drop redundant rows.  A
    # dropped row's artificial is basic, so den is also |det B| of the rest.
    for i in range(len(tab) - 1, -1, -1):
        if basis[i] >= nvar:
            enter = next((j for j in range(nvar) if tab[i][j] != 0), None)
            if enter is None:
                del tab[i], rhs[i], basis[i]
            else:
                den = _pivot(tab, rhs, basis, None, den, i, enter)
    return tab, rhs, den, basis


def _pivot(tab, rhs, basis, red, den: int, r: int, jc: int) -> int:
    """Make column jc basic in row r and return the new denominator.

    Row r stays as it is and its entry p becomes the denominator; every
    other row x, the rhs and the reduced costs become (x p - f y) // den,
    where y is row r and f the entry of x in column jc.  The division is
    exact: the result is a subdeterminant of the data (Cramer's rule;
    Edmonds 1967, Bareiss 1968).  A negative p (phase 1 driving out an
    artificial, or `eliminate`) negates row r first, so the denominator
    stays positive.  `red` is None when there is no objective.
    Rows are replaced, never edited; with p == den a row whose entry f is
    0 is left as it is.
    """
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
    if red is not None and (red[jc] or p != den):
        f = red[jc]
        red[:] = [(x * p - f * y) // den for x, y in zip(red, prow)]
    basis[r] = jc
    return p


def eliminate(rows: Sequence[Sequence[int]], rhs: Sequence[int] | None = None):
    """Fraction-free Gauss-Jordan elimination of [rows | rhs], in ints.

    Columns are scanned left to right; the first nonzero entry at or below
    the current row is swapped up and pivoted on by `_pivot`.  Returns den
    times the reduced row echelon form (zero rows last) as (rows, rhs), the
    pivot column of each nonzero row, and den, the |det| of the pivot block:
    1 on a totally unimodular matrix.  `rhs` defaults to zeros; the input
    is left unmodified.
    """
    tab = [list(row) for row in rows]
    rhs = [0] * len(tab) if rhs is None else list(rhs)
    basis = [None] * len(tab)  # _pivot records each pivot column here
    den, r = 1, 0
    for col in range(len(tab[0]) if tab else 0):
        piv = next((i for i in range(r, len(tab)) if tab[i][col]), None)
        if piv is None:
            continue
        tab[r], tab[piv] = tab[piv], tab[r]
        rhs[r], rhs[piv] = rhs[piv], rhs[r]
        den = _pivot(tab, rhs, basis, None, den, r, col)
        r += 1
    return tab, rhs, basis[:r], den


def _bland(tab, rhs, basis, red, den: int, allowed: int) -> tuple[str, int]:
    """Pivot by Bland's rule over the first `allowed` columns until optimal.

    Returns the status and the final denominator.  The ratio test compares
    rhs_i / a_i by cross-multiplication, ties going to the lower basic index.
    """
    while True:
        enter = next((j for j in range(allowed) if red[j] < 0), None)
        if enter is None:
            return OPTIMAL, den
        best = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if best is None:
                    best = i
                    continue
                lhs, rhs_best = rhs[i] * tab[best][enter], rhs[best] * a
                if lhs < rhs_best or lhs == rhs_best and basis[i] < basis[best]:
                    best = i
        if best is None:
            return UNBOUNDED, den
        den = _pivot(tab, rhs, basis, red, den, best, enter)


def _certify_optimal(p: LPProblem, basis, rhs, den: int, y: list[int]) -> None:
    """Exact optimality proof of a basic solution of p; raise if it fails.

    y is den times the duals, one per row of A and then one per finite
    bound.  The basic columns hold rhs / den and every other column 0; x is
    that solution on the variables of p.  With w_j the dual of the bound row
    x_j + s_j = u_j (none for an unbounded j), the checks are the problem
    as written, row by row:
    - primal: x >= 0, A x == b and x <= upper;
    - dual: den * c_j - (A^T y)_j - w_j >= 0 for every j, and every
      w_j <= 0 (the reduced cost of s_j);
    - b.y + upper.w == den * c.x.
    Any y that passes proves x optimal, however it was computed.  The
    checks compare ints.
    """
    n = len(p.c)
    if den <= 0 or any(xi < 0 for xi in rhs):
        raise InternalInvariantError("primal check failed: basic solution is negative")
    at = dict(zip(basis, rhs))
    x = [at.get(j, 0) for j in range(n)]  # den * x
    basic = [(j, xj) for j, xj in enumerate(x) if xj]
    if any(sum(row[j] * xj for j, xj in basic) != bi * den for row, bi in zip(p.A, p.b)):
        raise InternalInvariantError("primal check failed: A x != b")
    bounded = [(j, u) for j, u in enumerate(p.upper) if u is not None]
    if any(x[j] > u * den for j, u in bounded):
        raise InternalInvariantError("primal check failed: x above its upper bound")
    w = y[len(p.A):]
    if any(wj > 0 for wj in w):
        raise InternalInvariantError("duality check failed: positive bound dual")
    red = [den * cj for cj in p.c]
    for yi, row in zip(y, p.A):
        if yi:
            red = [r - yi * a for r, a in zip(red, row)]
    for (j, _), wj in zip(bounded, w):
        red[j] -= wj
    if any(r < 0 for r in red):
        raise InternalInvariantError("duality check failed: negative reduced cost")
    dual = sum(yi * bi for yi, bi in zip(y, p.b)) + sum(u * wj for (_, u), wj in zip(bounded, w))
    if dual != sum(cj * xj for cj, xj in zip(p.c, x)):
        raise InternalInvariantError("duality check failed: objective mismatch")
