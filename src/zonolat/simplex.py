"""Exact two-phase simplex over rationals with Bland's pivoting rule.

Minimizes c.x subject to equality constraints A x = b, x >= 0 and
per-variable upper bounds of +infinity or a finite rational.  All
arithmetic is fractions.Fraction, so optimality, infeasibility and
unboundedness are decided exactly, and identical inputs always produce the
identical pivot sequence and vertex.  Every optimal solve also returns
duals that the solver checks prove its optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .core import row_reduce
from .errors import DimensionError, InternalInvariantError, InvalidInputError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPProblem:
    """min c.x  s.t.  A x = b,  0 <= x <= upper.

    upper entries are a finite Fraction or None (+infinity).
    """

    c: tuple[Fraction, ...]
    A: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    upper: tuple[Fraction | None, ...]

    def __post_init__(self):
        n = len(self.c)
        if any(len(row) != n for row in self.A):
            raise DimensionError("constraint row length does not match objective")
        if len(self.b) != len(self.A):
            raise DimensionError("right-hand side length does not match row count")
        if len(self.upper) != n:
            raise DimensionError("bound vector must match the variable count")
        if any(up is not None and up < 0 for up in self.upper):
            raise InvalidInputError("upper bound below lower bound 0")


@dataclass(frozen=True)
class Tableau:
    """An optimal basis in canonical form: B^-1 A, B^-1 b and the basic columns.

    None of it depends on the objective, so it is a feasible starting basis
    for any other objective over the same constraints.
    """

    constraints: tuple  # (A, b, upper) of the problem it solved
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    basis: tuple[int, ...]


@dataclass(frozen=True)
class LPResult:
    status: str
    optimum: Fraction | None
    vertex: tuple[Fraction, ...] | None
    #: final tableau of an optimal solve, the warm start of solve_lp
    tableau: Tableau | None = field(default=None, compare=False, repr=False)
    #: optimal duals y of an optimal solve, one per row of A (0 for a row
    #: phase 1 dropped as redundant); those of the upper-bound rows are left
    #: out, so A^T y <= c and b.y == optimum when no variable has one
    duals: tuple[Fraction, ...] | None = field(default=None, compare=False,
                                               repr=False)


def lp_problem(c: Iterable, A: Iterable[Iterable], b: Iterable,
               upper: Sequence | None = None) -> LPProblem:
    """Convenience constructor; the default is no upper bounds."""
    cv = tuple(Fraction(x) for x in c)
    av = tuple(tuple(Fraction(x) for x in row) for row in A)
    bv = tuple(Fraction(x) for x in b)
    upv = (tuple(None if x is None else Fraction(x) for x in upper)
           if upper is not None else (None,) * len(cv))
    return LPProblem(c=cv, A=av, b=bv, upper=upv)


def solve_lp(p: LPProblem, start: LPResult | None = None) -> LPResult:
    """Exact optimum and basic optimal vertex via two-phase Bland simplex.

    `start` is an optimal result of an earlier solve with the same A, b and
    bounds.  Its final tableau stays primal feasible whatever the objective,
    so phase 1 is skipped and phase 2 reprices that basis for p.c.  The
    start is read, never modified, so one result can seed several solves.
    """
    constraints = (p.A, p.b, p.upper)
    warm = None
    if start is not None:
        if start.tableau is None or start.tableau.constraints != constraints:
            raise InvalidInputError(
                "start must be an optimal result for the same A, b and bounds"
            )
        warm = start.tableau
    c, a, b = _to_standard_form(p)
    res = _simplex_standard(c, a, b, warm)
    if res[0] != OPTIMAL:
        return LPResult(status=res[0], optimum=None, vertex=None)
    _, opt, x, duals, tab, rhs, basis = res
    tableau = Tableau(constraints=constraints, rows=tuple(map(tuple, tab)),
                      rhs=tuple(rhs), basis=tuple(basis))
    return LPResult(status=OPTIMAL, optimum=opt, vertex=tuple(x[:len(p.c)]),
                    tableau=tableau, duals=tuple(duals[:len(p.A)]))


# ---------------------------------------------------------------------------
# Standard-form conversion
# ---------------------------------------------------------------------------


def _to_standard_form(p: LPProblem):
    """Rewrite as min c.y, A y = b, y >= 0.

    The columns of p come first, in order.  Each finite upper bound
    x_j <= u becomes an extra row x_j + s = u with its own slack column s.
    """
    ups = [(j, u) for j, u in enumerate(p.upper) if u is not None]
    zeros = [Fraction(0)] * len(ups)
    a_rows = [list(row) + zeros for row in p.A]
    for k, (j, _u) in enumerate(ups):
        row = [Fraction(0)] * (len(p.c) + len(ups))
        row[j] = row[len(p.c) + k] = Fraction(1)
        a_rows.append(row)
    return list(p.c) + zeros, a_rows, list(p.b) + [u for _, u in ups]


# ---------------------------------------------------------------------------
# Core tableau simplex (min c.x, A x = b, x >= 0)
# ---------------------------------------------------------------------------


def _simplex_standard(c: list[Fraction], a: list[list[Fraction]],
                      b: list[Fraction], warm: Tableau | None = None):
    """Solve min c.x, a x = b, x >= 0; phase 2 starts from `warm` if given.

    Pivots replace tableau rows instead of editing them, so copying the
    outer lists of `warm` leaves it intact.
    """
    nvar = len(c)
    if warm is None:
        feasible = _phase_one(a, b, nvar)
        if feasible is None:
            return (INFEASIBLE,)
        tab, rhs, basis = feasible
    else:
        tab, rhs, basis = list(warm.rows), list(warm.rhs), list(warm.basis)
    red = list(c)
    for i, bi in enumerate(basis):
        if c[bi]:
            f = c[bi]
            for j in range(nvar):
                red[j] -= f * tab[i][j]
    status = _bland(tab, rhs, basis, red, nvar)
    if status == UNBOUNDED:
        return (UNBOUNDED,)

    x = [Fraction(0)] * nvar
    for i, bi in enumerate(basis):
        x[bi] = rhs[i]
    opt = sum((ci * xi for ci, xi in zip(c, x) if ci and xi), Fraction(0))
    duals = _certify_optimal(c, a, b, basis, x, opt)
    return (OPTIMAL, opt, x, duals, tab, rhs, basis)


def _phase_one(a: list[list[Fraction]], b: list[Fraction], nvar: int):
    """A feasible basis of a x = b, x >= 0 as (rows, rhs, basis) in canonical form.

    Redundant rows are dropped; None when the system is infeasible.
    """
    rows = [list(r) for r in a]
    rhs = list(b)
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    m = len(rows)

    # tableau over columns [structural | artificial], artificial basis;
    # minimize the sum of artificials
    tab = [rows[i] + [Fraction(int(k == i)) for k in range(m)] for i in range(m)]
    basis = [nvar + i for i in range(m)]
    red = [-sum(tab[i][j] for i in range(m)) for j in range(nvar)]
    red += [Fraction(0)] * m
    if _bland(tab, rhs, basis, red, nvar + m) != OPTIMAL:
        raise InternalInvariantError("phase-1 objective is bounded by zero")
    if any(rhs[i] for i in range(len(tab)) if basis[i] >= nvar):
        return None

    # drive artificial variables out of the basis; drop redundant rows
    for i in range(len(tab) - 1, -1, -1):
        if basis[i] >= nvar:
            enter = next((j for j in range(nvar) if tab[i][j] != 0), None)
            if enter is None:
                del tab[i], rhs[i], basis[i]
            else:
                _pivot(tab, rhs, basis, None, i, enter)
    return [row[:nvar] for row in tab], rhs, basis


def _pivot(tab, rhs, basis, red, r: int, jc: int) -> None:
    """Make column jc basic in row r; rows are replaced, never edited."""
    pv = tab[r][jc]
    tab[r] = [x / pv for x in tab[r]]
    rhs[r] /= pv
    for i in range(len(tab)):
        if i != r and tab[i][jc]:
            f = tab[i][jc]
            tab[i] = [x - f * y for x, y in zip(tab[i], tab[r])]
            rhs[i] -= f * rhs[r]
    if red is not None and red[jc]:
        f = red[jc]
        for j, y in enumerate(tab[r]):
            red[j] -= f * y
    basis[r] = jc


def _bland(tab, rhs, basis, red, allowed: int) -> str:
    """Pivot by Bland's rule over the first `allowed` columns until optimal."""
    while True:
        enter = next((j for j in range(allowed) if red[j] < 0), None)
        if enter is None:
            return OPTIMAL
        best = None
        for i in range(len(tab)):
            if tab[i][enter] > 0:
                ratio = rhs[i] / tab[i][enter]
                key = (ratio, basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            return UNBOUNDED
        _pivot(tab, rhs, basis, red, best[1], enter)


def _certify_optimal(c, a, b, basis, x, opt) -> list[Fraction]:
    """Strong-duality self check: reconstruct the duals, verify them exactly
    and return them, one per row of a.

    Reducing [B^T | c_B], the basis columns of a transposed next to their
    costs, selects independent rows of a (the pivot columns) and solves for
    their duals; the other rows, such as those phase 1 dropped as
    redundant, get dual 0.
    """
    nrows = len(a)
    reduced, pivots = row_reduce([[a[i][j] for i in range(nrows)] + [c[j]]
                                  for j in basis])
    if len(pivots) < len(basis) or nrows in pivots:
        raise InternalInvariantError("optimal basis matrix is singular")
    duals = [Fraction(0)] * nrows
    for i, row in zip(pivots, reduced):
        duals[i] = row[nrows]
    for j in range(len(c)):
        reduced_cost = c[j] - sum(duals[i] * a[i][j] for i in pivots)
        if reduced_cost < 0:
            raise InternalInvariantError("duality check failed: negative reduced cost")
    dual_obj = sum(duals[i] * b[i] for i in pivots)
    if dual_obj != opt:
        raise InternalInvariantError("duality check failed: objective mismatch")
    return duals
