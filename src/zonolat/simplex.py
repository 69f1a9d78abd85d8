"""Exact two-phase simplex over rationals with Bland's pivoting rule.

Minimizes c.x subject to equality constraints A x = b, per-variable lower
bounds of 0 or -infinity, and upper bounds of +infinity or a finite
rational.  All arithmetic is fractions.Fraction, so optimality,
infeasibility and unboundedness are decided exactly, and identical inputs
always produce the identical pivot sequence and vertex.
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
    """min c.x  s.t.  A x = b,  lower <= x <= upper.

    lower entries are Fraction(0) or None (-infinity); upper entries are a
    finite Fraction or None (+infinity).
    """

    c: tuple[Fraction, ...]
    A: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    lower: tuple[Fraction | None, ...]
    upper: tuple[Fraction | None, ...]

    def __post_init__(self):
        n = len(self.c)
        if any(len(row) != n for row in self.A):
            raise DimensionError("constraint row length does not match objective")
        if len(self.b) != len(self.A):
            raise DimensionError("right-hand side length does not match row count")
        if len(self.lower) != n or len(self.upper) != n:
            raise DimensionError("bound vectors must match the variable count")
        for lo in self.lower:
            if lo is not None and lo != 0:
                raise InvalidInputError("lower bounds are restricted to 0 or None")
        for lo, up in zip(self.lower, self.upper):
            if up is not None and lo is not None and up < lo:
                raise InvalidInputError("upper bound below lower bound")


@dataclass(frozen=True)
class Tableau:
    """An optimal basis in canonical form: B^-1 A, B^-1 b and the basic columns.

    None of it depends on the objective, so it is a feasible starting basis
    for any other objective over the same constraints.
    """

    constraints: tuple  # (A, b, lower, upper) of the problem it solved
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


def lp_problem(c: Iterable, A: Iterable[Iterable], b: Iterable,
               lower: Sequence | None = None,
               upper: Sequence | None = None) -> LPProblem:
    """Convenience constructor; defaults are x >= 0 with no upper bounds."""
    cv = tuple(Fraction(x) for x in c)
    av = tuple(tuple(Fraction(x) for x in row) for row in A)
    bv = tuple(Fraction(x) for x in b)
    n = len(cv)
    lov = (tuple(None if x is None else Fraction(x) for x in lower)
           if lower is not None else (Fraction(0),) * n)
    upv = (tuple(None if x is None else Fraction(x) for x in upper)
           if upper is not None else (None,) * n)
    return LPProblem(c=cv, A=av, b=bv, lower=lov, upper=upv)


def solve_lp(p: LPProblem, start: LPResult | None = None) -> LPResult:
    """Exact optimum and basic optimal vertex via two-phase Bland simplex.

    `start` is an optimal result of an earlier solve with the same A, b and
    bounds.  Its final tableau stays primal feasible whatever the objective,
    so phase 1 is skipped and phase 2 reprices that basis for p.c.  The
    start is read, never modified, so one result can seed several solves.
    """
    constraints = (p.A, p.b, p.lower, p.upper)
    warm = None
    if start is not None:
        if start.tableau is None or start.tableau.constraints != constraints:
            raise InvalidInputError(
                "start must be an optimal result for the same A, b and bounds"
            )
        warm = start.tableau
    (c, a, b), col_of = _to_standard_form(p)
    res = _simplex_standard(c, a, b, warm)
    if res[0] != OPTIMAL:
        return LPResult(status=res[0], optimum=None, vertex=None)
    _, opt, x, tab, rhs, basis = res
    vertex = []
    for pos, neg in col_of:
        val = x[pos]
        if neg is not None:
            val = val - x[neg]
        vertex.append(val)
    tableau = Tableau(constraints=constraints, rows=tuple(map(tuple, tab)),
                      rhs=tuple(rhs), basis=tuple(basis))
    return LPResult(status=OPTIMAL, optimum=opt, vertex=tuple(vertex),
                    tableau=tableau)


# ---------------------------------------------------------------------------
# Standard-form conversion
# ---------------------------------------------------------------------------


def _to_standard_form(p: LPProblem):
    """Rewrite as min c.y, A y = b, y >= 0.

    Free variables split into a difference of two nonnegative columns;
    finite upper bounds become extra rows with a slack column.
    """
    cols: list[list[Fraction]] = []
    c_std: list[Fraction] = []
    col_of: list[tuple[int, int | None]] = []
    nrows = len(p.A)
    ups: list[tuple[int, Fraction]] = [
        (j, u) for j, u in enumerate(p.upper) if u is not None
    ]
    total_rows = nrows + len(ups)

    def new_col(obj: Fraction, body: dict[int, Fraction]) -> int:
        col = [Fraction(0)] * total_rows
        for i, v in body.items():
            col[i] = v
        cols.append(col)
        c_std.append(obj)
        return len(cols) - 1

    up_row = {j: nrows + k for k, (j, _) in enumerate(ups)}
    for j in range(len(p.c)):
        body = {i: p.A[i][j] for i in range(nrows) if p.A[i][j]}
        if j in up_row:
            body[up_row[j]] = Fraction(1)
        pos = new_col(p.c[j], body)
        neg = None
        if p.lower[j] is None:
            neg = new_col(-p.c[j], {i: -v for i, v in body.items()})
        col_of.append((pos, neg))
    for j, _u in ups:
        new_col(Fraction(0), {up_row[j]: Fraction(1)})  # slack for x_j <= u
    b_std = list(p.b) + [u for _, u in ups]
    a_rows = [[cols[j][i] for j in range(len(cols))] for i in range(total_rows)]
    return (c_std, a_rows, b_std), col_of


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
    _certify_optimal(c, a, b, basis, x, opt)
    return (OPTIMAL, opt, x, tab, rhs, basis)


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


def _certify_optimal(c, a, b, basis, x, opt):
    """Strong-duality self check: reconstruct duals and verify exactly.

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
    duals = [(i, row[nrows]) for i, row in zip(pivots, reduced)]
    for j in range(len(c)):
        reduced_cost = c[j] - sum(y * a[i][j] for i, y in duals)
        if reduced_cost < 0:
            raise InternalInvariantError("duality check failed: negative reduced cost")
    dual_obj = sum(y * b[i] for i, y in duals)
    if dual_obj != opt:
        raise InternalInvariantError("duality check failed: objective mismatch")
