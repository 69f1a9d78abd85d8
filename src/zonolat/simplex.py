"""Exact two-phase simplex on an integer-preserving tableau, Dantzig's
entering rule with Bland's rule after a run of degenerate steps.

Minimizes c.x subject to equality constraints A x = b and bounds
0 <= x_j <= u_j, each u_j +infinity or a finite integer; every datum is a
Python int, and callers with rational data clear its denominators first.
The tableau is the only copy of the constraints besides the caller's
problem, and it has one row per row of A: a finite bound is a status of
its variable, not a row (Dantzig's upper-bounding technique; Dantzig,
Econometrica 1955; Chvatal, Linear Programming, 1983, ch. 8).  A nonbasic
variable rests at 0 or at its bound, and the ratio test also stops where a
basic variable reaches its bound or the entering variable its own; the
latter is a bound flip, which moves the rhs and makes no pivot.  An
artificial that phase 1 leaves basic at 0 stays there in phase 2, as a
variable bounded at 0 that never enters, so no row is dropped.  The
entering column is the one of largest gain (Dantzig 1963), which takes
fewer pivots than Bland's least index; after DEGENERATE_RUN consecutive
steps of length 0 Bland's rule takes over until a step of nonzero length,
so the simplex cannot cycle (see _optimize).
The tableau holds den * B^-1 A and den * B^-1 (b - sum of u_j A_j over
the variables at their bound) over one positive common denominator
den = |det B| of the basis matrix B, so all its entries are ints: a pivot
multiplies and subtracts and then divides by the old den, and that
division is exact because every entry is a subdeterminant of the data
(Edmonds, J. Res. NBS 1967; Bareiss, Math. Comp. 1968).  No gcd is taken
inside the pivot loop.  A pivot whose entry equals den, most of them on a
totally unimodular M, leaves an entry unchanged wherever the pivot row or
the entering column is 0, so it rewrites only the columns where the pivot
row is nonzero, in the rows where the entering column is.  Infeasibility
and unboundedness are decided exactly and raise InvalidInputError, so
every result is optimal, and identical inputs always produce the
identical pivot sequence and vertex.  The result speaks ints too: the
optimum, the vertex and the duals come out as den times their values,
read straight off the rhs, the bounds and the reduced-cost row, together
with den.  Every solve also checks, in integers, that its vertex is
feasible and that its duals, those of the bounds included, prove the
optimum.
`eliminate`, the one exact elimination of the solver (rank, projections,
circuit tests), makes the same update forward only, as Bareiss's
elimination, and then solves the pivot rows by exact back-substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

from .errors import DimensionError, InternalInvariantError, InvalidInputError

#: Consecutive steps of length 0 after which Bland's rule picks the
#: entering column instead of Dantzig's, until a step of nonzero length.
DEGENERATE_RUN = 50


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
class LPResult:
    """The optimum of solve_lp, in ints over den = |det B| of its final
    basis: `optimum`, `vertex` and `duals` are den times c.x, the basic
    optimal vertex x and the duals y, one per row of A (the bounds' are
    left out, so A^T y <= den c and b.y == optimum without them).  A row
    whose artificial is still basic has the dual 0; where the rows are
    dependent the duals are not unique, and these are the final basis's.
    `pivots` counts the pivots of phase 1 and of phase 2, and `flips` the
    bound flips of both phases.  == compares only `optimum`, `vertex` and `den`.

    The rest is the final basis of `constraints`, the (A, b, upper) solved,
    in canonical form: `rows` and `rhs` are den * B^-1 [A | I] and
    den * B^-1 (b - sum of u_j A_j over j in `at_upper`) for the rows that
    _phase_one writes (each negated where b_i < 0; I is one artificial
    column per row), B the columns `basis`.  Each row of A has its row: a
    redundant one, or one phase 2 never pivoted on, keeps its artificial
    basic, at 0.  The nonbasic variables in `at_upper` rest at their bound
    u_j, the others at 0.  None of it depends on the objective, so it is a
    feasible starting basis for any other objective over the same
    constraints: the result is the warm start of solve_lp.
    """

    optimum: int
    vertex: tuple[int, ...]
    den: int
    duals: tuple[int, ...] = field(compare=False, repr=False)
    pivots: tuple[int, int] = field(compare=False)
    flips: int = field(compare=False)
    constraints: tuple = field(compare=False, repr=False)
    rows: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    rhs: tuple[int, ...] = field(compare=False, repr=False)
    basis: tuple[int, ...] = field(compare=False, repr=False)
    at_upper: tuple[int, ...] = field(compare=False, repr=False)


def solve_lp(p: LPProblem, start: LPResult | None = None) -> LPResult:
    """Exact optimum and basic optimal vertex via the two-phase simplex.

    An infeasible or unbounded p raises InvalidInputError, which names
    which of the two it is.  `start` is the result of an earlier solve
    with the same A, b and bounds.  Its final basis stays primal feasible
    whatever the objective, so phase 1 is skipped and phase 2 reprices that
    basis for p.c.

    Phase 2 keeps the reduced-cost row over the tableau's denominator too:
    den * c_j - c_B . (den B^-1 A)_j.  On the artificial columns, which
    never enter, it reads -den c_B B^-1: den times the duals, negated, of
    the sign-adjusted rows, and 0 for a row whose artificial, of cost 0, is
    still basic.  The dual w_j of a finite bound is the reduced cost of x_j
    when x_j rests at its bound (<= 0 at the optimum) and 0 otherwise.
    Pivots replace tableau rows instead of editing them, so copying the
    outer lists of the start leaves it intact: one result can seed several
    solves.
    """
    constraints = (p.A, p.b, p.upper)
    n = len(p.c)
    if start is None:
        tab, rhs, den, basis, at_upper, phase_one, flips = _phase_one(p)
    else:
        if start.constraints != constraints:
            raise InvalidInputError("start must be a result for the same A, b and bounds")
        tab, rhs, den, basis = list(start.rows), list(start.rhs), start.den, list(start.basis)
        at_upper = [j in start.at_upper for j in range(n)]
        phase_one = flips = 0
    red = [den * cj for cj in p.c] + [0] * len(p.b)
    for row, bi in zip(tab, basis):
        cb = p.c[bi] if bi < n else 0
        if cb:
            for j, t in enumerate(row):
                if t:
                    red[j] -= cb * t
    den, phase_two, flipped = _optimize(tab, rhs, basis, red, den, p.upper, at_upper, False)
    x = [u * den if up else 0 for u, up in zip(p.upper, at_upper)]  # den * x
    for bi, value in zip(basis, rhs):
        if bi < n:
            x[bi] = value
    # y_i = -s_i red[n + i], with s_i = -1 where phase 1 negated row i,
    # then the bound duals w off the variables at their bound
    y = [r if bi < 0 else -r for bi, r in zip(p.b, red[n:])]
    w = [red[j] if at_upper[j] else 0 for j, u in enumerate(p.upper) if u is not None]
    _certify_optimal(p, x, den, y + w)
    return LPResult(optimum=sum(cj * xj for cj, xj in zip(p.c, x)), vertex=tuple(x), den=den,
                    duals=tuple(y), pivots=(phase_one, phase_two), flips=flips + flipped,
                    constraints=constraints, rows=tuple(map(tuple, tab)), rhs=tuple(rhs),
                    basis=tuple(basis), at_upper=tuple(j for j in range(n) if at_upper[j]))


# ---------------------------------------------------------------------------
# Core tableau simplex (all ints)
# ---------------------------------------------------------------------------


def _phase_one(p: LPProblem):
    """A feasible basis of p's constraints, and the pivots and flips it took.

    Returns (rows, rhs, den, basis, at_upper, pivots, flips), the basis in
    canonical form; an infeasible system raises InvalidInputError.  The
    tableau's rows are A x = b, each negated where b_i < 0, and its columns
    are x and one artificial per row.  The artificials start basic (det 1)
    and every x_j at 0; phase 1 minimizes the sum of the artificials, and
    the system is feasible when that reaches 0.  An artificial may end
    basic at 0; it stays in the basis for phase 2 (see _optimize).
    """
    n, m = len(p.c), len(p.b)
    tab = [[-a if bi < 0 else a for a in row] + [int(q == i) for q in range(m)]
           for i, (row, bi) in enumerate(zip(p.A, p.b))]
    rhs = [abs(bi) for bi in p.b]
    basis = [n + i for i in range(m)]
    at_upper = [False] * n
    # minus the column sums of x's columns; no rows leave every sum 0
    red = [-sum(column) for column in zip(*tab)][:n] if tab else [0] * n
    red += [0] * m
    den, pivots, flips = _optimize(tab, rhs, basis, red, 1, p.upper, at_upper, True)
    if any(value for bi, value in zip(basis, rhs) if bi >= n):
        raise InvalidInputError("the LP is infeasible")
    return tab, rhs, den, basis, at_upper, pivots, flips


def _move(tab, rhs, j: int, step: int) -> None:
    """Raise the nonbasic x_j by `step`: rhs -= step * column j, in place."""
    for i, row in enumerate(tab):
        if row[j]:
            rhs[i] -= step * row[j]


def _pivot(tab, rhs, basis, red, den: int, r: int, jc: int) -> int:
    """Make column jc basic in row r and return the new denominator.

    Row r stays as it is and its entry p becomes the denominator; every
    other row x, the rhs and the reduced costs become (x p - f y) // den,
    where y is row r and f the entry of x in column jc.  The division is
    exact: the result is a subdeterminant of the data (Cramer's rule;
    Edmonds 1967, Bareiss 1968).  A negative p (a variable that leaves at
    its bound or enters from it) negates row r first, so the denominator
    stays positive.  Rows are replaced, never edited.  With p == den, which
    is most pivots on a totally unimodular M, an entry x whose y or f is 0
    becomes (x den) // den == x: so a row with f == 0 is left as it is, and
    in the others only the columns where row r is nonzero are rewritten, to
    x - (f y) // den, since den divides f y when it divides x den - f y.
    With p != den, a row with f == 0 is only rescaled, to (x p) // den.
    """
    prow, prhs = tab[r], rhs[r]
    p = prow[jc]
    if p < 0:
        p = -p
        prow = tab[r] = [-y for y in prow]
        prhs = rhs[r] = -prhs
    if p != den:
        for i, row in enumerate(tab):
            if i != r:
                f = row[jc]
                if f:
                    tab[i] = [(x * p - f * y) // den for x, y in zip(row, prow)]
                    rhs[i] = (rhs[i] * p - f * prhs) // den
                else:
                    tab[i] = [x * p // den for x in row]
                    rhs[i] = rhs[i] * p // den
        f = red[jc]
        red[:] = [(x * p - f * y) // den for x, y in zip(red, prow)]
    else:
        support = [(k, y) for k, y in enumerate(prow) if y]
        for i, row in enumerate(tab):
            f = row[jc]
            if i != r and f:
                row = tab[i] = list(row)
                for k, y in support:
                    row[k] -= f * y // den
                rhs[i] -= f * prhs // den
        if red[jc]:
            f = red[jc]
            for k, y in support:
                red[k] -= f * y // den
    basis[r] = jc
    return p


def eliminate(rows: Sequence[Sequence[int]], rhs: Sequence[int] | None = None):
    """Solve [rows | rhs] in ints by forward fraction-free elimination.

    Columns are scanned left to right; the first nonzero at or below the
    current row is swapped up, made positive and eliminated below it by
    Bareiss's exact update x -> (x p - f y) // den; the pivot rows are then
    solved from the last up.  Returns den times the solution (free variables
    0) on the pivot rows, then residuals, all 0 iff the system is consistent;
    the pivot columns; and den = |det| of the pivot block.  Input is kept.
    """
    # rows keep entries from their pivot column (or the current one, below the pivots) on, rhs last
    tab = [[*row, b] for row, b in zip(rows, [0] * len(rows) if rhs is None else rhs)]
    pivots, den = [], 1
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(tab)) if tab[i][0]), None)
        if piv is None:
            tab[r:] = [row[1:] for row in tab[r:]]
            continue
        prow, tab[piv] = tab[piv], tab[r]
        tab[r] = prow = prow if prow[0] > 0 else [-y for y in prow]
        p, rest = prow[0], prow[1:]
        for i in range(r + 1, len(tab)):
            row, f = tab[i][1:], tab[i][0]
            tab[i] = ([(x * p - f * y) // den for x, y in zip(row, rest)] if f
                      else row if p == den else [x * p // den for x in row])
        pivots.append(col)
        den = p
    solution = []  # den times the pivot variables, the last first
    for prow, col in zip(reversed(tab[:len(pivots)]), reversed(pivots)):
        s = den * prow[-1] - sum(prow[j - col] * x for j, x in zip(reversed(pivots), solution))
        value, remainder = divmod(s, prow[0])
        if remainder:
            raise InternalInvariantError("back-substitution of the elimination is not exact")
        solution.append(value)
    return solution[::-1] + [row[-1] for row in tab[len(pivots):]], pivots, den


def _optimize(tab, rhs, basis, red, den: int, upper, at_upper, phase_one: bool):
    """Pivot and flip by Dantzig's rule, with Bland's after a degenerate run.

    Returns the final den and the pivots and flips made.  An unbounded
    objective raises InvalidInputError in phase 2; in phase 1, whose
    objective is bounded below by 0, it raises InternalInvariantError.
    `upper` and `at_upper` cover the n variables.  The artificials, the
    columns after them, are unbounded and may enter in phase 1; in phase 2
    they have the bound 0 and never enter, so a basic one stops any
    entering column that is nonzero in its row at step 0 and stays at 0.

    The entering column is Dantzig's (1963): the one of largest gain, the
    gain of j being -red[j] for a variable at 0 or an artificial that may
    enter and red[j] for a variable at its bound (it enters falling), the
    least index among equal gains; every red[j] is over the one den, so
    ints compare.  After DEGENERATE_RUN consecutive steps of length 0
    (pivots or flips), the entering column is Bland's until a step of
    nonzero length: the first j with red[j] < 0 among the variables at 0,
    else with red[j] > 0 among those at their bound, else with red[j] < 0
    among the artificials that may enter.  A tie of the ratio test goes to
    the least (is an artificial, reaches its bound, index) of the variable
    that stops the step, the entering one's own bound (a flip: rhs moves,
    nothing is pivoted) counting as (False, rises, index).  With that
    choice of entering column this is Bland's rule (Math. Oper. Res. 1977)
    in the tableau with a row x_j + s_j = u_j per bound, the slacks after
    the variables in their order and the artificials last, which cannot
    cycle (an artificial that may not enter only leaves, so it is in no
    cycle).  So the loop ends: a step of nonzero length lowers the
    objective strictly, so no (basis, at_upper) repeats across one; between
    two of them Dantzig's rule makes at most DEGENERATE_RUN steps, and
    then Bland's rule runs until the next (Terlaky & Zhang, Ann. Oper. Res.
    1993).

    The state (basis, at_upper, min(degenerate run, DEGENERATE_RUN)) never
    repeats under correct arithmetic: only steps of length 0 lie between
    two visits of one basis, so the run only grows between them, and where
    it is capped Bland's rule is in charge, which does not cycle.  Dantzig's
    rule itself may revisit a (basis, at_upper) within its run, so the run
    is part of the state.  Past len(red) * len(tab) pivots and flips,
    Brent's cycle detection (BIT 1980) compares each state with one saved
    state and raises InternalInvariantError on a repeat instead of looping
    forever.
    """
    n = len(upper)
    last = len(red) if phase_one else n  # the columns that may enter
    bounds = list(upper) + [None if phase_one else 0] * (len(red) - n)
    pivots = flips = degenerate = 0
    watch_after, saved, power, steps = len(red) * len(tab), None, 1, 0
    while True:
        if pivots + flips > watch_after:
            state = (tuple(basis), tuple(at_upper), min(degenerate, DEGENERATE_RUN))
            if state == saved:
                raise InternalInvariantError(
                    "the simplex revisited a basis: the tableau update is wrong")
            steps += 1
            if steps == power:
                saved, power, steps = state, 2 * power, 0
        if degenerate < DEGENERATE_RUN:
            enter, gain = None, 0
            for j in range(last):
                g = red[j] if j < n and at_upper[j] else -red[j]
                if g > gain:
                    enter, gain = j, g
        else:
            enter = next((j for j in range(n) if red[j] < 0 and not at_upper[j]), None)
            if enter is None:
                enter = next((j for j in range(n) if red[j] > 0 and at_upper[j]), None)
            if enter is None:
                enter = next((j for j in range(n, last) if red[j] < 0), None)
        if enter is None:
            return den, pivots, flips
        down = enter < n and at_upper[enter]
        bound = bounds[enter]
        # the best step so far is num / q, reached by the basic variable of
        # row `best` (-1: the entering variable's own bound) with tie key `key`
        best, rises, num, q, key = -1, False, bound, 1, (False, not down, enter)
        for i, row in enumerate(tab):
            a = -row[enter] if down else row[enter]
            b = basis[i]
            if a > 0:
                step, size, up = rhs[i], a, False
            elif a < 0 and bounds[b] is not None:
                step, size, up = bounds[b] * den - rhs[i], -a, True
            else:
                continue
            if (num is None or step * q < num * size
                    or step * q == num * size and (b >= n, up, b) < key):
                best, rises, num, q, key = i, up, step, size, (b >= n, up, b)
        if num is None:
            if phase_one:
                raise InternalInvariantError("phase-1 objective is bounded by zero")
            raise InvalidInputError("the LP is unbounded")
        degenerate = degenerate + 1 if num == 0 else 0
        if best < 0:
            at_upper[enter] = not down
            _move(tab, rhs, enter, -bound if down else bound)
            flips += 1
            continue
        # a variable that leaves at its bound or enters from it moves one
        # rhs entry, that of its row (den times it) before or after the
        # pivot; an artificial leaves at its bound 0 as at 0
        leave = basis[best]
        if rises and leave < n:
            at_upper[leave] = True
            rhs[best] -= upper[leave] * den
        den = _pivot(tab, rhs, basis, red, den, best, enter)
        pivots += 1
        if down:
            at_upper[enter] = False
            rhs[best] += bound * den


def _certify_optimal(p: LPProblem, x, den: int, y: list[int]) -> None:
    """Exact optimality proof of a solution x of p; raise if it fails.

    x is den times the vertex and y den times the duals, one per row of A
    and then one per finite bound.  With w_j the dual of the bound x_j <=
    u_j (none for an unbounded j), the checks are the problem as written,
    row by row:
    - primal: x >= 0, A x == b and x <= upper;
    - dual: den * c_j - (A^T y)_j - w_j >= 0 for every j, and every
      w_j <= 0;
    - b.y + upper.w == den * c.x.
    Any y that passes proves x optimal, however it was computed.  The
    checks compare ints.
    """
    if den <= 0 or any(xi < 0 for xi in x):
        raise InternalInvariantError("primal check failed: basic solution is negative")
    support = [(j, xj) for j, xj in enumerate(x) if xj]
    if any(sum(row[j] * xj for j, xj in support) != bi * den for row, bi in zip(p.A, p.b)):
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
            for j, a in enumerate(row):
                if a:
                    red[j] -= yi * a
    for (j, _), wj in zip(bounded, w):
        red[j] -= wj
    if any(r < 0 for r in red):
        raise InternalInvariantError("duality check failed: negative reduced cost")
    dual = sum(yi * bi for yi, bi in zip(y, p.b)) + sum(u * wj for (_, u), wj in zip(bounded, w))
    if dual != sum(cj * xj for cj, xj in zip(p.c, x)):
        raise InternalInvariantError("duality check failed: objective mismatch")
