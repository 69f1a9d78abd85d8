"""Minimum mean improvement solver for the weighted closest-vector problem.

Given a lattice L = ker M /\\ Z^m (M totally unimodular) with weights g and
a target t in the span of L, the solver minimizes the separable objective
w(v) = sum_i g_i (v_i - t_i)^2 over v in L.  Starting from the origin it
repeatedly cancels a strict Voronoi vector of minimum mean cost until the
progress measure lambda(v) hits zero exactly, which happens if and only if
v is a closest lattice vector.  The duals of the last lambda LP then give
a certificate of that, checked before the answer is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import simplex
from .core import (
    LATTICE_CACHE_SIZE,
    FracVec,
    IntVec,
    PrimitiveChain,
    TUMatrix,
    ZonotopalLattice,
    frac_vec,
    inner_product,
    int_vec,
    matrix_rank,
    primitive_chain,
    project_onto_span,
)
from .errors import InternalInvariantError, InvalidInputError


@dataclass(frozen=True)
class CVPInstance:
    """A lattice plus a rational target already lying in its span."""

    lattice: ZonotopalLattice
    target: FracVec

    def __post_init__(self):
        object.__setattr__(self, "target", frac_vec(self.target))
        if self.lattice.m < 1:
            raise InvalidInputError("the lattice needs at least one coordinate")
        if len(self.target) != self.lattice.m:
            raise InvalidInputError("target length does not match the lattice")
        if any(s != 0 for s in self.lattice.matrix.apply(self.target)):
            raise InvalidInputError(
                "target is not in the span of the lattice; project it first"
            )

    @property
    def m(self) -> int:
        return self.lattice.m

    @property
    def weights(self) -> FracVec:
        return self.lattice.weights

    def distance_sq(self, v: Sequence) -> Fraction:
        diff = [Fraction(a) - b for a, b in zip(v, self.target)]
        return inner_product(diff, diff, self.weights)


def cvp_instance(lattice: ZonotopalLattice, target: Sequence,
                 project: bool = True) -> CVPInstance:
    """Build an instance, projecting the target onto the span by default."""
    t = project_onto_span(target, lattice) if project else frac_vec(target)
    return CVPInstance(lattice=lattice, target=t)


@dataclass(frozen=True)
class IterationRecord:
    index: int
    v: IntVec                 # iterate after this step
    lam: Fraction             # lambda at the point the step left
    u: PrimitiveChain
    step: int
    distance_sq: Fraction
    step_fallback: bool = False


@dataclass(frozen=True)
class CVPSolution:
    closest: IntVec
    distance_sq: Fraction
    trace: tuple[IterationRecord, ...]
    certified: bool

    @property
    def iterations(self) -> int:
        return len(self.trace)

    def lambda_trace(self) -> tuple[Fraction, ...]:
        """Lambda at the start of each iteration, then the final zero."""
        return tuple(r.lam for r in self.trace) + (Fraction(0),)


@dataclass(frozen=True)
class StoppingData:
    K: int
    delta: Fraction
    iteration_cap: int


# ---------------------------------------------------------------------------
# Discrete derivatives and costs
# ---------------------------------------------------------------------------


def right_derivative(i: int, v_i: int, instance: CVPInstance) -> Fraction:
    """w_i(v_i + 1) - w_i(v_i) = g_i (2 (v_i - t_i) + 1)."""
    g = instance.weights[i]
    return g * (2 * (Fraction(v_i) - instance.target[i]) + 1)


def left_derivative(i: int, v_i: int, instance: CVPInstance) -> Fraction:
    """w_i(v_i) - w_i(v_i - 1) = g_i (2 (v_i - t_i) - 1)."""
    g = instance.weights[i]
    return g * (2 * (Fraction(v_i) - instance.target[i]) - 1)


def dual_certificate_holds(v: Sequence, y: Sequence, instance: CVPInstance) -> bool:
    """c_i^-(v_i) <= (M^T y)_i <= c_i^+(v_i) for every i, exactly.

    Such a y proves v closest: every w_i(x) - (M^T y)_i x is a convex
    function of the integer x, minimized at v_i, and (M^T y).(u - v) =
    y.M(u - v) = 0 for every lattice vector u (Rockafellar, Network Flows
    and Monotropic Optimization, 1984).  This holds for any integer M.
    """
    rows = instance.lattice.matrix.entries
    if len(y) != len(rows):
        return False
    mty = [Fraction(0)] * instance.m
    for y_r, row in zip(y, rows):
        if y_r:
            for i, e in enumerate(row):
                if e:
                    mty[i] += e * y_r
    return all(left_derivative(i, v[i], instance) <= a <= right_derivative(i, v[i], instance)
               for i, a in enumerate(mty))


def cost(v: Sequence, u: PrimitiveChain, instance: CVPInstance) -> Fraction:
    """Exact change of w when stepping from v to v + u."""
    total = Fraction(0)
    for i in u.positive_part:
        total += right_derivative(i, v[i], instance)
    for i in u.negative_part:
        total -= left_derivative(i, v[i], instance)
    return total


# ---------------------------------------------------------------------------
# lambda(v) via an exact LP
# ---------------------------------------------------------------------------


def lambda_lp(v: Sequence, instance: CVPInstance) -> simplex.LPProblem:
    """LP whose optimum is -lambda(v) whenever lambda(v) > 0.

    Variables are x+ then x- (m each):
        min  sum_i c_i^+(v_i) x_i^+ - c_i^-(v_i) x_i^-
        s.t. M (x+ - x-) = 0,  sum_i (x_i^+ + x_i^-) = 1,  x+, x- >= 0.
    """
    m = instance.m
    obj = [right_derivative(i, v[i], instance) for i in range(m)]
    obj += [-left_derivative(i, v[i], instance) for i in range(m)]
    A, b, upper = _lambda_constraints(instance.lattice.matrix)
    return simplex.LPProblem(c=tuple(obj), A=A, b=b, upper=upper)


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _lambda_constraints(matrix: TUMatrix) -> tuple:
    """(A, b, upper) shared by every lambda LP over M: [M, -M; 1^T] x = (0, 1).

    One object per matrix also makes the warm start's same-constraints
    check an identity comparison.
    """
    rows = tuple(tuple(Fraction(e) for e in row) + tuple(Fraction(-e) for e in row)
                 for row in matrix.entries)
    rows += ((Fraction(1),) * (2 * matrix.m),)
    rhs = (Fraction(0),) * matrix.n + (Fraction(1),)
    return rows, rhs, (None,) * (2 * matrix.m)


@dataclass
class WarmStart:
    """Lambda-LP state carried from one LP of an instance to the next.

    Every lambda LP of an instance has the same constraints, so the optimal
    tableau of the last one (`result`) is a feasible start for the next and
    phase 1 runs once per instance (see simplex.solve_lp).
    """

    result: simplex.LPResult | None = None


def compute_lambda(v: Sequence, instance: CVPInstance,
                   warm: WarmStart | None = None) -> tuple[Fraction, FracVec]:
    """lambda(v) = max(0, -opt) plus the optimal LP vertex.

    With `warm`, the LP starts from warm.result and its own result is
    stored there for the next call.
    """
    vv = int_vec(v)
    if not instance.lattice.contains(vv):
        raise InvalidInputError(f"{vv} is not a lattice member")
    start = warm.result if warm is not None else None
    res = simplex.solve_lp(lambda_lp(vv, instance), start)
    if res.status != simplex.OPTIMAL:
        raise InternalInvariantError(f"lambda LP reported {res.status}")
    if warm is not None:
        warm.result = res
    lam = max(Fraction(0), -res.optimum)
    return lam, res.vertex


def min_mean_voronoi_vector(v: Sequence, instance: CVPInstance,
                            lam: Fraction | None = None,
                            vertex: FracVec | None = None) -> PrimitiveChain:
    """Strict Voronoi vector of minimum mean cost, minimal support, at v.

    `vertex` is the basic optimal vertex of lambda_lp(v) that gave `lam`;
    both are computed here when the vertex is omitted.  A basic vertex of
    {[M, -M] x = 0, 1.x = 1, x >= 0} is a circuit of [M, -M] scaled to sum
    one.  The circuit {i+, i-} has mean cost g_i > 0, so it is never optimal
    while lambda(v) > 0; every other one is a primitive chain, read off as
    x+ - x- and rescaled to {-1, 0, +1}.
    """
    vv = int_vec(v)
    if vertex is None:
        found, vertex = compute_lambda(vv, instance)
        if lam is not None and lam != found:
            raise InternalInvariantError(f"lambda mismatch: given {lam}, LP found {found}")
        lam = found
    elif lam is None:
        raise InvalidInputError("an LP vertex must come with its lambda")
    if lam <= 0:
        raise InvalidInputError("lambda(v) = 0: no improving vector exists")
    m = instance.m
    diff = [vertex[i] - vertex[m + i] for i in range(m)]
    scale = max(abs(d) for d in diff)
    if scale == 0:
        raise InternalInvariantError("optimal LP vertex rescaled to zero")
    coords = []
    for d in diff:
        q = d / scale
        if q not in (-1, 0, 1):
            raise InternalInvariantError(
                "optimal LP vertex is not a rescaled primitive chain"
            )
        coords.append(int(q))
    u = primitive_chain(coords, instance.lattice)
    if not _is_circuit(sorted(u.support), instance.lattice.matrix):
        raise InternalInvariantError(
            f"support of {u.coords} is not a circuit: rank M[:, supp] != |supp| - 1"
        )
    mean = Fraction(cost(vv, u, instance), len(u.support))
    if mean != -lam:
        raise InternalInvariantError(
            f"extracted vector has mean cost {mean}, expected {-lam}"
        )
    return u


def _is_circuit(columns: list[int], matrix: TUMatrix) -> bool:
    """rank M[:, columns] = |columns| - 1, i.e. a one-dimensional kernel."""
    sub = [[row[j] for j in columns] for row in matrix.entries]
    return len(simplex.eliminate(sub)[2]) == len(columns) - 1


# ---------------------------------------------------------------------------
# Step length and stopping data
# ---------------------------------------------------------------------------


def saturating_step(lam: Fraction, u: PrimitiveChain,
                    instance: CVPInstance) -> int:
    """Smallest integer step making the canceled chain nonnegative-cost.

    c(v + D u, u) = c(v, u) + 2 D sum_{supp u} g_i, so D >= lam p / (2 S)
    with p = |supp u| and S the support weight sum saturates u; the ceiling
    of that threshold is also an exact discrete line-search minimizer of
    w(v + D u).  It always exists, keeps the descent strict, and preserves
    the geometric decrease of lambda.
    """
    p = len(u.support)
    s = sum(instance.weights[i] for i in u.support)
    delta = math.ceil(Fraction(lam * p, 2 * s))
    return max(1, delta)


def stopping_data(instance: CVPInstance,
                  lam0: Fraction | None = None) -> StoppingData:
    """Integrality scale K, threshold delta, and a bug-detecting iteration cap.

    K is the lcm of the denominators of g_i and of 2 g_i t_i, so K times any
    cost is an integer; any positive lambda is then at least 1/(K m), and
    delta = 1/(2 K m) sits strictly below it.  The cap combines the
    geometric decrease of lambda (factor 1 - 1/(2m) every m - rank(M)
    iterations) with a safety margin; exact arithmetic stops at lambda = 0
    long before.  `lam0` is lambda at the origin, solved here if omitted.
    """
    m = instance.m
    K = 1
    for g, t in zip(instance.weights, instance.target):
        K = math.lcm(K, g.denominator, (2 * g * t).denominator)
    delta = Fraction(1, 2 * K * m)
    if lam0 is None:
        lam0, _ = compute_lambda((0,) * m, instance)
    blocks = 0
    ratio = lam0 * 2 * K * m  # lam0 / delta
    if ratio > 1:
        # (1 - 1/(2m))^(2m b) < e^-b, and ratio < 2^bits <= e^bits, so
        # 2m bits blocks bring lambda below delta
        bits = ratio.numerator.bit_length() - ratio.denominator.bit_length() + 1
        blocks = 2 * m * bits
    block_len = m - matrix_rank(instance.lattice.matrix)
    cap = max(1, block_len) * blocks + m + 16
    return StoppingData(K=K, delta=delta, iteration_cap=cap)


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


def solve_cvp(instance: CVPInstance) -> CVPSolution:
    """Walk from the origin to a closest lattice vector.

    Each iteration cancels a minimum mean strict Voronoi vector by the
    saturating line-search step and solves one lambda LP at the new point,
    warm-started from the previous one; that LP's vertex is the next chain.
    Every iteration strictly decreases the squared distance and never
    increases lambda; both are asserted.  The saturating step minimizes w
    along u as a whole, but on a heavy coordinate of u it can overshoot
    until stepping that coordinate back costs less than -lambda, and
    lambda rises (test_fallback_unit_step_regression).  A unit step never
    does that, so the step is then retried with length one, warm-started
    from the LP at v.

    At lambda = 0 the answer is certified by the duals y of the M rows of
    the last lambda LP, the one solved at the answer: dual feasibility
    reads c_i^- + opt <= (M^T y)_i <= c_i^+ - opt with opt >= 0, so
    dual_certificate_holds(v, y) must hold, and a failure is a bug.
    """
    m = instance.m
    warm = WarmStart()
    v: IntVec = (0,) * m
    dist = instance.distance_sq(v)
    lam, vertex = compute_lambda(v, instance, warm)
    sd = stopping_data(instance, lam)
    records: list[IterationRecord] = []
    while lam > 0:
        if len(records) >= sd.iteration_cap:
            raise InternalInvariantError(
                f"iteration cap {sd.iteration_cap} exceeded; lambda = {lam}"
            )
        if lam * sd.K * m < 1:
            # positive lambda below 1/(K m) contradicts K-integrality of costs
            raise InternalInvariantError(
                f"stopping-rule inconsistency: 0 < lambda = {lam} < 1/(K m)"
            )
        u = min_mean_voronoi_vector(v, instance, lam, vertex)
        fallback = False
        at_v = warm.result
        delta = saturating_step(lam, u, instance)
        v_next, dist_next, lam_next, vertex = _attempt(v, u, delta, instance, warm)
        if delta > 1 and (lam_next > lam or dist_next >= dist):
            delta = 1
            fallback = True
            warm.result = at_v
            v_next, dist_next, lam_next, vertex = _attempt(v, u, 1, instance, warm)
        if lam_next > lam:
            raise InternalInvariantError(
                f"lambda increased from {lam} to {lam_next} at unit step"
            )
        if dist_next >= dist:
            raise InternalInvariantError(
                f"squared distance failed to decrease ({dist} -> {dist_next})"
            )
        records.append(IterationRecord(
            index=len(records) + 1, v=v_next, lam=lam, u=u, step=delta,
            distance_sq=dist_next, step_fallback=fallback,
        ))
        v, dist, lam = v_next, dist_next, lam_next
    y = warm.result.duals[:instance.lattice.matrix.n]
    if not dual_certificate_holds(v, y, instance):
        raise InternalInvariantError(
            "lambda reached zero but the duals of its LP do not certify the answer"
        )
    return CVPSolution(closest=v, distance_sq=dist, trace=tuple(records),
                       certified=True)


def _attempt(v: IntVec, u: PrimitiveChain, delta: int, instance: CVPInstance,
             warm: WarmStart) -> tuple[IntVec, Fraction, Fraction, FracVec]:
    v_next = tuple(a + delta * b for a, b in zip(v, u.coords))
    dist_next = instance.distance_sq(v_next)
    lam_next, vertex = compute_lambda(v_next, instance, warm)
    return v_next, dist_next, lam_next, vertex
