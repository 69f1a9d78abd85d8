"""Minimum mean improvement solver for the weighted closest-vector problem.

Given a lattice L = ker M /\\ Z^m (M totally unimodular) with weights g and
a target t in the span of L, the solver minimizes the separable objective
w(v) = sum_i g_i (v_i - t_i)^2 over v in L.  Starting from the origin, or
from the closest lattice vector of the unit box around t when one box LP
shows that start to be better, it repeatedly cancels a strict Voronoi
vector of minimum mean cost until the progress measure lambda(v) hits zero
exactly, which happens if and only if v is a closest lattice vector.  The
duals of the last lambda LP then give a certificate of that, checked
before the answer is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    chain_signs,
    frac_vec,
    int_vec,
    matrix_rank,
    primitive_chain,
    project_onto_span,
)
from .errors import DimensionError, InternalInvariantError, InvalidInputError


@dataclass(frozen=True)
class CVPInstance:
    """A lattice plus a rational target already lying in its span.

    K, the lcm of the denominators of g_i and 2 g_i t_i, is the one integer
    scale of the solver: G = K g and H = 2 K g t are ints, and so is K times
    every derivative (see _scaled_slopes).  w0 is w(0) = sum_i g_i t_i^2.
    """

    lattice: ZonotopalLattice
    target: FracVec
    K: int = field(init=False, repr=False, compare=False)
    G: IntVec = field(init=False, repr=False, compare=False)
    H: IntVec = field(init=False, repr=False, compare=False)
    w0: Fraction = field(init=False, repr=False, compare=False)

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
        # g_i = p/q and t_i = a/b in lowest terms, so 2 g_i t_i = 2pa/(qb);
        # w(0) = sum_i H_i t_i / 2K, over the lcm L of the b's
        terms = [(g.numerator, g.denominator, t.numerator, t.denominator)
                 for g, t in zip(self.weights, self.target)]
        K = math.lcm(*(math.lcm(q, q * b // math.gcd(2 * p * a, q * b)) for p, q, a, b in terms))
        H = tuple(2 * K * p * a // (q * b) for p, q, a, b in terms)
        L = math.lcm(*(b for *_, b in terms))
        w0 = Fraction(sum(h * a * (L // b) for h, (_, _, a, b) in zip(H, terms)), 2 * K * L)
        for name, value in (("K", K), ("G", tuple(K // q * p for p, q, _, _ in terms)),
                            ("H", H), ("w0", w0)):
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.lattice.m

    @property
    def weights(self) -> FracVec:
        return self.lattice.weights

    def distance_sq(self, v: Sequence) -> Fraction:
        """w(v) = w(0) + (sum_i G_i v_i^2 - H_i v_i) / K for an integer v."""
        if len(v) != self.m:
            raise DimensionError(f"vector length {len(v)} != coordinate count {self.m}")
        s = sum(g * x * x - h * x for g, h, x in zip(self.G, self.H, v) if x)
        return self.w0 + Fraction(s, self.K)


def cvp_instance(lattice: ZonotopalLattice, target: Sequence,
                 project: bool = True) -> CVPInstance:
    """Build an instance, projecting the target onto the span by default."""
    t = project_onto_span(target, lattice) if project else frac_vec(target)
    return CVPInstance(lattice=lattice, target=t)


@dataclass(frozen=True)
class IterationRecord:
    """One step of solve_cvp.

    `u` is None for the box step, the jump from the origin straight to
    proximity_start's vertex `v` (then `step` is 1); every other record
    steps from the previous iterate to `v` = previous + step * u.
    """

    index: int
    v: IntVec                 # iterate after this step
    lam: Fraction             # lambda at the point the step left
    u: PrimitiveChain | None  # None for the box step
    step: int
    distance_sq: Fraction


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
    iteration_cap: int


# ---------------------------------------------------------------------------
# Discrete derivatives and costs
# ---------------------------------------------------------------------------


def _scaled_slopes(i: int, v_i: int, instance: CVPInstance) -> tuple[int, int]:
    """(K c_i^-(v_i), K c_i^+(v_i)) = G_i (2 v_i -/+ 1) - H_i, in ints."""
    g = instance.G[i]
    s = 2 * g * v_i - instance.H[i]
    return s - g, s + g


def right_derivative(i: int, v_i: int, instance: CVPInstance) -> Fraction:
    """c_i^+(v_i) = w_i(v_i + 1) - w_i(v_i) = g_i (2 (v_i - t_i) + 1)."""
    return Fraction(_scaled_slopes(i, v_i, instance)[1], instance.K)


def left_derivative(i: int, v_i: int, instance: CVPInstance) -> Fraction:
    """c_i^-(v_i) = w_i(v_i) - w_i(v_i - 1) = g_i (2 (v_i - t_i) - 1)."""
    return Fraction(_scaled_slopes(i, v_i, instance)[0], instance.K)


def dual_certificate_holds(v: Sequence, y: Sequence, instance: CVPInstance) -> bool:
    """c_i^-(v_i) <= (M^T y)_i <= c_i^+(v_i) for every i, exactly.

    Such a y proves v closest: every w_i(x) - (M^T y)_i x is a convex
    function of the integer x, minimized at v_i, and (M^T y).(u - v) =
    y.M(u - v) = 0 for every lattice vector u (Rockafellar, Network Flows
    and Monotropic Optimization, 1984).  This holds for any integer M.
    False when v is not an integer vector of length m or y does not have
    one int or Fraction entry per row of M; lattice membership of v is not
    checked.  With d the lcm of the denominators of y and Y = d y, the test
    runs in ints: d K c_i^- <= K (M^T Y)_i <= d K c_i^+.
    """
    rows = instance.lattice.matrix.entries
    if (len(y) != len(rows) or len(v) != instance.m or any(type(a) is not int for a in v)
            or any(type(a) not in (int, Fraction) for a in y)):
        return False
    d = math.lcm(*(a.denominator for a in y))
    mty = [0] * instance.m
    for Y, row in zip((a.numerator * (d // a.denominator) for a in y), rows):
        if Y:
            for i, e in enumerate(row):
                if e:
                    mty[i] += e * Y
    slopes = (_scaled_slopes(i, x, instance) for i, x in enumerate(v))
    return all(d * lo <= instance.K * a <= d * hi for a, (lo, hi) in zip(mty, slopes))


def cost(v: Sequence, u: PrimitiveChain, instance: CVPInstance) -> Fraction:
    """Exact change of w when stepping from v to v + u."""
    total = sum(_scaled_slopes(i, v[i], instance)[1] for i in u.positive_part)
    total -= sum(_scaled_slopes(i, v[i], instance)[0] for i in u.negative_part)
    return Fraction(total, instance.K)


# ---------------------------------------------------------------------------
# lambda(v) via an exact LP
# ---------------------------------------------------------------------------


def lambda_lp(v: Sequence, instance: CVPInstance) -> simplex.LPProblem:
    """LP whose optimum is -K lambda(v) whenever lambda(v) > 0.

    Variables are x+ then x- (m each), and the costs are K times the
    derivatives, so every datum is an int:
        min  sum_i K c_i^+(v_i) x_i^+ - K c_i^-(v_i) x_i^-
        s.t. M (x+ - x-) = 0,  sum_i (x_i^+ + x_i^-) = 1,  x+, x- >= 0.
    Its duals are K times those of the LP in the paper's units.
    """
    slopes = [_scaled_slopes(i, x, instance) for i, x in enumerate(v)]
    obj = tuple(hi for _, hi in slopes) + tuple(-lo for lo, _ in slopes)
    A, b, upper = _lambda_constraints(instance.lattice.matrix)
    return simplex.LPProblem(c=obj, A=A, b=b, upper=upper)


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _lambda_constraints(matrix: TUMatrix) -> tuple:
    """(A, b, upper) shared by every lambda LP over M: [M, -M; 1^T] x = (0, 1).

    One object per matrix also makes the warm start's same-constraints
    check an identity comparison.
    """
    rows = tuple(row + tuple(-e for e in row) for row in matrix.entries)
    rows += ((1,) * (2 * matrix.m),)
    return rows, (0,) * matrix.n + (1,), (None,) * (2 * matrix.m)


def compute_lambda(v: Sequence, instance: CVPInstance,
                   start: simplex.LPResult | None = None
                   ) -> tuple[Fraction, simplex.LPResult]:
    """lambda(v) = max(0, -optimum / (den K)) plus the optimal result of lambda_lp(v).

    Every lambda LP of an instance has the same constraints, so `start`,
    the result of an earlier call on the same instance, is a feasible
    start: phase 1 then runs once per instance (see simplex.solve_lp).
    """
    vv = int_vec(v)
    if not instance.lattice.contains(vv):
        raise InvalidInputError(f"{vv} is not a lattice member")
    res = simplex.solve_lp(lambda_lp(vv, instance), start)
    if res.status != simplex.OPTIMAL:
        raise InternalInvariantError(f"lambda LP reported {res.status}")
    return Fraction(max(0, -res.optimum), res.den * instance.K), res


def min_mean_voronoi_vector(v: Sequence, instance: CVPInstance,
                            lam: Fraction | None = None,
                            vertex: IntVec | None = None) -> PrimitiveChain:
    """Strict Voronoi vector of minimum mean cost, minimal support, at v.

    `vertex` is den times the basic optimal vertex of lambda_lp(v) that
    gave `lam` (an LPResult's vertex); both are computed here when the
    vertex is omitted.  A basic vertex of {[M, -M] x = 0, 1.x = 1, x >= 0}
    is a circuit of [M, -M] scaled to sum one.  The circuit {i+, i-} has
    mean cost g_i > 0, so it is never optimal while lambda(v) > 0; every
    other one is a primitive chain, read off as x+ - x- and rescaled to
    {-1, 0, +1}.
    """
    vv = int_vec(v)
    if vertex is None:
        found, res = compute_lambda(vv, instance)
        vertex = res.vertex
        if lam is not None and lam != found:
            raise InternalInvariantError(f"lambda mismatch: given {lam}, LP found {found}")
        lam = found
    elif lam is None:
        raise InvalidInputError("an LP vertex must come with its lambda")
    if lam <= 0:
        raise InvalidInputError("lambda(v) = 0: no improving vector exists")
    m = instance.m
    u = primitive_chain(chain_signs([vertex[i] - vertex[m + i] for i in range(m)]),
                        instance.lattice)
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
    """Integer step D = min(ceil(lam p / 2S), 1 + floor(lam / g_max)) along u.

    p = |supp u|, S is the weight sum and g_max the largest weight on
    supp u.  Both terms are at least 1 when lam > 0.  The step keeps the
    cycle-canceling invariant (Goldberg & Tarjan, JACM 1989; Karzanov &
    McCormick, SIAM J. Comput. 1997):

    - The duals y of the lambda LP at v, with bound -lam on the sum row,
      price every arc of u at exactly -lam (complementary slackness).
    - At v + D u the forward arc of i in supp u costs 2 D g_i more, and
      its reverse arc costs lam - 2 (D - 1) g_i >= -lam against y; arcs
      off supp u do not change.  So y stays feasible with bound -lam,
      the LP optimum at v + D u is at least -lam, and lambda cannot rise.
    - c(v + D u, u) = c(v, u) + 2 D S, so w(v + D u) - w(v) =
      D (-lam p + (D - 1) S), negative because D - 1 < lam p / 2S: the
      squared distance falls strictly.

    The first term alone would saturate u, the exact line-search minimizer
    of w along u; the cap can make the step shorter.  No bound on how fast
    lambda falls is proven for this rule.
    """
    p = len(u.support)
    s = sum(instance.weights[i] for i in u.support)
    g_max = max(instance.weights[i] for i in u.support)
    return min(math.ceil(Fraction(lam * p, 2 * s)), 1 + math.floor(lam / g_max))


def stopping_data(instance: CVPInstance,
                  lam0: Fraction | None = None) -> StoppingData:
    """A bug-detecting iteration cap.

    K times any cost is an integer (see CVPInstance), so any positive
    lambda is at least 1/(K m), and delta = 1/(2 K m) sits strictly below
    it.  The cap assumes a geometric decrease of lambda (factor 1 - 1/(2m)
    every m - rank(M) iterations) from lam0 down to delta and adds a
    safety margin.  That decrease is not proven for the step of
    saturating_step; acceptance criterion 7 tests it on a seeded corpus,
    and a walk past the cap raises.  `lam0` is lambda at the origin,
    solved here if omitted.

    The proven bound is only pseudo-polynomial.  With w(v) = |v - t|_g^2,
    K (w(v) - w(v')) = sum_i G_i (v_i^2 - v'_i^2) - H_i (v_i - v'_i) is an
    int for integer v and v', and each step lowers w strictly, so by a
    positive multiple of 1/K: a walk from s takes at most K w(s) steps.
    After a box step w(v0) < sum_i g_i, as |v0_i - t_i| < 1.  The cap
    above does not use it.
    """
    m = instance.m
    if lam0 is None:
        lam0, _ = compute_lambda((0,) * m, instance)
    blocks = 0
    ratio = lam0 * 2 * instance.K * m  # lam0 / delta
    if ratio > 1:
        # (1 - 1/(2m))^(2m b) < e^-b, and ratio < 2^bits <= e^bits, so
        # 2m bits blocks bring lambda below delta
        bits = ratio.numerator.bit_length() - ratio.denominator.bit_length() + 1
        blocks = 2 * m * bits
    block_len = m - matrix_rank(instance.lattice.matrix)
    cap = max(1, block_len) * blocks + m + 16
    return StoppingData(iteration_cap=cap)


# ---------------------------------------------------------------------------
# Proximity start
# ---------------------------------------------------------------------------


def proximity_start(instance: CVPInstance) -> IntVec:
    """The closest lattice vector in the unit box [floor t, ceil t], by one LP.

    F is the set of coordinates with a non-integer t_i; off F the box fixes
    v_i = t_i.  With v = floor(t) + z the lattice vectors of the box are
    the integer points of {z : M[:, F] z = -M floor(t), 0 <= z <= 1}, a
    polytope that holds t - floor(t) (M t = 0) and whose vertices are
    integral when M is totally unimodular.  On {floor t_j, ceil t_j} the
    term w_j is linear with slope c_j = right_derivative(j, floor t_j), so
    w(floor t + z) = w(floor t) + c.z at every such vertex and the LP
    min K c.z, in ints, gives the closest lattice vector of the box
    (Hochbaum & Shanthikumar, J. ACM 1990, put a closest vector near t).
    An integral t is returned as it is.  A vertex that is not integral or not in the
    lattice raises InternalInvariantError: M is then not TU.
    """
    t = instance.target
    base = [math.floor(x) for x in t]
    free = [j for j, x in enumerate(t) if x.denominator != 1]
    if free:
        rows = instance.lattice.matrix.entries
        res = simplex.solve_lp(simplex.LPProblem(
            c=tuple(_scaled_slopes(j, base[j], instance)[1] for j in free),
            A=tuple(tuple(row[j] for j in free) for row in rows),
            b=tuple(-sum(e * x for e, x in zip(row, base) if e) for row in rows),
            upper=(1,) * len(free),
        ))
        if res.status != simplex.OPTIMAL:
            raise InternalInvariantError(f"box LP reported {res.status}")
        for j, z in zip(free, res.vertex):
            if z not in (0, res.den):
                raise InternalInvariantError(f"box LP vertex has entry {z}/{res.den}")
            base[j] += z // res.den
    v0 = tuple(base)
    if not instance.lattice.contains(v0):
        raise InternalInvariantError("box LP vertex is not a lattice vector")
    return v0


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


def solve_cvp(instance: CVPInstance) -> CVPSolution:
    """Walk to a closest lattice vector, from the origin or from the box.

    The cold lambda LP is solved at the origin.  When lambda(0) >= g_max,
    the largest weight, and proximity_start's vertex v0 is strictly closer
    than the origin, one box step jumps to v0 (recorded with u = None and
    lam = lambda(0)); otherwise the walk starts at the origin.  The box
    step keeps lambda from rising: at a point of the box |v_i - t_i| < 1,
    so every arc costs more than -g_i (c_i^+ = g_i (2 (v_i - t_i) + 1) and
    -c_i^- = g_i (1 - 2 (v_i - t_i))), every chain's mean cost exceeds
    -g_max, and lambda(v0) < g_max <= lambda(0).

    Each iteration then cancels a minimum mean strict Voronoi vector by
    the step of saturating_step and solves one lambda LP at the new point,
    warm-started from the previous one (the LP at v0 from the origin's);
    that LP's vertex is the next chain.  saturating_step proves that every
    step strictly decreases the squared distance and never increases
    lambda; both are asserted for every record, the box step included.

    At lambda = 0 the answer is certified by the duals y of the M rows of
    the last lambda LP, the one solved at the answer, over K: dual
    feasibility reads c_i^- + opt <= (M^T y)_i <= c_i^+ - opt with opt >= 0,
    so dual_certificate_holds(v, y) must hold, and a failure is a bug.
    """
    m = instance.m
    v: IntVec = (0,) * m
    dist = instance.distance_sq(v)
    lam, res = compute_lambda(v, instance)
    sd = stopping_data(instance, lam)
    records: list[IterationRecord] = []
    if lam >= max(instance.weights):
        v_next = proximity_start(instance)
        dist_next = instance.distance_sq(v_next)
        if dist_next < dist:
            lam_next, res = compute_lambda(v_next, instance, res)
            if lam_next >= lam:
                raise InternalInvariantError(
                    f"box step left lambda at {lam_next} >= lambda(0) = {lam}"
                )
            records.append(IterationRecord(
                index=1, v=v_next, lam=lam, u=None, step=1, distance_sq=dist_next,
            ))
            v, dist, lam = v_next, dist_next, lam_next
    while lam > 0:
        if len(records) >= sd.iteration_cap:
            raise InternalInvariantError(
                f"iteration cap {sd.iteration_cap} exceeded; lambda = {lam}"
            )
        if lam * instance.K * m < 1:
            # positive lambda below 1/(K m) contradicts K-integrality of costs
            raise InternalInvariantError(
                f"stopping-rule inconsistency: 0 < lambda = {lam} < 1/(K m)"
            )
        u = min_mean_voronoi_vector(v, instance, lam, res.vertex)
        delta = saturating_step(lam, u, instance)
        v_next = tuple(a + delta * b for a, b in zip(v, u.coords))
        dist_next = instance.distance_sq(v_next)
        lam_next, res = compute_lambda(v_next, instance, res)
        if lam_next > lam:
            raise InternalInvariantError(
                f"lambda increased from {lam} to {lam_next} at step {delta}"
            )
        if dist_next >= dist:
            raise InternalInvariantError(
                f"squared distance failed to decrease ({dist} -> {dist_next})"
            )
        records.append(IterationRecord(
            index=len(records) + 1, v=v_next, lam=lam, u=u, step=delta,
            distance_sq=dist_next,
        ))
        v, dist, lam = v_next, dist_next, lam_next
    y = tuple(Fraction(d, res.den * instance.K) for d in res.duals[:instance.lattice.matrix.n])
    if not dual_certificate_holds(v, y, instance):
        raise InternalInvariantError(
            "lambda reached zero but the duals of its LP do not certify the answer"
        )
    return CVPSolution(closest=v, distance_sq=dist, trace=tuple(records),
                       certified=True)
