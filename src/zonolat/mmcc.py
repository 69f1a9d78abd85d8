"""Minimum mean improvement solver for the weighted closest-vector problem.

Given a lattice L = ker M /\\ Z^m (M totally unimodular) with weights g and
a target t in the span of L, the solver minimizes the separable objective
w(v) = sum_i g_i (v_i - t_i)^2 over v in L.  Starting from the origin, or
from the closest lattice vector of the unit box around t when one box LP
shows that start to be better, it repeatedly cancels a strict Voronoi
vector of minimum mean cost until the progress measure lambda(v) hits zero
exactly, which happens if and only if v is a closest lattice vector.  The
duals of the last LP, the box LP's when they already prove lambda(v) = 0
at the box vertex and else the last lambda LP's, then give a certificate
of that, checked before the answer is returned.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import simplex
from .core import (
    FracVec,
    IntVec,
    PrimitiveChain,
    TUMatrix,
    ZonotopalLattice,
    _is_integer,
    _is_vector_of,
    _vector,
    chain_signs,
    frac_vec,
    int_vec,
    integral_multiple,
    primitive_chain,
    project_onto_span,
)
from .errors import InternalInvariantError, InvalidInputError


@dataclass(frozen=True)
class CVPInstance:
    """A lattice plus a rational target already lying in its span.

    K, the lcm of the denominators of g_i and 2 g_i t_i, is the one integer
    scale of the solver: G = K g and H = 2 K g t are ints, and so is K times
    every derivative (see _scaled_slopes).  w0 is w(0) = sum_i g_i t_i^2.
    lambda_rows is (A, b, upper) of [M, -M; 1^T] x = (0, 1), shared by
    every lambda LP of the instance, so the warm start's same-constraints
    check is an identity comparison.
    """

    lattice: ZonotopalLattice
    target: FracVec
    K: int = field(init=False, repr=False, compare=False)
    G: IntVec = field(init=False, repr=False, compare=False)
    H: IntVec = field(init=False, repr=False, compare=False)
    w0: Fraction = field(init=False, repr=False, compare=False)
    lambda_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "target", frac_vec(_vector(self.target, self.lattice.m, "target")))
        if self.lattice.m < 1:
            raise InvalidInputError("the lattice needs at least one coordinate")
        # g_i = p/q and t_i = a/b in lowest terms, so 2 g_i t_i = 2pa/(qb);
        # with L the lcm of the b's, T = L t is an int vector, M t = 0 iff
        # M T = 0, and w(0) = sum_i H_i t_i / 2K = (H . T) / 2KL
        terms = [(g.numerator, g.denominator, t.numerator, t.denominator)
                 for g, t in zip(self.weights, self.target)]
        T, L = integral_multiple(self.target)
        M = self.lattice.matrix
        if any(M.apply(T)):
            raise InvalidInputError(
                "target is not in the span of the lattice; project it first"
            )
        K = math.lcm(*(math.lcm(q, q * b // math.gcd(2 * p * a, q * b)) for p, q, a, b in terms))
        H = tuple(2 * K * p * a // (q * b) for p, q, a, b in terms)
        w0 = Fraction(sum(map(operator.mul, H, T)), 2 * K * L)
        rows = (tuple(row + tuple(map(operator.neg, row)) for row in M.entries)
                + ((1,) * (2 * M.m),))
        lambda_rows = (rows, (0,) * M.n + (1,), (None,) * (2 * M.m))
        for name, value in (("K", K), ("G", tuple(K // q * p for p, q, _, _ in terms)),
                            ("H", H), ("w0", w0), ("lambda_rows", lambda_rows)):
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.lattice.m

    @property
    def weights(self) -> FracVec:
        return self.lattice.weights

    def distance_sq(self, v: Sequence) -> Fraction:
        """w(v) = w(0) + (sum_i G_i v_i^2 - H_i v_i) / K for an integer v of m entries."""
        v = _vector(v, self.m, "vector")
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
    False when v is not a list or tuple of m entries (`_vector`), each an
    int or an integral Fraction, or y not one of an int or a Fraction per
    row of M; lattice membership of v is not checked.  With d the lcm of
    the denominators of y and Y = d y, the test runs in ints:
    d K c_i^- <= K (M^T Y)_i <= d K c_i^+.
    """
    rows = instance.lattice.matrix.entries
    if not (_is_vector_of(v, instance.m, _is_integer)
            and _is_vector_of(y, len(rows), lambda a: type(a) in (int, Fraction))):
        return False
    v = tuple(map(int, v))
    dy, d = integral_multiple(y)
    mty = [sum(Y * row[i] for Y, row in zip(dy, rows) if Y) for i in range(instance.m)]
    slopes = (_scaled_slopes(i, x, instance) for i, x in enumerate(v))
    return all(d * lo <= instance.K * a <= d * hi for a, (lo, hi) in zip(mty, slopes))


def _scaled_cost(v: Sequence, u: PrimitiveChain, instance: CVPInstance) -> int:
    """K cost(v, u), an int."""
    return (sum(_scaled_slopes(i, v[i], instance)[1] for i in u.positive_part)
            - sum(_scaled_slopes(i, v[i], instance)[0] for i in u.negative_part))


def cost(v: Sequence, u: PrimitiveChain, instance: CVPInstance) -> Fraction:
    """Exact change of w when stepping from v to v + u."""
    return Fraction(_scaled_cost(v, u, instance), instance.K)


# ---------------------------------------------------------------------------
# lambda(v) via an exact LP
# ---------------------------------------------------------------------------


def lambda_lp(v: Sequence, instance: CVPInstance) -> simplex.LPProblem:
    """LP whose optimum is -K lambda(v) whenever lambda(v) > 0.

    Variables are x+ then x- (m each), and the costs are K times the
    derivatives, so every datum is an int:
        min  sum_i K c_i^+(v_i) x_i^+ - K c_i^-(v_i) x_i^-
        s.t. M (x+ - x-) = 0,  sum_i (x_i^+ + x_i^-) = 1,  x+, x- >= 0.
    Its duals are K times those of the LP in the paper's units.  For any
    integer M it is feasible, at x_i^+ = x_i^- = 1/2, and bounded, since
    sum x = 1, so solve_lp returns its optimum.
    """
    slopes = [_scaled_slopes(i, x, instance) for i, x in enumerate(v)]
    obj = tuple(hi for _, hi in slopes) + tuple(-lo for lo, _ in slopes)
    A, b, upper = instance.lambda_rows
    return simplex.LPProblem(c=obj, A=A, b=b, upper=upper)


def compute_lambda(v: Sequence, instance: CVPInstance,
                   start: simplex.LPResult | None = None
                   ) -> tuple[Fraction, simplex.LPResult]:
    """lambda(v) = max(0, -optimum / (den K)) plus the optimal result of lambda_lp(v).

    Every lambda LP of an instance has the same constraints, so `start`,
    the result of an earlier call on the same instance, is a feasible
    start: phase 1 then runs once per instance (see simplex.solve_lp).  v
    is a lattice vector of m entries, by `_vector` and then `int_vec`.
    """
    vv = int_vec(_vector(v, instance.m, "vector"))
    if not instance.lattice.contains(vv):
        raise InvalidInputError(f"{vv} is not a lattice member")
    res = simplex.solve_lp(lambda_lp(vv, instance), start)
    return Fraction(max(0, -res.optimum), res.den * instance.K), res


def min_mean_voronoi_vector(v: Sequence, instance: CVPInstance,
                            res: simplex.LPResult) -> PrimitiveChain:
    """Strict Voronoi vector of minimum mean cost, minimal support, at v.

    `res` is the LPResult of compute_lambda(v); lambda(v) > 0 iff its
    optimum is negative.  A basic vertex of {[M, -M] x = 0, 1.x = 1,
    x >= 0} is a circuit of [M, -M] scaled to sum one.  The circuit {i+, i-} has mean cost g_i > 0, so it is never
    optimal while lambda(v) > 0; every other one is a primitive chain,
    read off as x+ - x- and rescaled to {-1, 0, +1}.  Its mean cost must
    be the optimum, -lambda(v): K cost / p == optimum / den, in ints.
    """
    vv = int_vec(v)
    if res.optimum >= 0:
        raise InvalidInputError("lambda(v) = 0: no improving vector exists")
    x, m = res.vertex, instance.m
    u = primitive_chain(chain_signs([x[i] - x[m + i] for i in range(m)]), instance.lattice)
    if not _is_circuit(sorted(u.support), instance.lattice.matrix):
        raise InternalInvariantError(
            f"support of {u.coords} is not a circuit: rank M[:, supp] != |supp| - 1"
        )
    total, p = _scaled_cost(vv, u, instance), len(u.support)
    if total * res.den != res.optimum * p:
        raise InternalInvariantError(
            f"extracted vector has mean cost {Fraction(total, instance.K * p)}, "
            f"expected {Fraction(res.optimum, res.den * instance.K)}"
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


def stopping_data(instance: CVPInstance) -> int:
    """The proven iteration cap floor(K w(0)).

    K (w(v) - w(v')) = sum_i G_i (v_i^2 - v'_i^2) - H_i (v_i - v'_i) is an
    int for integer v and v'.  Every step, the box step included, lowers w
    strictly, so by at least 1/K.  lambda(v) > 0 means some lattice vector
    v* is closer than v, so K w(v) >= K (w(v) - w(v*)) >= 1.  After j steps
    with lambda still positive, 1 <= K w(v) <= K w(0) - j, so j < floor(K
    w(0)): len(records) < cap at every pass of a correct walk, and
    solve_cvp asserts it.  The bound is pseudo-polynomial; no polynomial
    one is proven for the step of saturating_step, and acceptance
    criterion 7 tests a geometric decrease of lambda on a seeded corpus.
    """
    return math.floor(instance.K * instance.w0)


# ---------------------------------------------------------------------------
# Proximity start
# ---------------------------------------------------------------------------


def proximity_start(instance: CVPInstance) -> tuple[IntVec, tuple[Fraction, ...]]:
    """The closest lattice vector v0 in the unit box [floor t, ceil t], by
    one LP, and that LP's duals y, one per row of M.

    F is the set of coordinates with a non-integer t_i; off F the box fixes
    v_i = t_i.  With v = floor(t) + z the lattice vectors of the box are
    the integer points of {z : M[:, F] z = -M floor(t), 0 <= z <= 1}, a
    polytope that holds t - floor(t) (M t = 0) and whose vertices are
    integral when M is totally unimodular.  On {floor t_j, ceil t_j} the
    term w_j is linear with slope c_j = right_derivative(j, floor t_j), so
    w(floor t + z) = w(floor t) + c.z at every such vertex and the LP
    min K c.z, in ints, gives the closest lattice vector of the box
    (Hochbaum & Shanthikumar, J. ACM 1990, put a closest vector near t).
    Its costs are K c^+, so its duals over K are in the units of
    dual_certificate_holds, which solve_cvp tries them with.  An integral t
    is returned as it is, with y = 0: c_i^-(t_i) = -g_i <= 0 <= g_i =
    c_i^+(t_i).  The LP is feasible and bounded for any integer M, so
    solve_lp returns its optimum.  A vertex that is not integral raises
    InternalInvariantError: M is then not TU.  An integral one is a lattice
    vector, since solve_lp checks M[:, F] z = -M floor(t) exactly.
    """
    t = instance.target
    base = [math.floor(x) for x in t]
    free = [j for j, x in enumerate(t) if x.denominator != 1]
    rows = instance.lattice.matrix.entries
    y: tuple[Fraction, ...] = (Fraction(0),) * len(rows)
    if free:
        res = simplex.solve_lp(simplex.LPProblem(
            c=tuple(_scaled_slopes(j, base[j], instance)[1] for j in free),
            A=tuple(tuple(row[j] for j in free) for row in rows),
            b=tuple(map(operator.neg, instance.lattice.matrix.apply(base))),
            upper=(1,) * len(free),
        ))
        for j, z in zip(free, res.vertex):
            if z not in (0, res.den):
                raise InternalInvariantError(f"box LP vertex has entry {z}/{res.den}")
            base[j] += z // res.den
        y = _row_duals(res, instance)
    return tuple(base), y


def _row_duals(res: simplex.LPResult, instance: CVPInstance) -> tuple[Fraction, ...]:
    """The duals of the M rows of a box or lambda LP, whose costs are K
    times derivatives, over den K: a candidate y of dual_certificate_holds."""
    d = res.den * instance.K
    return tuple(Fraction(a, d) for a in res.duals[:instance.lattice.matrix.n])


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


def solve_cvp(instance: CVPInstance) -> CVPSolution:
    """Walk to a closest lattice vector, from the origin or from the box.

    The cold lambda LP is solved at the origin.  On the first pass, when
    lambda(0) >= g_max, the largest weight, the step is the box step to
    proximity_start's vertex v0 (recorded with u = None and step 1) if v0
    is strictly closer than the origin.  The box step lowers lambda
    strictly: at a point of the box |v_i - t_i| < 1, so every arc costs
    more than -g_i (c_i^+ = g_i (2 (v_i - t_i) + 1) and -c_i^- = g_i (1 -
    2 (v_i - t_i))), every chain's mean cost exceeds -g_max, and
    lambda(v0) < g_max <= lambda(0).  When the box LP's duals y pass
    dual_certificate_holds(v0, y), lambda(v0) = 0 is proven, no LP is
    solved at v0 and the walk ends there.

    Every other step cancels a minimum mean strict Voronoi vector, read off
    the vertex of the last lambda LP, by the step of saturating_step, which
    proves that the squared distance falls strictly and lambda does not
    rise.  After every step but a certified box step one lambda LP is
    solved at the new point, warm-started from the previous one, and both
    facts are asserted.

    At lambda = 0 the answer is certified by the duals y of the M rows of
    the last LP over K.  For a lambda LP, the one solved at the answer,
    dual feasibility reads c_i^- + opt <= (M^T y)_i <= c_i^+ - opt with opt
    >= 0; a box LP's y was tried before it was kept.  So
    dual_certificate_holds(v, y) must hold, and a failure is a bug.
    """
    m = instance.m
    v: IntVec = (0,) * m
    dist = instance.distance_sq(v)
    lam, res = compute_lambda(v, instance)
    y = _row_duals(res, instance)
    cap = stopping_data(instance)
    records: list[IterationRecord] = []
    box = lam >= max(instance.weights)
    while lam > 0:
        if len(records) >= cap:
            raise InternalInvariantError(f"iteration cap {cap} exceeded; lambda = {lam}")
        if lam * instance.K * m < 1:
            # positive lambda below 1/(K m) contradicts K-integrality of costs
            raise InternalInvariantError(
                f"stopping-rule inconsistency: 0 < lambda = {lam} < 1/(K m)"
            )
        if box and instance.distance_sq((start := proximity_start(instance))[0]) < dist:
            (v_next, y), u, delta, kind = start, None, 1, "the box step"
        else:
            u = min_mean_voronoi_vector(v, instance, res)
            delta = saturating_step(lam, u, instance)
            v_next = tuple(a + delta * b for a, b in zip(v, u.coords))
            kind = f"step {delta}"
        box = False
        dist_next = instance.distance_sq(v_next)
        if u is None and dual_certificate_holds(v_next, y, instance):
            lam_next = Fraction(0)  # the box LP's duals prove lambda(v0) = 0
        else:
            lam_next, res = compute_lambda(v_next, instance, res)
            y = _row_duals(res, instance)
        if lam_next > lam or (u is None and lam_next == lam):
            raise InternalInvariantError(
                f"lambda went from {lam} to {lam_next} at {kind}"
            )
        if dist_next >= dist:
            raise InternalInvariantError(
                f"squared distance failed to decrease ({dist} -> {dist_next}) at {kind}"
            )
        records.append(IterationRecord(v=v_next, lam=lam, u=u, step=delta,
                                       distance_sq=dist_next))
        v, dist, lam = v_next, dist_next, lam_next
    if not dual_certificate_holds(v, y, instance):
        raise InternalInvariantError(
            "lambda reached zero but the duals of the last LP do not certify the answer"
        )
    return CVPSolution(closest=v, distance_sq=dist, trace=tuple(records),
                       certified=True)
