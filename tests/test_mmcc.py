"""Solver machinery: derivatives, costs, lambda, chain extraction, steps, main loop."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from conftest import (
    DEN_TWO_M,
    NON_TU_M,
    a2,
    box_certified_solves,
    check_box_certified_closest,
    corpus_small,
    random_arcs,
)
from zonolat import (
    DimensionError,
    InternalInvariantError,
    InvalidInputError,
    ZonotopalLattice,
    brute_force_cvp,
    certify_closest,
    cographic_lattice,
    compute_lambda,
    conformal_decompose,
    cost,
    cvp_instance,
    digraph,
    dual_certificate_holds,
    enumerate_primitive_chains,
    graphic_lattice,
    kernel_basis,
    min_mean_voronoi_vector,
    mmcc,
    primitive_chain,
    project_onto_span,
    proximity_start,
    saturating_step,
    simplex,
    solve_cvp,
    stopping_data,
    tensor_lattice,
    tu_matrix,
)
from zonolat.core import int_vec
from zonolat.mmcc import (
    CVPInstance,
    IterationRecord,
    _is_circuit,
    lambda_lp,
    left_derivative,
    right_derivative,
)

A2_TARGET = (F(7, 10), F(-1, 5), F(-1, 2))


def a2_instance():
    return cvp_instance(a2(), A2_TARGET, project=False)


def test_right_derivative_examples():
    one = cvp_instance(a2(), (0, 0, 0), project=False)
    assert right_derivative(0, 0, one) == 1
    inst = a2_instance()
    assert right_derivative(0, 0, inst) == F(-2, 5)
    assert right_derivative(0, 1, inst) == F(8, 5)


def test_left_derivative_examples():
    one = cvp_instance(a2(), (0, 0, 0), project=False)
    assert left_derivative(0, 0, one) == -1
    inst = a2_instance()
    assert left_derivative(2, 0, inst) == 0  # t_2 = -1/2
    for i in range(3):
        for v in (-2, -1, 0, 1, 3):
            assert left_derivative(i, v, inst) == right_derivative(i, v - 1, inst)


def test_cost_examples():
    lat = a2()
    origin = cvp_instance(lat, (0, 0, 0), project=False)
    for u in enumerate_primitive_chains(lat):
        assert cost((0, 0, 0), u, origin) == lat.norm_sq(u.coords)
    inst = a2_instance()
    u1 = primitive_chain((1, 0, -1), lat)
    assert cost((0, 0, 0), u1, inst) == F(-2, 5)
    u2 = primitive_chain((0, -1, 1), lat)
    assert cost((1, 0, -1), u2, inst) == F(3, 5)


def test_cost_identity_random():
    rng = random.Random(7)
    for lat in corpus_small():
        chains = enumerate_primitive_chains(lat)
        if not chains:
            continue
        basis = kernel_basis(lat.matrix)
        inst = cvp_instance(
            lat,
            [F(rng.randint(-15, 15), rng.randint(1, 6)) for _ in range(lat.m)],
            project=True,
        )
        for _ in range(20):
            v = [0] * lat.m
            for b in basis:
                a = rng.randint(-3, 3)
                for i in range(lat.m):
                    v[i] += a * b[i]
            u = rng.choice(chains)
            vu = [a + b for a, b in zip(v, u.coords)]
            assert inst.distance_sq(vu) - inst.distance_sq(v) == cost(v, u, inst)


def test_integer_scale_matches_rational_formulas():
    # the instance's ints K, G, H against the paper's rational formulas,
    # over random weights, targets and integer points
    rng = random.Random(11)
    checked = 0
    for base in corpus_small():
        chains = enumerate_primitive_chains(base)
        for _ in range(4):
            g = [F(rng.randint(1, 40), rng.randint(1, 12)) for _ in range(base.m)]
            lat = type(base)(matrix=base.matrix, weights=g)
            inst = cvp_instance(
                lat, [F(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(lat.m)],
                project=True,
            )
            t = inst.target
            assert inst.K == math.lcm(*(x.denominator for x in g),
                                      *((2 * gi * ti).denominator for gi, ti in zip(g, t)))
            for _ in range(5):
                v = [rng.randint(-9, 9) for _ in range(lat.m)]
                assert inst.distance_sq(v) == sum(gi * (vi - ti) ** 2
                                                  for gi, vi, ti in zip(g, v, t))
                for i in range(lat.m):
                    assert right_derivative(i, v[i], inst) == g[i] * (2 * (v[i] - t[i]) + 1)
                    assert left_derivative(i, v[i], inst) == g[i] * (2 * (v[i] - t[i]) - 1)
                for u in chains[:6]:
                    vu = [a + b for a, b in zip(v, u.coords)]
                    assert cost(v, u, inst) == sum(
                        gi * ((a - ti) ** 2 - (b - ti) ** 2) for gi, a, b, ti in zip(g, vu, v, t))
                checked += 1
    assert checked > 50


def test_compute_lambda_examples():
    inst = a2_instance()
    lam0, _ = compute_lambda((0, 0, 0), inst)
    assert lam0 == F(1, 5)
    lam1, _ = compute_lambda((1, 0, -1), inst)
    assert lam1 == 0
    # the six chain costs at (1, 0, -1), cross-checked against cost()
    costs = sorted(cost((1, 0, -1), u, inst)
                   for u in enumerate_primitive_chains(inst.lattice))
    assert costs == sorted([F(18, 5), F(2, 5), F(11, 5), F(9, 5), F(17, 5), F(3, 5)])
    member = cvp_instance(a2(), (2, -1, -1), project=False)
    lam, _ = compute_lambda((2, -1, -1), member)
    assert lam == 0


def test_lambda_matches_enumeration_everywhere():
    rng = random.Random(31)
    for lat in corpus_small():
        chains = enumerate_primitive_chains(lat)
        inst = cvp_instance(
            lat,
            [F(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(lat.m)],
            project=True,
        )
        basis = kernel_basis(lat.matrix)
        for _ in range(6):
            v = [0] * lat.m
            for b in basis:
                a = rng.randint(-2, 2)
                for i in range(lat.m):
                    v[i] += a * b[i]
            lam, _ = compute_lambda(v, inst)
            if chains:
                best = min(F(cost(v, u, inst), len(u.support)) for u in chains)
                assert lam == max(F(0), -best)
            else:
                assert lam == 0


def test_min_mean_vector_a2():
    inst = a2_instance()
    u = min_mean_voronoi_vector((0, 0, 0), inst, compute_lambda((0, 0, 0), inst)[1])
    assert u.coords == (1, 0, -1)


def test_min_mean_requires_positive_lambda():
    inst = cvp_instance(a2(), (2, -1, -1), project=False)
    with pytest.raises(InvalidInputError):
        min_mean_voronoi_vector((2, -1, -1), inst, compute_lambda((2, -1, -1), inst)[1])


def test_min_mean_not_callable_on_boundary_tie():
    # t equidistant from 0 and (1, -1, 0): the best mean cost is exactly 0,
    # so lambda(0) = 0 and no improving vector exists
    inst = cvp_instance(a2(), (F(1, 2), F(-1, 2), 0), project=False)
    lam, res = compute_lambda((0, 0, 0), inst)
    assert lam == 0
    with pytest.raises(InvalidInputError):
        min_mean_voronoi_vector((0, 0, 0), inst, res)


def test_min_mean_tie_is_deterministic_minimizer():
    # two chains tie at mean cost -1/8; extraction must return one of them,
    # deterministically, and it must attain the minimum
    inst = cvp_instance(a2(), (F(3, 4), F(-3, 8), F(-3, 8)), project=False)
    lam, _ = compute_lambda((0, 0, 0), inst)
    assert lam == F(1, 8)
    chains = enumerate_primitive_chains(inst.lattice)
    best = min(F(cost((0, 0, 0), u, inst), len(u.support)) for u in chains)
    assert best == F(-1, 8)
    picks = {min_mean_voronoi_vector((0, 0, 0), inst, compute_lambda((0, 0, 0), inst)[1]).coords
             for _ in range(3)}
    assert len(picks) == 1
    u = primitive_chain(picks.pop(), inst.lattice)
    assert F(cost((0, 0, 0), u, inst), len(u.support)) == best


def test_stopping_data_k_values():
    integer = cvp_instance(a2(), (2, -1, -1), project=False)
    assert integer.K == 1
    halves = cvp_instance(a2((F(1, 2), F(1, 2), F(1, 2))), (2, -1, -1),
                          project=False)
    assert halves.K == 2
    # K is the lcm of the denominators of g_i and of 2 g_i t_i:
    # here 2 t = (7/5, -2/5, -1) and g = 1, so K = 5
    inst = a2_instance()
    assert inst.K == 5
    assert (inst.G, inst.H) == ((5, 5, 5), (7, -2, -5))
    assert stopping_data(inst) > 0


def test_iteration_cap_is_floor_k_w0():
    # K = 5 and w(0) = 49/100 + 4/100 + 25/100 = 39/50, so K w(0) = 3.9
    inst = a2_instance()
    assert (inst.K, inst.w0) == (5, F(39, 50))
    assert stopping_data(inst) == 3


def test_solve_cvp_worked_a2():
    sol = solve_cvp(a2_instance())
    assert sol.closest == (1, 0, -1)
    assert sol.distance_sq == F(19, 50)
    assert sol.iterations == 1
    assert sol.trace[0].lam == F(1, 5)
    assert sol.trace[0].u.coords == (1, 0, -1)
    assert sol.trace[0].step == 1
    assert sol.lambda_trace() == (F(1, 5), F(0))
    assert sol.certified


def test_solve_cvp_lattice_point_target():
    inst = cvp_instance(a2(), (2, -1, -1), project=False)
    sol = solve_cvp(inst)
    assert sol.closest == (2, -1, -1)
    assert sol.distance_sq == 0


def test_solve_cvp_k22_rounding():
    lat = tensor_lattice(1, 1)
    u0 = (1, -1, -1, 1)
    inst = cvp_instance(lat, [F(6, 5) * c for c in u0], project=False)
    sol = solve_cvp(inst)
    assert sol.closest == u0
    assert sol.distance_sq == F(4, 25)
    assert brute_force_cvp(inst) == u0


def test_solve_cvp_rank_zero():
    lat = ZonotopalLattice(matrix=tu_matrix([[1, 0], [0, 1]]), weights=(1, 1))
    sol = solve_cvp(cvp_instance(lat, (F(1, 3), F(2, 7)), project=True))
    assert sol.closest == (0, 0)
    assert sol.iterations == 0


def test_solve_trace_monotone():
    rng = random.Random(71)
    for lat in corpus_small():
        inst = cvp_instance(
            lat,
            [F(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(lat.m)],
            project=True,
        )
        sol = solve_cvp(inst)
        dists = [inst.distance_sq((0,) * lat.m)] + [r.distance_sq for r in sol.trace]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        lams = list(sol.lambda_trace())
        assert all(a >= b for a, b in zip(lams, lams[1:]))


def test_instance_requires_span_membership():
    with pytest.raises(InvalidInputError):
        cvp_instance(a2(), (1, 0, 0), project=False)


SPAN_MESSAGE = "target is not in the span of the lattice; project it first"


def test_span_check_matches_the_fraction_product():
    # CVPInstance checks M t = 0 in ints, as M (L t) = 0 for L the lcm of
    # t's denominators; every verdict must be that of the Fraction product
    # M t, at denominators up to about 10^12: projected targets, the same
    # moved along kernel vectors, and one coordinate moved off the span
    rng = random.Random(23)
    big = 10 ** 12

    def rational():
        return F(rng.randint(-big, big), rng.randint(1, big))

    weights = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(24)]
    lattices = corpus_small() + [graphic_lattice(digraph(12, random_arcs(rng, 12, 24)),
                                                 weights)]
    verdicts = set()
    for lat in lattices:
        basis = kernel_basis(lat.matrix)
        for _ in range(3):
            t = [rational() for _ in range(lat.m)]
            p = project_onto_span(t, lat)
            j = rng.randrange(lat.m)
            targets = [t, p, [x + (F(1, rng.randint(1, big)) if i == j else 0)
                              for i, x in enumerate(p)]]
            targets += [[x + rational() * z for x, z in zip(p, b)] for b in basis]
            for target in targets:
                in_span = not any(lat.matrix.apply(target))
                verdicts.add(in_span)
                if in_span:
                    inst = CVPInstance(lattice=lat, target=target)
                    assert inst.w0 == sum(g * x * x for g, x in zip(lat.weights, target))
                else:
                    with pytest.raises(InvalidInputError) as exc:
                        CVPInstance(lattice=lat, target=target)
                    assert str(exc.value) == SPAN_MESSAGE
    assert verdicts == {False, True}
    # the length check still comes first
    with pytest.raises(DimensionError, match="target length 2 != coordinate count 3"):
        CVPInstance(lattice=a2(), target=(F(1, big), F(-1, big)))


def _corpus_instances():
    rng = random.Random(71)
    return [
        cvp_instance(
            lat,
            [F(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(lat.m)],
            project=True,
        )
        for lat in corpus_small()
    ]


def test_one_lp_per_iteration(monkeypatch):
    # one cold lambda LP at the origin, one cold box LP when the box step
    # is taken, then one warm lambda LP per record, except at a box vertex
    # that the box LP's duals certify
    calls = []
    solve_lp = simplex.solve_lp

    def counting(p, start=None):
        calls.append(start is None)
        return solve_lp(p, start)

    instances = _corpus_instances()
    certifies = [dual_certificate_holds(*proximity_start(i), i) for i in instances]
    monkeypatch.setattr(simplex, "solve_lp", counting)
    boxed = certified = 0
    for inst, box_certifies in zip(instances, certifies):
        calls.clear()
        sol = solve_cvp(inst)
        box = bool(sol.trace) and sol.trace[0].u is None
        boxed += box
        certified += box and box_certifies
        assert len(calls) == 1 + box + sol.iterations - (box and box_certifies)
        assert calls.count(True) == 1 + box
    assert boxed > certified > 0


def test_warm_lambda_lp_matches_cold_at_every_iterate():
    for inst in _corpus_instances():
        sol = solve_cvp(inst)
        prev = None
        for v in [(0,) * inst.m] + [r.v for r in sol.trace]:
            p = lambda_lp(v, inst)
            cold = simplex.solve_lp(p)
            warm = simplex.solve_lp(p, start=prev or cold)
            assert F(warm.optimum, warm.den) == F(cold.optimum, cold.den)
            lam = max(F(0), F(-cold.optimum, cold.den * inst.K))
            if lam > 0:
                # extraction asserts the circuit and the mean -lam itself
                u_warm = min_mean_voronoi_vector(v, inst, warm)
                u_cold = min_mean_voronoi_vector(v, inst, cold)
                assert (F(cost(v, u_warm, inst), len(u_warm.support))
                        == F(cost(v, u_cold, inst), len(u_cold.support)))
            prev = warm


def _origin_walk(inst):
    """The paper's walk from the origin, with no box step: compute_lambda
    (warm-started, as in solve_cvp), min_mean_voronoi_vector and
    saturating_step until lambda = 0.  Returns its iteration records."""
    v = (0,) * inst.m
    lam, res = compute_lambda(v, inst)
    records = []
    while lam > 0:
        u = min_mean_voronoi_vector(v, inst, res)
        step = saturating_step(lam, u, inst)
        v = tuple(a + step * b for a, b in zip(v, u.coords))
        records.append(IterationRecord(v=v, lam=lam, u=u, step=step,
                                       distance_sq=inst.distance_sq(v)))
        lam, res = compute_lambda(v, inst, res)
    return records


def _saturating(rec, g):
    """ceil(lam p / 2S) for the chain of an iteration record."""
    support = rec.u.support
    return math.ceil(rec.lam * len(support) / (2 * sum(g[i] for i in support)))


def test_step_cap_binds_on_heavy_coordinate():
    # a cographic lattice (m = 13) where the saturating step 3 at iteration 2
    # would price the reverse arc of coordinate 5 (g = 6) below -lambda and
    # raise lambda from 1667/168 to 445/42; the cap 1 + floor(lam / g_max)
    # shortens it to 2
    rows = [
        [1, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, -1, 0, -1, -1, -1, -1, 1, 1, 0, 0, 1, 0],
        [0, 0, 0, 0, -1, 0, -1, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, -1, 0, 0, 0, 0, 1, 0, 1, 0, 0],
        [0, 0, 0, 0, -1, 0, -1, 0, 0, 0, 0, 1, 1],
    ]
    g = [4, 5, 6, 2, 2, 6, F(1, 3), F(5, 3), 1, 1, F(2, 3), 1, F(5, 2)]
    t = [F(-19, 6), 4, F(-16, 5), F(4, 3), 4, F(10, 7), F(-18, 7), 0, 0, -2,
         F(1, 2), -9, F(-16, 3)]
    lat = ZonotopalLattice(matrix=tu_matrix(rows), weights=g)
    inst = cvp_instance(lat, t, project=True)
    trace = _origin_walk(inst)
    rec = trace[1]
    assert rec.lam == F(1667, 168)
    cap = 1 + math.floor(rec.lam / max(g[i] for i in rec.u.support))
    assert rec.step == cap == 2 < _saturating(rec, g) == 3
    assert trace[-1].distance_sq == inst.distance_sq(brute_force_cvp(inst))


def test_step_keeps_duals_feasible():
    # the invariant behind saturating_step: the duals of the LP at v, with
    # bound -lambda, price the arcs of u at exactly -lambda and stay
    # feasible for the LP at v + step * u
    rng = random.Random(2)
    records = capped = 0
    for base in corpus_small():
        for _ in range(3):
            g = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(base.m)]
            inst = cvp_instance(
                type(base)(matrix=base.matrix, weights=g),
                [F(rng.randint(-100, 100), rng.randint(1, 7)) for _ in range(base.m)],
                project=True,
            )
            v = (0,) * inst.m
            for rec in _origin_walk(inst):
                y = _lp_duals(v, inst) + (-rec.lam,)
                arcs = list(rec.u.positive_part) + [inst.m + i for i in rec.u.negative_part]
                for p, tight in ((lambda_lp(v, inst), arcs), (lambda_lp(rec.v, inst), ())):
                    # p.c is K times the costs
                    reduced = [c - inst.K * sum(row[j] * y_r for row, y_r in zip(p.A, y))
                               for j, c in enumerate(p.c)]
                    assert all(r >= 0 for r in reduced)
                    assert all(reduced[j] == 0 for j in tight)
                records += 1
                capped += rec.step < _saturating(rec, g)
                v = rec.v
    assert records > 50 and capped > 0


def _lp_duals(v, inst):
    """Duals of the M rows of the cold lambda LP at v, in the units of the
    costs: the LP's own are den K times larger."""
    res = simplex.solve_lp(lambda_lp(v, inst))
    return tuple(F(y, res.den * inst.K) for y in res.duals[:inst.lattice.matrix.n])


def test_every_answer_certified_and_agrees_with_facets():
    # the dual certificate against the facet one: both accept every answer,
    # and at the origin the LP duals certify exactly when the facets do
    rng = random.Random(1301)
    for lat in corpus_small():
        origin = (0,) * lat.m
        for _ in range(3):
            inst = cvp_instance(
                lat,
                [F(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(lat.m)],
                project=True,
            )
            sol = solve_cvp(inst)
            assert sol.certified
            assert certify_closest(sol.closest, inst)
            assert dual_certificate_holds(sol.closest, _lp_duals(sol.closest, inst), inst)
            assert (dual_certificate_holds(origin, _lp_duals(origin, inst), inst)
                    == certify_closest(origin, inst))


def test_large_graphic_answer_certified():
    # m = 18 > 14, beyond facet enumeration
    rng = random.Random(16)
    arcs = [(i, (i + 1) % 8) for i in range(8)]
    while len(arcs) < 18:
        arcs.append(tuple(rng.sample(range(8), 2)))
    lat = graphic_lattice(digraph(8, arcs))
    inst = cvp_instance(
        lat, [F(rng.randint(-30, 30), rng.randint(1, 5)) for _ in arcs], project=True
    )
    sol = solve_cvp(inst)
    assert sol.iterations > 0 and sol.certified
    assert compute_lambda(sol.closest, inst)[0] == 0


def test_dual_certificate_rejects_tampered_duals():
    inst = a2_instance()
    v = (1, 0, -1)
    y = _lp_duals(v, inst)
    assert dual_certificate_holds(v, y, inst)
    assert not dual_certificate_holds(v, (y[0] + 1,), inst)
    assert not dual_certificate_holds(v, y + (F(0),), inst)
    # no y certifies the origin: it needs y <= -2/5 and y >= 0
    assert not dual_certificate_holds((0, 0, 0), y, inst)


def test_dual_certificate_rejects_malformed_v():
    inst = a2_instance()
    y = _lp_duals((1, 0, -1), inst)
    assert not dual_certificate_holds((1, 0), y, inst)
    assert not dual_certificate_holds((1, 0, -1, 0), y, inst)
    for v in ((F(1, 2), 0, -1), ("1", 0, -1), (1.0, 0, -1), (1, 0, "-1")):
        assert not dual_certificate_holds(v, y, inst)


def test_dual_certificate_takes_bools_and_integral_fractions():
    # v is judged by int_vec's rule, as contains judges it: these once
    # gave False against duals that certify (1, 0, -1)
    inst = a2_instance()
    y = _lp_duals((1, 0, -1), inst)
    assert dual_certificate_holds((True, 0, -1), y, inst)
    assert dual_certificate_holds((F(1), 0, F(-1)), y, inst)


@pytest.mark.parametrize("entry", [None, 0.0, "x"])
def test_dual_certificate_rejects_non_rational_entries(entry):
    # None and 0.0 would pass as a zero dual; "x" would reach the arithmetic
    assert not dual_certificate_holds((1, 0, -1), (entry,), a2_instance())


def test_solve_raises_on_wrong_duals(monkeypatch):
    solve_lp = simplex.solve_lp

    def tampered(p, start=None):
        res = solve_lp(p, start)
        return dataclasses.replace(res, duals=tuple(y + 1000 for y in res.duals))

    monkeypatch.setattr(simplex, "solve_lp", tampered)
    with pytest.raises(InternalInvariantError, match="do not certify"):
        solve_cvp(a2_instance())


def _seeded_instance(build, seed, vertices, arcs):
    """A random connected digraph lattice; weights 1 or 2 and half-integer
    targets leave ties between chains that only the pivot order breaks."""
    rng = random.Random(seed)
    pairs = [(a, b) for a in range(vertices) for b in range(a + 1, vertices)]
    rng.shuffle(pairs)
    tree = [(rng.randrange(k), k) for k in range(1, vertices)]
    chosen = tree + [q for q in pairs if q not in tree][:arcs - len(tree)]
    d = digraph(vertices, [(b, a) if rng.random() < 0.5 else (a, b) for a, b in chosen])
    g = [rng.randint(1, 2) for _ in range(arcs)]
    t = [F(rng.randint(-12, 12), rng.randint(1, 2)) for _ in range(arcs)]
    return cvp_instance(build(d, g), t)


#: (u.coords, step, lam) of every iteration, recorded from
#: the rational-tableau simplex.  Entering the last improving column, or
#: breaking ratio ties by the higher basic index, changes both records.
GOLDEN_GRAPHIC_M22 = [
    ((-1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, -1, 0), 7, "133/6"),
    ((0, -1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, -1, 0, 0, 1, 1, 0, 0, 0), 5, "17"),
    ((0, 0, 0, 1, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0), 5, "69/5"),
    ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0), 3, "17/3"),
    ((0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, -1, 0, 0), 2, "15/4"),
    ((0, 1, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0), 2, "11/3"),
    ((0, 0, 0, 0, 0, 0, 1, -1, 0, -1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0), 1, "11/4"),
    ((0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0), 1, "9/4"),
    ((1, 0, 0, 0, 0, 0, 0, 0, 0, -1, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1), 1, "1"),
    ((0, -1, 0, 0, 1, -1, 0, -1, 0, 0, 0, -1, 0, 1, -1, 0, 0, 1, 0, 0, 0, 0), 1, "3/8"),
]
GOLDEN_COGRAPHIC_M14 = [
    ((0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0), 11, "65/2"),
    ((1, 0, 0, -1, 0, 0, 0, 0, 0, -1, -1, 0, 0, 0), 4, "49/4"),
    ((0, -1, 0, 0, 0, -1, 0, 0, 1, 0, 0, 0, 0, 0), 3, "23/3"),
    ((0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0), 2, "16/3"),
    ((0, 0, 1, 0, 0, 0, 0, 0, -1, -1, 0, 0, 0, 0), 2, "4"),
    ((0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0), 2, "7/3"),
    ((0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1), 1, "1"),
    ((0, 0, 0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0, 0), 1, "1"),
]


@pytest.mark.parametrize("build, seed, vertices, arcs, golden", [
    (graphic_lattice, 30, 11, 22, GOLDEN_GRAPHIC_M22),
    (cographic_lattice, 11, 9, 14, GOLDEN_COGRAPHIC_M14),
])
def test_iteration_record_golden(build, seed, vertices, arcs, golden):
    trace = _origin_walk(_seeded_instance(build, seed, vertices, arcs))
    assert [(r.u.coords, r.step, str(r.lam)) for r in trace] == golden


def test_is_circuit_on_cycles_and_forests():
    # two disjoint directed triangles: arcs 0-2 and 3-5
    matrix = graphic_lattice(digraph(6, [(0, 1), (1, 2), (2, 0),
                                         (3, 4), (4, 5), (5, 3)])).matrix
    assert _is_circuit([0, 1, 2], matrix)
    assert _is_circuit([3, 4, 5], matrix)
    assert not _is_circuit([0, 1, 2, 3, 4, 5], matrix)  # two cycles
    assert not _is_circuit([0, 1, 3, 4], matrix)  # a forest
    assert not _is_circuit([2], matrix)  # a single arc


def _box_instances():
    """Targets far enough from the origin that solve_cvp takes the box step."""
    rng = random.Random(97)
    return [
        cvp_instance(
            lat,
            [F(rng.randint(-100, 100), rng.randint(1, 7)) for _ in range(lat.m)],
            project=True,
        )
        for lat in corpus_small()
        for _ in range(2)
    ]


def test_proximity_start_is_closest_in_the_box():
    for inst in _box_instances():
        v0, _ = proximity_start(inst)
        lo = [math.floor(x) for x in inst.target]
        hi = [math.ceil(x) for x in inst.target]
        assert all(type(a) is int for a in v0)
        assert inst.lattice.contains(v0)
        assert all(a <= x <= b for a, x, b in zip(lo, v0, hi))
        box = [v for v in itertools.product(*({a, b} for a, b in zip(lo, hi)))
               if inst.lattice.contains(v)]
        assert inst.distance_sq(v0) == min(inst.distance_sq(v) for v in box)


def test_proximity_start_of_integral_target_is_the_target():
    for lat in corpus_small():
        t = tuple(sum((-1) ** k * (k + 2) * x for k, x in enumerate(col))
                  for col in zip(*kernel_basis(lat.matrix)))
        assert proximity_start(cvp_instance(lat, t, project=False)) == (t, (0,) * lat.matrix.n)


def test_box_lp_tableau_has_a_row_per_lattice_row(monkeypatch):
    # each bound 0 <= z_j <= 1 is a status of z_j, not a tableau row, so no
    # pivot of a box LP sees more rows than the LP has rows of M
    solve_lp, pivot = simplex.solve_lp, simplex._pivot
    solving, seen = [], []

    def recording(p, start=None):
        solving.append(len(p.A))
        try:
            return solve_lp(p, start)
        finally:
            solving.pop()

    def spy(tab, *args):
        if solving:
            seen.append((len(tab), solving[-1]))
        return pivot(tab, *args)

    monkeypatch.setattr(simplex, "solve_lp", recording)
    monkeypatch.setattr(simplex, "_pivot", spy)
    for inst in _box_instances():
        proximity_start(inst)
    assert seen and all(rows <= len_a for rows, len_a in seen)


def test_box_step_is_skipped_unless_closer(monkeypatch):
    # a start no closer than the origin is refused: the walk then starts at
    # the origin, as the paper's does, and reaches the same distance
    boxed = 0
    for inst in _box_instances():
        sol = solve_cvp(inst)
        boxed += sol.trace[0].u is None
        b = kernel_basis(inst.lattice.matrix)[0]
        far = max((tuple(k * x for x in b) for k in (-100, 100)), key=inst.distance_sq)
        y = (0,) * inst.lattice.matrix.n
        for start in ((0,) * inst.m, far):
            assert inst.distance_sq(start) >= inst.distance_sq((0,) * inst.m)
            monkeypatch.setattr(mmcc, "proximity_start", lambda _inst, s=start: (s, y))
            walked = solve_cvp(inst)
            assert all(r.u is not None for r in walked.trace)
            assert walked.distance_sq == sol.distance_sq
            assert walked.certified
        monkeypatch.undo()
    assert boxed == len(_box_instances())


def test_far_target_solves_from_the_box():
    # from the origin this target took 16609 iterations: each saturating
    # step halves the one before
    inst = cvp_instance(a2(), (10**5000, 0, 0))
    sol = solve_cvp(inst)
    assert sol.iterations <= 2 and sol.certified
    assert sol.trace[0].u is None
    assert all(abs(a - x) < 1 for a, x in zip(sol.closest, inst.target))
    assert sol.lambda_trace()[0] == compute_lambda((0, 0, 0), inst)[0]


def test_walks_stay_within_the_proven_cap():
    # each step lowers K w by a positive int, so the k-th iterate has
    # K w <= K w(0) - k, and no walk takes more than floor(K w(0)) steps
    for inst in _corpus_instances() + _box_instances():
        cap = stopping_data(inst)
        for walk in (_origin_walk(inst), solve_cvp(inst).trace):
            assert len(walk) <= cap
            for k, rec in enumerate(walk, 1):
                assert inst.K * (inst.w0 - rec.distance_sq) >= k


def test_box_step_must_lower_lambda(monkeypatch):
    # the LP at the box vertex reports lambda(0) again: the box step keeps
    # its strict check, which no correct walk trips.  Only a box vertex that
    # the box LP's duals leave uncertified gets that LP.
    inst = next(i for i in _box_instances()
                if not dual_certificate_holds(*proximity_start(i), i))
    real = mmcc.compute_lambda
    seen = []

    def stuck(v, instance, start=None):
        lam, res = real(v, instance, start)
        seen.append(lam)
        return seen[0], res

    monkeypatch.setattr(mmcc, "compute_lambda", stuck)
    with pytest.raises(InternalInvariantError, match="box step"):
        solve_cvp(inst)
    assert len(seen) == 2


def test_lambda_lps_of_one_instance_share_their_rows(monkeypatch):
    # every lambda LP of an instance reads the instance's rows, so the
    # warm start's same-constraints check compares one object
    solve_lp = simplex.solve_lp
    problems = []

    def recording(p, start=None):
        problems.append(p)
        return solve_lp(p, start)

    monkeypatch.setattr(simplex, "solve_lp", recording)
    for inst in _box_instances()[:4]:
        problems.clear()
        sol = solve_cvp(inst)
        # the box LP bounds its variables by 1, a lambda LP leaves them free
        rows = [p.A for p in problems if all(u is None for u in p.upper)]
        box_certifies = dual_certificate_holds(*proximity_start(inst), inst)
        assert len(rows) == 1 + sol.iterations - box_certifies
        assert all(a is inst.lambda_rows[0] for a in rows)
        assert lambda_lp((0,) * inst.m, inst).A is inst.lambda_rows[0]


def test_box_certified_vertices_are_closest():
    assert check_box_certified_closest(_corpus_instances() + _box_instances()) > 10


def test_refused_box_certificate_falls_back_to_the_lambda_lp(monkeypatch):
    # when the first certificate check says no, the walk solves the warm
    # lambda LP at the box vertex, as without the shortcut, to the same answer
    for inst, sol in box_certified_solves(_corpus_instances() + _box_instances()):
        holds, lam, calls, points = mmcc.dual_certificate_holds, mmcc.compute_lambda, [], []

        def refuse_first(v, y, instance):
            calls.append(v)
            return len(calls) > 1 and holds(v, y, instance)

        def spy(v, instance, start=None):
            points.append(tuple(v))
            return lam(v, instance, start)

        monkeypatch.setattr(mmcc, "dual_certificate_holds", refuse_first)
        monkeypatch.setattr(mmcc, "compute_lambda", spy)
        assert solve_cvp(inst) == sol
        monkeypatch.undo()
        assert points == [(0,) * inst.m, sol.closest]
        assert calls == [sol.closest, sol.closest]


def test_integral_target_takes_the_box_step_with_one_lp(monkeypatch):
    # an integral target in the span is a lattice vector: the box LP is
    # not solved, y = 0 certifies it, and the cold LP at the origin is the
    # solve's only LP
    inst = cvp_instance(a2(), (40, -30, -10), project=False)
    calls = []
    solve_lp = simplex.solve_lp

    def counting(p, start=None):
        calls.append(start is None)
        return solve_lp(p, start)

    monkeypatch.setattr(simplex, "solve_lp", counting)
    sol = solve_cvp(inst)
    assert calls == [True]
    assert sol.trace[0].u is None and sol.iterations == 1
    assert sol.closest == (40, -30, -10) and sol.distance_sq == 0 and sol.certified
    assert sol.lambda_trace()[0] >= max(inst.weights)


def test_compute_lambda_rejects_a_non_lattice_vector():
    with pytest.raises(InvalidInputError, match="not a lattice member"):
        compute_lambda((1, 0, 0), a2_instance())


@pytest.mark.parametrize("rows, kernel", [(NON_TU_M, (1, 2, -1)), (DEN_TWO_M, (1, -1, -2))])
def test_lps_are_feasible_and_bounded_without_tu(rows, kernel):
    # the lambda LP holds x_i^+ = x_i^- = 1/2 and sums to 1, and the box LP
    # holds t - floor t inside [0, 1]^F, for any integer M: solve_lp returns
    # an optimum (an InvalidInputError would name an infeasible or unbounded
    # LP), so mmcc checks no LP outcome.  Without TU the box vertex may be
    # fractional, which proximity_start refuses; an integral one is in the
    # lattice, since solve_lp checked its rows exactly
    lattice = ZonotopalLattice(matrix=tu_matrix(rows, mode="assert"), weights=(1, 1, 1))
    integral = fractional = 0
    for r in (F(3, 5), F(-19, 5), F(1, 2), F(-5, 4), F(2, 3), F(1, 3)):
        inst = cvp_instance(lattice, [r * x for x in kernel], project=False)
        lam, res = compute_lambda((0, 0, 0), inst)
        assert lam >= 0 and res.den > 1
        try:
            v0, _ = proximity_start(inst)
        except InternalInvariantError as exc:
            assert "box LP vertex has entry" in str(exc)
            fractional += 1
            continue
        assert lattice.contains(v0)
        compute_lambda(v0, inst)
        integral += 1
    assert integral and fractional


@pytest.mark.parametrize("coords", [
    ("1", -1.0, 0), (1.0, -1, 0), ("1", "-1", "0"), (None, 0, 0), (F(1, 2), F(-1, 2), 0),
])
def test_integer_vector_inputs_refuse_what_contains_refuses(coords):
    # a str or float once passed core.int_vec when its value was integral,
    # so primitive_chain and compute_lambda read ("1", -1.0, 0) as (1, -1, 0)
    lattice = a2()
    assert not lattice.contains(coords)
    for call in (primitive_chain, conformal_decompose):
        with pytest.raises(InvalidInputError, match="expected an integer vector"):
            call(coords, lattice)
    with pytest.raises(InvalidInputError, match="expected an integer vector"):
        compute_lambda(coords, a2_instance())
    # the message tells the str '1' from the int 1 and keeps 1/2 readable
    shown = {"1": "'1'", 1.0: "1.0", None: "None", F(1, 2): "1/2"}[coords[0]]
    with pytest.raises(InvalidInputError) as err:
        int_vec(coords)
    assert str(err.value) == f"expected an integer vector, got entry {shown}"


def test_integer_vector_inputs_take_ints_bools_and_integral_fractions():
    coords = (True, F(-1), False)
    assert a2().contains(coords)
    u = primitive_chain(coords, a2())
    assert u.coords == (1, -1, 0) and all(type(x) is int for x in u.coords)
    assert compute_lambda(coords, a2_instance()) == compute_lambda((1, -1, 0), a2_instance())
