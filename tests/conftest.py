"""Shared builders for the standard test lattice corpus."""

from __future__ import annotations

from fractions import Fraction

from zonolat import (
    ZonotopalLattice,
    a_n_lattice,
    brute_force_cvp,
    cographic_lattice,
    compute_lambda,
    digraph,
    graphic_lattice,
    mmcc,
    solve_cvp,
    tensor_lattice,
)

TRIANGLE_ARCS = [(0, 1), (1, 2), (2, 0)]
K4_ARCS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def random_arcs(rng, vertices, arcs):
    """A random spanning tree plus random extra arcs, no self-loops."""
    out = [(rng.randrange(k), k) if rng.random() < 0.5 else (k, rng.randrange(k))
           for k in range(1, vertices)]
    while len(out) < arcs:
        a, b = rng.sample(range(vertices), 2)
        out.append((a, b))
    return out


def triangle_digraph():
    return digraph(3, TRIANGLE_ARCS)


def k4_digraph():
    return digraph(4, K4_ARCS)


#: Not TU: the kernel is spanned by (1, 2, -1), not a primitive chain.
NON_TU_M = [[1, 0, 1], [-1, 1, 1]]
#: Not TU: its pivot block [[1, 1], [1, -1]] has determinant -2 (den = 2),
#: and the kernel is spanned by (1, -1, -2).
DEN_TWO_M = [[1, 1, 0], [1, -1, 1]]


def a2(g=None) -> ZonotopalLattice:
    return a_n_lattice(2, g)


def corpus_small() -> list[ZonotopalLattice]:
    """Lattices with m <= 10 used by the property-style checks."""
    return [
        a_n_lattice(2),
        a_n_lattice(2, (1, 2, 3)),
        a_n_lattice(3),
        graphic_lattice(triangle_digraph()),
        cographic_lattice(triangle_digraph(), (Fraction(1, 2), 1, 2)),
        cographic_lattice(k4_digraph()),
        tensor_lattice(1, 1),
        tensor_lattice(2, 2),
    ]


def box_certified_solves(instances):
    """(instance, solution) for each instance whose solve ended at the box
    vertex without a lambda LP there: the box LP's duals certified it."""
    out = []
    real = mmcc.compute_lambda
    for inst in instances:
        points = []

        def spy(v, instance, start=None):
            points.append(tuple(v))
            return real(v, instance, start)

        mmcc.compute_lambda = spy
        try:
            sol = solve_cvp(inst)
        finally:
            mmcc.compute_lambda = real
        if sol.trace and sol.trace[0].u is None and sol.trace[0].v not in points:
            out.append((inst, sol))
    return out


def check_box_certified_closest(instances) -> int:
    """Check each box vertex that the box LP's duals certified, trusting
    nothing from that shortcut: a cold lambda LP there reads 0, and for
    m <= 14 the oracle's distance agrees.  Returns how many were checked."""
    solves = box_certified_solves(instances)
    for inst, sol in solves:
        assert sol.iterations == 1 and sol.closest == sol.trace[0].v
        assert sol.lambda_trace()[-1] == 0 and sol.certified
        assert compute_lambda(sol.closest, inst)[0] == 0
        if inst.m <= 14:
            assert inst.distance_sq(brute_force_cvp(inst)) == sol.distance_sq
    return len(solves)
