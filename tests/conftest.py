"""Shared builders for the standard test lattice corpus."""

from __future__ import annotations

from fractions import Fraction

from zonolat import (
    ZonotopalLattice,
    a_n_lattice,
    cographic_lattice,
    digraph,
    graphic_lattice,
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
