"""Seeded problem generators for the benchmark workloads.

Each generator returns a list of problem dicts in the `zonolat solve` file
format.  The same seed always gives the same list.  The structure of each
list (coordinate counts, vertex counts, lattice kinds, in a fixed order) is
the same for every seed; the seed draws the graphs, weights and targets.
Holding the structure fixed keeps the figures of different seeds
comparable, so a run-to-run spread reflects the program, not a lucky mix
of sizes.
"""

from __future__ import annotations

import random
from fractions import Fraction

from zonolat.constructions import (
    cographic_lattice,
    digraph,
    obtuse_superbasis_gram,
    voronoi_first_kind,
)


def _rational(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 6), rng.randint(1, 3))


def _connected_arcs(rng: random.Random, vertices: int, m: int) -> list[tuple[int, int]]:
    """A random connected simple digraph: a random spanning tree plus extra arcs."""
    order = list(range(vertices))
    rng.shuffle(order)
    arcs = []
    used = set()
    for k in range(1, vertices):
        a, b = order[k], order[rng.randrange(k)]
        arcs.append((a, b) if rng.random() < 0.5 else (b, a))
        used.add(frozenset((a, b)))
    while len(arcs) < m:
        a, b = rng.sample(range(vertices), 2)
        if frozenset((a, b)) in used:
            continue
        used.add(frozenset((a, b)))
        arcs.append((a, b))
    rng.shuffle(arcs)
    return arcs


def _problem(name: str, rows, weights, target) -> dict:
    m = len(weights)
    return {
        "name": name,
        "m": m,
        "n": len(rows),
        "M": [list(r) for r in rows],
        "g": [str(x) for x in weights],
        "t": [str(x) for x in target],
        "tu_mode": "verify",
    }


def graphic_lp(seed: int, count: int) -> list[dict]:
    """Distinct random connected digraphs, m cycling through 20..24 arcs on
    m // 2 vertices; certification is skipped because m > 14."""
    rng = random.Random(f"graphic-lp/{seed}")
    out = []
    for k in range(count):
        m = 20 + k % 5
        vertices = m // 2
        arcs = _connected_arcs(rng, vertices, m)
        rows = [[0] * m for _ in range(vertices)]
        for j, (tail, head) in enumerate(arcs):
            rows[tail][j] = -1
            rows[head][j] = 1
        weights = [_weight(rng) for _ in range(m)]
        target = [_rational(rng, -12, 12, 5) for _ in range(m)]
        out.append(_problem(f"graphic-{k}", rows, weights, target))
    return out


def _k5_vfk(rng: random.Random):
    size = 5
    gram = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            w = _weight(rng)
            gram[i][j] = gram[j][i] = -w
            gram[i][i] += w
            gram[j][j] += w
    lattice, _ = voronoi_first_kind(obtuse_superbasis_gram(gram))
    return lattice


def cut_certify(seed: int, count: int) -> list[dict]:
    """Cographic lattices on 9 vertices (m of 13 or 14), with every fourth
    problem a lattice of Voronoi's first kind from a random weighted K_5
    Laplacian (m = 10); every m <= 14, so facet certification runs on every
    answer.  The K_5 lattices solve about twice as fast, so they are kept a
    minority: half and half would put the median solve time in the gap
    between the two kinds, where it jumps from seed to seed."""
    rng = random.Random(f"cut-certify/{seed}")
    out = []
    for k in range(count):
        if k % 4 != 3:
            m = 13 + k % 2
            d = digraph(9, _connected_arcs(rng, 9, m))
            lattice = cographic_lattice(d, [_weight(rng) for _ in range(m)])
            name = f"cographic-{k}"
        else:
            lattice = _k5_vfk(rng)
            name = f"vfk-{k}"
        target = [_rational(rng, -20, 20, 7) for _ in range(lattice.m)]
        out.append(_problem(name, lattice.matrix.entries, lattice.weights, target))
    return out


GENERATORS = {
    "graphic-lp": graphic_lp,
    "cut-certify": cut_certify,
}
