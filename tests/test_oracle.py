"""Brute-force ground truth: enumeration, coset test, CVP scan, sampling."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import a2, corpus_small, k4_digraph
from zonolat import (
    CVPInstance,
    SizeCapError,
    ZonotopalLattice,
    a_n_lattice,
    brute_force_cvp,
    certify_closest,
    check_projection_theorem,
    check_tu,
    cographic_lattice,
    conformal_decompose,
    cvp_instance,
    digraph,
    enumerate_primitive_chains,
    graphic_lattice,
    incidence_matrix,
    is_strict_voronoi_by_coset,
    kernel_basis,
    project,
    project_onto_span,
    simplex,
    tu_matrix,
    voronoi_cell,
    voronoi_relevant_count,
)
from zonolat.oracle import COEFF_BOX_CAP, distance_sq, row_reduce

A2_TARGET = (F(7, 10), F(-1, 5), F(-1, 2))


def test_enumerate_a2():
    chains = enumerate_primitive_chains(a2())
    assert {c.coords for c in chains} == {
        (1, -1, 0), (-1, 1, 0), (1, 0, -1), (-1, 0, 1), (0, 1, -1), (0, -1, 1)
    }
    coords = [c.coords for c in chains]
    assert coords == sorted(coords)


def test_enumerate_trivial_kernel():
    lat = ZonotopalLattice(matrix=tu_matrix([[1, 0], [0, 1]]), weights=(1, 1))
    assert enumerate_primitive_chains(lat) == []


def test_enumerate_k4_cographic():
    assert len(enumerate_primitive_chains(cographic_lattice(k4_digraph()))) == 14


def test_enumerate_negation_closed_and_incomparable():
    for lat in corpus_small():
        chains = enumerate_primitive_chains(lat)
        coords = {c.coords for c in chains}
        for c in chains:
            assert tuple(-x for x in c.coords) in coords
        supports = [c.support for c in chains]
        for s1 in supports:
            for s2 in supports:
                assert not (s1 < s2)


def test_enumerate_cap():
    wide = ZonotopalLattice(
        matrix=tu_matrix([[0] * 15], mode="assert"), weights=(1,) * 15
    )
    with pytest.raises(SizeCapError):
        enumerate_primitive_chains(wide)


def test_brute_force_cap():
    # A_n has rank n, so A_9 is one above the coefficient-box cap
    rank = COEFF_BOX_CAP + 1
    inst = cvp_instance(a_n_lattice(rank), (0,) * (rank + 1))
    with pytest.raises(SizeCapError, match=rf"capped at rank {COEFF_BOX_CAP} \(got {rank}\)"):
        brute_force_cvp(inst)


def test_coset_examples():
    lat = a2()
    assert is_strict_voronoi_by_coset((1, 0, -1), lat)
    assert not is_strict_voronoi_by_coset((2, -1, -1), lat)
    assert not is_strict_voronoi_by_coset((0, 0, 0), lat)


def test_coset_equivalence_on_corpus():
    """Primitive chains and strict Voronoi vectors coincide as sets.

    Candidate domain: all nonzero lattice vectors with kernel-basis
    coefficients in a [-2, 2] box; this contains every primitive chain and
    plenty of non-chains for the negative direction.
    """
    for lat in corpus_small():
        basis = kernel_basis(lat.matrix)
        r = len(basis)
        chain_set = {c.coords for c in enumerate_primitive_chains(lat)}
        seen = set()
        for alpha in itertools.product(range(-2, 3), repeat=r):
            v = [0] * lat.m
            for a, b in zip(alpha, basis):
                for i in range(lat.m):
                    v[i] += a * b[i]
            v = tuple(v)
            if not any(v) or v in seen:
                continue
            seen.add(v)
            assert is_strict_voronoi_by_coset(v, lat) == (v in chain_set), (v, lat)


def test_brute_force_a2():
    inst = cvp_instance(a2(), A2_TARGET, project=False)
    assert brute_force_cvp(inst) == (1, 0, -1)


def test_brute_force_lattice_point():
    inst = cvp_instance(a2(), (2, -1, -1), project=False)
    assert brute_force_cvp(inst) == (2, -1, -1)


def test_brute_force_tie_lexicographic():
    inst = cvp_instance(a2(), (F(1, 2), F(-1, 2), 0), project=False)
    best = brute_force_cvp(inst)
    assert best == (0, 0, 0)
    assert inst.distance_sq(best) == F(1, 2)
    # the competing point is equally distant and also certifies
    assert inst.distance_sq((1, -1, 0)) == F(1, 2)
    assert certify_closest((1, -1, 0), inst)


def test_certify_examples():
    inst = cvp_instance(a2(), A2_TARGET, project=False)
    assert certify_closest((1, 0, -1), inst)
    assert not certify_closest((0, 0, 0), inst)
    member = cvp_instance(a2(), (2, -1, -1), project=False)
    assert certify_closest((2, -1, -1), member)


def test_projection_sample_a2():
    lat = a2()
    point = (F(1, 2), F(1, 2), F(-1, 2))
    proj = project_onto_span(point, lat)
    assert proj == (F(1, 3), F(1, 3), F(-2, 3))
    assert voronoi_cell(lat).contains(proj)


def test_projection_theorem_and_negative_control():
    lat = a2()
    assert check_projection_theorem(lat, samples=300, seed=42)
    assert not check_projection_theorem(lat, samples=300, seed=42, cube_scale=2)


def test_check_tu():
    assert check_tu([[1, 1, 1]])
    assert not check_tu([[1, 1], [-1, 1]])
    rng = random.Random(13)
    for _ in range(5):
        v = rng.randint(2, 6)
        arcs = [(rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(1, 8))]
        arcs = [(t, h) for t, h in arcs if t != h] or [(0, 1)]
        assert check_tu(incidence_matrix(digraph(v, arcs)))
    with pytest.raises(SizeCapError):
        check_tu([[0]] * 25)
    assert not check_tu([[2]])


def test_row_reduce_rank_deficient():
    rows = [[1, 2, 3], [2, 4, 7], [3, 6, 10]]
    reduced, pivots = row_reduce(rows)
    assert pivots == [0, 2]
    assert reduced == [[1, 2, 0], [0, 0, 1], [0, 0, 0]]


def test_row_reduce_leaves_input_unmodified():
    rows = [[0, 2, 4], [3, 1, 1]]
    snapshot = [list(r) for r in rows]
    reduced, pivots = row_reduce(rows)
    assert rows == snapshot
    assert pivots == [0, 1]
    assert reduced == [[1, 0, F(-1, 3)], [0, 1, 2]]


def test_row_reduce_int_input_yields_fractions():
    reduced, _ = row_reduce([[2, 1], [1, 3], [7, 5]])
    assert all(type(x) is F for row in reduced for x in row)
    assert row_reduce([[3, 1]])[0] == [[1, F(1, 3)]]
    assert row_reduce([]) == ([], [])


def test_relevant_count_weight_invariant():
    assert voronoi_relevant_count(a2()) == 6
    assert voronoi_relevant_count(a_n_lattice(2, (1, 2, 3))) == 6
    rank1 = graphic_lattice(digraph(2, [(0, 1), (0, 1)]))
    assert voronoi_relevant_count(rank1) == 2
    assert voronoi_relevant_count(cographic_lattice(k4_digraph())) == 14


def test_brute_force_agrees_with_exhaustive_scan():
    """Independent re-check of the oracle itself on tiny instances."""
    rng = random.Random(2024)
    lat = a2()
    basis = kernel_basis(lat.matrix)
    for _ in range(10):
        t = project_onto_span(
            [F(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(3)], lat
        )
        inst = cvp_instance(lat, t, project=False)
        best = min(
            (inst.distance_sq([a0 * basis[0][i] + a1 * basis[1][i] for i in range(3)]),
             tuple(a0 * basis[0][i] + a1 * basis[1][i] for i in range(3)))
            for a0 in range(-8, 9) for a1 in range(-8, 9)
        )
        got = brute_force_cvp(inst)
        assert inst.distance_sq(got) == best[0]


def test_oracle_reaches_no_simplex_code(monkeypatch):
    # a bug in the simplex must not be able to make both routes agree: with
    # its elimination and its LP solver broken, every reference still runs
    # (the arcs are used by no other test, so no cached basis hides a call)
    arcs = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 0)]
    lat = graphic_lattice(digraph(5, arcs), (1, 2, F(1, 3), 1, 5, 1, F(3, 2)))

    def broken(*args, **kwargs):
        raise AssertionError("the oracle reached the simplex")

    for name in ("eliminate", "solve_lp", "_pivot"):
        monkeypatch.setattr(simplex, name, broken)
    basis = kernel_basis(lat.matrix)
    assert len(basis) == 3
    t = project((F(7, 3), -1, F(1, 2), 0, 4, F(-5, 7), 1), lat)
    inst = CVPInstance(lattice=lat, target=t)
    assert certify_closest(brute_force_cvp(inst), inst)
    v = tuple(2 * a - b + 3 * c for a, b, c in zip(*basis))
    parts = conformal_decompose(v, lat)
    assert tuple(map(sum, zip(*(p.coords for p in parts)))) == v
    assert check_projection_theorem(lat, samples=50, seed=3)
    assert all(is_strict_voronoi_by_coset(c.coords, lat)
               for c in enumerate_primitive_chains(lat))
    assert check_tu(lat.matrix)


def test_distance_sq_is_the_weighted_norm():
    rng = random.Random(31)
    for lat in corpus_small():
        t = project([F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(lat.m)], lat)
        for _ in range(5):
            u = [rng.randint(-3, 3) for _ in range(lat.m)]
            assert distance_sq(u, t, lat) == lat.norm_sq([a - b for a, b in zip(u, t)])
