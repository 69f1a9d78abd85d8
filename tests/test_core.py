"""Core arithmetic, rank and projection; oracle kernel bases and conformal decomposition."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction as F

import pytest

from conftest import a2, corpus_small, k4_digraph, random_arcs, triangle_digraph
from zonolat import (
    DimensionError,
    InternalInvariantError,
    InvalidInputError,
    SizeCapError,
    a_n_lattice,
    cographic_lattice,
    compute_lambda,
    conformal_decompose,
    cvp_instance,
    digraph,
    dual_certificate_holds,
    enumerate_primitive_chains,
    graphic_lattice,
    incidence_matrix,
    inner_product,
    kernel_basis,
    matrix_rank,
    obtuse_superbasis_gram,
    primitive_chain,
    project,
    project_onto_span,
    support,
    tensor_lattice,
    tu_matrix,
    voronoi_first_kind,
)
from zonolat.core import (
    TUMatrix,
    chain_signs,
    frac_vec,
    ghouila_houri_ok,
    heller_tompkins,
    int_vec,
    tu_decidable,
    tu_reduce,
    tu_verdict,
)
from zonolat.oracle import check_tu, row_reduce


def _random_connected_digraph(rng, vertices, arcs):
    return digraph(vertices, random_arcs(rng, vertices, arcs))


def test_inner_product_examples():
    assert inner_product((1, 0, -1), (1, 0, -1), (1, 1, 1)) == 2
    assert inner_product((1, -1), (1, 1), (1, 3)) == -2
    assert inner_product((0, 0, 0), (F(2, 3), 5, -1), (1, 7, F(1, 2))) == 0


def test_inner_product_dimension_error():
    with pytest.raises(DimensionError):
        inner_product((1, 0), (1, 0, 1), (1, 1, 1))


def test_inner_product_bilinear_symmetric_positive():
    rng = random.Random(11)
    for _ in range(50):
        m = rng.randint(1, 6)
        g = [F(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(m)]
        x = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m)]
        y = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m)]
        z = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m)]
        a = F(rng.randint(-4, 4), rng.randint(1, 3))
        assert inner_product(x, y, g) == inner_product(y, x, g)
        lhs = inner_product([a * xi + zi for xi, zi in zip(x, z)], y, g)
        assert lhs == a * inner_product(x, y, g) + inner_product(z, y, g)
        if any(x):
            assert inner_product(x, x, g) > 0


def test_support_examples():
    assert support((1, 0, -1)) == {0, 2}
    assert support((0, 0, 0)) == frozenset()
    assert support((2, -1, -1)) == {0, 1, 2}


def test_kernel_basis_triangle():
    m = incidence_matrix(triangle_digraph())
    basis = kernel_basis(m)
    assert len(basis) == 1  # |A| - |V| + k = 3 - 3 + 1
    assert basis[0] in ((1, 1, 1), (-1, -1, -1))


def test_kernel_basis_identity_empty():
    m = tu_matrix([[1, 0], [0, 1]])
    assert kernel_basis(m) == ()
    assert matrix_rank(m) == 2


def test_kernel_basis_sum_zero_integral_span():
    m = tu_matrix([[1, 1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for b in basis:
        assert sum(b) == 0
    # both difference vectors must be integer combinations of the basis
    for target in ((1, -1, 0), (0, 1, -1)):
        found = False
        for a0 in range(-3, 4):
            for a1 in range(-3, 4):
                v = tuple(a0 * basis[0][i] + a1 * basis[1][i] for i in range(3))
                if v == target:
                    found = True
        assert found, target


def test_kernel_vectors_satisfy_mx_zero():
    for lat in corpus_small():
        basis = kernel_basis(lat.matrix)
        for b in basis:
            assert all(s == 0 for s in lat.matrix.apply(b))
        assert len(basis) == lat.m - matrix_rank(lat.matrix)
        # restricted to the free (non-pivot) coordinates the basis is the
        # identity, so every integer kernel vector is an integer combination
        _, pivots = row_reduce(lat.matrix.entries)
        free = [j for j in range(lat.m) if j not in pivots]
        assert [[b[f] for f in free] for b in basis] == [
            [int(i == k) for k in range(len(free))] for i in range(len(free))
        ]


def test_kernel_basis_of_asserted_non_tu_matrix():
    # the pivot block [[1, 1], [1, -1]] has determinant -2, so den = 2: the
    # vector still spans the rational kernel, which is all rank needs
    from zonolat import ZonotopalLattice

    m = tu_matrix([[1, 1, 0], [1, -1, 1]], mode="assert")
    assert kernel_basis(m) in (((1, -1, -2),), ((-1, 1, 2),))
    assert ZonotopalLattice(matrix=m, weights=(1, 1, 1)).rank() == 1


def test_project_examples():
    lat = a2()
    assert project_onto_span((1, 1, 1), lat) == (0, 0, 0)

    m = tu_matrix([[1, 1]])
    from zonolat import ZonotopalLattice

    lat2 = ZonotopalLattice(matrix=m, weights=(1, 3))
    assert project_onto_span((1, 0), lat2) == (F(1, 4), F(-1, 4))

    v = (2, -1, -1)
    assert project_onto_span(v, lat) == v


def test_project_idempotent_and_orthogonal():
    rng = random.Random(5)
    for lat in corpus_small():
        for _ in range(5):
            t = [F(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(lat.m)]
            p = project_onto_span(t, lat)
            assert project_onto_span(p, lat) == p
            assert all(s == 0 for s in lat.matrix.apply(p))
            residual = [a - b for a, b in zip(t, p)]
            for b in kernel_basis(lat.matrix):
                assert inner_product(residual, b, lat.weights) == 0


def _k5_vfk(rng):
    gram = [[F(0)] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            w = F(rng.randint(1, 6), rng.randint(1, 3))
            gram[i][j] = gram[j][i] = -w
            gram[i][i] += w
            gram[j][j] += w
    return voronoi_first_kind(obtuse_superbasis_gram(gram))[0]


def test_project_idempotent_and_orthogonal_at_benchmark_size():
    rng = random.Random(24)

    def weights(m):
        return [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(m)]

    lattices = [
        graphic_lattice(_random_connected_digraph(rng, 12, 24), weights(24)),
        cographic_lattice(_random_connected_digraph(rng, 9, 14), weights(14)),
        _k5_vfk(rng),
    ]
    assert [lat.m for lat in lattices] == [24, 14, 10]
    for lat in lattices:
        basis = kernel_basis(lat.matrix)
        assert basis
        t = [F(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(lat.m)]
        p = project_onto_span(t, lat)
        assert all(s == 0 for s in lat.matrix.apply(p))
        assert project_onto_span(p, lat) == p
        residual = [a - b for a, b in zip(t, p)]
        for b in basis:
            assert inner_product(residual, b, lat.weights) == 0


def test_project_matches_fraction_elimination():
    rng = random.Random(1009)

    def weights(m):
        return [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(m)]

    lattices = corpus_small() + [
        graphic_lattice(_random_connected_digraph(rng, 12, 24), weights(24)),
        cographic_lattice(_random_connected_digraph(rng, 9, 14), weights(14)),
    ]
    assert [lat.m for lat in lattices[-2:]] == [24, 14]
    for lat in lattices:
        for _ in range(3):
            t = [F(rng.randint(-10**9, 10**9), rng.randint(1, 1000))
                 for _ in range(lat.m)]
            assert project_onto_span(t, lat) == project(t, lat)


def test_project_zero_kernel_returns_zero():
    from zonolat import ZonotopalLattice

    lat = ZonotopalLattice(matrix=tu_matrix([[1, 0], [0, 1]]), weights=(1, 1))
    assert project_onto_span((F(5, 7), -3), lat) == (0, 0)


def test_project_without_rows_returns_target():
    from zonolat import ZonotopalLattice

    lat = ZonotopalLattice(matrix=tu_matrix([], width=3), weights=(1, F(2, 3), 5))
    assert project_onto_span((F(5, 7), -3, 0), lat) == (F(5, 7), -3, 0)


@pytest.mark.parametrize("coords, member", [
    ((1, -1, 0), True), ((F(1), F(-1), 0), True), ((True, -1, False), True),
    ((1, 0, 0), False), ((F(1, 2), F(-1, 2), 0), False), ((1.0, -1, 0), False),
    (("a", 0, 0), False), ((None, 0, 0), False), (("1", "-1", "0"), False),
])
def test_contains_refuses_entries_that_are_not_integers(coords, member):
    # a string or None once raised, and a float was summed as a float
    assert a2().contains(coords) is member


@pytest.mark.parametrize("entry", [0.1, 1.0, "abc", None, "1/0", 1j])
def test_rationals_refuse_floats_and_unparsable_entries(entry):
    # a float was taken at its binary value (0.1 became a weight over 2^55),
    # and the rest raised a bare ValueError, TypeError or ZeroDivisionError
    builds = [lambda: frac_vec([entry]),
              lambda: a_n_lattice(2, [entry, 1, 1]),
              lambda: cvp_instance(a2(), [entry, 0, 0]),
              lambda: obtuse_superbasis_gram([[entry, -1], [-1, 1]])]
    for build in builds:
        with pytest.raises(InvalidInputError, match="expected a rational"):
            build()


def test_a_scalar_where_a_vector_belongs_is_a_dimension_error():
    # these once raised a bare TypeError from iterating or taking len() of 5
    builds = [lambda: frac_vec(5),
              lambda: a_n_lattice(2, 5),
              lambda: cvp_instance(a2(), 5),
              lambda: cvp_instance(a2(), 5, project=False),
              lambda: project_onto_span(5, a2())]
    for build in builds:
        with pytest.raises(DimensionError, match="expected a .*vector, got 5"):
            build()


def _a2_instance():
    return cvp_instance(a2(), (F(1, 2), F(-1, 2), 0), project=False)


#: (name, reader, a vector it takes, predicate): the reader is called with
#: one argument in the place of a vector, a matrix or a row, and a
#: predicate answers False where the others raise.
SHAPE_READERS = [
    ("int_vec", int_vec, [1, -1, 0], False),
    ("frac_vec", frac_vec, ["1/2", 1, 0], False),
    ("contains", lambda x: a2().contains(x), [1, -1, 0], True),
    ("apply", lambda x: a2().matrix.apply(x), [1, 2, 3], False),
    ("distance_sq", lambda x: _a2_instance().distance_sq(x), [1, -1, 0], False),
    ("dual_certificate_holds-v",
     lambda x: dual_certificate_holds(x, (F(0),), _a2_instance()), [0, 0, 0], True),
    ("dual_certificate_holds-y",
     lambda y: dual_certificate_holds((0, 0, 0), y, _a2_instance()), [F(1, 2)], True),
    ("compute_lambda", lambda x: compute_lambda(x, _a2_instance())[0], [1, -1, 0], False),
    ("norm_sq", lambda x: a2().norm_sq(x), [1, -1, 0], False),
    ("primitive_chain", lambda x: primitive_chain(x, a2()), [1, -1, 0], False),
    ("inner_product-x", lambda x: inner_product(x, (1, 1, 1), (1, 1, 1)), [1, 2, 3], False),
    ("inner_product-g", lambda g: inner_product((1, 1, 1), (1, 1, 1), g), [1, 2, 3], False),
    ("digraph-arcs", lambda arcs: digraph(3, arcs), [(0, 1), (1, 2)], False),
    ("digraph-arc", lambda arc: digraph(3, [arc]), [0, 1], False),
    ("obtuse_superbasis_gram", obtuse_superbasis_gram, [[1, -1], [-1, 1]], False),
    ("obtuse_superbasis_gram-row",
     lambda row: obtuse_superbasis_gram([row, [-1, 1]]), [1, -1], False),
    ("a_n_lattice", lambda g: a_n_lattice(2, g), [1, 2, 3], False),
    ("cvp_instance", lambda t: cvp_instance(a2(), t), ["1/2", 0, 0], False),
    ("cvp_instance-no-project",
     lambda t: cvp_instance(a2(), t, project=False), ["1/2", "-1/2", 0], False),
    ("project_onto_span", lambda t: project_onto_span(t, a2()), ["1/2", 0, 0], False),
    ("TUMatrix", lambda rows: TUMatrix(entries=rows, m=3), [[1, 1, 1]], False),
    ("TUMatrix-row", lambda row: TUMatrix(entries=(row,), m=3), [1, 1, 1], False),
    ("tu_matrix", tu_matrix, [[1, 1, 1]], False),
    ("tu_matrix-row", lambda row: tu_matrix([row], mode="verify", width=3), [1, 1, 1], False),
    ("heller_tompkins", heller_tompkins, [[1, 1, 1]], False),
    ("heller_tompkins-row", lambda row: heller_tompkins([row]), [1, 1, 1], False),
]

#: Readers that take any number of entries or rows, or rows of any one
#: length, so that no length is wrong for them.
ANY_LENGTH = {"int_vec", "frac_vec", "digraph-arcs", "obtuse_superbasis_gram",
              "obtuse_superbasis_gram-row", "TUMatrix", "tu_matrix", "heller_tompkins",
              "heller_tompkins-row"}

#: What the shape rule refuses in the place of a vector `good`.
NOT_VECTORS = {
    "scalar": lambda good: 5,
    "None": lambda good: None,
    "str": lambda good: "12",
    "set": lambda good: {3, 1, 2},
    "dict": lambda good: {"1": 0},
    "generator": lambda good: (x for x in good),
    "length": lambda good: good + good[:1],
}


@pytest.mark.parametrize("kind", list(NOT_VECTORS))
@pytest.mark.parametrize("name, read, good, predicate", SHAPE_READERS,
                         ids=[r[0] for r in SHAPE_READERS])
def test_one_shape_rule_for_every_vector_and_row(name, read, good, predicate, kind):
    # a scalar once raised a bare TypeError here, and "12" or a set were
    # read as the vector of their entries
    assert read(list(good)) == read(tuple(good))
    if kind == "length" and name in ANY_LENGTH or (name, kind) == ("a_n_lattice", "None"):
        return  # None is a_n_lattice's default, all-ones weights
    bad = NOT_VECTORS[kind](good)
    if predicate:
        assert read(bad) is False
    else:
        with pytest.raises(DimensionError):
            read(bad)


def test_rationals_accept_ints_bools_fractions_and_strings():
    entries = [2, True, F(-1, 3), "3/4", "0.1", " 5 "]
    assert frac_vec(entries) == (2, 1, F(-1, 3), F(3, 4), F(1, 10), 5)
    assert a_n_lattice(2, ["1/2", True, 3]).weights == (F(1, 2), 1, 3)
    assert cvp_instance(a2(), ["1/2", F(-1, 2), 0]).target == (F(1, 2), F(-1, 2), 0)
    gram = obtuse_superbasis_gram([["1", -1], [F(-1), True]])
    assert gram.gram == ((1, -1), (-1, 1))


# ---------------------------------------------------------------------------
# Conformal decomposition
# ---------------------------------------------------------------------------


def _conformal_brute_force(v, lattice):
    """All multisets of primitive chains that sum to v sign-compatibly."""
    chains = [c.coords for c in enumerate_primitive_chains(lattice)]
    compatible = [
        c for c in chains
        if all(ci * vi >= 0 for ci, vi in zip(c, v))
        and all(vi != 0 for ci, vi in zip(c, v) if ci != 0)
    ]
    total = sum(abs(x) for x in v)
    results = []
    for s in range(0, total + 1):
        for combo in itertools.combinations_with_replacement(compatible, s):
            if all(sum(c[i] for c in combo) == v[i] for i in range(len(v))):
                results.append(sorted(combo))
    return results


def test_conformal_examples():
    lat = a2()
    assert conformal_decompose((0, 0, 0), lat) == []
    only = conformal_decompose((1, 0, -1), lat)
    assert [c.coords for c in only] == [(1, 0, -1)]
    parts = sorted(c.coords for c in conformal_decompose((2, -1, -1), lat))
    assert parts == [(1, -1, 0), (1, 0, -1)]
    assert parts in _conformal_brute_force((2, -1, -1), lat)


def test_conformal_properties_random():
    rng = random.Random(23)
    for lat in corpus_small():
        basis = kernel_basis(lat.matrix)
        chain_set = {c.coords for c in enumerate_primitive_chains(lat)}
        for _ in range(6):
            v = [0] * lat.m
            for b in basis:
                a = rng.randint(-2, 2)
                for i in range(lat.m):
                    v[i] += a * b[i]
            parts = conformal_decompose(v, lat)
            assert (len(parts) == 0) == (not any(v))
            total = [0] * lat.m
            for p in parts:
                assert p.coords in chain_set
                assert all(c * vi >= 0 for c, vi in zip(p.coords, v))
                for q in parts:
                    assert all(a * b >= 0 for a, b in zip(p.coords, q.coords))
                for i in range(lat.m):
                    total[i] += p.coords[i]
            assert tuple(total) == tuple(v)
            assert len(parts) <= sum(abs(x) for x in v)


def test_chain_signs():
    assert chain_signs([2, 0, -2]) == (1, 0, -1)
    assert chain_signs((F(1, 3), F(0), F(-1, 3), F(1, 3))) == (1, 0, -1, 1)
    assert chain_signs([F(0), F(1, 2), F(1, 2)]) == (0, 1, 1)
    for values in ([0, 0, 0], [], [F(0), F(0)]):
        with pytest.raises(InternalInvariantError, match="zero"):
            chain_signs(values)
    for values in ([1, 0, -2], [F(1, 2), F(1, 3)], [2, F(-1)]):
        with pytest.raises(InternalInvariantError, match="not a rescaled primitive chain"):
            chain_signs(values)


def test_conformal_rejects_non_member():
    with pytest.raises(InvalidInputError):
        conformal_decompose((1, 0, 0), a2())


def test_conformal_refuses_above_the_enumeration_cap():
    lat = a_n_lattice(14)
    assert lat.m == 15
    with pytest.raises(SizeCapError):
        conformal_decompose((1, -1) + (0,) * 13, lat)


# ---------------------------------------------------------------------------
# TU matrices
# ---------------------------------------------------------------------------


def test_tu_matrix_entry_validation():
    with pytest.raises(InvalidInputError):
        tu_matrix([[2, 0]], mode="assert")
    # ragged rows and a wrong declared width are shape errors
    with pytest.raises(DimensionError, match="declared shape"):
        tu_matrix([[1, 0], [1]], mode="assert")
    with pytest.raises(DimensionError, match="declared shape"):
        TUMatrix(entries=((1, 0), (1,)), m=2)
    with pytest.raises(DimensionError, match="declared width 3"):
        tu_matrix([[1, 0]], mode="assert", width=3)
    # a flat row once raised TypeError from len() on its first entry
    for build in (lambda: tu_matrix([1, 0, -1]),
                  lambda: tu_matrix([1, 0, -1], mode="assert", width=3),
                  lambda: TUMatrix(entries=(1, 0, -1), m=3)):
        with pytest.raises(DimensionError, match="must be a list or tuple"):
            build()


def test_tu_matrix_refuses_an_unknown_mode_and_a_missing_width():
    with pytest.raises(InvalidInputError, match="unknown TU mode 'auto'"):
        tu_matrix([[1, 0]], mode="auto")
    with pytest.raises(InvalidInputError, match="width is required"):
        tu_matrix([], mode="assert")


def test_tu_checks_refuse_a_flat_row():
    # a flat row once raised a bare TypeError from _unit_entries
    for check in (heller_tompkins, tu_verdict, tu_decidable, ghouila_houri_ok):
        with pytest.raises(DimensionError, match="must be a list or tuple"):
            check([1, 0, -1])


@pytest.mark.parametrize("check, rows", [
    (heller_tompkins, [[1, 1], [1]]),
    (tu_verdict, [[1, 1, 1], [1]]),
    (tu_decidable, [[1, 1], [1]]),
    (ghouila_houri_ok, [[1, 1], [1]]),
    (check_tu, [[1, 1], [1]]),
])
def test_tu_checks_refuse_a_ragged_matrix(check, rows):
    # zip(*rows) once truncated the longer row, so the first four called
    # the matrix TU, and check_tu raised a bare IndexError
    with pytest.raises(DimensionError, match="entry array does not match the declared shape"):
        check(rows)


#: Entries that equal or truncate to a unit but are not ints.
NOT_INTS = [1.9, 1.0, F(3, 2), F(1), "1", None]


@pytest.mark.parametrize("mode", ["verify", "assert"])
@pytest.mark.parametrize("entry", NOT_INTS)
def test_tu_matrix_refuses_entries_that_are_not_ints(entry, mode):
    # int() once truncated 1.9 and 3/2 to 1 and called the matrix verified,
    # and TUMatrix took 1.0, so a lattice on it failed with a TypeError in
    # project_onto_span; a TypeError here would escape pytest.raises
    with pytest.raises(InvalidInputError, match="must lie in"):
        tu_matrix([[entry, 1, 1]], mode=mode)
    with pytest.raises(InvalidInputError, match="must lie in"):
        TUMatrix(entries=((entry, 1, 1),), m=3)


@pytest.mark.parametrize("entry, unit", [(True, True), (False, True), (2, False),
                                         (-2, False)] + [(e, False) for e in NOT_INTS])
def test_entry_checks_treat_bools_as_ints(entry, unit):
    # True and False equal 1 and 0, so every entry check accepts them as
    # those ints; 2 and -2 are 1 x 1 minors that refute TU, and an entry
    # that is not an int is refused by the same rule, never truncated
    rows = ((1, 0, -1), (0, entry, 1))
    assert heller_tompkins(rows) is unit
    assert ghouila_houri_ok(rows) is unit
    assert check_tu(rows) is unit
    if unit:
        for entries in (TUMatrix(entries=rows, m=3).entries,
                        tu_matrix(rows, mode="verify").entries,
                        tu_matrix(rows, mode="assert").entries):
            assert entries == rows and {type(e) for row in entries for e in row} == {int}
    else:
        with pytest.raises(InvalidInputError, match="must lie in"):
            TUMatrix(entries=rows, m=3)
        for mode in ("verify", "assert"):
            with pytest.raises(InvalidInputError, match="must lie in"):
                tu_matrix(rows, mode=mode)


def test_tu_matrix_verify_rejects_bad_matrix():
    with pytest.raises(InvalidInputError, match="not totally unimodular"):
        tu_matrix([[1, 1], [-1, 1]], mode="verify")


def test_tu_matrix_verify_cap():
    # the 32 x 64 cographic matrix of a 33-vertex digraph reduces to
    # 24 x 26, still above the cap, and no polynomial test decides it
    lat = cographic_lattice(_random_connected_digraph(random.Random(33), 33, 64))
    assert tu_decidable(lat.matrix.entries) is False
    with pytest.raises(SizeCapError, match="32 x 64 matrix reduces to 24 x 26"):
        tu_matrix(lat.matrix.entries, mode="verify")


def test_tu_matrix_verifies_repeated_unit_rows_above_the_cap():
    # 25 copies of one unit row: the reduction leaves nothing
    assert tu_reduce([[1, 0, 0]] * 25) == ()
    assert tu_matrix([[1, 0, 0]] * 25, mode="verify").n == 25


#: Two nonzeros in every line and no repeats: a fixed point of tu_reduce.
#: It is not TU (determinant 2), which the reduction does not look at.
CORE_3X3 = ((1, 1, 0), (0, 1, 1), (1, 0, 1))


def _with_column(rows, column):
    return tuple(row + (e,) for row, e in zip(rows, column))


def test_tu_reduce_deletes_lines_with_at_most_one_nonzero():
    assert tu_reduce(CORE_3X3) == CORE_3X3
    assert tu_reduce(CORE_3X3 + ((0, 0, -1),)) == CORE_3X3
    assert tu_reduce(CORE_3X3 + ((0, 0, 0),)) == CORE_3X3
    assert tu_reduce(_with_column(CORE_3X3, (0, 1, 0))) == CORE_3X3
    # a path cascades: each deletion leaves another line with one nonzero
    assert tu_reduce([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]) == ()
    assert tu_reduce([]) == () and tu_reduce([[]]) == ()


def test_tu_reduce_deletes_repeats_up_to_sign():
    assert tu_reduce(CORE_3X3 + ((-1, -1, 0),)) == CORE_3X3
    assert tu_reduce(CORE_3X3 + ((0, 1, 1),)) == CORE_3X3
    assert tu_reduce(_with_column(CORE_3X3, (-1, 0, -1))) == CORE_3X3
    # [[1, 1], [1, -1]] keeps both rows: they differ in sign in one column
    assert tu_reduce([[1, 1], [1, -1]]) == ((1, 1), (1, -1))


def test_tu_reduce_transposes_to_the_shorter_side():
    tall = CORE_3X3 + ((1, 1, 1),)
    assert tu_reduce(tall) == tuple(zip(*tall))
    assert tu_reduce(tuple(zip(*tall))) == tuple(zip(*tall))
    assert tu_verdict(tall) is check_tu(tall) is False


def _random_matrix(rng, max_rows, max_columns):
    """A random {-1,0,+1} matrix of at least 2 x 2 within the given shape:
    half the time uniform with at least a third of its entries nonzero,
    and otherwise a submatrix of a cographic (so TU) matrix with rows and
    columns negated and, a third of the time, one entry changed."""
    n, m = rng.randint(2, max_rows), rng.randint(2, max_columns)
    if rng.random() < 0.5:
        density = rng.uniform(1 / 3, 1)
        return [[rng.choice((-1, 1)) if rng.random() < density else 0
                 for _ in range(m)] for _ in range(n)]
    vertices = rng.randint(3, 8)
    d = _random_connected_digraph(rng, vertices, vertices + rng.randint(n, n + 4))
    entries = cographic_lattice(d).matrix.entries
    ri = rng.sample(range(len(entries)), min(n, len(entries)))
    ci = rng.sample(range(len(entries[0])), min(m, len(entries[0])))
    rs = [rng.choice((-1, 1)) for _ in ri]
    cs = [rng.choice((-1, 1)) for _ in ci]
    rows = [[r * c * entries[i][j] for c, j in zip(cs, ci)] for r, i in zip(rs, ri)]
    if rng.random() < 1 / 3:
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
        rows[i][j] = rng.choice([e for e in (-1, 0, 1) if e != rows[i][j]])
    return rows


def test_tu_verdict_matches_oracle_random():
    rng = random.Random(1965)
    verdicts = []
    for _ in range(600):
        rows = _random_matrix(rng, 7, 9)
        verdict = tu_verdict(rows)
        assert verdict == check_tu(rows), rows
        assert tu_decidable(rows)
        assert ghouila_houri_ok(tu_reduce(rows)) == verdict, rows
        verdicts.append(verdict)
    # both verdicts are well represented
    assert 150 < verdicts.count(True) < 450


def test_tu_verdict_matches_minor_oracle_random():
    rng = random.Random(1986)
    verdicts = []
    for _ in range(300):
        rows = _random_matrix(rng, 4, 4)
        verdict = tu_verdict(rows)
        assert verdict == _tu_by_minors(rows), rows
        verdicts.append(verdict)
    assert 50 < verdicts.count(True) < 250


def test_tu_matrix_verifies_incidence_matrix_above_the_cap():
    # a directed path on 25 vertices: Heller-Tompkins decides at any size
    rows = [[0] * 24 for _ in range(25)]
    for j in range(24):
        rows[j][j] = -1
        rows[j + 1][j] = 1
    tu_matrix(rows, mode="verify")  # builds without raising


def _two_per_column_matrices(n, m):
    """Every {-1,0,+1} n x m matrix with at most two nonzeros per column."""
    columns = [c for c in itertools.product((-1, 0, 1), repeat=n)
               if sum(1 for e in c if e) <= 2]
    for cols in itertools.product(columns, repeat=m):
        yield [[col[i] for col in cols] for i in range(n)]


def test_heller_tompkins_matches_ghouila_houri_exhaustively():
    sizes = [(n, m) for n in range(1, 4) for m in range(1, 4)] + [(4, 1), (4, 2)]
    count = 0
    for n, m in sizes:
        for rows in _two_per_column_matrices(n, m):
            assert heller_tompkins(rows) == ghouila_houri_ok(rows), rows
            count += 1
    # 3, 9, 19 and 33 admissible columns for 1, 2, 3 and 4 rows
    assert count == (3 + 3 ** 2 + 3 ** 3) + (9 + 9 ** 2 + 9 ** 3) \
        + (19 + 19 ** 2 + 19 ** 3) + (33 + 33 ** 2)


def test_heller_tompkins_matches_ghouila_houri_random():
    rng = random.Random(1956)
    for _ in range(300):
        n = rng.randint(1, 8)
        m = rng.randint(1, 8)
        rows = [[0] * m for _ in range(n)]
        for j in range(m):
            for i in rng.sample(range(n), min(n, rng.randint(0, 2))):
                rows[i][j] = rng.choice((-1, 1))
        assert heller_tompkins(rows) == ghouila_houri_ok(rows), rows


def test_heller_tompkins_rejects_and_defers():
    assert heller_tompkins([[1, 1], [1, -1]]) is False
    with pytest.raises(InvalidInputError, match="not totally unimodular"):
        tu_matrix([[1, 1], [1, -1]], mode="verify")
    assert heller_tompkins([[1], [1], [1]]) is None
    assert heller_tompkins([[1, 0], [-1, 1], [0, 1], [0, -1]]) is None
    assert heller_tompkins([]) is True


def test_families_never_run_the_exhaustive_check(monkeypatch):
    def spy(rows):
        raise AssertionError("ghouila_houri_ok called")

    monkeypatch.setattr("zonolat.core.ghouila_houri_ok", spy)
    incidence_matrix(k4_digraph())
    a_n_lattice(3)
    tensor_lattice(2, 3)
    cographic_lattice(k4_digraph())
    gram = obtuse_superbasis_gram([[3, -1, -1, -1], [-1, 3, -1, -1],
                                   [-1, -1, 3, -1], [-1, -1, -1, 3]])
    voronoi_first_kind(gram)


def test_graphic_lattice_verified_at_33_vertices():
    lat = graphic_lattice(_random_connected_digraph(random.Random(33), 33, 64))
    assert (lat.matrix.n, lat.m) == (33, 64)


def test_cographic_lattice_verified_at_33_vertices():
    # 32 rows, some forest arc's column with three or more nonzeros:
    # neither Heller-Tompkins nor the capped exhaustive check could decide
    d = _random_connected_digraph(random.Random(33), 33, 64)
    start = time.perf_counter()
    lat = cographic_lattice(d)
    assert time.perf_counter() - start < 1
    assert (lat.matrix.n, lat.m) == (32, 64)
    assert heller_tompkins(lat.matrix.entries) is None


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    a = [[F(x) for x in r] for r in rows]
    det = F(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return F(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _tu_by_minors(rows):
    """Independent oracle: every square submatrix has determinant in {-1,0,1}."""
    n, m = len(rows), len(rows[0])
    for k in range(1, min(n, m) + 1):
        for ri in itertools.combinations(range(n), k):
            for ci in itertools.combinations(range(m), k):
                sub = [[rows[r][c] for c in ci] for r in ri]
                if _det(sub) not in (-1, 0, 1):
                    return False
    return True


def test_ghouila_houri_matches_minor_oracle():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = [[rng.choice([-1, 0, 1]) for _ in range(m)] for _ in range(n)]
        assert ghouila_houri_ok(rows) == _tu_by_minors(rows), rows


def test_chain_membership_checked():
    lat = a2()
    assert primitive_chain((1, 0, -1), lat).coords == (1, 0, -1)
    with pytest.raises(InvalidInputError):
        primitive_chain((1, 0, 0), lat)


@pytest.mark.parametrize("coords, message", [
    ((0, 0, 0), "a primitive chain is nonzero"),
    ((2, -2, 0), "primitive chain entries must lie in"),
])
def test_primitive_chain_refuses_zero_and_non_unit_vectors(coords, message):
    with pytest.raises(InvalidInputError, match=message):
        primitive_chain(coords, a2())
