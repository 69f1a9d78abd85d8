"""Lattice family constructors: incidence, cuts, superbases, tensors."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from conftest import k4_digraph, triangle_digraph
from zonolat import (
    DimensionError,
    InternalInvariantError,
    InvalidInputError,
    ObtuseSuperbasisGram,
    ZonotopalLattice,
    a_n_lattice,
    cographic_lattice,
    constructions,
    digraph,
    enumerate_primitive_chains,
    graphic_lattice,
    incidence_matrix,
    inner_product,
    kernel_basis,
    obtuse_superbasis_gram,
    tensor_lattice,
    voronoi_first_kind,
)
from zonolat.constructions import component_count, tensor_basis_vector


def test_incidence_single_arc():
    m = incidence_matrix(digraph(2, [(0, 1)]))
    assert [row[0] for row in m.entries] == [-1, 1]
    assert (m.n, m.m) == (2, 1)


def test_incidence_triangle_kernel_dim():
    m = incidence_matrix(triangle_digraph())
    assert len(kernel_basis(m)) == 1  # 3 - 3 + 1


def test_incidence_disjoint_arcs_trivial_kernel():
    m = incidence_matrix(digraph(4, [(0, 1), (2, 3)]))
    assert len(kernel_basis(m)) == 0  # 2 - 4 + 2


def test_digraph_built_directly_takes_the_shape_rule():
    # the constructor once skipped digraph()'s shape rule: an arc of three
    # ends raised a bare ValueError from unpacking, and list arcs were kept
    # as lists, which a frozen dataclass cannot hash
    with pytest.raises(DimensionError, match="arc length 3 != coordinate count 2"):
        constructions.Digraph(3, ((0, 1, 2),))
    with pytest.raises(DimensionError, match="must be a list or tuple"):
        constructions.Digraph(3, ((0, 1), 5))
    d = constructions.Digraph(3, [[0, 1]])
    assert d == constructions.Digraph(3, ((0, 1),)) == digraph(3, [[0, 1]])
    assert hash(d) == hash(constructions.Digraph(3, ((0, 1),)))


def test_self_loop_rejected():
    with pytest.raises(InvalidInputError):
        digraph(2, [(1, 1)])


@pytest.mark.parametrize("arc", [(0.7, 1), (1, 2.9), (1.0, 2), (F(1), 2), ("0", 1),
                                 (None, 1)])
def test_digraph_refuses_ends_that_are_not_ints(arc):
    # int() once truncated (0.7, 1), (1, 2.9), (2, 0) to a triangle
    with pytest.raises(InvalidInputError, match="not an int"):
        digraph(3, [arc, (2, 0)])


def test_graphic_four_cycle_rank_one():
    d = digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    lat = graphic_lattice(d)
    assert lat.rank() == 1
    chains = enumerate_primitive_chains(lat)
    assert len(chains) == 2
    assert all(set(c.coords) <= {-1, 1} for c in chains)


def test_graphic_tree_rank_zero():
    d = digraph(4, [(0, 1), (1, 2), (1, 3)])
    assert graphic_lattice(d).rank() == 0


def test_graphic_triangle_chains():
    lat = graphic_lattice(triangle_digraph())
    assert {c.coords for c in enumerate_primitive_chains(lat)} == {
        (1, 1, 1), (-1, -1, -1)
    }


def test_cographic_single_arc_is_z1():
    lat = cographic_lattice(digraph(2, [(0, 1)]))
    assert lat.m == 1 and lat.rank() == 1
    assert {c.coords for c in enumerate_primitive_chains(lat)} == {(1,), (-1,)}


def test_cographic_triangle_six_bonds():
    lat = cographic_lattice(triangle_digraph())
    assert len(enumerate_primitive_chains(lat)) == 6


def test_cographic_k4_fourteen_bonds():
    lat = cographic_lattice(k4_digraph())
    assert len(enumerate_primitive_chains(lat)) == 14
    assert lat.rank() == 3  # |V| - k


def test_cographic_rank_disconnected():
    two_triangles = digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert cographic_lattice(two_triangles).rank() == 4  # |V| - k = 6 - 2


def test_cographic_orthogonal_to_cycles():
    d = k4_digraph()
    cyc = graphic_lattice(d)
    cut = cographic_lattice(d)
    ones = tuple(F(1) for _ in range(cut.m))
    for u in kernel_basis(cut.matrix):
        for v in kernel_basis(cyc.matrix):
            assert inner_product(u, v, ones) == 0
    assert cut.rank() + cyc.rank() == cut.m


NINE_VERTEX_ARCS = [(7, 5), (4, 2), (2, 0), (5, 8), (7, 1), (5, 8), (0, 6), (2, 7),
                    (6, 2), (2, 3), (0, 1), (2, 8), (1, 6), (1, 4), (6, 1), (4, 3)]


@pytest.mark.parametrize("d, rows", [
    (k4_digraph(), ["-+0-00", "-0+-0-", "000-+-"]),
    # parallel and antiparallel arcs, and vertices of degree one
    (digraph(9, NINE_VERTEX_ARCS), [
        "000-0+0000000000", "0++000+00000-+00", "0+00+00+00000+00",
        "0-000000+000+-00", "0+0000000+00000-", "0++0000000+00+00",
        "-+0-+000000+0+00", "000000000000+0+0",
    ]),
])
def test_cographic_fundamental_cycles_pinned(d, rows):
    # the fundamental-cycle matrix of the lowest-index depth-first forest,
    # entry by entry, so that problem files built from it stay the same
    sign = {"-": -1, "0": 0, "+": 1}
    expected = tuple(tuple(sign[e] for e in row) for row in rows)
    assert cographic_lattice(d).matrix.entries == expected


def test_cographic_rejects_a_cycle_that_is_not_a_circulation(monkeypatch):
    # the forest 0 -(0)- 1 -(1)- 2 with vertex 2 given parent arc 0, which
    # does not touch it: the path of arc 1 then walks arc 0 twice and
    # leaves a net flow at vertices 0, 1 and 2
    dfs_forest = constructions._dfs_forest

    def wrong_parent(d):
        parent, depth = dfs_forest(d)
        assert parent == [None, 0, 1]
        parent[2] = 0
        return parent, depth

    monkeypatch.setattr(constructions, "_dfs_forest", wrong_parent)
    with pytest.raises(InternalInvariantError, match="not a circulation"):
        cographic_lattice(digraph(3, [(0, 1), (1, 2), (0, 2)]))


# ---------------------------------------------------------------------------
# Voronoi's first kind
# ---------------------------------------------------------------------------

A2_GRAM = [[1, F(-1, 2), F(-1, 2)],
           [F(-1, 2), 1, F(-1, 2)],
           [F(-1, 2), F(-1, 2), 1]]


def test_vfk_a2_gram_roundtrip():
    lattice, rows = voronoi_first_kind(obtuse_superbasis_gram(A2_GRAM))
    assert lattice.m == 3  # Delone graph C_3
    assert lattice.weights == (F(1, 2), F(1, 2), F(1, 2))
    for i in range(3):
        for j in range(3):
            assert inner_product(rows[i], rows[j], lattice.weights) == A2_GRAM[i][j]


def test_vfk_z1():
    lattice, rows = voronoi_first_kind(obtuse_superbasis_gram([[1, -1], [-1, 1]]))
    assert lattice.m == 1 and lattice.rank() == 1
    assert len(rows) == 2


def test_vfk_a2_dual_complete_delone_graph():
    gram = [[F(2, 3), F(-1, 3), F(-1, 3)],
            [F(-1, 3), F(2, 3), F(-1, 3)],
            [F(-1, 3), F(-1, 3), F(2, 3)]]
    lattice, rows = voronoi_first_kind(obtuse_superbasis_gram(gram))
    assert lattice.m == 3  # K_3 on the three superbasis vectors
    for i in range(3):
        for j in range(3):
            assert inner_product(rows[i], rows[j], lattice.weights) == gram[i][j]


def test_vfk_image_gram_check_catches_a_wrong_weight(monkeypatch):
    # the check reads the Gram matrix off the lattice's weights, so a cut
    # lattice with one weight off must fail it
    from zonolat import constructions

    real = constructions.cographic_lattice

    def perturbed(d, g=None):
        lattice = real(d, g)
        weights = (lattice.weights[0] + 1,) + lattice.weights[1:]
        return ZonotopalLattice(matrix=lattice.matrix, weights=weights)

    monkeypatch.setattr(constructions, "cographic_lattice", perturbed)
    with pytest.raises(InternalInvariantError, match="image Gram mismatch"):
        voronoi_first_kind(obtuse_superbasis_gram(A2_GRAM))


def test_vfk_gram_validation_messages():
    with pytest.raises(InvalidInputError, match="sum to zero"):
        obtuse_superbasis_gram([[1, 0], [0, 1]])
    with pytest.raises(InvalidInputError, match="nonpositive"):
        obtuse_superbasis_gram([[1, 1, -2], [1, 1, -2], [-2, -2, 4]])
    with pytest.raises(InvalidInputError, match="positive definite"):
        obtuse_superbasis_gram([[0, 0], [0, 0]])
    with pytest.raises(InvalidInputError, match="positive definite"):
        obtuse_superbasis_gram([[1, -1, 0], [-1, 1, 0], [0, 0, 0]])
    with pytest.raises(InvalidInputError, match="symmetric"):
        obtuse_superbasis_gram([[1, -1], [0, 0]])


def test_obtuse_superbasis_gram_type_checks_itself():
    # built directly, bypassing obtuse_superbasis_gram, the type still
    # refuses a Gram matrix whose Delone graph is disconnected
    one, zero = F(1), F(0)
    with pytest.raises(InvalidInputError, match="positive definite"):
        ObtuseSuperbasisGram(gram=((one, -one, zero), (-one, one, zero), (zero, zero, zero)))
    assert ObtuseSuperbasisGram(gram=((one, -one), (-one, one))).size == 2


def _cofactor_det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * e * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, e in enumerate(rows[0]) if e)


def test_vfk_accepts_exactly_sylvester_laplacians():
    rng = random.Random(20261018)
    verdicts = []
    for _ in range(150):
        k = rng.randint(2, 6)
        gram = [[F(0)] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                if rng.random() < 0.45:
                    w = F(rng.randint(1, 6), rng.randint(1, 4))
                    gram[i][j] = gram[j][i] = -w
                    gram[i][i] += w
                    gram[j][j] += w
        minor = [row[1:] for row in gram[1:]]
        definite = all(_cofactor_det([row[:s] for row in minor[:s]]) > 0
                       for s in range(1, k))
        try:
            obtuse_superbasis_gram(gram)
            accepted = True
        except InvalidInputError as exc:
            assert "positive definite" in str(exc)
            accepted = False
        assert accepted == definite
        verdicts.append(accepted)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


# ---------------------------------------------------------------------------
# A_n and tensor products
# ---------------------------------------------------------------------------


def test_an_examples():
    assert {c.coords for c in enumerate_primitive_chains(a_n_lattice(1))} == {
        (1, -1), (-1, 1)
    }
    assert len(enumerate_primitive_chains(a_n_lattice(2))) == 6
    lat3 = a_n_lattice(3)
    assert lat3.rank() == 3
    assert len(enumerate_primitive_chains(lat3)) == 12


def test_tensor_ranks():
    assert tensor_lattice(1, 1).rank() == 1
    lat21 = tensor_lattice(2, 1)
    assert lat21.rank() == 2 and lat21.m == 6
    assert tensor_lattice(2, 2).rank() == 4


def test_tensor_basis_in_kernel_and_independent():
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]:
        lat = tensor_lattice(m, n)
        vecs = [tensor_basis_vector(m, n, i, j) for i in range(m) for j in range(n)]
        for v in vecs:
            assert lat.contains(v)
        # leading coordinates are distinct, so the family is independent
        leads = [next(i for i, c in enumerate(v) if c) for v in vecs]
        assert len(set(leads)) == len(vecs) == m * n


def test_tensor_weight_length_checked():
    with pytest.raises(Exception):
        tensor_lattice(1, 1, (1, 1))


@pytest.mark.parametrize("build", [graphic_lattice, cographic_lattice])
def test_arc_weight_count_is_checked_by_the_lattice(build):
    # the families leave the weights' count, type and sign to ZonotopalLattice
    with pytest.raises(DimensionError, match="weight length 2 != coordinate count 3"):
        build(triangle_digraph(), (1, 1))
    with pytest.raises(InvalidInputError, match="all weights must be positive"):
        build(triangle_digraph(), (1, 0, 1))


def test_component_count():
    assert component_count(4, [(0, 1), (2, 3)]) == 2
    assert component_count(3, [(0, 1), (1, 2)]) == 1
    assert component_count(3, [(1, 1), (0, 2), (2, 2)]) == 2  # self-loops join nothing


@pytest.mark.parametrize("arc", [(0, -1), (0, 5), (5, 5)])
def test_component_count_rejects_arcs_off_the_vertex_range(arc):
    # (0, -1) once indexed from the end and (0, 5) raised a bare IndexError
    with pytest.raises(InvalidInputError):
        component_count(3, [arc])
