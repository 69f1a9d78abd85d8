"""Constructors for the standard zonotopal lattice families.

Graphic lattices (integral circulations of a digraph), cographic lattices
(integral cuts, represented through a fundamental-cycle matrix), lattices
of Voronoi's first kind from an obtuse-superbasis Gram matrix, the root
lattices A_n, and tensor products A_m (x) A_n as complete bipartite
graphic lattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    FracVec,
    IntVec,
    TUMatrix,
    ZonotopalLattice,
    _vector,
    frac_vec,
    tu_matrix,
)
from .errors import (
    InternalInvariantError,
    InvalidInputError,
)


@dataclass(frozen=True)
class Digraph:
    """Directed multigraph without self-loops; vertices are 0..vertex_count-1.
    The arcs are a list or tuple of (tail, head) pairs (`_vector`), kept as
    tuples."""

    vertex_count: int
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        arcs = tuple(tuple(_vector(a, 2, "arc")) for a in _vector(self.arcs, None, "arc list"))
        object.__setattr__(self, "arcs", arcs)
        for tail, head in arcs:
            if not (isinstance(tail, int) and isinstance(head, int)):
                raise InvalidInputError(
                    f"arc ({tail!r}, {head!r}) has an end that is not an int")
            if tail == head:
                raise InvalidInputError(f"self-loop at vertex {tail} is not allowed")
            if not (0 <= tail < self.vertex_count and 0 <= head < self.vertex_count):
                raise InvalidInputError(f"arc ({tail}, {head}) leaves the vertex range")


def digraph(vertex_count: int, arcs: Sequence[tuple[int, int]]) -> Digraph:
    """The Digraph of arcs, a list or tuple of (tail, head) pairs."""
    return Digraph(vertex_count=vertex_count, arcs=arcs)


def component_count(vertex_count: int, arcs: Sequence[tuple[int, int]]) -> int:
    """Connected components of the graph; self-loops join nothing.

    An arc that leaves the vertex range raises InvalidInputError.
    """
    kept = [(t, h) for t, h in arcs if t != h or not 0 <= t < vertex_count]
    parent, _ = _dfs_forest(digraph(vertex_count, kept))
    return parent.count(None)


def _incidence_rows(d: Digraph) -> list[list[int]]:
    """Vertex-arc incidence rows: -1 at the tail, +1 at the head."""
    rows = [[0] * len(d.arcs) for _ in range(d.vertex_count)]
    for j, (tail, head) in enumerate(d.arcs):
        rows[tail][j] = -1
        rows[head][j] = 1
    return rows


def incidence_matrix(d: Digraph) -> TUMatrix:
    """Vertex-arc incidence matrix: -1 at the tail, +1 at the head.

    Verified totally unimodular at any size by Heller-Tompkins: every column
    holds one +1 and one -1.
    """
    return tu_matrix(_incidence_rows(d), mode="verify", width=len(d.arcs))


def graphic_lattice(d: Digraph, g: Sequence | None = None) -> ZonotopalLattice:
    """Lattice of integral circulations of d; primitive chains are the
    signed simple cycles of the underlying graph."""
    weights = (Fraction(1),) * len(d.arcs) if g is None else g
    return ZonotopalLattice(matrix=incidence_matrix(d), weights=weights)


def _dfs_forest(d: Digraph) -> tuple[list[int | None], list[int]]:
    """Spanning forest chosen by lowest-index depth-first search, as the
    parent arc (None at a root) and the depth of every vertex.

    Each root is the lowest vertex of its component, and each vertex scans
    its arcs in index order.  The search keeps its own stack, so a deep
    forest needs no recursion.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(d.vertex_count)]
    for idx, (tail, head) in enumerate(d.arcs):
        adj[tail].append((idx, head))
        adj[head].append((idx, tail))
    parent: list[int | None] = [None] * d.vertex_count
    depth = [-1] * d.vertex_count
    for root in range(d.vertex_count):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        stack = [(root, iter(adj[root]))]
        while stack:
            v, arcs = stack[-1]
            for idx, w in arcs:
                if depth[w] < 0:
                    parent[w], depth[w] = idx, depth[v] + 1
                    stack.append((w, iter(adj[w])))
                    break
            else:
                stack.pop()
    return parent, depth


def cographic_lattice(d: Digraph, g: Sequence | None = None) -> ZonotopalLattice:
    """Lattice of integral cuts of d, as ker C for the fundamental-cycle
    matrix C of a deterministic spanning forest.

    C has one row per non-forest arc; up to column order it is [I | N^T]
    for the network matrix N of the forest, so it is totally unimodular
    by construction (Tutte 1965), at any size, and no TU test runs on it.
    Its kernel is the orthogonal complement of the cycle space; primitive
    chains are the signed bonds of d.  The row of arc (tail, head) is +1
    there and walks the forest path from head back to tail: both ends
    climb to their common ancestor, and each forest arc gets +1 when the
    path runs along it, -1 when against it.
    """
    m = len(d.arcs)
    parent, depth = _dfs_forest(d)
    tree = set(parent)
    rows = []
    for idx, (tail, head) in enumerate(d.arcs):
        if idx in tree:
            continue
        row = [0] * m
        row[idx] = 1
        cycle = [idx]
        a, b = head, tail  # the path runs from a up, then down to b
        while a != b:
            if depth[a] >= depth[b]:
                j = parent[a]
                t, h = d.arcs[j]
                row[j] = 1 if t == a else -1  # along the arc when it leaves a
                a = h if t == a else t
            else:
                j = parent[b]
                t, h = d.arcs[j]
                row[j] = 1 if h == b else -1  # along the arc when it enters b
                b = t if h == b else h
            cycle.append(j)
        net = [0] * d.vertex_count
        for j in cycle:
            net[d.arcs[j][0]] -= row[j]
            net[d.arcs[j][1]] += row[j]
        if any(net):
            raise InternalInvariantError("fundamental cycle is not a circulation")
        rows.append(tuple(row))
    weights = (Fraction(1),) * m if g is None else g
    return ZonotopalLattice(matrix=TUMatrix(entries=rows, m=m), weights=weights)


# ---------------------------------------------------------------------------
# Lattices of Voronoi's first kind
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObtuseSuperbasisGram:
    """Gram matrix of n+1 superbasis vectors: rows sum to zero, off-diagonal
    entries are nonpositive, and the minor on rows/columns 1..n is positive
    definite, all checked at construction."""

    gram: tuple[FracVec, ...]

    def __post_init__(self):
        gram = self.gram
        k = len(gram)
        if k < 2 or any(len(r) != k for r in gram):
            raise InvalidInputError("Gram matrix must be square of size at least 2")
        if any(gram[i][j] != gram[j][i] for i in range(k) for j in range(k)):
            raise InvalidInputError("Gram matrix must be symmetric")
        if any(sum(row) != 0 for row in gram):
            raise InvalidInputError("superbasis condition violated: rows must sum to zero")
        if any(gram[i][j] > 0 for i in range(k) for j in range(k) if i != j):
            raise InvalidInputError(
                "superbasis condition violated: off-diagonal entries must be nonpositive"
            )
        # The checks above make G the Laplacian of its Delone graph, so by the
        # matrix-tree theorem the basis minor is positive definite exactly
        # when that graph is connected.
        if component_count(k, _delone_arcs(gram)) != 1:
            raise InvalidInputError(
                "superbasis condition violated: basis minor is not positive definite"
            )

    @property
    def size(self) -> int:
        return len(self.gram)


def obtuse_superbasis_gram(rows: Sequence[Sequence]) -> ObtuseSuperbasisGram:
    """The Gram matrix of rows, a list or tuple of rows that `frac_vec` reads."""
    return ObtuseSuperbasisGram(gram=tuple(map(frac_vec, _vector(rows, None, "Gram matrix"))))


def _delone_arcs(gram: Sequence[Sequence[Fraction]]) -> list[tuple[int, int]]:
    """Arc i -> j for every i < j with G_ij < 0."""
    k = len(gram)
    return [(i, j) for i in range(k) for j in range(i + 1, k) if gram[i][j] < 0]


def voronoi_first_kind(gram: ObtuseSuperbasisGram
                       ) -> tuple[ZonotopalLattice, tuple[IntVec, ...]]:
    """Cographic realization of the lattice described by an obtuse-superbasis
    Gram matrix.

    The Delone graph gets an arc i -> j for every i < j with G_ij < 0,
    weighted by -G_ij; the rows of its incidence matrix form a superbasis of
    the cut lattice whose Gram matrix under ( , )_g reproduces G exactly.
    The graph is connected, as the type has checked.
    """
    g = gram.gram
    k = gram.size
    arcs = _delone_arcs(g)
    weights = [-g[i][j] for i, j in arcs]
    d = digraph(k, arcs)
    lattice = cographic_lattice(d, weights)
    # every incidence row r_i is in the cut lattice: (M r_i)_c is the net
    # flow of fundamental cycle c at vertex i, and cographic_lattice has
    # asserted that every fundamental cycle is a circulation
    superbasis = tuple(tuple(row) for row in _incidence_rows(d))
    # column a of the superbasis is nonzero only at its arc's two ends, so
    # it adds g_a s_i s_j to (row i, row j)_g for those ends i, j alone
    got = [[Fraction(0)] * k for _ in range(k)]
    for a, (ends, w) in enumerate(zip(d.arcs, lattice.weights)):
        for i in ends:
            for j in ends:
                got[i][j] += w * superbasis[i][a] * superbasis[j][a]
    for i in range(k):
        for j in range(k):
            if got[i][j] != g[i][j]:
                raise InternalInvariantError(
                    f"image Gram mismatch at ({i}, {j}): {got[i][j]} != {g[i][j]}"
                )
    return lattice, superbasis


# ---------------------------------------------------------------------------
# Root lattices A_n and their tensor products
# ---------------------------------------------------------------------------


def a_n_lattice(n: int, g: Sequence | None = None) -> ZonotopalLattice:
    """A_n = sum-zero integer vectors in Z^{n+1}; one all-ones constraint row."""
    if n < 1:
        raise InvalidInputError("n must be at least 1")
    weights = g if g is not None else (Fraction(1),) * (n + 1)
    matrix = tu_matrix([[1] * (n + 1)], mode="verify")
    return ZonotopalLattice(matrix=matrix, weights=weights)


def tensor_basis_vector(m: int, n: int, i: int, j: int) -> IntVec:
    """The (i, j) product basis vector on the (m+1)(n+1) arc coordinates:
    +1 at (i, j) and (i+1, j+1), -1 at (i, j+1) and (i+1, j)."""
    vec = [0] * ((m + 1) * (n + 1))
    w = n + 1
    vec[i * w + j] = 1
    vec[i * w + j + 1] = -1
    vec[(i + 1) * w + j] = -1
    vec[(i + 1) * w + j + 1] = 1
    return tuple(vec)


def tensor_lattice(m: int, n: int, g: Sequence | None = None) -> ZonotopalLattice:
    """A_m (x) A_n as the graphic lattice of K_{m+1,n+1}.

    Arc (i, j) runs from left vertex i to right vertex j for all i, j; under
    this uniform orientation every product basis vector is a circulation,
    which is asserted at build time.  The rank is m * n.
    """
    if m < 1 or n < 1:
        raise InvalidInputError("m and n must be at least 1")
    arcs = []
    for i in range(m + 1):
        for j in range(n + 1):
            arcs.append((i, m + 1 + j))
    d = digraph(m + n + 2, arcs)
    lattice = graphic_lattice(d, g)
    for i in range(m):
        for j in range(n):
            if not lattice.contains(tensor_basis_vector(m, n, i, j)):
                raise InternalInvariantError(
                    f"product basis vector ({i}, {j}) is not a circulation"
                )
    if lattice.rank() != m * n:
        raise InternalInvariantError(
            f"tensor lattice rank {lattice.rank()} != {m * n}"
        )
    return lattice
