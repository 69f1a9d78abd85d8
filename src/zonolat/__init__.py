"""Exact closest-vector solver for zonotopal lattices.

A zonotopal lattice is the set of integer points in the kernel of a
totally unimodular matrix, measured by a weighted inner product.  The
package provides constructors for the classic families (graphic and
cographic lattices, lattices of Voronoi's first kind, A_n and the tensor
products A_m (x) A_n), an iterative exact solver driven by minimum mean
cost improvement steps that certifies every answer with the duals of its
last LP, and an independent brute-force oracle for small instances.
"""

__version__ = "0.1.0"

from .core import (
    PrimitiveChain,
    TUMatrix,
    ZonotopalLattice,
    inner_product,
    matrix_rank,
    primitive_chain,
    project_onto_span,
    support,
    tu_matrix,
)
from .constructions import (
    Digraph,
    ObtuseSuperbasisGram,
    a_n_lattice,
    cographic_lattice,
    digraph,
    graphic_lattice,
    incidence_matrix,
    obtuse_superbasis_gram,
    tensor_lattice,
    voronoi_first_kind,
)
from .simplex import LPProblem, LPResult, solve_lp
from .mmcc import (
    CVPInstance,
    CVPSolution,
    IterationRecord,
    compute_lambda,
    cost,
    cvp_instance,
    dual_certificate_holds,
    left_derivative,
    min_mean_voronoi_vector,
    proximity_start,
    right_derivative,
    saturating_step,
    solve_cvp,
    stopping_data,
)
from .oracle import (
    VoronoiCellDescription,
    brute_force_cvp,
    certify_closest,
    check_projection_theorem,
    check_tu,
    conformal_decompose,
    enumerate_primitive_chains,
    is_strict_voronoi_by_coset,
    kernel_basis,
    project,
    voronoi_cell,
    voronoi_relevant_count,
)
from .errors import (
    DimensionError,
    InternalInvariantError,
    InvalidInputError,
    OracleFailureError,
    SizeCapError,
    ZonolatError,
)
