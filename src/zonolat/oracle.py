"""Independent brute-force ground truth for every other module.

Kernel bases, projection and conformal decomposition, primitive-chain
enumeration by exhaustive ternary scan, Voronoi's coset characterization
of strict Voronoi vectors, enumeration CVP with facet certification,
cube-projection sampling for the Voronoi cell, and the exhaustive
totally-unimodular check.  Nothing here reaches the simplex or the
iterative solver, so agreement between the two routes is a real
cross-check: every linear system goes through this module's own Fraction
Gauss-Jordan `row_reduce`, not `simplex.eliminate`, and distances are
weighted norms, not the solver's scaled integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

from .core import (
    FracVec,
    IntVec,
    PrimitiveChain,
    TUMatrix,
    VERIFY_ROW_CAP,
    ZonotopalLattice,
    _unit_entries,
    _vector,
    frac_vec,
    inner_product,
    int_vec,
    primitive_chain,
)
from .errors import (
    InternalInvariantError,
    InvalidInputError,
    OracleFailureError,
    SizeCapError,
)
from .mmcc import CVPInstance

#: Ternary scans are refused beyond this many coordinates (3^m candidates).
ENUMERATION_CAP = 14
#: Coefficient-box CVP enumeration is refused beyond this lattice rank.
COEFF_BOX_CAP = 8
#: Coefficient-box radii tried in turn until the winner is certified.
COEFF_BOX_RADII = (1, 2, 4, 8)
#: Bits of each coordinate of a dyadic cube sample.
SAMPLE_BITS = 16
#: Entries kept by each per-lattice cache; the least recently used goes first.
LATTICE_CACHE_SIZE = 128


# ---------------------------------------------------------------------------
# Exact elimination over Fraction: kernel basis and projection
# ---------------------------------------------------------------------------


def row_reduce(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination to reduced row echelon form over Fraction.

    Every entry is converted to Fraction first, so integer input never
    divides into floats; the input is left unmodified.  Columns are scanned
    left to right and the first nonzero entry at or below the current row
    is the pivot.  Returns the reduced rows (zero rows last) and the pivot
    column of each nonzero row.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    width = len(a[0]) if a else 0
    for col in range(width):
        r = len(pivots)
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][col]
        if pv != 1:
            a[r] = [x / pv for x in a[r]]
        prow = a[r]
        nz = [j for j, y in enumerate(prow) if y]
        for i, row in enumerate(a):
            f = row[col]
            if i != r and f:
                for j in nz:
                    row[j] -= f * prow[j]
        pivots.append(col)
    return a, pivots


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def kernel_basis(matrix: TUMatrix) -> tuple[IntVec, ...]:
    """Integral basis of ker(matrix), one vector per free column; cached.

    Read off the reduced row echelon form R of `row_reduce`: the vector of
    a free column f has x_f = d and x_p = -d R[i][f] at the pivot column p
    of row i, 0 elsewhere, for d the lcm of the denominators of column f.
    On a totally unimodular matrix d = 1, so the basis restricted to the
    free coordinates is the identity and it is a lattice basis of
    ker(matrix) /\\ Z^m.  On an asserted matrix that is not TU d can
    exceed 1; the vectors still span ker(matrix) over the rationals.
    """
    reduced, pivots = row_reduce(matrix.entries)
    basis = []
    for f in sorted(set(range(matrix.m)) - set(pivots)):
        d = math.lcm(*(reduced[i][f].denominator for i in range(len(pivots))))
        x = [0] * matrix.m
        x[f] = d
        for i, p in enumerate(pivots):
            x[p] = int(-d * reduced[i][f])
        basis.append(tuple(x))
    return tuple(basis)


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _coefficient_map(lattice: ZonotopalLattice) -> tuple[tuple[Fraction, ...], ...]:
    """(B^T D B)^-1 B^T D for the kernel basis B (as columns) and D = diag(g);
    cached.  It maps t to the coefficients of its g-orthogonal projection
    onto the span of B, by `row_reduce` of [B^T D B | B^T D]."""
    basis = kernel_basis(lattice.matrix)
    r, g = len(basis), lattice.weights
    reduced, pivots = row_reduce(
        [[inner_product(bi, bj, g) for bj in basis] + [w * x for w, x in zip(g, bi)]
         for bi in basis])
    if pivots != list(range(r)):
        raise InternalInvariantError("Gram matrix of a kernel basis is singular")
    return tuple(tuple(row[r:]) for row in reduced)


def _coefficients(t: FracVec, lattice: ZonotopalLattice) -> list[Fraction]:
    return [sum((c * x for c, x in zip(row, t) if c and x), Fraction(0))
            for row in _coefficient_map(lattice)]


def _combine(alpha: Sequence, basis: Sequence[IntVec], m: int) -> list:
    """sum_i alpha_i basis_i."""
    out = [0] * m
    for a, b in zip(alpha, basis):
        if a:
            for j, x in enumerate(b):
                if x:
                    out[j] += a * x
    return out


def project(t: Sequence, lattice: ZonotopalLattice) -> FracVec:
    """g-orthogonal projection of t, m entries by `_vector`, onto the span
    of the lattice, exact."""
    alpha = _coefficients(frac_vec(_vector(t, lattice.m, "target")), lattice)
    return frac_vec(_combine(alpha, kernel_basis(lattice.matrix), lattice.m))


# ---------------------------------------------------------------------------
# Primitive chain enumeration
# ---------------------------------------------------------------------------


def _ternary_kernel_vectors(matrix: TUMatrix) -> tuple[IntVec, ...]:
    """All nonzero x in {-1,0,+1}^m with M x = 0, in lexicographic order."""
    n, m = matrix.n, matrix.m
    rows = matrix.entries
    # suffix[k][i] = sum_{j >= k} |M[i][j]|: the most a partial row sum can
    # still change, used to prune the depth-first scan
    suffix = [[0] * n for _ in range(m + 1)]
    for k in range(m - 1, -1, -1):
        for i in range(n):
            suffix[k][i] = suffix[k + 1][i] + abs(rows[i][k])
    out: list[IntVec] = []
    x = [0] * m
    sums = [0] * n

    def rec(k: int):
        if k == m:
            if any(x) and all(s == 0 for s in sums):
                out.append(tuple(x))
            return
        rem = suffix[k + 1]
        for val in (-1, 0, 1):
            x[k] = val
            ok = True
            if val:
                for i in range(n):
                    sums[i] += val * rows[i][k]
            for i in range(n):
                if abs(sums[i]) > rem[i]:
                    ok = False
                    break
            if ok:
                rec(k + 1)
            if val:
                for i in range(n):
                    sums[i] -= val * rows[i][k]
        x[k] = 0

    rec(0)
    return tuple(out)


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _primitive_chain_coords(matrix: TUMatrix) -> tuple[IntVec, ...]:
    candidates = _ternary_kernel_vectors(matrix)
    masks = []
    for vec in candidates:
        mask = 0
        for i, c in enumerate(vec):
            if c:
                mask |= 1 << i
        masks.append(mask)
    keep = []
    for i, (vec, mask) in enumerate(zip(candidates, masks)):
        minimal = True
        for other in masks:
            if other != mask and other & mask == other:
                minimal = False
                break
        if minimal:
            keep.append(vec)
    return tuple(keep)


def enumerate_primitive_chains(lattice: ZonotopalLattice) -> list[PrimitiveChain]:
    """All primitive chains (= strict Voronoi vectors) by exhaustive scan.

    Output is sorted lexicographically and closed under negation; supports
    are pairwise incomparable by construction.  Refused with SizeCapError
    above ENUMERATION_CAP coordinates.
    """
    _refuse_above_enumeration_cap(lattice)
    return [primitive_chain(c, lattice) for c in _primitive_chain_coords(lattice.matrix)]


def voronoi_relevant_count(lattice: ZonotopalLattice) -> int:
    """Number of strict Voronoi vectors; a function of the matrix alone,
    independent of the weights."""
    return len(enumerate_primitive_chains(lattice))


def conformal_decompose(v: Sequence, lattice: ZonotopalLattice) -> list[PrimitiveChain]:
    """Write a lattice vector as a sum of sign-compatible primitive chains.

    Greedy over `enumerate_primitive_chains`: subtract the first chain
    whose support lies in that of the remainder with matching signs, until
    nothing is left.  The remainder stays a lattice vector conformal to v,
    and on a TU lattice every nonzero one has such a chain; when none
    fits, OracleFailureError.
    """
    cur = int_vec(v)
    if not lattice.contains(cur):
        raise InvalidInputError(f"{cur} is not a member of the lattice")
    chains = enumerate_primitive_chains(lattice)
    parts: list[PrimitiveChain] = []
    while any(cur):
        u = next((c for c in chains
                  if all(x * y > 0 for x, y in zip(c.coords, cur) if x)), None)
        if u is None:
            raise OracleFailureError(f"no primitive chain is conformal to {cur}")
        parts.append(u)
        cur = tuple(a - b for a, b in zip(cur, u.coords))
    return parts


# ---------------------------------------------------------------------------
# Voronoi cell description and membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VoronoiCellDescription:
    """Facet data of the Voronoi cell: one inequality per relevant vector."""

    lattice: ZonotopalLattice
    relevant_vectors: tuple[PrimitiveChain, ...]
    facet_bounds: tuple[Fraction, ...]

    def contains(self, x: Sequence) -> bool:
        """Exact membership: |(x, v)_g| <= (v, v)_g / 2 for every facet."""
        g = self.lattice.weights
        for chain, bound in zip(self.relevant_vectors, self.facet_bounds):
            val = Fraction(0)
            for i in chain.support:
                val += g[i] * chain.coords[i] * Fraction(x[i])
            if val > bound or -val > bound:
                return False
        return True


def voronoi_cell(lattice: ZonotopalLattice) -> VoronoiCellDescription:
    """One facet per strict Voronoi vector; refused above ENUMERATION_CAP
    coordinates."""
    chains = enumerate_primitive_chains(lattice)
    bounds = tuple(lattice.norm_sq(c.coords) / 2 for c in chains)
    return VoronoiCellDescription(
        lattice=lattice, relevant_vectors=tuple(chains), facet_bounds=bounds
    )


# ---------------------------------------------------------------------------
# Voronoi's coset characterization
# ---------------------------------------------------------------------------


def is_strict_voronoi_by_coset(v: Sequence, lattice: ZonotopalLattice) -> bool:
    """True iff +-v are the unique shortest vectors of the coset v + 2L.

    The enumeration box is certified exactly: writing coset members as
    v + 2 B a for the kernel basis B, the norm is a positive definite
    quadratic q(a), and any a with q(a) <= (v, v)_g satisfies
    (a_i - a*_i)^2 <= (q(v) - q_min) (H^{-1})_ii for H the quadratic's
    Hessian and a* its rational minimizer, so scanning those integer
    ranges sees every candidate at least as short as v.
    """
    vv = int_vec(v)
    if not any(vv):
        return False
    if not lattice.contains(vv):
        raise InvalidInputError(f"{vv} is not a lattice member")
    basis = kernel_basis(lattice.matrix)
    r = len(basis)
    if r == 0:
        return False
    g = lattice.weights
    target = inner_product(vv, vv, g)
    doubled = [tuple(2 * e for e in b) for b in basis]
    hess = [[inner_product(doubled[i], doubled[j], g) for j in range(r)]
            for i in range(r)]
    lin = [inner_product(vv, doubled[i], g) for i in range(r)]
    # reduce [H | -lin | I] to [I | center | H^-1]
    identity = [[int(i == j) for j in range(r)] for i in range(r)]
    reduced, pivots = row_reduce([hess[i] + [-lin[i]] + identity[i] for i in range(r)])
    if pivots != list(range(r)):
        raise InternalInvariantError("Hessian of a kernel basis is singular")
    center = [row[r] for row in reduced]
    hinv = [row[r + 1:] for row in reduced]
    qmin = target + sum(w * a for w, a in zip(lin, center))
    spread = target - qmin
    ranges = []
    for i in range(r):
        rho = spread * hinv[i][i]
        lo = center[i]
        ks = []
        k = math.floor(lo)
        while (k - lo) * (k - lo) <= rho:
            ks.append(k)
            k -= 1
        k = math.floor(lo) + 1
        while (k - lo) * (k - lo) <= rho:
            ks.append(k)
            k += 1
        ranges.append(sorted(ks))
    neg = tuple(-c for c in vv)
    for alpha in product(*ranges):
        u = tuple(a + b for a, b in zip(vv, _combine(alpha, doubled, lattice.m)))
        if inner_product(u, u, g) <= target and u not in (vv, neg):
            return False
    return True


# ---------------------------------------------------------------------------
# Brute-force CVP and certification
# ---------------------------------------------------------------------------


def certify_closest(u: Sequence, instance: CVPInstance) -> bool:
    """u is closest iff the residual t - u lies in the Voronoi cell."""
    uu = int_vec(u)
    residual = [t - c for t, c in zip(instance.target, uu)]
    return voronoi_cell(instance.lattice).contains(residual)


def distance_sq(u: Sequence, t: FracVec, lattice: ZonotopalLattice) -> Fraction:
    """(u - t, u - t)_g for an integer u, from the residual alone, in ints:
    sum_i (q g_i) (d u_i - d t_i)^2 / q d^2 for d, q the lcms of t's and g's denominators."""
    g = lattice.weights
    d = math.lcm(*(x.denominator for x in t))
    q = math.lcm(*(w.denominator for w in g))
    return Fraction(sum(w.numerator * (q // w.denominator)
                        * (d * a - x.numerator * (d // x.denominator)) ** 2
                        for w, a, x in zip(g, u, t)), q * d * d)


def _refuse_above_enumeration_cap(lattice: ZonotopalLattice) -> None:
    if lattice.m > ENUMERATION_CAP:
        raise SizeCapError(
            f"ternary enumeration capped at {ENUMERATION_CAP} coordinates (got {lattice.m})"
        )


def refuse_above_oracle_caps(lattice: ZonotopalLattice) -> None:
    """SizeCapError for what brute_force_cvp refuses: a rank above
    COEFF_BOX_CAP, checked first, or, for its facet certificate, more than
    ENUMERATION_CAP coordinates.  A caller can check before it solves."""
    rank = len(kernel_basis(lattice.matrix))
    if rank > COEFF_BOX_CAP:
        raise SizeCapError(
            f"coefficient enumeration capped at rank {COEFF_BOX_CAP} (got {rank})"
        )
    _refuse_above_enumeration_cap(lattice)


def brute_force_cvp(instance: CVPInstance) -> IntVec:
    """Closest lattice vector by coefficient-box enumeration.

    For each radius of COEFF_BOX_RADII in turn, scans integer coefficient
    vectors within it of the rounded exact least-squares coefficients,
    keeps the g-closest point by `distance_sq` (ties go to the
    lexicographically smallest vector), and returns the winner once it
    passes the facet certificate; OracleFailureError when none does.
    Refused by `refuse_above_oracle_caps`.  At rank 0 the one candidate is
    the origin.
    """
    lattice = instance.lattice
    refuse_above_oracle_caps(lattice)
    basis = kernel_basis(lattice.matrix)
    # the target is in the span, so these are its exact coordinates in B
    centers = [math.floor(a + Fraction(1, 2)) for a in _coefficients(instance.target, lattice)]
    for radius in COEFF_BOX_RADII:
        best: tuple[Fraction, IntVec] | None = None
        for alpha in product(*(range(c - radius, c + radius + 1) for c in centers)):
            u = tuple(_combine(alpha, basis, lattice.m))
            cand = (distance_sq(u, instance.target, lattice), u)
            if best is None or cand < best:
                best = cand
        assert best is not None
        if certify_closest(best[1], instance):
            return best[1]
    raise OracleFailureError(
        f"no certified closest vector within coefficient radius {COEFF_BOX_RADII[-1]}"
    )


# ---------------------------------------------------------------------------
# Projection theorem sampling
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


def dyadic_cube_samples(m: int, samples: int, seed: int):
    """Deterministic dyadic points of [-1/2, 1/2)^m from a splitmix64 stream,
    each coordinate a multiple of 2^-SAMPLE_BITS."""
    state = seed & _MASK64
    denom = 1 << SAMPLE_BITS
    half = Fraction(1, 2)
    for _ in range(samples):
        point = []
        for _ in range(m):
            z, state = _splitmix64(state)
            point.append(Fraction(z & (denom - 1), denom) - half)
        yield tuple(point)


def check_projection_theorem(lattice: ZonotopalLattice, samples: int = 1000,
                             seed: int = 0, cube_scale: int = 1) -> bool:
    """Sample the cube [-scale/2, scale/2)^m and test that every projection
    lands in the Voronoi cell.  At scale 1 this is a theorem; larger scales
    serve as a negative control.  Refused above ENUMERATION_CAP
    coordinates."""
    cell = voronoi_cell(lattice)
    for point in dyadic_cube_samples(lattice.m, samples, seed):
        scaled = [cube_scale * x for x in point]
        if not cell.contains(project(scaled, lattice)):
            return False
    return True


# ---------------------------------------------------------------------------
# Totally unimodular verification
# ---------------------------------------------------------------------------


def check_tu(matrix: TUMatrix | Sequence[Sequence[int]]) -> bool:
    """Exhaustive Ghouila-Houri verdict on the unreduced matrix; refuses
    above VERIFY_ROW_CAP rows.

    Every nonempty row subset must admit a +-1 signing whose column sums
    all lie in {-1, 0, +1}; each subset is searched on its own by
    `_signing_exists`, independently of `core.ghouila_houri_ok`.  An entry
    that `core._unit_entries` refuses gives False, never a truncated int.
    """
    rows = matrix.entries if isinstance(matrix, TUMatrix) else matrix
    if len(rows) > VERIFY_ROW_CAP:
        raise SizeCapError(
            f"exhaustive TU verification capped at {VERIFY_ROW_CAP} rows (got {len(rows)})"
        )
    if not _unit_entries(rows):
        return False
    n = len(rows)
    m = len(rows[0]) if rows else 0
    return all(_signing_exists([rows[i] for i in range(n) if mask >> i & 1], m)
               for mask in range(1, 1 << n))


def _signing_exists(sub: list[Sequence[int]], m: int) -> bool:
    k = len(sub)
    # suffix[p][j] = sum of |entries| of rows p..k-1 in column j; a partial
    # column sum s can still reach {-1,0,1} iff |s| <= 1 + suffix.
    suffix = [[0] * m for _ in range(k + 1)]
    for p in range(k - 1, -1, -1):
        row = sub[p]
        nxt = suffix[p + 1]
        suffix[p] = [nxt[j] + abs(row[j]) for j in range(m)]

    def rec(p: int, sums: list[int]) -> bool:
        if p == k:
            return all(-1 <= s <= 1 for s in sums)
        row = sub[p]
        rem = suffix[p + 1]
        for sgn in (1, -1):
            if p == 0 and sgn == -1:
                break  # negating a whole signing is again a signing
            nxt = [s + sgn * e for s, e in zip(sums, row)]
            if all(abs(s) <= 1 + r for s, r in zip(nxt, rem)):
                if rec(p + 1, nxt):
                    return True
        return False

    return rec(0, [0] * m)
