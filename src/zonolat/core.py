"""Exact foundations: totally unimodular kernel lattices over rationals.

A lattice here is the set of integer points in the kernel of a totally
unimodular matrix M in {-1,0,+1}^{n x m}, equipped with the weighted inner
product (x, y)_g = sum_i g_i x_i y_i for positive rational weights g.

Everything runs on `fractions.Fraction`; there are no floats and therefore
no tolerances anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Sequence

from . import simplex
from .errors import (
    DimensionError,
    InternalInvariantError,
    InvalidInputError,
    SizeCapError,
)

# Stored rationals are always fractions.Fraction: lowest terms and a positive
# denominator are guaranteed by the stdlib implementation.
Rational = Fraction

IntVec = tuple[int, ...]
FracVec = tuple[Fraction, ...]

#: The exhaustive Ghouila-Houri fallback is refused above this row count.
VERIFY_ROW_CAP = 20
#: Entries kept by each per-lattice cache; the least recently used goes first.
LATTICE_CACHE_SIZE = 128


def frac_vec(xs: Iterable) -> FracVec:
    """Coerce a sequence of ints/strings/Fractions to a Fraction tuple."""
    return tuple(Fraction(x) for x in xs)


def int_vec(xs: Iterable) -> IntVec:
    out = []
    for x in xs:
        f = Fraction(x)
        if f.denominator != 1:
            raise InvalidInputError(f"expected an integer vector, got entry {x}")
        out.append(int(f))
    return tuple(out)


def support(x: Sequence) -> frozenset[int]:
    """0-based indices of the nonzero coordinates of x."""
    return frozenset(i for i, v in enumerate(x) if v != 0)


def inner_product(x: Sequence, y: Sequence, g: Sequence) -> Fraction:
    """Weighted inner product (x, y)_g = sum_i g_i x_i y_i, exact."""
    if not (len(x) == len(y) == len(g)):
        raise DimensionError(
            f"length mismatch: |x|={len(x)}, |y|={len(y)}, |g|={len(g)}"
        )
    total = Fraction(0)
    for gi, xi, yi in zip(g, x, y):
        if xi and yi:
            total += Fraction(gi) * xi * yi
    return total


# ---------------------------------------------------------------------------
# Totally unimodular matrices
# ---------------------------------------------------------------------------


def heller_tompkins(rows: Sequence[Sequence[int]]) -> bool | None:
    """Exact TU verdict for a matrix with at most two nonzeros per column.

    Heller & Tompkins (1956): such a {-1,0,+1} matrix is totally unimodular
    iff its rows can be 2-coloured so that the two nonzeros of a column lie
    in different colour classes when they have the same sign and in the
    same class when their signs differ.  The colouring is found by sign
    propagation, a bipartiteness check in O(nnz).  An entry outside
    {-1,0,+1} is a 1 x 1 minor that refutes TU.  Returns None, undecided,
    when some column has three or more nonzeros.
    """
    n = len(rows)
    if any(e not in (-1, 0, 1) for row in rows for e in row):
        return False
    # adjacency[i] holds (k, parity): rows i and k must get different
    # colours when parity is 1 and the same colour when it is 0
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for column in zip(*rows):
        nz = [i for i, e in enumerate(column) if e]
        if len(nz) > 2:
            return None
        if len(nz) == 2:
            i, k = nz
            parity = 1 if column[i] == column[k] else 0
            adjacency[i].append((k, parity))
            adjacency[k].append((i, parity))
    colour: list[int | None] = [None] * n
    for root in range(n):
        if colour[root] is not None:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            i = stack.pop()
            for k, parity in adjacency[i]:
                want = colour[i] ^ parity
                if colour[k] is None:
                    colour[k] = want
                    stack.append(k)
                elif colour[k] != want:
                    return False
    return True


def ghouila_houri_ok(rows: Sequence[Sequence[int]]) -> bool:
    """Exhaustive Ghouila-Houri test: every row subset admits a +-1 signing
    whose column sums all lie in {-1, 0, +1}.

    Exponential in the row count.  `tu_matrix` runs it only on matrices
    that `heller_tompkins` cannot decide, and only up to VERIFY_ROW_CAP rows.
    """
    n = len(rows)
    if n == 0:
        return True
    m = len(rows[0])
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        if not _signing_exists([rows[i] for i in idx], m):
            return False
    return True


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


@dataclass(frozen=True)
class TUMatrix:
    """A {-1,0,+1} matrix together with its total-unimodularity status.

    tu_status is "verified" (proved TU by Heller-Tompkins, by the
    exhaustive Ghouila-Houri check, or by construction, such as the network
    matrix of a spanning forest and its minors) or "asserted" (caller
    vouches; only the entry range is checked).
    """

    n: int
    m: int
    entries: tuple[tuple[int, ...], ...]
    tu_status: str

    def __post_init__(self):
        if self.n != len(self.entries) or any(len(r) != self.m for r in self.entries):
            raise DimensionError("entry array does not match the declared shape")
        if any(e not in (-1, 0, 1) for r in self.entries for e in r):
            raise InvalidInputError("matrix entries must lie in {-1, 0, +1}")
        if self.tu_status not in ("verified", "asserted"):
            raise InvalidInputError(f"unknown tu_status {self.tu_status!r}")

    def column(self, j: int) -> IntVec:
        return tuple(row[j] for row in self.entries)

    def apply(self, x: Sequence) -> tuple:
        """Matrix-vector product M x."""
        if len(x) != self.m:
            raise DimensionError(f"vector length {len(x)} != column count {self.m}")
        return tuple(
            sum(e * xi for e, xi in zip(row, x) if e) for row in self.entries
        )


def tu_matrix(rows: Sequence[Sequence[int]], mode: str = "verify",
              width: int | None = None) -> TUMatrix:
    """Build a TUMatrix under the given verification policy.

    mode "verify" decides TU by Heller-Tompkins when every column has at
    most two nonzeros, at any size, and otherwise by the exhaustive
    Ghouila-Houri check, which is refused above VERIFY_ROW_CAP rows.
    "assert" trusts the caller.  `width` is required for matrices with zero
    rows.
    """
    entries = tuple(tuple(int(e) for e in row) for row in rows)
    n = len(entries)
    if n == 0:
        if width is None:
            raise InvalidInputError("width is required for a matrix with no rows")
        m = width
    else:
        m = len(entries[0])
        if width is not None and width != m:
            raise DimensionError(f"declared width {width} != row length {m}")
    if mode not in ("verify", "assert"):
        raise InvalidInputError(f"unknown TU mode {mode!r}")
    status = "asserted"
    if mode == "verify":
        verdict = heller_tompkins(entries)
        if verdict is None and n > VERIFY_ROW_CAP:
            raise SizeCapError(
                f"exhaustive TU verification capped at {VERIFY_ROW_CAP} rows "
                f"(got {n}) for a matrix with three or more nonzeros in a "
                f"column; load with mode='assert'"
            )
        if verdict is None:
            verdict = ghouila_houri_ok(entries)
        if not verdict:
            raise InvalidInputError("matrix is not totally unimodular")
        status = "verified"
    return TUMatrix(n=n, m=m, entries=entries, tu_status=status)


# ---------------------------------------------------------------------------
# Lattices and chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZonotopalLattice:
    """L = ker(matrix) /\\ Z^m with inner product weighted by `weights`."""

    matrix: TUMatrix
    weights: FracVec

    def __post_init__(self):
        object.__setattr__(self, "weights", frac_vec(self.weights))
        if len(self.weights) != self.matrix.m:
            raise DimensionError(
                f"weight length {len(self.weights)} != coordinate count {self.matrix.m}"
            )
        if any(g <= 0 for g in self.weights):
            raise InvalidInputError("all weights must be positive")

    @property
    def m(self) -> int:
        return self.matrix.m

    def rank(self) -> int:
        return len(kernel_basis(self.matrix))

    def contains(self, coords: Sequence) -> bool:
        """True iff coords is an integer vector in ker(matrix)."""
        if len(coords) != self.m:
            return False
        if any(Fraction(c).denominator != 1 for c in coords):
            return False
        return all(s == 0 for s in self.matrix.apply(coords))

    def norm_sq(self, x: Sequence) -> Fraction:
        return inner_product(x, x, self.weights)


@dataclass(frozen=True)
class Chain:
    """An integer vector of a fixed lattice (membership checked at build)."""

    coords: IntVec


@dataclass(frozen=True)
class PrimitiveChain:
    """A {-1,0,+1} kernel vector of inclusion-minimal support.

    Minimality is guaranteed by the construction sites (oracle enumeration,
    LP vertex rescaling, conformal extraction), not re-verified here.
    """

    coords: IntVec

    @property
    def positive_part(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.coords) if c == 1)

    @property
    def negative_part(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.coords) if c == -1)

    @property
    def support(self) -> frozenset[int]:
        return support(self.coords)

    def __neg__(self) -> "PrimitiveChain":
        return PrimitiveChain(tuple(-c for c in self.coords))


def chain(coords: Sequence, lattice: ZonotopalLattice) -> Chain:
    v = int_vec(coords)
    if not lattice.contains(v):
        raise InvalidInputError(f"{v} is not a member of the lattice")
    return Chain(v)


def primitive_chain(coords: Sequence, lattice: ZonotopalLattice) -> PrimitiveChain:
    v = int_vec(coords)
    if not any(v):
        raise InvalidInputError("a primitive chain is nonzero")
    if any(c not in (-1, 0, 1) for c in v):
        raise InvalidInputError("primitive chain entries must lie in {-1, 0, +1}")
    if not lattice.contains(v):
        raise InvalidInputError(f"{v} is not a member of the lattice")
    return PrimitiveChain(v)


# ---------------------------------------------------------------------------
# Integer kernel basis and rank
# ---------------------------------------------------------------------------


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def kernel_basis(matrix: TUMatrix) -> tuple[IntVec, ...]:
    """integer_kernel(matrix), cached per matrix."""
    return integer_kernel(matrix)


def integer_kernel(matrix: TUMatrix) -> tuple[IntVec, ...]:
    """Integral basis of ker(matrix) /\\ Z^m.

    Hermite-style column reduction: unimodular column operations (swap,
    negate, add an integer multiple) tracked on an identity block.  Columns
    of the tracking block whose image column became zero form a lattice
    basis of the integer kernel, for any integer input matrix.
    """
    n, m = matrix.n, matrix.m
    acols = [list(matrix.column(j)) for j in range(m)]
    ucols = [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    c = 0
    for i in range(n):
        while True:
            nz = [j for j in range(c, m) if acols[j][i] != 0]
            if not nz:
                break
            if len(nz) == 1:
                j = nz[0]
                acols[c], acols[j] = acols[j], acols[c]
                ucols[c], ucols[j] = ucols[j], ucols[c]
                if acols[c][i] < 0:
                    acols[c] = [-e for e in acols[c]]
                    ucols[c] = [-e for e in ucols[c]]
                c += 1
                break
            j0 = min(nz, key=lambda j: (abs(acols[j][i]), j))
            p = acols[j0][i]
            for j in nz:
                if j == j0:
                    continue
                q = acols[j][i] // p
                if q:
                    acols[j] = [a - q * b for a, b in zip(acols[j], acols[j0])]
                    ucols[j] = [a - q * b for a, b in zip(ucols[j], ucols[j0])]
    basis = tuple(tuple(ucols[j]) for j in range(c, m))
    for b in basis:
        if any(s != 0 for s in matrix.apply(b)):
            raise InternalInvariantError("kernel basis vector fails M b = 0")
    return basis


def matrix_rank(matrix: TUMatrix) -> int:
    return matrix.m - len(kernel_basis(matrix))


# ---------------------------------------------------------------------------
# Exact elimination over Fraction
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


# ---------------------------------------------------------------------------
# Orthogonal projection onto the kernel span
# ---------------------------------------------------------------------------


def _integral_multiple(xs: FracVec) -> tuple[list[int], int]:
    """(d * xs, d) for d the least common denominator of xs."""
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def project_onto_span(t: Sequence, lattice: ZonotopalLattice) -> FracVec:
    """g-orthogonal projection of t onto the span of the lattice.

    Returns t' in ker M with (t - t', z)_g = 0 for every kernel vector z;
    idempotent; exact.  A zero kernel projects everything to the origin.
    With B the kernel basis and G = B diag(g) B^T its Gram matrix, one
    elimination of [G | B diag(g) t] gives z = G^-1 B diag(g) t, and
    t' = B^T z.  The system is set up in integers, from the integral
    multiples a g and c t: (a G) z = B diag(a g) (c t) / c.
    """
    if len(t) != lattice.m:
        raise DimensionError(f"target length {len(t)} != coordinate count {lattice.m}")
    tv = frac_vec(t)
    basis = kernel_basis(lattice.matrix)
    r = len(basis)
    ag, _ = _integral_multiple(lattice.weights)
    ct, c = _integral_multiple(tv)
    weighted = [[w * e for w, e in zip(ag, b)] for b in basis]
    aug = [[sum(w * e for w, e in zip(wb, b) if e) for b in basis]
           + [sum(w * x for w, x in zip(wb, ct) if w)] for wb in weighted]
    reduced, pivots = row_reduce(aug)
    if pivots != list(range(r)):
        raise InternalInvariantError("Gram matrix of a kernel basis is singular")
    z = [row[r] / c for row in reduced]
    return tuple(
        sum((zi * b[a] for zi, b in zip(z, basis) if zi and b[a]), Fraction(0))
        for a in range(lattice.m)
    )


# ---------------------------------------------------------------------------
# Conformal decomposition
# ---------------------------------------------------------------------------


def conformal_decompose(v: Sequence | Chain,
                        lattice: ZonotopalLattice) -> list[PrimitiveChain]:
    """Write a lattice vector as a sum of sign-compatible primitive chains.

    Repeatedly extracts one primitive chain supported inside the current
    vector and matching its signs, then subtracts it.  Each extraction runs
    the exact LP  max sum_i sigma_i x_i  over  Mx = 0, 0 <= sigma_i x_i <=
    |v_i|, x zero off supp(v), sum sigma_i x_i <= 1;  total unimodularity
    makes every optimal vertex a scalar multiple of a primitive chain.
    """
    coords = v.coords if isinstance(v, Chain) else int_vec(v)
    if not lattice.contains(coords):
        raise InvalidInputError(f"{tuple(coords)} is not a member of the lattice")
    parts: list[PrimitiveChain] = []
    cur = list(coords)
    budget = sum(abs(c) for c in cur)
    while any(cur):
        if budget <= 0:
            raise InternalInvariantError("conformal extraction failed to terminate")
        u = _extract_primitive(cur, lattice)
        parts.append(primitive_chain(u, lattice))
        cur = [a - b for a, b in zip(cur, u)]
        for a, b in zip(cur, coords):
            if a * b < 0 or abs(a) > abs(b):
                raise InternalInvariantError("conformal part is not sign-compatible")
        budget -= sum(1 for c in u if c)
    return parts


def _extract_primitive(cur: list[int], lattice: ZonotopalLattice) -> IntVec:
    supp = sorted(i for i, c in enumerate(cur) if c)
    sigma = {i: (1 if cur[i] > 0 else -1) for i in supp}
    k = len(supp)
    matrix = lattice.matrix
    # variables: y_j = sigma_j x_j for j in supp, then one slack for the
    # normalization row sum y + s = 1
    nvar = k + 1
    c_obj = [Fraction(-1)] * k + [Fraction(0)]
    rows = []
    rhs = []
    for row in matrix.entries:
        rows.append([Fraction(sigma[j] * row[j]) for j in supp] + [Fraction(0)])
        rhs.append(Fraction(0))
    rows.append([Fraction(1)] * k + [Fraction(1)])
    rhs.append(Fraction(1))
    upper = [Fraction(abs(cur[j])) for j in supp] + [None]
    prob = simplex.lp_problem(c_obj, rows, rhs, upper=upper)
    res = simplex.solve_lp(prob)
    if res.status != simplex.OPTIMAL or res.optimum != -1:
        raise InternalInvariantError(
            f"conformal extraction LP returned {res.status} / {res.optimum}"
        )
    ys = res.vertex[:k]
    ymax = max(ys)
    if ymax <= 0:
        raise InternalInvariantError("conformal extraction LP returned a zero vertex")
    out = [0] * len(cur)
    for j, y in zip(supp, ys):
        q = y / ymax
        if q == 1:
            out[j] = sigma[j]
        elif q != 0:
            raise InternalInvariantError(
                "conformal extraction vertex is not a rescaled primitive chain"
            )
    return tuple(out)
