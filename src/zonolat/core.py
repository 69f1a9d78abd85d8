"""Exact foundations: totally unimodular kernel lattices over rationals.

A lattice here is the set of integer points in the kernel of a totally
unimodular matrix M in {-1,0,+1}^{n x m}, equipped with the weighted inner
product (x, y)_g = sum_i g_i x_i y_i for positive rational weights g.

Rationals are `fractions.Fraction`; kernel bases and projections are
eliminated fraction-free on Python ints by `simplex.eliminate`.  There are
no floats and therefore no tolerances anywhere in this package.
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
        f = x if type(x) is int else Fraction(x)
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

    Exponential in the row count.  `tu_verdict` runs it only on matrices
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


def tu_verdict(rows: Sequence[Sequence[int]]) -> bool | None:
    """TU verdict by Heller-Tompkins, else by the exhaustive Ghouila-Houri
    check within VERIFY_ROW_CAP rows; None when neither can decide."""
    verdict = heller_tompkins(rows)
    if verdict is None and len(rows) <= VERIFY_ROW_CAP:
        verdict = ghouila_houri_ok(rows)
    return verdict


def tu_matrix(rows: Sequence[Sequence[int]], mode: str = "verify",
              width: int | None = None) -> TUMatrix:
    """Build a TUMatrix under the given verification policy.

    mode "verify" takes the verdict of `tu_verdict`: Heller-Tompkins at
    any size when every column has at most two nonzeros, otherwise the
    exhaustive check, refused above VERIFY_ROW_CAP rows (SizeCapError).
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
        verdict = tu_verdict(entries)
        if verdict is None:
            raise SizeCapError(
                f"exhaustive TU verification capped at {VERIFY_ROW_CAP} rows "
                f"(got {n}) for a matrix with three or more nonzeros in a "
                f"column; load with mode='assert'"
            )
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
        if any(type(c) is not int and Fraction(c).denominator != 1 for c in coords):
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


def chain_signs(values: Sequence) -> IntVec:
    """The signs of an LP vertex that is a primitive chain rescaled.

    The nonzero entries (ints or Fractions) must share one magnitude; a
    zero vector or mixed magnitudes raise InternalInvariantError.  This is
    the one place a chain is read off an LP vertex.
    """
    scale = max(map(abs, values), default=0)
    if scale == 0:
        raise InternalInvariantError("LP vertex is zero: no chain to read off")
    if any(x not in (-scale, 0, scale) for x in values):
        raise InternalInvariantError("LP vertex is not a rescaled primitive chain")
    return tuple((x > 0) - (x < 0) for x in values)


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
    """Integral basis of ker(matrix), one vector per free column; cached.

    Read off the fraction-free reduction den * R of the matrix by
    simplex.eliminate: the vector of a free column f has x_f = den and
    x_p = -(den R)[i][f] at the pivot column p of row i, 0 elsewhere.  On a
    totally unimodular matrix den = 1, so the basis restricted to the free
    coordinates is the identity and it is a lattice basis of
    ker(matrix) /\\ Z^m.  On an asserted matrix that is not TU den can
    exceed 1; the vectors still span ker(matrix) over the rationals, which
    is all that rank and projection need.
    """
    rows, _, pivots, den = simplex.eliminate(matrix.entries)
    basis = []
    for f in sorted(set(range(matrix.m)) - set(pivots)):
        x = [0] * matrix.m
        x[f] = den
        for row, p in zip(rows, pivots):
            x[p] = -row[f]
        if any(matrix.apply(x)):
            raise InternalInvariantError("kernel basis vector fails M b = 0")
        basis.append(tuple(x))
    return tuple(basis)


def matrix_rank(matrix: TUMatrix) -> int:
    return matrix.m - len(kernel_basis(matrix))


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
    With B the kernel basis and G = B diag(g) B^T its Gram matrix,
    t' = B^T z for z = G^-1 B diag(g) t.  In integers, from the integral
    multiples a g and c t, (a G) z = h / c with h = B diag(a g) (c t), and
    simplex.eliminate of [a G | h] leaves den * (a G)^-1 h = den c z.
    """
    if len(t) != lattice.m:
        raise DimensionError(f"target length {len(t)} != coordinate count {lattice.m}")
    tv = frac_vec(t)
    basis = kernel_basis(lattice.matrix)
    r = len(basis)
    ag, _ = _integral_multiple(lattice.weights)
    ct, c = _integral_multiple(tv)
    weighted = [[w * e for w, e in zip(ag, b)] for b in basis]
    gram = [[sum(w * e for w, e in zip(wb, b) if e) for b in basis] for wb in weighted]
    h = [sum(w * x for w, x in zip(wb, ct) if w) for wb in weighted]
    _, h, pivots, den = simplex.eliminate(gram, h)
    if pivots != list(range(r)):
        raise InternalInvariantError("Gram matrix of a kernel basis is singular")
    return tuple(Fraction(sum(hi * b[a] for hi, b in zip(h, basis) if hi and b[a]), den * c)
                 for a in range(lattice.m))


# ---------------------------------------------------------------------------
# Conformal decomposition
# ---------------------------------------------------------------------------


def conformal_decompose(v: Sequence | Chain,
                        lattice: ZonotopalLattice) -> list[PrimitiveChain]:
    """Write a lattice vector as a sum of sign-compatible primitive chains.

    Repeatedly extracts one primitive chain supported inside the current
    vector and matching its signs, then subtracts it.  Each extraction is
    one exact feasibility LP whose basic solutions are circuits
    (_extract_primitive); total unimodularity makes each one a scalar
    multiple of a primitive chain.
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
    """A primitive chain conformal to the nonzero lattice vector cur.

    With S = supp(cur) and sigma its signs, any basic solution of the
    feasibility LP  M[:, S] diag(sigma) y = 0,  1.y = 1,  y >= 0  is a
    circuit scaled to sum one: the LP holds |cur| / sum |cur|, and a vertex
    of a pointed cone cut by 1.y = 1 lies on an extreme ray, which has
    minimal support.  sigma times its signs is the chain.
    """
    supp = [i for i, c in enumerate(cur) if c]
    sigma = [1 if cur[j] > 0 else -1 for j in supp]
    rows = tuple(tuple(s * row[j] for s, j in zip(sigma, supp)) for row in lattice.matrix.entries)
    res = simplex.solve_lp(simplex.LPProblem(
        c=(0,) * len(supp),
        A=rows + ((1,) * len(supp),),
        b=(0,) * len(rows) + (1,),
        upper=(None,) * len(supp),
    ))
    if res.status != simplex.OPTIMAL:
        raise InternalInvariantError(f"conformal extraction LP returned {res.status}")
    out = [0] * len(cur)
    for j, s, y in zip(supp, sigma, chain_signs(res.vertex)):
        out[j] = s * y
    return tuple(out)
