"""Exact foundations: totally unimodular kernel lattices over rationals.

A lattice here is the set of integer points in the kernel of a totally
unimodular matrix M in {-1,0,+1}^{n x m}, equipped with the weighted inner
product (x, y)_g = sum_i g_i x_i y_i for positive rational weights g.

Rationals are `fractions.Fraction`; rank and projections are eliminated
fraction-free on Python ints by `simplex.eliminate`.  There are no floats
and therefore no tolerances anywhere in this package.  This module holds
what the solver runs; the brute-force references of the tests (kernel
bases, conformal decomposition) live in `oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from . import simplex
from .errors import (
    DimensionError,
    InternalInvariantError,
    InvalidInputError,
    SizeCapError,
)

IntVec = tuple[int, ...]
FracVec = tuple[Fraction, ...]

#: The exhaustive Ghouila-Houri fallback is refused above this many rows of
#: the reduced matrix (`tu_reduce`).
VERIFY_ROW_CAP = 20


def frac_vec(xs: Iterable) -> FracVec:
    """Coerce a sequence of ints/strings/Fractions to a Fraction tuple; a
    Fraction is kept as it is."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in xs)


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

_UNIT = frozenset((-1, 0, 1))


def _unit_entries(rows: Sequence[Sequence[int]]) -> bool:
    """True iff every entry equals -1, 0 or 1, tested one row at a time."""
    return all(_UNIT.issuperset(row) for row in rows)


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
    if not _unit_entries(rows):
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
    """Exhaustive Ghouila-Houri test: every nonempty row subset R admits a
    signing x in {-1,+1}^R with x^T M_R in {-1, 0, +1}^m.

    Equivalently, every nonempty support is hit by some x in {-1,0,+1}^n
    with x^T M in {-1,0,+1}^m.  The walk visits x in reflected ternary Gray
    order, one coordinate moving by 1 per step, with x_{n-1} kept in
    {-1, 0} since x and -x pass together: 2 * 3^(n-1) vectors.  x^T M is
    one int with a w-bit field s_j + 1 + 2^(w-1) per column, w =
    (n+1).bit_length() + 1, so no field leaves [0, 2^w) and a step adds or
    subtracts one packed row.  s_j lies in {-1, 0, +1} iff its field has
    the top bit set, bits 2 to w-2 clear and not both low bits set.  Each
    support reached is marked in a bytearray.  Exponential in the row
    count: `tu_verdict` runs it only on the reduced matrix, and only up to
    VERIFY_ROW_CAP rows.
    """
    n = len(rows)
    if n == 0:
        return True
    if not _unit_entries(rows):
        return False
    w = (n + 1).bit_length() + 1
    fields = [w * j for j in range(len(rows[0]))]
    top = sum(1 << (f + w - 1) for f in fields)
    middle = sum(((1 << (w - 1)) - 4) << f for f in fields)
    low = sum(1 << f for f in fields)
    packed = [sum(e << f for e, f in zip(row, fields) if e) for row in rows]
    s = top + low - sum(packed)  # x = (-1, ..., -1)
    support = (1 << n) - 1
    seen = bytearray(1 << n)
    seen[0] = 1
    unseen = support
    # Knuth's loopless reflected mixed-radix Gray walk (TAOCP 7.2.1.1,
    # Algorithm H): digit j of x moves by `step[j]`, packed with its sign;
    # `focus` picks the digit, and a digit reflects at the end of its range
    moves = [0] * n
    span = [2] * (n - 1) + [1]
    step = list(packed)
    focus = list(range(n + 1))
    while True:
        if s & top == top and not s & middle and not s & (s >> 1) & low:
            if not seen[support]:
                seen[support] = 1
                unseen -= 1
                if not unseen:
                    return True
        j = focus[0]
        if j == n:
            return False
        focus[0] = 0
        s += step[j]
        support ^= 1 << j
        moves[j] += 1
        if moves[j] == span[j]:
            moves[j] = 0
            step[j] = -step[j]
            focus[j] = focus[j + 1]
            focus[j + 1] = j + 1


@dataclass(frozen=True)
class TUMatrix:
    """A {-1,0,+1} matrix together with its total-unimodularity status.

    tu_status is "verified" (proved TU by `tu_verdict`, or by
    construction, such as the network matrix of a spanning forest) or
    "asserted" (caller vouches; only the entry range is checked).
    """

    n: int
    m: int
    entries: tuple[tuple[int, ...], ...]
    tu_status: str

    def __post_init__(self):
        if self.n != len(self.entries) or any(len(r) != self.m for r in self.entries):
            raise DimensionError("entry array does not match the declared shape")
        if not _unit_entries(self.entries):
            raise InvalidInputError("matrix entries must lie in {-1, 0, +1}")
        if self.tu_status not in ("verified", "asserted"):
            raise InvalidInputError(f"unknown tu_status {self.tu_status!r}")

    def apply(self, x: Sequence) -> tuple:
        """Matrix-vector product M x."""
        if len(x) != self.m:
            raise DimensionError(f"vector length {len(x)} != column count {self.m}")
        return tuple(
            sum(e * xi for e, xi in zip(row, x) if e) for row in self.entries
        )


def _drop_lines(lines: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The lines with two or more nonzeros, each kept once up to sign."""
    seen, out = set(), []
    for line in lines:
        nonzero = [e for e in line if e]
        if len(nonzero) < 2:
            continue
        key = line if nonzero[0] > 0 else tuple(-e for e in line)
        if key not in seen:
            seen.add(key)
            out.append(line)
    return out


def tu_reduce(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """A matrix that is TU iff the {-1,0,+1} matrix rows is, no larger.

    Deletes, to a fixed point, every row or column with at most one
    nonzero and every row or column that repeats another up to sign, then
    transposes to the shorter side (rows <= columns).  Each step keeps TU
    in both directions (Schrijver, Theory of Linear and Integer
    Programming, 1986, ch. 19): a square submatrix through a line with one
    nonzero expands along it to one of the rest, and one through a line
    and its repeat is singular.  The empty matrix () means TU.
    """
    lines = [tuple(row) for row in rows]
    while lines:
        kept = _drop_lines(lines)
        columns = _drop_lines(list(zip(*kept)))
        if len(kept) == len(lines) and len(columns) == len(lines[0]):
            return tuple(lines) if len(lines) <= len(columns) else tuple(columns)
        lines = list(zip(*columns))
    return ()


def _tu_without_search(rows: Sequence[Sequence[int]]) -> tuple[bool | None, tuple]:
    """The polynomial part of `tu_verdict`: (verdict, ()) when it decides,
    else (None, the reduced matrix the exhaustive check must decide)."""
    verdict = heller_tompkins(rows)
    if verdict is not None:
        return verdict, ()
    reduced = tu_reduce(rows)
    if not reduced:
        return True, ()
    verdict = heller_tompkins(reduced)
    if verdict is None:
        verdict = heller_tompkins(tuple(zip(*reduced)))
    return (verdict, ()) if verdict is not None else (None, reduced)


def tu_decidable(rows: Sequence[Sequence[int]]) -> bool:
    """True iff `tu_verdict(rows)` is not None: a polynomial test decides,
    or the reduced matrix has at most VERIFY_ROW_CAP rows."""
    verdict, reduced = _tu_without_search(rows)
    return verdict is not None or len(reduced) <= VERIFY_ROW_CAP


def tu_verdict(rows: Sequence[Sequence[int]]) -> bool | None:
    """Exact TU verdict, or None when the exhaustive check is over its cap.

    In order: the entry range; Heller-Tompkins on M; `tu_reduce`, whose
    empty result means TU; Heller-Tompkins on the reduced matrix and on its
    transpose; and only then the exhaustive Ghouila-Houri check on the
    reduced matrix, within VERIFY_ROW_CAP rows.
    """
    verdict, reduced = _tu_without_search(rows)
    if verdict is None and len(reduced) <= VERIFY_ROW_CAP:
        verdict = ghouila_houri_ok(reduced)
    return verdict


def tu_matrix(rows: Sequence[Sequence[int]], mode: str = "verify",
              width: int | None = None) -> TUMatrix:
    """Build a TUMatrix under the given verification policy.

    mode "verify" takes the verdict of `tu_verdict`: Heller-Tompkins at
    any size when every column has at most two nonzeros, otherwise the
    TU-preserving reduction and, on what it leaves, Heller-Tompkins or the
    exhaustive check, refused above VERIFY_ROW_CAP reduced rows
    (SizeCapError; `tu_decidable` says in advance).  "assert" trusts the
    caller.  `width` is required for matrices with zero rows.  An entry that
    is not an int is refused, never truncated; True and False count as 1, 0.
    """
    if not all({int, bool}.issuperset(map(type, row)) for row in rows):
        raise InvalidInputError("matrix entries must lie in {-1, 0, +1}")
    entries = tuple(tuple(map(int, row)) for row in rows)
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
            reduced = tu_reduce(entries)
            raise SizeCapError(
                f"exhaustive TU verification capped at {VERIFY_ROW_CAP} rows: "
                f"the {n} x {m} matrix reduces to {len(reduced)} x "
                f"{len(reduced[0])}, with three or more nonzeros in a line; "
                f"load with mode='assert'"
            )
        if not verdict:
            raise InvalidInputError("matrix is not totally unimodular")
        status = "verified"
    return TUMatrix(n=n, m=m, entries=entries, tu_status=status)


def matrix_rank(matrix: TUMatrix) -> int:
    return len(simplex.eliminate(matrix.entries)[2])


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
        if any(g.numerator <= 0 for g in self.weights):
            raise InvalidInputError("all weights must be positive")

    @property
    def m(self) -> int:
        return self.matrix.m

    def rank(self) -> int:
        return self.m - matrix_rank(self.matrix)

    def contains(self, coords: Sequence) -> bool:
        """True iff coords is an integer vector in ker(matrix): every entry an
        int or an integral Fraction.  Any other entry gives False."""
        if len(coords) != self.m:
            return False
        if not all(isinstance(c, int) or isinstance(c, Fraction) and c.denominator == 1
                   for c in coords):
            return False
        return all(s == 0 for s in self.matrix.apply(coords))

    def norm_sq(self, x: Sequence) -> Fraction:
        return inner_product(x, x, self.weights)


@dataclass(frozen=True)
class PrimitiveChain:
    """A {-1,0,+1} kernel vector of inclusion-minimal support.

    Minimality is guaranteed by the construction sites (oracle enumeration,
    LP vertex rescaling), not re-verified here.
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
# Orthogonal projection onto the kernel span
# ---------------------------------------------------------------------------


def _integral_multiple(xs: FracVec) -> tuple[list[int], int]:
    """(d * xs, d) for d the least common denominator of xs."""
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def project_onto_span(t: Sequence, lattice: ZonotopalLattice) -> FracVec:
    """g-orthogonal projection of t onto the span of the lattice.

    Returns t' in ker M with (t - t', z)_g = 0 for every kernel vector z;
    idempotent; exact.  The residual t - t' is g-orthogonal to ker M, so
    it is D^-1 M^T y for D = diag(g), and M t' = 0 gives the normal
    equations (M D^-1 M^T) y = M t over the n rows of M; then
    t' = t - D^-1 M^T y.  In integers, with u = a D^-1 and c t integral,
    (M diag(u) M^T) z = M (c t) for z = c y / a, and simplex.eliminate of
    [M diag(u) M^T | M (c t)] leaves den z on the pivot rows; the free z,
    from the dependent rows of an incidence matrix, are 0, and
    den c t' = den (c t) - diag(u) M^T (den z).  No rows give t' = t and
    a zero kernel gives the origin.
    """
    if len(t) != lattice.m:
        raise DimensionError(f"target length {len(t)} != coordinate count {lattice.m}")
    ct, c = _integral_multiple(frac_vec(t))
    a = lcm(*(g.numerator for g in lattice.weights))
    u = [a // g.numerator * g.denominator for g in lattice.weights]
    rows = lattice.matrix.entries
    n = len(rows)
    normal = [[0] * n for _ in range(n)]
    for uj, column in zip(u, zip(*rows)):
        nonzero = [(i, e) for i, e in enumerate(column) if e]
        for i, e in nonzero:
            normal_i, ue = normal[i], e * uj
            for k, f in nonzero:
                normal_i[k] += ue * f
    h = [sum(map(mul, row, ct)) for row in rows]
    _, h, pivots, den = simplex.eliminate(normal, h)
    if any(h[len(pivots):]):
        raise InternalInvariantError("normal equations of the projection are inconsistent")
    mz = [0] * lattice.m  # M^T (den z), the free z being 0
    for p, dz in zip(pivots, h):
        for j, e in enumerate(rows[p]):
            if e:
                mz[j] += e * dz
    return tuple(Fraction(den * x - uj * s, den * c) for x, uj, s in zip(ct, u, mz))
