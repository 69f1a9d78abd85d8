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
from numbers import Rational, Real
from operator import mul
from typing import Sequence

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
#: the reduced matrix (`_tu_reduce`).
VERIFY_ROW_CAP = 20


def _vector(xs, m: int | None, what: str) -> Sequence:
    """xs itself if it passes the package's one shape rule: a list or tuple,
    of exactly m entries unless m is None.  Anything else, a str, a scalar,
    None, a set, a dict or a generator included, raises DimensionError."""
    if not isinstance(xs, (list, tuple)):
        raise DimensionError(f"expected a vector, got {xs!r}: {what} must be a list or tuple")
    if m is not None and len(xs) != m:
        raise DimensionError(f"{what} length {len(xs)} != coordinate count {m}")
    return xs


def _is_vector_of(xs, m: int, entry_ok) -> bool:
    """True iff `_vector` takes xs with m entries and entry_ok holds for
    each: the rule of the predicates, which answer False where a reader
    raises."""
    try:
        _vector(xs, m, "vector")
    except DimensionError:
        return False
    return all(map(entry_ok, xs))


def frac_vec(xs: Sequence) -> FracVec:
    """The entries of a list or tuple (`_vector`) as a Fraction tuple; a
    Fraction is kept as it is.  A float (a Real but not a Rational), whose
    binary value is rarely the one meant, or what Fraction refuses raises
    InvalidInputError."""
    return tuple(x if type(x) is Fraction else _fraction(x) for x in _vector(xs, None, "vector"))


def _fraction(x) -> Fraction:
    """Fraction(x) for a frac_vec entry other than a Fraction; a str skips the float test,
    and int reads one of the form -?D or -?D/D (each D decimal digits) as Fraction would."""
    if type(x) is not str and isinstance(x, Real) and not isinstance(x, Rational):
        raise InvalidInputError(f"expected a rational, got {x!r}")
    try:
        if type(x) is str:
            num, slash, den = x.partition("/")
            if num.removeprefix("-").isdecimal() and (den.isdecimal() or not slash):
                return Fraction(int(num), int(den) if slash else 1)
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"expected a rational, got {x!r}") from exc


def _is_integer(x) -> bool:
    """x is an int (a bool reads as 1 or 0) or an integral Fraction."""
    return isinstance(x, int) or isinstance(x, Fraction) and x.denominator == 1


def int_vec(xs: Sequence) -> IntVec:
    """The entries of a list or tuple (`_vector`) as ints, each checked by
    _is_integer, as ZonotopalLattice.contains checks them.  Any other
    entry, a str or a float included, raises InvalidInputError."""
    out = []
    for x in _vector(xs, None, "vector"):
        if not _is_integer(x):
            shown = x if type(x) is Fraction else repr(x)  # 1/2, but '1' for a str
            raise InvalidInputError(f"expected an integer vector, got entry {shown}")
        out.append(int(x))
    return tuple(out)


def integral_multiple(xs: Sequence) -> tuple[list[int], int]:
    """(d * xs, d) for d the least common denominator of xs, whose entries
    are ints or Fractions."""
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def support(x: Sequence) -> frozenset[int]:
    """0-based indices of the nonzero coordinates of x."""
    return frozenset(i for i, v in enumerate(x) if v != 0)


def inner_product(x: Sequence, y: Sequence, g: Sequence) -> Fraction:
    """Weighted inner product (x, y)_g = sum_i g_i x_i y_i, exact; x and y
    have one entry per weight (`_vector`)."""
    m = len(_vector(g, None, "weight"))
    total = Fraction(0)
    for gi, xi, yi in zip(g, _vector(x, m, "vector"), _vector(y, m, "vector")):
        if xi and yi:
            total += Fraction(gi) * xi * yi
    return total


# ---------------------------------------------------------------------------
# Totally unimodular matrices
# ---------------------------------------------------------------------------

_UNIT = frozenset((-1, 0, 1))
_INT_TYPES = frozenset((int, bool))


def _unit_entries(rows: Sequence[Sequence[int]]) -> bool:
    """The package's one matrix-entry rule: every entry is an int (True and
    False read as 1 and 0) in {-1, 0, 1}.  Two C-level set tests per row,
    types first, refuse a float, a Fraction or a str equal to 1.  A matrix
    or a row that `_vector` refuses, as a flat row, or a row whose length
    is not the first row's raises DimensionError."""
    rows = _vector(rows, None, "matrix")
    width = len(_vector(rows[0], None, "matrix row")) if rows else 0
    ok = True
    for row in rows:
        if len(_vector(row, None, "matrix row")) != width:
            raise DimensionError("entry array does not match the declared shape")
        ok = ok and _INT_TYPES.issuperset(map(type, row)) and _UNIT.issuperset(row)
    return ok


def _heller_tompkins(rows: Sequence[Sequence[int]]) -> bool | None:
    """Exact TU verdict for a matrix with at most two nonzeros per column,
    on the checked entries of a TUMatrix or their reduction.

    Heller & Tompkins (1956): such a {-1,0,+1} matrix is totally unimodular
    iff its rows can be 2-coloured so that the two nonzeros of a column lie
    in different colour classes when they have the same sign and in the
    same class when their signs differ.  The colouring is found by sign
    propagation, a bipartiteness check in O(nnz).  Returns None,
    undecided, when some column has three or more nonzeros.
    """
    n = len(rows)
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


def _ghouila_houri_ok(rows: Sequence[Sequence[int]]) -> bool:
    """Exhaustive Ghouila-Houri test on checked rows: every nonempty row
    subset R admits a signing x in {-1,+1}^R with x^T M_R in {-1, 0, +1}^m.

    Equivalently, every nonempty support is hit by some x in {-1,0,+1}^n
    with x^T M in {-1,0,+1}^m.  The walk visits x in reflected ternary Gray
    order, one coordinate moving by 1 per step, with x_{n-1} kept in
    {-1, 0} since x and -x pass together: 2 * 3^(n-1) vectors.  x^T M is
    one int with a w-bit field s_j + 1 + 2^(w-1) per column, w =
    (n+1).bit_length() + 1, so no field leaves [0, 2^w) and a step adds or
    subtracts one packed row.  s_j lies in {-1, 0, +1} iff its field has
    the top bit set, bits 2 to w-2 clear and not both low bits set.  Each
    support reached is marked in a bytearray.  Exponential in the row
    count: `_tu_decision` runs it only on the reduced matrix, and only up to
    VERIFY_ROW_CAP rows.
    """
    n = len(rows)
    if n == 0:
        return True
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
    """A matrix of m columns whose rows and entries pass `_unit_entries`,
    kept as int tuples; `tu_matrix` in "verify", or a construction such as
    a spanning forest's network matrix, proves it TU.  A refusal names the
    first bad entry.  It is the one input of `tu_verdict` and
    `require_tu`, so the entry rule runs once per matrix."""

    entries: tuple[tuple[int, ...], ...]
    m: int

    def __post_init__(self):
        if not _unit_entries(self.entries):
            bad = next(e for row in self.entries for e in row
                       if type(e) not in _INT_TYPES or e not in _UNIT)
            raise InvalidInputError(f"matrix entries must lie in {{-1, 0, +1}}, got {bad!r}")
        if self.entries and len(self.entries[0]) != self.m:
            raise DimensionError("entry array does not match the declared shape")
        object.__setattr__(self, "entries", tuple(tuple(map(int, r)) for r in self.entries))

    @property
    def n(self) -> int:
        return len(self.entries)

    def apply(self, x: Sequence) -> tuple:
        """Matrix-vector product M x, for x of m entries (`_vector`): the
        package's one M x."""
        x = _vector(x, self.m, "vector")
        return tuple(sum(map(mul, row, x)) for row in self.entries)

    def apply_transpose(self, y: Sequence) -> list:
        """M^T y for y of n entries, over the nonzero y_i and the nonzero
        entries of their rows: the package's one M^T y."""
        out = [0] * self.m
        for row, yi in zip(self.entries, _vector(y, self.n, "vector")):
            if yi:
                for j, e in enumerate(row):
                    if e:
                        out[j] += e * yi
        return out


def _as_tu_matrix(matrix) -> TUMatrix:
    """matrix itself if it is a TUMatrix; raw rows raise InvalidInputError."""
    if not isinstance(matrix, TUMatrix):
        raise InvalidInputError(f"expected a TUMatrix from tu_matrix, got {type(matrix).__name__}")
    return matrix


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


def _tu_reduce(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """A matrix that is TU iff the checked {-1,0,+1} rows are, no larger.

    Deletes, to a fixed point, every row or column with at most one
    nonzero and every row or column that repeats another up to sign, then
    transposes to the shorter side (rows <= columns).  Each step keeps TU
    in both directions (Schrijver, Theory of Linear and Integer
    Programming, 1986, ch. 19): a square submatrix through a line with one
    nonzero expands along it to one of the rest, and one through a line
    and its repeat is singular.  The empty matrix () means TU.  Row and
    column passes alternate until one deletes nothing, after one of each.
    """
    lines, transposed = _drop_lines([tuple(row) for row in rows]), False
    while lines:
        lines, transposed = list(zip(*lines)), not transposed
        kept = _drop_lines(lines)
        if len(kept) == len(lines):
            sides = (tuple(lines), tuple(zip(*lines)))  # this side, then the other
            return min(sides[::-1] if transposed else sides, key=len)  # rows on a tie
        lines = kept
    return ()


def _tu_decision(matrix: TUMatrix) -> tuple[bool | None, tuple]:
    """(verdict, R) for `tu_verdict` and `require_tu`: Heller-Tompkins on M
    (as on an incidence matrix, with R = ()), else on R = `_tu_reduce(M)`,
    else the exhaustive check on R within VERIFY_ROW_CAP rows; None above
    it.  Heller-Tompkins on R's transpose could never decide: R has r <= c
    rows and columns and two or more nonzeros in every line, so if no row
    had more than two, 2c <= nnz(R) = 2r <= 2c would give every column
    exactly two, and the call on R itself would have decided."""
    verdict = _heller_tompkins(_as_tu_matrix(matrix).entries)
    if verdict is not None:
        return verdict, ()
    reduced = _tu_reduce(matrix.entries)
    verdict = _heller_tompkins(reduced)  # True on the empty matrix
    if verdict is None and len(reduced) <= VERIFY_ROW_CAP:
        verdict = _ghouila_houri_ok(reduced)
    return verdict, reduced


def tu_verdict(matrix: TUMatrix) -> bool | None:
    """Exact TU verdict on a TUMatrix, whose entries passed the entry rule
    once, or None over the exhaustive check's cap (`_tu_decision`)."""
    return _tu_decision(matrix)[0]


def require_tu(matrix: TUMatrix) -> None:
    """Return only if `tu_verdict` proves matrix TU: InvalidInputError if it
    refutes it, SizeCapError if it is over its cap.  A matrix of m <=
    VERIFY_ROW_CAP columns never is: the reduced matrix has no more rows
    than columns, and one of the two is a subset of M's columns, so it has
    at most m rows."""
    verdict, reduced = _tu_decision(matrix)
    if verdict is None:
        raise SizeCapError(
            f"exhaustive TU verification capped at {VERIFY_ROW_CAP} rows: "
            f"the {matrix.n} x {matrix.m} matrix reduces to {len(reduced)} x "
            f"{len(reduced[0])}, with three or more nonzeros in a line; "
            f"load with mode='assert'"
        )
    if not verdict:
        raise InvalidInputError("matrix is not totally unimodular")


def tu_matrix(rows: Sequence[Sequence[int]], mode: str = "verify",
              width: int | None = None) -> TUMatrix:
    """The TUMatrix of rows: proved TU in mode "verify", trusted in "assert".

    `width` is required for matrices with zero rows.  Building the
    TUMatrix refuses an entry outside `_unit_entries`, never truncating it;
    that entry and shape check is all "assert" runs.  "verify" then runs
    `require_tu`.  `zonolat solve` loads every file in "assert" and lets
    its answer's certificate speak.
    """
    if mode not in ("verify", "assert"):
        raise InvalidInputError(f"unknown TU mode {mode!r}")
    rows = _vector(rows, None, "matrix")
    m = len(_vector(rows[0], None, "matrix row")) if rows else width
    if m is None:
        raise InvalidInputError("width is required for a matrix with no rows")
    if width is not None and width != m:
        raise DimensionError(f"declared width {width} != row length {m}")
    matrix = TUMatrix(entries=rows, m=m)
    if mode == "verify":
        require_tu(matrix)
    return matrix


def matrix_rank(matrix: TUMatrix) -> int:
    return len(simplex.eliminate(_as_tu_matrix(matrix).entries)[1])


# ---------------------------------------------------------------------------
# Lattices and chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZonotopalLattice:
    """L = ker(matrix) /\\ Z^m with inner product weighted by `weights`."""

    matrix: TUMatrix
    weights: FracVec

    def __post_init__(self):
        m = _as_tu_matrix(self.matrix).m
        object.__setattr__(self, "weights", frac_vec(_vector(self.weights, m, "weight")))
        if any(g.numerator <= 0 for g in self.weights):
            raise InvalidInputError("all weights must be positive")

    @property
    def m(self) -> int:
        return self.matrix.m

    def rank(self) -> int:
        return self.m - matrix_rank(self.matrix)

    def contains(self, coords: Sequence) -> bool:
        """True iff coords is an integer vector in ker(matrix): a list or
        tuple of m entries (`_vector`), each an int or an integral Fraction.
        Anything else gives False."""
        return _is_vector_of(coords, self.m, _is_integer) and not any(self.matrix.apply(coords))

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
    v = int_vec(_vector(coords, lattice.m, "chain"))
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


def project_onto_span(t: Sequence, lattice: ZonotopalLattice) -> FracVec:
    """g-orthogonal projection of t, m entries by `_vector`, onto the span
    of the lattice.

    Returns t' in ker M with (t - t', z)_g = 0 for every kernel vector z;
    idempotent; exact.  The residual t - t' is g-orthogonal to ker M, so
    it is D^-1 M^T y for D = diag(g), and M t' = 0 gives the normal
    equations (M D^-1 M^T) y = M t over the n rows of M; then
    t' = t - D^-1 M^T y.  In integers, with u = a D^-1 and c t integral,
    (M diag(u) M^T) z = M (c t) for z = c y / a; simplex.eliminate solves
    it forward and back for den z, the free z, from the dependent rows of
    an incidence matrix, being 0, and den c t' = den (c t) - diag(u) M^T
    (den z).  No rows give t' = t and a zero kernel gives the origin.
    """
    ct, c = integral_multiple(frac_vec(_vector(t, lattice.m, "target")))
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
    h, pivots, den = simplex.eliminate(normal, lattice.matrix.apply(ct))
    if any(h[len(pivots):]):
        raise InternalInvariantError("normal equations of the projection are inconsistent")
    dz = dict(zip(pivots, h))  # den z, the free z being 0
    mz = lattice.matrix.apply_transpose([dz.get(i, 0) for i in range(n)])
    return tuple(Fraction(den * x - uj * s, den * c) for x, uj, s in zip(ct, u, mz))
