"""Exact answer checks that never go through `simplex` or `mmcc`.

Every answer must be a lattice vector whose reported squared distance
matches an independent projection of the target, and it must admit no
improving primitive chain:

* graphic lattices (every column of M has one +1 and one -1): a
  Bellman-Ford negative-cycle test over Fractions on the residual digraph,
  where arc i gives a forward arc of cost c+_i and a backward arc of cost
  -c-_i;
* other lattices with m <= 14: cost(v, u) >= 0 for every primitive chain u
  from `oracle.enumerate_primitive_chains`.

Costs use the target as written in the problem file.  The projection moves
it by a vector g-orthogonal to the lattice, which leaves the cost of every
kernel direction unchanged.
"""

from __future__ import annotations

from fractions import Fraction


class Problem:
    def __init__(self, data: dict):
        self.m = data["m"]
        self.rows = tuple(tuple(r) for r in data["M"])
        self.g = tuple(Fraction(x) for x in data["g"])
        self.t = tuple(Fraction(x) for x in data["t"])
        self.arcs = _incidence_arcs(self.rows, self.m)
        self.vertices = len(self.rows)
        self._projected = None

    @property
    def projected(self) -> tuple[Fraction, ...]:
        if self._projected is None:
            self._projected = _project(self.rows, self.g, self.t)
        return self._projected


def _incidence_arcs(rows, m):
    """(tail, head) per column if M is a signed incidence matrix, else None."""
    arcs = []
    for j in range(m):
        tails = [i for i, r in enumerate(rows) if r[j] == -1]
        heads = [i for i, r in enumerate(rows) if r[j] == 1]
        if len(tails) != 1 or len(heads) != 1:
            return None
        arcs.append((tails[0], heads[0]))
    return arcs


def _solve_consistent(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """A solution of a consistent, possibly singular, square system."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(aug[i][n] != 0 for i in range(r, n)):
        raise ValueError("projection system is inconsistent")
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x


def _project(rows, g, t) -> tuple[Fraction, ...]:
    """g-orthogonal projection of t onto ker M: t - G^-1 M^T y with
    (M G^-1 M^T) y = M t."""
    n, m = len(rows), len(g)
    gram = [[sum(Fraction(rows[i][k] * rows[j][k]) / g[k] for k in range(m)
                 if rows[i][k] and rows[j][k]) for j in range(n)] for i in range(n)]
    mt = [sum(rows[i][k] * t[k] for k in range(m)) for i in range(n)]
    y = _solve_consistent(gram, mt)
    out = tuple(t[k] - sum(rows[i][k] * y[i] for i in range(n)) / g[k] for k in range(m))
    if any(sum(rows[i][k] * out[k] for k in range(m)) for i in range(n)):
        raise ValueError("projected target left the kernel")
    return out


def _right(p: Problem, v, i) -> Fraction:
    return p.g[i] * (2 * (v[i] - p.t[i]) + 1)


def _left(p: Problem, v, i) -> Fraction:
    return p.g[i] * (2 * (v[i] - p.t[i]) - 1)


def _no_negative_cycle(p: Problem, v) -> bool:
    edges = []
    for i, (tail, head) in enumerate(p.arcs):
        edges.append((tail, head, _right(p, v, i)))
        edges.append((head, tail, -_left(p, v, i)))
    dist = [Fraction(0)] * p.vertices
    for _ in range(p.vertices):
        changed = False
        for a, b, c in edges:
            if dist[a] + c < dist[b]:
                dist[b] = dist[a] + c
                changed = True
        if not changed:
            return True
    return False


class Checker:
    """Checks answers; caches the primitive chains of each cut lattice."""

    def __init__(self):
        self._chains: dict = {}

    def _primitive_chains(self, p: Problem):
        key = p.rows
        if key not in self._chains:
            from zonolat import core, oracle

            matrix = core.tu_matrix(p.rows, mode="assert", width=p.m)
            lattice = core.ZonotopalLattice(matrix=matrix, weights=p.g)
            self._chains[key] = [c.coords for c in oracle.enumerate_primitive_chains(lattice)]
        return self._chains[key]

    def optimal(self, p: Problem, v) -> bool:
        """True iff no primitive chain improves the lattice vector v."""
        if p.arcs is not None:
            return _no_negative_cycle(p, v)
        for u in self._primitive_chains(p):
            change = Fraction(0)
            for i, c in enumerate(u):
                if c == 1:
                    change += _right(p, v, i)
                elif c == -1:
                    change -= _left(p, v, i)
            if change < 0:
                return False
        return True

    def faults(self, p: Problem, answer: dict) -> list[str]:
        """Reasons the answer is wrong; empty when it is exactly right."""
        v = answer["closest"]
        if len(v) != p.m or any(type(x) is not int for x in v):
            return ["closest is not an integer vector of length m"]
        out = []
        if any(sum(e * x for e, x in zip(row, v)) for row in p.rows):
            out.append("closest is not a lattice vector")
        dist = sum(gi * (x - ti) ** 2 for gi, x, ti in zip(p.g, v, p.projected))
        if Fraction(answer["distance_sq"]) != dist:
            out.append(f"distance_sq {answer['distance_sq']} != {dist}")
        trace = answer["lambda_trace"]
        if trace[-1] != "0" or answer["iterations"] != len(trace) - 1:
            out.append("lambda_trace does not end at 0 after `iterations` steps")
        if not out and not self.optimal(p, v):
            out.append("an improving primitive chain exists")
        return out

    def origin_control_ok(self, p: Problem, answer: dict) -> bool:
        """Negative control: whenever lambda(0) > 0 the origin is not closest,
        and the check must say so; when lambda(0) = 0 it must accept it."""
        origin_optimal = self.optimal(p, (0,) * p.m)
        return origin_optimal == (Fraction(answer["lambda_trace"][0]) == 0)
