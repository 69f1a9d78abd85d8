"""`zonolat solve` output pinned byte for byte on a seeded corpus.

Each problem's stdout is hashed (the first 16 hex digits of its sha256)
and compared with the hash recorded when the corpus was added, so a
refactor that must not change answers is checked here.  The corpus mixes
graphic, cographic and VFK lattices (Voronoi's first kind) with far
targets, so the box step runs, one far target whose walk goes on with a
chain step, and the A_2 worked example, whose walk starts at the origin.
The `-tie-` problems have half-integer targets, so every vertex of the box
LP ties and only the simplex's tie-breaking decides the box step's vertex.
`LP_PINNED` hashes the ("optimal", vertex, den, optimum) of every
`solve_lp` call of each solve, so an LP vertex or den that moves without
changing the answer shows there too; every result is optimal, and the
literal keeps the digests recorded when a result still carried a status.
`WORK_PINNED` hashes their (pivots, flips, duals), so a kernel change
that must keep every choice of the pivot rule (Dantzig's entering column,
Bland's after a degenerate run) is checked pivot for pivot.  A deliberate
change of any of them re-pins: run
`PYTHONPATH=src python tests/test_solve_pinned.py` and paste its tables.
The pins show that answers are stable; `test_oracle_agrees_on_distance`
shows that they are right, ties included.
"""

from __future__ import annotations

import io
import json
import random
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

import pytest

from conftest import check_box_certified_closest
from zonolat import (
    ZonotopalLattice,
    brute_force_cvp,
    cographic_lattice,
    cvp_instance,
    digraph,
    graphic_lattice,
    kernel_basis,
    obtuse_superbasis_gram,
    proximity_start,
    simplex,
    solve_cvp,
    tu_matrix,
    voronoi_first_kind,
)
from zonolat.cli import main
from zonolat.oracle import COEFF_BOX_CAP

PINNED = {
    "a2-worked": "42b144be326118ac",
    "cographic-0": "5cd3fed33cceda34",
    "cographic-1": "b86490d52fd7a114",
    "cographic-2": "0b3fd8e2e8d0e121",
    "cographic-3": "f3779bbc0899369e",
    "cographic-tie-0": "4ebec9d244a57a85",
    "cographic-tie-1": "78809e35089edef5",
    "cographic-tie-2": "130e109d7043ef9a",
    "cographic-walk": "fb0f015dd6d9a298",
    "graphic-0": "77238296303c8b46",
    "graphic-1": "7602666a2eca1cce",
    "graphic-2": "b066ed37c7623577",
    "graphic-3": "c5a89c7d551c3c84",
    "vfk-0": "c99b28ea8df3c8bf",
    "vfk-1": "6b94c0db1500fead",
    "vfk-2": "768669a56d119c0f",
    "vfk-tie-0": "fca10f0d48d598d5",
    "vfk-tie-1": "fa89b86234620268",
}

LP_PINNED = {
    "a2-worked": "d307fbe37b63311a",
    "cographic-0": "8e535d8cad6657b0",
    "cographic-1": "426b2aad3af6220a",
    "cographic-2": "461a90a5c1a420ad",
    "cographic-3": "48763091c58c61d4",
    "cographic-tie-0": "aeccfb2990db9f39",
    "cographic-tie-1": "ea74cfdf053b40c1",
    "cographic-tie-2": "9287b62fae350791",
    "cographic-walk": "143d2468ecf563b7",
    "graphic-0": "804ec2856dccae32",
    "graphic-1": "f4a0d685caef8892",
    "graphic-2": "6caef8af1835efb1",
    "graphic-3": "2ae3c2fa379beb38",
    "vfk-0": "a77dd0d054c8d321",
    "vfk-1": "a530f012373f5bd1",
    "vfk-2": "f896644ab82b8726",
    "vfk-tie-0": "cafa18209a6fd4ca",
    "vfk-tie-1": "964f86e82a8a6333",
}

WORK_PINNED = {
    "a2-worked": "04ec70c3eee91409",
    "cographic-0": "6ec8cb540d8f3c93",
    "cographic-1": "6f791240e7ec7d9b",
    "cographic-2": "be22d0d1d5fcc435",
    "cographic-3": "95d6d3a0fe168f62",
    "cographic-tie-0": "fc69cf0046187cc3",
    "cographic-tie-1": "9e58d801acfa9878",
    "cographic-tie-2": "754c9f661603f188",
    "cographic-walk": "00a6c768bb1f26b8",
    "graphic-0": "2d1f9ad56e44dd91",
    "graphic-1": "c82987cf29260e4e",
    "graphic-2": "05e375c2e8443f2d",
    "graphic-3": "aa2212d219133b76",
    "vfk-0": "8726bbce5a1100c1",
    "vfk-1": "9c774c7b02cfb924",
    "vfk-2": "52a40f65f6f60325",
    "vfk-tie-0": "464d6869aee92124",
    "vfk-tie-1": "2332ac3a4ac9c567",
}


def _weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 6), rng.randint(1, 3))


def _connected_arcs(rng: random.Random, vertices: int, m: int) -> list[tuple[int, int]]:
    """A random spanning tree plus random arcs, parallel ones allowed."""
    arcs = []
    for k in range(1, vertices):
        other = rng.randrange(k)
        arcs.append((other, k) if rng.random() < 0.5 else (k, other))
    while len(arcs) < m:
        arcs.append(tuple(rng.sample(range(vertices), 2)))
    rng.shuffle(arcs)
    return arcs


def _problem(name: str, lattice: ZonotopalLattice, target) -> dict:
    return {
        "name": name,
        "m": lattice.m,
        "n": lattice.matrix.n,
        "M": [list(row) for row in lattice.matrix.entries],
        "g": [str(x) for x in lattice.weights],
        "t": [str(x) for x in target],
        "tu_mode": "verify",
    }


def _far_target(rng: random.Random, m: int) -> list[Fraction]:
    return [Fraction(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 7)) for _ in range(m)]


def _half_target(rng: random.Random, lattice: ZonotopalLattice) -> list[Fraction]:
    """Half of a far lattice vector: already in the span, so the projection
    keeps it, and a half-integer wherever the vector is odd."""
    t = [0] * lattice.m
    for b in kernel_basis(lattice.matrix):
        a = rng.randint(-2 * 10 ** 4, 2 * 10 ** 4)
        t = [x + a * y for x, y in zip(t, b)]
    return [Fraction(x, 2) for x in t]


def corpus() -> dict[str, dict]:
    rng = random.Random("solve-pinned")
    out = {"a2-worked": {"name": "a2-worked", "m": 3, "n": 1, "M": [[1, 1, 1]],
                         "g": ["1", "1", "1"], "t": ["7/10", "-1/5", "-1/2"],
                         "tu_mode": "verify"}}
    for k in range(4):
        vertices = 5 + k
        d = digraph(vertices, _connected_arcs(rng, vertices, 2 * vertices + k))
        lattice = graphic_lattice(d, [_weight(rng) for _ in d.arcs])
        out[f"graphic-{k}"] = _problem(f"graphic-{k}", lattice, _far_target(rng, lattice.m))
    for k in range(4):
        vertices = 6 + k % 2
        d = digraph(vertices, _connected_arcs(rng, vertices, vertices + 5))
        lattice = cographic_lattice(d, [_weight(rng) for _ in d.arcs])
        out[f"cographic-{k}"] = _problem(f"cographic-{k}", lattice, _far_target(rng, lattice.m))
    for k in range(3):
        size = 4 + k % 2
        gram = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                w = _weight(rng) if rng.random() < 0.8 or j == i + 1 else 0
                gram[i][j] = gram[j][i] = -w
                gram[i][i] += w
                gram[j][j] += w
        lattice, _ = voronoi_first_kind(obtuse_superbasis_gram(gram))
        out[f"vfk-{k}"] = _problem(f"vfk-{k}", lattice, _far_target(rng, lattice.m))
    # half-integer targets: every box slope right_derivative(j, floor t_j)
    # is 0, so all box vertices tie and the simplex's pivot rule alone
    # picks the box step's vertex
    rng = random.Random("solve-pinned-ties")
    for k in range(3):
        vertices = 6 + k
        d = digraph(vertices, _connected_arcs(rng, vertices, vertices + 4 + k))
        lattice = cographic_lattice(d, [_weight(rng) for _ in d.arcs])
        out[f"cographic-tie-{k}"] = _problem(f"cographic-tie-{k}", lattice,
                                             _half_target(rng, lattice))
    for k in range(2):
        size = 4 + k
        gram = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                w = _weight(rng)
                gram[i][j] = gram[j][i] = -w
                gram[i][i] += w
                gram[j][j] += w
        lattice, _ = voronoi_first_kind(obtuse_superbasis_gram(gram))
        out[f"vfk-tie-{k}"] = _problem(f"vfk-tie-{k}", lattice,
                                       _half_target(rng, lattice))
    # walks that go on after the box step are rare; a search over seeds
    # found this one
    rng = random.Random("walk-262")
    d = digraph(7, _connected_arcs(rng, 7, 13))
    lattice = cographic_lattice(d, [_weight(rng) for _ in d.arcs])
    out["cographic-walk"] = _problem("cographic-walk", lattice, _far_target(rng, lattice.m))
    return out


CORPUS = corpus()


def _stdout_hash(problem: dict, path: Path) -> str:
    path.write_text(json.dumps(problem), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["solve", str(path)]) == 0
    return sha256(out.getvalue().encode()).hexdigest()[:16]


def _lp_hash(problem: dict, path: Path) -> str:
    """The hash of ("optimal", vertex, den, optimum) of every solve_lp call,
    in order, while `zonolat solve` solves the problem."""
    return _solve_lp_hash(problem, path, lambda r: ("optimal", r.vertex, r.den, r.optimum))


def _work_hash(problem: dict, path: Path) -> str:
    """The hash of (pivots, flips, duals) of every solve_lp call, in order,
    while `zonolat solve` solves the problem."""
    return _solve_lp_hash(problem, path, lambda r: (r.pivots, r.flips, r.duals))


def _solve_lp_hash(problem: dict, path: Path, fields) -> str:
    solve_lp, results = simplex.solve_lp, []

    def recording(p, start=None):
        r = solve_lp(p, start)
        results.append(fields(r))
        return r

    simplex.solve_lp = recording
    try:
        _stdout_hash(problem, path)
    finally:
        simplex.solve_lp = solve_lp
    return sha256(repr(results).encode()).hexdigest()[:16]


def test_pins_cover_the_corpus():
    assert sorted(PINNED) == sorted(LP_PINNED) == sorted(WORK_PINNED) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_solve_output_pinned(name, tmp_path):
    got = _stdout_hash(CORPUS[name], tmp_path / "problem.json")
    assert got == PINNED.get(name), f"`zonolat solve` output of {name} changed"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_solve_lps_pinned(name, tmp_path):
    got = _lp_hash(CORPUS[name], tmp_path / "problem.json")
    assert got == LP_PINNED.get(name), f"an LP of the solve of {name} changed"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_solve_lp_work_pinned(name, tmp_path):
    got = _work_hash(CORPUS[name], tmp_path / "problem.json")
    assert got == WORK_PINNED.get(name), f"the pivots of an LP of the solve of {name} changed"


def test_corpus_takes_box_and_walk_steps():
    # every far target starts with the box step; the A_2 example walks from
    # the origin, and cographic-walk walks on after its box step.  The tie
    # problems' non-integer target coordinates are all half-integers.
    for name, problem in CORPUS.items():
        lattice = ZonotopalLattice(matrix=tu_matrix(problem["M"]), weights=problem["g"])
        instance = cvp_instance(lattice, problem["t"])
        if "-tie-" in name:
            assert {x.denominator for x in instance.target} == {1, 2}, name
        trace = solve_cvp(instance).trace
        assert (trace[0].u is None) == (name != "a2-worked"), name
        walks = any(rec.u is not None for rec in trace)
        assert walks == (name in ("a2-worked", "cographic-walk")), name


def test_box_certified_vertices_are_closest():
    # 13 of the corpus's box vertices are certified by the box LP's duals;
    # cographic-walk's is not, and would be a wrong answer if it were
    instances = [cvp_instance(ZonotopalLattice(matrix=tu_matrix(p["M"]), weights=p["g"]), p["t"])
                 for p in CORPUS.values()]
    assert check_box_certified_closest(instances) == 13


def test_oracle_agrees_on_distance():
    # every corpus problem within the oracle's rank cap has the brute-force
    # reference's distance, so a tie answers with a closest vector, not
    # just the same one as before; the two graphic problems of rank 9 and
    # 10 are above the cap
    checked = []
    for name, p in CORPUS.items():
        lattice = ZonotopalLattice(matrix=tu_matrix(p["M"]), weights=p["g"])
        if lattice.rank() > COEFF_BOX_CAP:
            continue
        instance = cvp_instance(lattice, p["t"])
        solution = solve_cvp(instance)
        assert instance.distance_sq(brute_force_cvp(instance)) == solution.distance_sq, name
        checked.append(name)
    assert len(checked) == 16 and all(n in checked for n in CORPUS if "-tie-" in n)


def test_tie_box_lps_flip_a_bound(monkeypatch):
    # every box slope of a tie problem is 0, so phase 1 alone picks the box
    # vertex, and on each of them it moves some z_j to its bound 1 by a
    # flip, with no pivot; phase 2 has nothing to improve
    solve_lp = simplex.solve_lp
    results = []

    def recording(p, start=None):
        results.append(solve_lp(p, start))
        return results[-1]

    monkeypatch.setattr(simplex, "solve_lp", recording)
    ties = [name for name in sorted(CORPUS) if "-tie-" in name]
    for name in ties:
        problem = CORPUS[name]
        lattice = ZonotopalLattice(matrix=tu_matrix(problem["M"]), weights=problem["g"])
        proximity_start(cvp_instance(lattice, problem["t"]))
    assert len(results) == len(ties)
    assert all(r.flips >= 1 and r.pivots[1] == 0 for r in results)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for pins, digest in (("PINNED", _stdout_hash), ("LP_PINNED", _lp_hash),
                             ("WORK_PINNED", _work_hash)):
            print(f"{pins} = {{")
            for name in sorted(CORPUS):
                print(f'    "{name}": "{digest(CORPUS[name], Path(tmp) / "problem.json")}",')
            print("}")
