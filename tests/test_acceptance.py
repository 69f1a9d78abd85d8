"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside pytest's own pass/fail output.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction as F

from conftest import corpus_small, k4_digraph, triangle_digraph
from zonolat import (
    a_n_lattice,
    brute_force_cvp,
    check_projection_theorem,
    cographic_lattice,
    compute_lambda,
    cost,
    cvp_instance,
    digraph,
    enumerate_primitive_chains,
    graphic_lattice,
    inner_product,
    is_strict_voronoi_by_coset,
    kernel_basis,
    matrix_rank,
    obtuse_superbasis_gram,
    project_onto_span,
    solve_cvp,
    stopping_data,
    tensor_lattice,
    voronoi_first_kind,
    voronoi_relevant_count,
)
from zonolat.cli import main, parse_problem, problem_to_json
from zonolat.constructions import component_count


def _report(num: int, message: str) -> None:
    print(f"ACCEPTANCE CRITERION {num}: PASS - {message}")


# ---------------------------------------------------------------------------
# Shared random instance corpus (criteria 1 and 7)
# ---------------------------------------------------------------------------


def _random_weights(rng: random.Random, m: int):
    return tuple(F(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(m))


def _random_target(rng: random.Random, m: int):
    return [F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(m)]


def _random_connected_digraph(rng: random.Random):
    v = rng.randint(3, 6)
    arcs = []
    for w in range(1, v):
        other = rng.randrange(w)
        arcs.append((other, w) if rng.random() < 0.5 else (w, other))
    extra = rng.randint(0, min(4, 10 - len(arcs)))
    while extra > 0:
        t, h = rng.randrange(v), rng.randrange(v)
        if t != h:
            arcs.append((t, h))
            extra -= 1
    return digraph(v, arcs)


def _corpus_instances():
    rng = random.Random(20260810)
    instances = []
    kinds = (["graphic"] * 40 + ["cographic"] * 20 + ["an"] * 20 + ["tensor"] * 20)
    for idx, kind in enumerate(kinds):
        if kind == "graphic":
            lat = graphic_lattice(_random_connected_digraph(rng))
        elif kind == "cographic":
            d = triangle_digraph() if idx % 2 else k4_digraph()
            lat = cographic_lattice(d)
        elif kind == "an":
            lat = a_n_lattice(1 + idx % 5)
        else:
            lat = tensor_lattice(1, 1) if idx % 2 else tensor_lattice(2, 2)
        lat = type(lat)(matrix=lat.matrix, weights=_random_weights(rng, lat.m))
        instances.append(cvp_instance(lat, _random_target(rng, lat.m), project=True))
    assert len(instances) == 100
    return instances


_CORPUS_CACHE: dict | None = None


def _corpus_results():
    global _CORPUS_CACHE
    if _CORPUS_CACHE is None:
        start = time.monotonic()
        results = []
        for inst in _corpus_instances():
            sol = solve_cvp(inst)
            ref = brute_force_cvp(inst)
            results.append((inst, sol, ref))
        _CORPUS_CACHE = {"results": results, "elapsed": time.monotonic() - start}
    return _CORPUS_CACHE


def test_criterion_01_oracle_equivalence():
    data = _corpus_results()
    assert len(data["results"]) == 100
    for inst, sol, ref in data["results"]:
        assert sol.distance_sq == inst.distance_sq(ref)
        assert sol.certified
    assert data["elapsed"] < 120, f"corpus took {data['elapsed']:.1f}s"
    _report(1, f"100 seeded instances match the brute-force oracle exactly "
               f"({data['elapsed']:.1f}s)")


def test_criterion_02_strict_voronoi_equivalence():
    checked = 0
    for lat in corpus_small():
        assert lat.m <= 10
        basis = kernel_basis(lat.matrix)
        chains = {c.coords for c in enumerate_primitive_chains(lat)}
        passing = set()
        seen = set()
        for alpha in itertools.product(range(-2, 3), repeat=len(basis)):
            v = [0] * lat.m
            for a, b in zip(alpha, basis):
                for i in range(lat.m):
                    v[i] += a * b[i]
            v = tuple(v)
            if not any(v) or v in seen:
                continue
            seen.add(v)
            if is_strict_voronoi_by_coset(v, lat):
                passing.add(v)
            checked += 1
        assert chains <= seen, "candidate domain must contain every chain"
        assert passing == chains
    _report(2, f"primitive chains = strict Voronoi vectors on {checked} candidates")


def test_criterion_03_worked_a2_trace():
    inst = cvp_instance(a_n_lattice(2), (F(7, 10), F(-1, 5), F(-1, 2)),
                        project=False)
    lam0, _ = compute_lambda((0, 0, 0), inst)
    assert lam0 == F(1, 5)
    sol = solve_cvp(inst)
    assert sol.iterations == 1
    step = sol.trace[0]
    assert step.u.coords == (1, 0, -1)
    assert step.step == 1
    assert step.lam == F(1, 5)
    lam1, _ = compute_lambda(sol.closest, inst)
    assert lam1 == 0
    assert sol.closest == (1, 0, -1)
    assert sol.distance_sq == F(19, 50)
    _report(3, "lambda(0)=1/5, u=(1,0,-1), step 1, lambda=0, dist^2=19/50")


def test_criterion_04_counting_checks():
    assert voronoi_relevant_count(a_n_lattice(2)) == 6
    assert voronoi_relevant_count(a_n_lattice(2, (1, 2, 3))) == 6
    k4 = k4_digraph()
    assert voronoi_relevant_count(cographic_lattice(k4)) == 14
    reweighted = cographic_lattice(k4, tuple(F(i + 1, 2) for i in range(6)))
    assert voronoi_relevant_count(reweighted) == 14
    _report(4, "A_2 has 6 strict Voronoi vectors, cographic K_4 has 14, "
               "invariant under reweighting")


def test_criterion_05_dimension_formulas():
    rng = random.Random(555)
    for _ in range(20):
        v = rng.randint(2, 7)
        arcs = []
        for _ in range(rng.randint(1, 10)):
            t, h = rng.randrange(v), rng.randrange(v)
            if t != h:
                arcs.append((t, h))
        if not arcs:
            arcs = [(0, 1)]
        lat = graphic_lattice(digraph(v, arcs))
        k = component_count(v, arcs)
        assert lat.rank() == len(arcs) - v + k
    for m in range(1, 4):
        for n in range(1, 4):
            assert tensor_lattice(m, n).rank() == m * n
    for n in range(1, 6):
        assert a_n_lattice(n).rank() == n
    _report(5, "graphic |A|-|V|+k on 20 digraphs, tensor mn for m,n<=3, A_n rank n")


def test_criterion_06_cost_identity():
    rng = random.Random(606)
    lattices = corpus_small()
    pairs = 0
    while pairs < 1000:
        lat = lattices[pairs % len(lattices)]
        chains = enumerate_primitive_chains(lat)
        inst = cvp_instance(lat, _random_target(rng, lat.m), project=True)
        basis = kernel_basis(lat.matrix)
        v = [0] * lat.m
        for b in basis:
            a = rng.randint(-4, 4)
            for i in range(lat.m):
                v[i] += a * b[i]
        u = chains[rng.randrange(len(chains))]
        vu = [a + b for a, b in zip(v, u.coords)]
        assert inst.distance_sq(vu) - inst.distance_sq(v) == cost(v, u, inst)
        pairs += 1
    _report(6, "exact cost identity on 1000 random (v, u) pairs")


def test_criterion_07_descent_and_decrease_bound():
    data = _corpus_results()
    for inst, sol, _ in data["results"]:
        m = inst.m
        block = m - matrix_rank(inst.lattice.matrix)
        dists = [inst.distance_sq((0,) * m)] + [r.distance_sq for r in sol.trace]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        lams = list(sol.lambda_trace())
        assert all(a >= b for a, b in zip(lams, lams[1:]))
        factor = 1 - F(1, 2 * m)
        if block > 0:
            for k in range(len(lams) - block):
                assert lams[k + block] <= factor * lams[k]
        assert sol.iterations <= stopping_data(inst)
    _report(7, "strict descent, monotone lambda, geometric decrease bound, "
               "iteration caps respected on all 100 traces")


def test_criterion_08_projection_theorem():
    for lat in corpus_small():
        assert lat.m <= 10
        assert check_projection_theorem(lat, samples=1000, seed=8080)
    assert not check_projection_theorem(a_n_lattice(2), samples=1000, seed=8080,
                                        cube_scale=2)
    _report(8, f"1000 dyadic samples per lattice stay in the Voronoi cell on "
               f"{len(corpus_small())} lattices; the x2 cube control fails on A_2")


def _random_laplacian_gram(rng: random.Random, size: int):
    """Gram of a superbasis from a random connected positively weighted graph."""
    while True:
        offdiag = {}
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < 0.7:
                    offdiag[(i, j)] = F(rng.randint(1, 6), rng.randint(1, 3))
        arcs = list(offdiag)
        if arcs and component_count(size, arcs) == 1:
            break
    rows = [[F(0)] * size for _ in range(size)]
    for (i, j), w in offdiag.items():
        rows[i][j] = rows[j][i] = -w
        rows[i][i] += w
        rows[j][j] += w
    return rows


def test_criterion_09_vfk_isometry():
    a2_gram = [[1, F(-1, 2), F(-1, 2)],
               [F(-1, 2), 1, F(-1, 2)],
               [F(-1, 2), F(-1, 2), 1]]
    rng = random.Random(909)
    grams = [a2_gram, _random_laplacian_gram(rng, 3), _random_laplacian_gram(rng, 4)]
    for rows in grams:
        lattice, basis_rows = voronoi_first_kind(obtuse_superbasis_gram(rows))
        k = len(rows)
        for i in range(k):
            for j in range(k):
                got = inner_product(basis_rows[i], basis_rows[j], lattice.weights)
                assert got == rows[i][j]
    _report(9, "image superbasis Gram equals the input Gram entrywise on "
               "A_2 and two random obtuse superbases (sizes 3, 4)")


def _determinism_problem_files(tmp_path):
    rng = random.Random(1010)
    files = []
    cases = [
        ("a2", a_n_lattice(2), (F(7, 10), F(-1, 5), F(-1, 2))),
        ("a3", a_n_lattice(3, (1, 2, 1, 2)), None),
        ("tri-cog", cographic_lattice(triangle_digraph(), (F(1, 2), 1, 2)), None),
        ("k4-cog", cographic_lattice(k4_digraph()), None),
        ("t11", tensor_lattice(1, 1), None),
        ("t22", tensor_lattice(2, 2), None),
        ("graphic", graphic_lattice(_random_connected_digraph(rng)), None),
    ]
    for name, lat, target in cases:
        if target is None:
            target = project_onto_span(_random_target(rng, lat.m), lat)
        problem = {
            "name": name,
            "m": lat.m,
            "n": lat.matrix.n,
            "M": [list(r) for r in lat.matrix.entries],
            "g": [str(x) for x in lat.weights],
            "t": [str(x) for x in target],
        }
        parse_problem(problem_to_json(parse_problem(problem)))  # schema sanity
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(problem), encoding="utf-8")
        files.append(path)
    return files


def test_criterion_10_cmd_solve_determinism(tmp_path):
    for path in _determinism_problem_files(tmp_path):
        out1 = tmp_path / (path.stem + ".out1.json")
        out2 = tmp_path / (path.stem + ".out2.json")
        assert main(["solve", str(path), "--oracle", "--trace", str(out1)]) == 0
        assert main(["solve", str(path), "--oracle", "--trace", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
    _report(10, "cmd_solve output byte-identical across repeated runs on the corpus")
