"""CLI: file schema round-trips, subcommands, exit codes, determinism."""

from __future__ import annotations

import importlib.util
import itertools
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import DEN_TWO_M, NON_TU_M, corpus_small, random_arcs
from zonolat.cli import (
    InputFormatError,
    SolutionFile,
    _load_problem,
    lattice_from_problem,
    main,
    parse_problem,
    parse_solution,
    problem_to_json,
    solution_to_json,
)
from zonolat import core, mmcc
from zonolat.core import (
    VERIFY_ROW_CAP,
    ZonotopalLattice,
    _heller_tompkins,
    _tu_reduce,
    frac_vec,
    tu_matrix,
    tu_verdict,
)
from zonolat.errors import InternalInvariantError, InvalidInputError, ZonolatError
from zonolat.mmcc import cvp_instance

A2_PROBLEM = {
    "name": "a2-worked",
    "m": 3,
    "n": 1,
    "M": [[1, 1, 1]],
    "g": ["1", "1", "1"],
    "t": ["7/10", "-1/5", "-1/2"],
}


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(A2_PROBLEM), encoding="utf-8")
    return str(path)


def test_problem_roundtrip():
    p = parse_problem(A2_PROBLEM)
    assert parse_problem(problem_to_json(p)) == p
    assert p.g == (F(1), F(1), F(1))
    assert p.t == (F(7, 10), F(-1, 5), F(-1, 2))


def test_problem_accepts_plain_integers():
    data = dict(A2_PROBLEM, g=[1, 1, 1], t=[0, 0, 0])
    p = parse_problem(data)
    assert p.g == (1, 1, 1)


def test_problem_rejects_floats_and_bad_shapes():
    with pytest.raises(Exception):
        parse_problem(dict(A2_PROBLEM, g=[1.0, 1, 1]))
    # the row width and the weights' sign are the lattice's to check
    with pytest.raises(Exception):
        lattice_from_problem(parse_problem(dict(A2_PROBLEM, M=[[1, 1]])))
    with pytest.raises(Exception):
        lattice_from_problem(parse_problem(dict(A2_PROBLEM, g=["0", "1", "1"])))
    # a tu_mode key, whatever its value, is ignored like any other unknown key
    for tu_mode in ("verify", "assert", "maybe", None, 1.5):
        assert parse_problem(dict(A2_PROBLEM, tu_mode=tu_mode)) == parse_problem(A2_PROBLEM)


@pytest.mark.parametrize("bad", [True, False, 1.0, 2, -2, "1", [1], None])
def test_problem_names_the_first_bad_matrix_entry(bad):
    # a row that fails the one-pass check is walked again entry by entry:
    # the message names the first bad entry of the first bad row, after a
    # valid row and valid entries, and ahead of a later bad one; the file
    # format refuses what is not a JSON integer, and TUMatrix the ints
    # outside {-1, 0, +1}, both in core's words
    data = dict(A2_PROBLEM, m=4, n=2, M=[[1, -1, 0, 0], [0, 1, bad, 5]],
                g=[1] * 4, t=[0] * 4)
    with pytest.raises((InputFormatError, InvalidInputError)) as exc:
        lattice_from_problem(parse_problem(data))
    assert str(exc.value) == f"matrix entries must lie in {{-1, 0, +1}}, got {bad!r}"


def _a2_matrix():
    return tu_matrix(A2_PROBLEM["M"])


def _refusal(read) -> str:
    with pytest.raises(ZonolatError) as exc:
        read()
    return str(exc.value)


#: A value put into the A_2 problem, and the library call that refuses it,
#: or the message for JSON true, which the file format alone refuses.
BAD_FILE_VALUES = [
    pytest.param("g", ["0", "1", "1"],
                 lambda g: ZonotopalLattice(matrix=_a2_matrix(), weights=g), id="g-zero"),
    pytest.param("g", ["1", "1"],
                 lambda g: ZonotopalLattice(matrix=_a2_matrix(), weights=g), id="g-short"),
    pytest.param("t", ["1", "1"], lambda t: cvp_instance(
        ZonotopalLattice(matrix=_a2_matrix(), weights=A2_PROBLEM["g"]), t), id="t-short"),
    *[pytest.param(field, [bad, "1", "1"], frac_vec, id=f"{field}-{bad!r}")
      for field in ("g", "t") for bad in ("abc", 1.5, None, "1/0")],
    pytest.param("M", [[1, 2, 1]], tu_matrix, id="M-2"),
    pytest.param("g", [True, "1", "1"], "expected a rational, got True", id="g-true"),
    pytest.param("t", ["1", True, "1"], "expected a rational, got True", id="t-true"),
    pytest.param("M", [[1, True, 1]], "matrix entries must lie in {-1, 0, +1}, got True",
                 id="M-true"),
]


@pytest.mark.parametrize("field, value, library", BAD_FILE_VALUES)
def test_a_bad_file_value_gets_the_library_message(tmp_path, capsys, field, value, library):
    # the CLI once had its own readers, worded apart from the library's
    message = library if isinstance(library, str) else _refusal(lambda: library(value))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(A2_PROBLEM, **{field: value})), encoding="utf-8")
    for command in ("solve", "check"):
        assert main([command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        assert err == f"error: {message}\n"


def test_solution_roundtrip():
    s = SolutionFile(
        closest=(1, 0, -1),
        distance_sq=F(19, 50),
        iterations=1,
        lambda_trace=(F(1, 5), F(0)),
        certified=True,
        oracle_agreement=True,
        seed=None,
        tool_version="0.1.0",
    )
    assert parse_solution(solution_to_json(s)) == s


SOLUTION = {
    "closest": [1, 0, -1],
    "distance_sq": "19/50",
    "iterations": 1,
    "lambda_trace": ["1/5", "0"],
    "certified": True,
    "seed": None,
    "tool_version": "0.1.0",
}


@pytest.mark.parametrize("field, value", [
    ("closest", [True, 1.7]),
    ("closest", 5),
    ("iterations", 2.9),
    ("certified", "no"),
    ("oracle_agreement", 1),
    ("seed", "7"),
    ("tool_version", 1),
])
def test_parse_solution_rejects_wrong_types(field, value):
    assert parse_solution(SOLUTION).closest == (1, 0, -1)
    with pytest.raises(InputFormatError):
        parse_solution(dict(SOLUTION, **{field: value}))


@pytest.mark.parametrize("data, message", [
    ([], "solution file must be a JSON object"),
    ({k: v for k, v in SOLUTION.items() if k != "certified"}, "missing required field 'certified'"),
    (dict(SOLUTION, lambda_trace="0"), "lambda_trace must be a list"),
])
def test_parse_solution_rejects_the_shape(data, message):
    with pytest.raises(InputFormatError, match=message):
        parse_solution(data)


def test_parse_problem_rejects_a_non_object():
    with pytest.raises(InputFormatError, match="problem file must be a JSON object"):
        parse_problem([A2_PROBLEM])


def test_unreadable_file_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["solve", missing]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {missing}: ") and "Traceback" not in err


def test_solve_worked_example(capsys, a2_file):
    assert main(["solve", a2_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["closest"] == [1, 0, -1]
    assert out["distance_sq"] == "19/50"
    assert out["iterations"] == 1
    assert out["lambda_trace"] == ["1/5", "0"]
    assert out["certified"] is True
    assert "oracle_agreement" not in out


def test_solve_with_oracle(capsys, a2_file):
    assert main(["solve", a2_file, "--oracle"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["oracle_agreement"] is True


def test_oracle_agreement_checks_the_solver_distance(capsys, a2_file, monkeypatch):
    # --oracle compares the solver's scaled distance with the oracle's own
    # norm of the residual, so a slip in the solver's arithmetic disagrees
    from zonolat import mmcc

    real = mmcc.CVPInstance.distance_sq
    monkeypatch.setattr(mmcc.CVPInstance, "distance_sq", lambda self, v: real(self, v) + 1)
    assert main(["solve", a2_file, "--oracle"]) == 0
    assert json.loads(capsys.readouterr().out)["oracle_agreement"] is False


@pytest.fixture
def rank11_file(tmp_path):
    # a connected digraph on 10 vertices with 20 arcs has a rank-11 lattice
    arcs = [(i, (i + 1) % 10) for i in range(10)] + [(i, (i + 3) % 10) for i in range(10)]
    rows = [[0] * 20 for _ in range(10)]
    for j, (tail, head) in enumerate(arcs):
        rows[tail][j], rows[head][j] = -1, 1
    path = tmp_path / "graphic11.json"
    path.write_text(json.dumps({
        "name": "graphic-rank-11", "m": 20, "n": 10, "M": rows, "g": ["1"] * 20,
        "t": [str(F(j % 5 - 2, 3)) for j in range(20)],
    }), encoding="utf-8")
    return str(path)


def test_solve_oracle_refuses_rank_above_the_box_cap(rank11_file, capsys):
    # the oracle's coefficient box refuses rank 11, and the refusal is an
    # exit 1 with one line on stderr and no answer written
    assert main(["solve", rank11_file, "--oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coefficient enumeration capped at rank 8 (got 11)\n"


def test_solve_oracle_refuses_before_solving(rank11_file, tmp_path, capsys, monkeypatch):
    from zonolat import cli

    def never(instance):
        raise AssertionError("solve_cvp called on a file the oracle refuses")

    # rank 7 is within the coefficient box, but the facet certificate's
    # enumeration refuses its m = 16 arcs
    graphic16 = str(tmp_path / "graphic16.json")
    arcs = "0-1,1-2,2-3,3-4,4-5,5-6,6-7,7-8,8-9,0-5,1-7,2-9,3-8,4-6,0-9,2-6"
    assert main(["construct", "graphic", "--vertices", "10", "--arcs", arcs, "-o", graphic16]) == 0
    monkeypatch.setattr(cli, "solve_cvp", never)
    assert main(["solve", rank11_file, "--oracle"]) == 1
    assert capsys.readouterr().err == "error: coefficient enumeration capped at rank 8 (got 11)\n"
    assert main(["solve", graphic16, "--oracle"]) == 1
    assert capsys.readouterr().err == (
        "error: ternary enumeration capped at 14 coordinates (got 16)\n")
    monkeypatch.undo()
    assert main(["solve", rank11_file]) == 0
    assert main(["solve", graphic16]) == 0


def test_solve_lattice_point_target(capsys, tmp_path):
    data = dict(A2_PROBLEM, t=[2, -1, -1])
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["closest"] == [2, -1, -1]
    assert out["distance_sq"] == "0"
    assert out["certified"] is True


def test_solve_trace_file(tmp_path, a2_file, capsys):
    trace = tmp_path / "out.json"
    assert main(["solve", a2_file, "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == ""
    out = json.loads(trace.read_text(encoding="utf-8"))
    assert out["closest"] == [1, 0, -1]


#: Determinant 2, so not TU, and its kernel is zero: the lattice is {0}.
DET_TWO_PROBLEM = {"m": 2, "n": 2, "M": [[1, 1], [-1, 1]], "g": [1, 1], "t": [0, 0]}

#: A problem file's tu_mode key as older files write it, or none: ignored.
TU_MODE_KEYS = [{"tu_mode": "assert"}, {"tu_mode": "verify"}, {}]


def test_solve_certifies_a_non_tu_verify_file(tmp_path, capsys):
    # solve decides no TU: the certificate proves the answer closest for
    # any integer M, while check still reports the matrix as not TU
    path = tmp_path / "det2.json"
    path.write_text(json.dumps(DET_TWO_PROBLEM), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["closest"] == [0, 0] and out["certified"] is True
    assert main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["tu"] is False


def test_voronoi_decides_tu_for_a_verify_file(tmp_path, capsys):
    # the primitive chains are the strict Voronoi vectors only on a TU M, so
    # voronoi refuses these non-TU files whatever their tu_mode key: the
    # strict Voronoi vectors of NON_TU_M and DEN_TWO_M are +-(1, 2, -1) and
    # +-(1, -1, -2), no primitive chains, and the det-2 lattice is {0}
    path = tmp_path / "non-tu.json"
    problems = [DET_TWO_PROBLEM, *({"m": 3, "n": 2, "M": rows, "g": [1, 1, 1], "t": [0, 0, 0]}
                                   for rows in (NON_TU_M, DEN_TWO_M))]
    for problem, key in itertools.product(problems, TU_MODE_KEYS):
        path.write_text(json.dumps(dict(problem, **key)), encoding="utf-8")
        assert main(["voronoi", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: matrix is not totally unimodular\n"


def _irreducible_non_tu_problem():
    """A 12 x 16 file of full row rank whose reduction keeps all of
    it, with three or more nonzeros in some column, so that only the
    exhaustive check could refute it: its rows are drawn from seed 0."""
    rng = random.Random(0)
    rows = [[rng.choice((-1, 0, 0, 1)) for _ in range(16)] for _ in range(12)]
    return {"m": 16, "n": 12, "M": rows, "g": [1] * 16, "t": [0] * 16}


@pytest.mark.parametrize("argv", [["voronoi"], ["solve", "--oracle"]],
                         ids=["voronoi", "solve-oracle"])
def test_enumeration_cap_refuses_before_the_exhaustive_check(tmp_path, capsys, monkeypatch,
                                                             argv):
    # a non-TU file over the enumeration cap: the cap refuses it
    # at once, where the exhaustive check once walked all 2 * 3^11 vectors
    data = _irreducible_non_tu_problem()
    matrix = tu_matrix(data["M"], mode="assert")
    reduced = _tu_reduce(matrix.entries)
    assert (len(reduced), len(reduced[0])) == (12, 16) and _heller_tompkins(reduced) is None
    assert any(abs(r[i] * s[j] - r[j] * s[i]) == 2 for r, s in itertools.combinations(data["M"], 2)
               for i, j in itertools.combinations(range(16), 2))  # a 2 x 2 minor of -2 or 2
    assert core.matrix_rank(matrix) == 12  # rank 4, within the oracle's coefficient box
    path = tmp_path / "non-tu16.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.setattr(core, "_ghouila_houri_ok", lambda rows: pytest.fail("exhaustive check"))
    assert main([argv[0], str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ternary enumeration capped at 14 coordinates (got 16)\n"


#: lambda(0) = 4/5 < max g = 1, so the walk starts at the origin, and its
#: first chain, (1, 2, -1) rescaled, fails the solver's self-check
NON_TU_TARGET = ["3/5", "6/5", "-3/5"]
#: lambda(0) >= 1: the box LP's unique optimal vertex is the closest
#: vector -4 (1, 2, -1), and the duals certify it whatever M is
NON_TU_BOXED_TARGET = ["-19/5", "-38/5", "19/5"]


def _solve_non_tu_file(path, capsys, rows, key):
    """Near the origin the first chain fails the solver's self-check, which
    the TU tests blame on the matrix (Heller-Tompkins refutes it at any
    number of rows): exit 1, whatever the file's tu_mode key; the far
    target's box vertex is certified by the box LP's duals whatever M is."""
    data = {"m": 3, "n": len(rows), "M": rows, "g": [1, 1, 1], "t": NON_TU_TARGET, **key}
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err == "error: matrix is not totally unimodular\n"
    path.write_text(json.dumps(dict(data, t=NON_TU_BOXED_TARGET)), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["closest"] == [-4, -8, 4] and out["certified"] is True
    assert out["distance_sq"] == "6/25" and out["iterations"] == 1
    # the oracle's enumeration rests on TU, so --oracle decides it first
    assert main(["solve", str(path), "--oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix is not totally unimodular\n"
    assert main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["tu"] is False


def test_solve_rejects_false_tu_assertion(tmp_path, capsys):
    # an older file's "assert" no longer skips the TU tests after a failed
    # self-check: the matrix is refuted, exit 1
    _solve_non_tu_file(tmp_path / "bad.json", capsys, NON_TU_M, {"tu_mode": "assert"})


def test_solve_rejects_false_tu_assertion_above_the_cap(tmp_path, capsys):
    # the non-TU matrix above padded with zero rows to 22: Heller-Tompkins
    # still refutes it, so the failed self-check exits 1, not 2
    _solve_non_tu_file(tmp_path / "bad22.json", capsys, NON_TU_M + [[0, 0, 0]] * 20,
                       {"tu_mode": "assert"})


@pytest.mark.parametrize("rows", [NON_TU_M, NON_TU_M + [[0, 0, 0]] * 20],
                         ids=["2-rows", "22-rows"])
def test_solve_blames_a_failed_self_check_on_a_non_tu_verify_file(tmp_path, capsys, rows):
    # the same cases for an older file's "verify" and for a file with no
    # tu_mode key: both are read as the "assert" files above
    for key in ({"tu_mode": "verify"}, {}):
        _solve_non_tu_file(tmp_path / "bad.json", capsys, rows, key)


def _incidence_problem():
    """A 30-vertex cycle with three chords: 30 rows, above the exhaustive cap."""
    arcs = [(v, (v + 1) % 30) for v in range(30)] + [(0, 15), (5, 20), (10, 25)]
    rows = [[0] * len(arcs) for _ in range(30)]
    for j, (tail, head) in enumerate(arcs):
        rows[tail][j] = -1
        rows[head][j] = 1
    return {"m": len(arcs), "n": 30, "M": rows, "g": ["1"] * len(arcs),
            "t": [f"{(7 * j) % 11 - 5}/{1 + j % 4}" for j in range(len(arcs))]}


def test_solve_verifies_incidence_matrix_above_the_cap(tmp_path, capsys):
    path = tmp_path / "cycle30.json"
    path.write_text(json.dumps(_incidence_problem()), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["certified"] is True


def test_check_decides_tu_above_the_cap(tmp_path, capsys):
    path = tmp_path / "cycle30.json"
    path.write_text(json.dumps(_incidence_problem()), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["tu"] is True


def _transposed_incidence_problem():
    """The transpose of the 30-cycle's incidence matrix above, 33 x 30,
    with three nonzeros in the columns of the chords' ends.  It reduces to
    the 30 x 33 incidence matrix, which Heller-Tompkins decides though it
    is above the cap."""
    rows = [list(col) for col in zip(*_incidence_problem()["M"])]
    return {"m": 30, "n": 33, "M": rows, "g": ["1"] * 30,
            "t": [f"{(5 * j) % 9 - 4}/{1 + j % 3}" for j in range(30)]}


def test_heller_tompkins_on_the_reduced_matrix_decides_above_the_cap(tmp_path, capsys):
    # the one polynomial test between the reduction and the exhaustive
    # check: without it the file would be refused with SizeCapError
    data = _transposed_incidence_problem()
    matrix = tu_matrix(data["M"], mode="verify", width=30)
    assert _heller_tompkins(matrix.entries) is None
    assert len(_tu_reduce(matrix.entries)) == 30 > VERIFY_ROW_CAP
    assert tu_verdict(matrix) is True
    path = tmp_path / "cycle30t.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["tu"] is True
    assert main(["solve", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["certified"] is True


def _workload_problems():
    """The problems of seeds 1 to 10 of both benchmark workloads, 9 and 48
    a seed, as `benchmarks/run.py` draws them."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [problem for seed in range(1, 11)
            for name, count in (("graphic-lp", 9), ("cut-certify", 48))
            for problem in workloads.GENERATORS[name](seed, count)]


def test_set_up_walks_the_matrix_entries_once(monkeypatch):
    # TUMatrix checks the entries, and the TU tests read them as checked:
    # the entry rule once ran 2.0 times per graphic-lp set-up and 4.675
    # times per cut-certify set-up, on M, its reduction and its transpose
    problems = _workload_problems()
    assert len(problems) == 570
    calls = []
    rule = core._unit_entries
    monkeypatch.setattr(core, "_unit_entries", lambda rows: calls.append(1) or rule(rows))
    for data in problems:
        calls.clear()
        lattice_from_problem(parse_problem(data))
        assert len(calls) == 1, data["name"]


def test_solve_path_decides_no_tu(monkeypatch, tmp_path, capsys):
    # set-up and solve of the workload problems call no TU test; check
    # still decides and proves them TU
    problems = _workload_problems()
    calls = []
    for name in ("_heller_tompkins", "_tu_reduce", "_ghouila_houri_ok"):
        real = getattr(core, name)
        monkeypatch.setattr(core, name, lambda *a, _real=real: calls.append(1) or _real(*a))
    for data in problems:
        problem = parse_problem(data)
        mmcc.solve_cvp(cvp_instance(lattice_from_problem(problem), problem.t))
    assert calls == []
    path = tmp_path / "p.json"
    for data in problems[::57]:
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["check", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["tu"] is True
    assert calls


def test_failed_self_check_on_an_undecidable_matrix(monkeypatch, tmp_path, capsys):
    # a 32 x 64 cographic matrix that reduces to 24 x 26 rows, which no TU
    # test decides: its solve certifies, and a failed self-check exits 1
    # with the cap's message, whatever the file's tu_mode key
    from zonolat import cli, cographic_lattice, digraph

    matrix = cographic_lattice(digraph(33, random_arcs(random.Random(33), 33, 64))).matrix
    assert tu_verdict(matrix) is None
    data = {"m": 64, "n": 32, "M": [list(row) for row in matrix.entries], "g": [1] * 64,
            "t": [f"{(7 * j) % 11 - 5}/{1 + j % 4}" for j in range(64)]}
    path = tmp_path / "cographic64.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["certified"] is True

    def boom(instance):
        raise InternalInvariantError("lambda increased at unit step")

    monkeypatch.setattr(cli, "solve_cvp", boom)
    for key in TU_MODE_KEYS:
        path.write_text(json.dumps(dict(data, **key)), encoding="utf-8")
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: exhaustive TU verification capped at 20 rows: the 32 x 64 matrix reduces "
            "to 24 x 26, with three or more nonzeros in a line; load with mode='assert'\n")


def test_solve_no_project_requires_span(tmp_path, capsys):
    data = dict(A2_PROBLEM, t=[1, 0, 0])
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["solve", str(path), "--no-project"]) == 1
    err = capsys.readouterr().err
    assert "target is not in the span of the lattice; project it first" in err
    assert "Traceback" not in err
    assert main(["solve", str(path)]) == 0


def test_solve_no_project_prints_the_projected_solve(a2_file, capsys):
    # the worked example's target is in the span, so --no-project accepts it
    # and prints the default solve's bytes
    assert main(["solve", a2_file]) == 0
    default = capsys.readouterr().out
    assert main(["solve", a2_file, "--no-project"]) == 0
    assert capsys.readouterr().out == default


def test_solve_projects_by_default(tmp_path, capsys):
    data = dict(A2_PROBLEM, t=["1", "0", "0"])
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    # projection of e_1 is (2/3, -1/3, -1/3); the origin is closest
    assert out["closest"] == [0, 0, 0]


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{nope", encoding="utf-8")
    assert main(["solve", str(path)]) == 1


@pytest.mark.parametrize("command", [["solve"], ["check"], ["construct", "vfk", "--gram"]])
def test_deeply_nested_json(tmp_path, capsys, command):
    # the json decoder recurses once per level and gives up with RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert main(command + [str(path)]) == 1
    assert "nested too deeply" in capsys.readouterr().err


def test_solve_trace_to_directory(tmp_path, a2_file, capsys):
    assert main(["solve", a2_file, "--trace", str(tmp_path)]) == 1
    assert f"error: cannot write {tmp_path}" in capsys.readouterr().err


def test_construct_output_in_missing_directory(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    assert main(["construct", "an", "--n", "2", "-o", str(path)]) == 1
    assert f"error: cannot write {path}" in capsys.readouterr().err
    assert not path.exists()


def test_construct_an(capsys):
    assert main(["construct", "an", "--n", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["M"] == [[1, 1, 1]]
    assert out["t"] == ["0", "0", "0"]
    assert "tu_mode" not in out


def test_construct_tensor(capsys):
    assert main(["construct", "tensor", "--m", "2", "--n", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    p = parse_problem(out)
    assert p.m == 9
    from zonolat.cli import lattice_from_problem

    assert lattice_from_problem(p).rank() == 4


def test_construct_graphic_and_cographic(capsys):
    assert main(["construct", "graphic", "--vertices", "3",
                 "--arcs", "0-1,1-2,2-0"]) == 0
    g = json.loads(capsys.readouterr().out)
    assert g["m"] == 3 and g["n"] == 3
    assert main(["construct", "cographic", "--vertices", "3",
                 "--arcs", "0-1,1-2,2-0", "--weights", "1,1/2,3"]) == 0
    c = json.loads(capsys.readouterr().out)
    assert c["g"] == ["1", "1/2", "3"]
    assert c["n"] == 1  # one fundamental cycle row


def test_construct_cographic_long_cycle(capsys):
    # a 1501-cycle: the forest is one path of 1500 arcs, deeper than the
    # default recursion limit
    arcs = ",".join(f"{i}-{i + 1}" for i in range(1500)) + ",1500-0"
    assert main(["construct", "cographic", "--vertices", "1501", "--arcs", arcs]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 1 and out["M"] == [[1] * 1501]


def test_construct_cographic_above_the_cap_verifies(tmp_path, capsys):
    # 32 fundamental cycles that reduce to 24 x 26, which no TU test
    # decides: construct decides nothing and writes no tu_mode, check reports
    # the verdict as undecided, and solve, which decides no TU, certifies
    arcs = ",".join(f"{a}-{b}" for a, b in random_arcs(random.Random(33), 33, 64))
    path = tmp_path / "cographic64.json"
    assert main(["construct", "cographic", "--vertices", "33", "--arcs", arcs,
                 "--output", str(path)]) == 0
    out = json.loads(path.read_text(encoding="utf-8"))
    assert out["n"] == 32 and "tu_mode" not in out
    assert main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["tu"] is None
    out["t"] = [f"{(7 * j) % 11 - 5}/{1 + j % 4}" for j in range(64)]
    path.write_text(json.dumps(out), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["certified"] is True


def test_construct_cographic_reducing_under_the_cap_verifies(tmp_path, capsys):
    # a theta graph, 23 paths of length 2 between vertices 0 and 1: its
    # 22 fundamental cycles are over the cap, but the reduction decides them
    arcs = ",".join(f"0-{v},{v}-1" for v in range(2, 25))
    path = tmp_path / "theta.json"
    assert main(["construct", "cographic", "--vertices", "25", "--arcs", arcs,
                 "--output", str(path)]) == 0
    out = json.loads(path.read_text(encoding="utf-8"))
    assert (out["n"], out["m"]) == (22, 46) and "tu_mode" not in out
    out["t"] = [f"{(5 * j) % 7 - 3}/{1 + j % 3}" for j in range(46)]
    path.write_text(json.dumps(out), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["certified"] is True


def test_construct_runs_no_tu_reduction_or_exhaustive_check(tmp_path, capsys, monkeypatch):
    # every family is TU by construction, so construct decides nothing and
    # writes no tu_mode, for the README's examples and above the cap alike
    (tmp_path / "gram.json").write_text(
        "[[3, -1, -1, -1], [-1, 3, -1, -1], [-1, -1, 3, -1], [-1, -1, -1, 3]]", encoding="utf-8")
    above = ",".join(f"{a}-{b}" for a, b in random_arcs(random.Random(33), 33, 64))
    examples = [
        ["an", "--n", "2"],
        ["tensor", "--m", "2", "--n", "2"],
        ["graphic", "--vertices", "3", "--arcs", "0-1,1-2,2-0", "--weights", "1,1/2,3"],
        ["cographic", "--vertices", "4", "--arcs", "0-1,0-2,0-3,1-2,1-3,2-3"],
        ["vfk", "--gram", str(tmp_path / "gram.json")],
        ["cographic", "--vertices", "33", "--arcs", above],
    ]
    for name in ("_tu_reduce", "_ghouila_houri_ok"):
        monkeypatch.setattr(core, name, lambda *a, _name=name: pytest.fail(f"{_name} called"))
    for argv in examples:
        assert main(["construct", *argv]) == 0
        assert "tu_mode" not in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("kind", ["graphic", "cographic"])
def test_solve_builds_no_kernel_basis(tmp_path, capsys, monkeypatch, kind):
    import zonolat

    def spy(matrix):
        raise AssertionError("kernel_basis called")

    for module in (zonolat, zonolat.oracle):
        monkeypatch.setattr(module, "kernel_basis", spy)
    path = tmp_path / f"{kind}.json"
    assert main(["construct", kind, "--vertices", "4", "--output", str(path),
                 "--arcs", "0-1,0-2,0-3,1-2,1-3,2-3", "--weights", "1,2,1/3,1,5,1"]) == 0
    data = json.loads(path.read_text(encoding="utf-8"))
    data["t"] = ["7/10", "-1/5", "3", "-1/2", "0", "5/3"]
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["certified"] is True


def test_construct_vfk(tmp_path, capsys):
    gram = {"gram": [["1", "-1/2", "-1/2"],
                     ["-1/2", "1", "-1/2"],
                     ["-1/2", "-1/2", "1"]]}
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(gram), encoding="utf-8")
    assert main(["construct", "vfk", "--gram", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["m"] == 3
    assert out["g"] == ["1/2", "1/2", "1/2"]


def test_construct_vfk_invalid_gram(tmp_path, capsys):
    gram = {"gram": [["1", "0"], ["0", "1"]]}
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(gram), encoding="utf-8")
    assert main(["construct", "vfk", "--gram", str(path)]) == 1
    assert "sum to zero" in capsys.readouterr().err


@pytest.mark.parametrize("gram", [[1, 2], [[2, -1], 5]])
def test_construct_vfk_rejects_non_list_rows(tmp_path, capsys, gram):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(gram), encoding="utf-8")
    assert main(["construct", "vfk", "--gram", str(path)]) == 1
    assert "gram file must hold a matrix" in capsys.readouterr().err


TRIANGLE = ["--vertices", "3", "--arcs", "0-1,1-2,2-0"]


@pytest.mark.parametrize("argv, message", [
    (["graphic", "--vertices", "3"], "graphic construction needs --vertices and --arcs"),
    (["vfk"], "vfk construction needs --gram FILE"),
    (["tensor", "--m", "2"], "tensor construction needs --m and --n"),
    (["an"], "an construction needs --n"),
    (["an", "--n", "0"], "n must be at least 1"),
    (["tensor", "--m", "0", "--n", "2"], "m and n must be at least 1"),
    (["graphic", "--vertices", "3", "--arcs", ","], "at least one arc is required"),
    (["graphic", "--vertices", "3", "--arcs", "0-1-2"], "arc '0-1-2' is not of the form TAIL-HEAD"),
    (["graphic", "--vertices", "3", "--arcs", "a-b"], "arc 'a-b' has non-integer endpoints"),
    (["graphic", *TRIANGLE, "--weights", "1,1"], "expected 3 weights, got 2"),
    (["graphic", *TRIANGLE, "--weights", "1,0,3"], "all weights must be positive"),
])
def test_construct_refusals(capsys, argv, message):
    assert main(["construct", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert "Traceback" not in captured.err


def test_construct_output_file(tmp_path):
    out = tmp_path / "an2.json"
    assert main(["construct", "an", "--n", "2", "-o", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["m"] == 3


def test_voronoi_command(capsys, a2_file):
    assert main(["voronoi", a2_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 6
    assert [1, 0, -1] in out["vectors"]


def test_check_command(capsys, a2_file):
    assert main(["check", a2_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tu"] is True
    assert out["t_in_span"] is True
    assert out["rank"] == 2


def test_check_reads_the_span_without_projecting(tmp_path, capsys, monkeypatch):
    # t is in the span iff M T = 0 for T the integral multiple of t, as
    # CVPInstance reads it, at any integer M: check projects nothing, and
    # answers as the old test project_onto_span(t) == t did, on targets on
    # the span and off it
    from zonolat import cli

    lattices = [*corpus_small(), *(ZonotopalLattice(matrix=tu_matrix(rows, mode="assert"),
                                                    weights=(1, 2, "1/3"))
                                   for rows in (NON_TU_M, DEN_TWO_M))]
    lattices.append(ZonotopalLattice(matrix=tu_matrix([], mode="assert", width=3),
                                     weights=(1, 1, 1)))
    rng = random.Random(5)
    cases = []
    for lattice in lattices:
        for _ in range(3):
            t = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(lattice.m))
            cases += [(lattice, t), (lattice, core.project_onto_span(t, lattice))]
    expected = [core.project_onto_span(t, lattice) == t for lattice, t in cases]
    assert expected.count(True) > len(cases) // 2 and False in expected

    def never(*args):
        pytest.fail("check projected the target")

    monkeypatch.setattr(core, "project_onto_span", never)
    monkeypatch.setattr(cli, "project_onto_span", never, raising=False)
    path = tmp_path / "p.json"
    for (lattice, t), in_span in zip(cases, expected):
        path.write_text(json.dumps({
            "m": lattice.m, "n": lattice.matrix.n, "M": [list(r) for r in lattice.matrix.entries],
            "g": list(map(str, lattice.weights)), "t": list(map(str, t))}), encoding="utf-8")
        assert main(["check", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["t_in_span"] is in_span


def test_check_asserted_non_tu_matrix(tmp_path, capsys):
    # its kernel basis comes off a pivot block of determinant -2 (den = 2);
    # the file's "assert" key is ignored
    data = {"m": 3, "n": 2, "M": DEN_TWO_M, "g": [1, 1, 1],
            "t": [1, -1, -2], "tu_mode": "assert"}
    path = tmp_path / "den2.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tu"] is False
    assert out["rank"] == 1
    assert out["t_in_span"] is True


def test_internal_error_maps_to_exit_2(monkeypatch, a2_file, capsys):
    from zonolat.errors import InternalInvariantError

    def boom(*args, **kwargs):
        raise InternalInvariantError("lambda increased at unit step")

    monkeypatch.setattr("zonolat.cli.solve_cvp", boom)
    assert main(["solve", a2_file]) == 2
    assert "internal error" in capsys.readouterr().err


def test_internal_error_on_true_tu_assertion_maps_to_exit_2(monkeypatch, tmp_path, capsys):
    # A_2 is TU, so an internal error on it stays a bug; the file's
    # "assert" key is ignored
    from zonolat.errors import InternalInvariantError

    def boom(*args, **kwargs):
        raise InternalInvariantError("lambda increased at unit step")

    path = tmp_path / "a2-assert.json"
    path.write_text(json.dumps(dict(A2_PROBLEM, tu_mode="assert")), encoding="utf-8")
    monkeypatch.setattr("zonolat.cli.solve_cvp", boom)
    assert main(["solve", str(path)]) == 2
    assert "internal error" in capsys.readouterr().err


#: (what is patched in mmcc, its replacement given the real one, the
#: message): each forces one of the solver's self-checks on the A_2 file,
#: whose walk takes one chain step.
SELF_CHECKS = {
    "circuit": ("_is_circuit", lambda real: lambda columns, matrix: False,
                "is not a circuit"),
    "mean-cost": ("_scaled_cost", lambda real: lambda v, u, instance: real(v, u, instance) + 1,
                  "extracted vector has mean cost"),
    "iteration-cap": ("stopping_data", lambda real: lambda instance: 0,
                      "iteration cap 0 exceeded"),
    "stopping-rule": ("compute_lambda", lambda real: lambda v, instance, start=None: (
        F(1, 2 * instance.K * instance.m), real(v, instance, start)[1]),
        "stopping-rule inconsistency"),
    "distance": ("saturating_step", lambda real: lambda lam, u, instance: 0,
                 "squared distance failed to decrease"),
}


@pytest.mark.parametrize("check", list(SELF_CHECKS))
def test_solver_self_checks_raise_and_exit_2(check, monkeypatch, a2_file, capsys):
    name, patch, message = SELF_CHECKS[check]
    monkeypatch.setattr(mmcc, name, patch(getattr(mmcc, name)))
    instance = cvp_instance(lattice_from_problem(parse_problem(A2_PROBLEM)), A2_PROBLEM["t"])
    with pytest.raises(InternalInvariantError, match=message):
        mmcc.solve_cvp(instance)
    assert main(["solve", a2_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ") and message in captured.err
    assert "Traceback" not in captured.err


def test_solve_byte_identical(tmp_path, a2_file):
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    assert main(["solve", a2_file, "--oracle", "--trace", str(p1)]) == 0
    assert main(["solve", a2_file, "--oracle", "--trace", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("field, value", [
    ("m", "abc"),
    ("n", 1.5),
    ("M", 5),
    ("M", [5]),
    ("M", [[1, True, 1]]),
    ("g", 5),
])
def test_solve_rejects_malformed_fields(tmp_path, capsys, field, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(A2_PROBLEM, **{field: value})), encoding="utf-8")
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_solve_huge_target(tmp_path, capsys):
    # 400-digit entries: the iteration cap must come from an exact bound
    big = "9" * 400
    data = dict(A2_PROBLEM, t=[big, f"-{big}/7", "1/3"])
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambda_trace"][-1] == "0"


def test_solve_writes_answers_beyond_the_digit_limit(tmp_path, capsys):
    # the answer (10^5000, -10^5000, 0) is reached in one step; writing it
    # exceeds Python's default 4300-digit int-to-str limit
    data = dict(A2_PROBLEM, t=["1e5000", "-1e5000", "0"])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    assert main(["solve", str(path)]) == 0
    assert sys.get_int_max_str_digits() == limit
    text = capsys.readouterr().out
    start = text.index('"closest": [') + len('"closest": [')
    closest = [e.strip() for e in text[start:text.index("]", start)].split(",")]
    assert closest == ["1" + "0" * 5000, "-1" + "0" * 5000, "0"]


def test_solve_rejects_huge_json_integer(tmp_path, capsys):
    path = tmp_path / "huge_m.json"
    text = json.dumps(A2_PROBLEM).replace('"m": 3', '"m": ' + "1" * 5000)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputFormatError, match="not valid JSON"):
        _load_problem(str(path))  # under the default digit limit
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")
