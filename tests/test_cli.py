"""CLI: file schema round-trips, subcommands, exit codes, determinism."""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction as F

import pytest

from conftest import DEN_TWO_M, NON_TU_M, random_arcs
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
from zonolat.core import ZonotopalLattice, frac_vec, tu_matrix
from zonolat.errors import InvalidInputError, ZonolatError
from zonolat.mmcc import cvp_instance

A2_PROBLEM = {
    "name": "a2-worked",
    "m": 3,
    "n": 1,
    "M": [[1, 1, 1]],
    "g": ["1", "1", "1"],
    "t": ["7/10", "-1/5", "-1/2"],
    "tu_mode": "verify",
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
    with pytest.raises(Exception):
        parse_problem(dict(A2_PROBLEM, tu_mode="maybe"))


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
        "t": [str(F(j % 5 - 2, 3)) for j in range(20)], "tu_mode": "verify",
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


def test_solve_rejects_non_tu(tmp_path, capsys):
    data = {"m": 2, "n": 2, "M": [[1, 1], [-1, 1]], "g": [1, 1], "t": [0, 0],
            "tu_mode": "verify"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["solve", str(path)]) == 1
    assert "not totally unimodular" in capsys.readouterr().err


#: lambda(0) = 4/5 < max g = 1, so the walk starts at the origin, and its
#: first chain, (1, 2, -1) rescaled, fails the solver's self-check
NON_TU_TARGET = ["3/5", "6/5", "-3/5"]
#: lambda(0) >= 1: the box LP's unique optimal vertex is the closest
#: vector -4 (1, 2, -1), and the duals certify it whatever M is
NON_TU_BOXED_TARGET = ["-19/5", "-38/5", "19/5"]


def test_solve_rejects_false_tu_assertion(tmp_path, capsys):
    # the failed self-check is blamed on the assertion by the exhaustive
    # check: exit 1
    data = {"m": 3, "n": 2, "M": NON_TU_M, "g": [1, 1, 1],
            "t": NON_TU_TARGET, "tu_mode": "assert"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["solve", str(path)]) == 1
    assert "asserted totally unimodular is not" in capsys.readouterr().err
    path.write_text(json.dumps(dict(data, t=NON_TU_BOXED_TARGET)), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["closest"] == [-4, -8, 4] and out["certified"] is True
    assert out["distance_sq"] == "6/25" and out["iterations"] == 1


def _incidence_problem(tu_mode):
    """A 30-vertex cycle with three chords: 30 rows, above the exhaustive cap."""
    arcs = [(v, (v + 1) % 30) for v in range(30)] + [(0, 15), (5, 20), (10, 25)]
    rows = [[0] * len(arcs) for _ in range(30)]
    for j, (tail, head) in enumerate(arcs):
        rows[tail][j] = -1
        rows[head][j] = 1
    return {"m": len(arcs), "n": 30, "M": rows, "g": ["1"] * len(arcs),
            "t": [f"{(7 * j) % 11 - 5}/{1 + j % 4}" for j in range(len(arcs))],
            "tu_mode": tu_mode}


def test_solve_verifies_incidence_matrix_above_the_cap(tmp_path, capsys):
    path = tmp_path / "cycle30.json"
    path.write_text(json.dumps(_incidence_problem("verify")), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["certified"] is True


def test_check_decides_tu_above_the_cap(tmp_path, capsys):
    path = tmp_path / "cycle30.json"
    path.write_text(json.dumps(_incidence_problem("assert")), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["tu"] is True


def test_solve_rejects_false_tu_assertion_above_the_cap(tmp_path, capsys):
    # the non-TU matrix above padded with zero rows to 22: Heller-Tompkins
    # still refutes the assertion, so the failed self-check exits 1, not 2
    data = {"m": 3, "n": 22, "M": NON_TU_M + [[0, 0, 0]] * 20,
            "g": [1, 1, 1], "t": NON_TU_TARGET, "tu_mode": "assert"}
    path = tmp_path / "bad22.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["solve", str(path)]) == 1
    assert "asserted totally unimodular is not" in capsys.readouterr().err
    path.write_text(json.dumps(dict(data, t=NON_TU_BOXED_TARGET)), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["closest"] == [-4, -8, 4]
    assert main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["tu"] is False


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
    assert out["tu_mode"] == "verify"


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


def test_construct_cographic_above_the_cap_asserts(capsys):
    # 32 fundamental cycles that reduce to 24 x 26: the lattice is verified
    # by construction, but a loader could not decide the file, so it asserts
    arcs = ",".join(f"{a}-{b}" for a, b in random_arcs(random.Random(33), 33, 64))
    assert main(["construct", "cographic", "--vertices", "33", "--arcs", arcs]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 32
    assert out["tu_mode"] == "assert"


def test_construct_cographic_reducing_under_the_cap_verifies(tmp_path, capsys):
    # a theta graph, 23 paths of length 2 between vertices 0 and 1: its
    # 22 fundamental cycles are over the cap, but the reduction decides them
    arcs = ",".join(f"0-{v},{v}-1" for v in range(2, 25))
    path = tmp_path / "theta.json"
    assert main(["construct", "cographic", "--vertices", "25", "--arcs", arcs,
                 "--output", str(path)]) == 0
    out = json.loads(path.read_text(encoding="utf-8"))
    assert (out["n"], out["m"], out["tu_mode"]) == (22, 46, "verify")
    out["t"] = [f"{(5 * j) % 7 - 3}/{1 + j % 3}" for j in range(46)]
    path.write_text(json.dumps(out), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["certified"] is True


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


def test_check_asserted_non_tu_matrix(tmp_path, capsys):
    # its kernel basis comes off a pivot block of determinant -2 (den = 2)
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
    # A_2 is TU, so an internal error on it stays a bug even when asserted
    from zonolat.errors import InternalInvariantError

    def boom(*args, **kwargs):
        raise InternalInvariantError("lambda increased at unit step")

    path = tmp_path / "a2-assert.json"
    path.write_text(json.dumps(dict(A2_PROBLEM, tu_mode="assert")), encoding="utf-8")
    monkeypatch.setattr("zonolat.cli.solve_cvp", boom)
    assert main(["solve", str(path)]) == 2
    assert "internal error" in capsys.readouterr().err


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
