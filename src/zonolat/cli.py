"""Command line front end: JSON problem files in, JSON reports out.

Rationals travel as strings "p/q" in lowest terms (plain integers are
accepted on input) so that nothing is ever rounded.  Output is fully
deterministic: the same input file always produces byte-identical bytes.

A file's values are read by the library, under its rules; this module
checks only the fields, their JSON types, and that true and false, which
Python reads as 1 and 0, are not numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import __version__
from .constructions import (
    a_n_lattice,
    cographic_lattice,
    digraph,
    graphic_lattice,
    obtuse_superbasis_gram,
    tensor_lattice,
    voronoi_first_kind,
)
from .core import (
    FracVec,
    IntVec,
    ZonotopalLattice,
    frac_vec,
    project_onto_span,
    tu_decidable,
    tu_matrix,
    tu_verdict,
)
from .errors import (
    InternalInvariantError,
    InvalidInputError,
    OracleFailureError,
    ZonolatError,
)
from .mmcc import cvp_instance, solve_cvp
from .oracle import (
    brute_force_cvp,
    distance_sq,
    enumerate_primitive_chains,
    refuse_above_oracle_caps,
)


class InputFormatError(ZonolatError, ValueError):
    """Problem or solution file does not match the documented schema."""


def _json_integers(values) -> bool:
    """Every value is a JSON integer: an int but not a bool, since Python
    reads true and false as 1 and 0; one C-level set test."""
    return {int}.issuperset(map(type, values))


def _rationals(values: list) -> FracVec:
    """frac_vec of a JSON list, in which true and false are not numbers."""
    if bool in map(type, values):
        bad = next(x for x in values if type(x) is bool)
        raise InputFormatError(f"expected a rational, got {bad!r}")
    return frac_vec(values)


@dataclass(frozen=True)
class ProblemFile:
    name: str | None
    m: int
    n: int
    M: tuple[tuple[int, ...], ...]
    g: FracVec
    t: FracVec
    tu_mode: str


@dataclass(frozen=True)
class SolutionFile:
    closest: IntVec
    distance_sq: Fraction
    iterations: int
    lambda_trace: tuple[Fraction, ...]
    certified: bool
    oracle_agreement: bool | None
    seed: int | None
    tool_version: str


def parse_problem(data: dict) -> ProblemFile:
    """The problem file data, whose values `lattice_from_problem` and
    `cvp_instance` go on to check: M's entries and row width, and the
    lengths and signs of g and t."""
    if not isinstance(data, dict):
        raise InputFormatError("problem file must be a JSON object")
    try:
        m = data["m"]
        n = data["n"]
        rows = data["M"]
        g = data["g"]
        t = data["t"]
    except KeyError as exc:
        raise InputFormatError(f"missing required field {exc.args[0]!r}") from exc
    for key, value in (("m", m), ("n", n)):
        if not _json_integers((value,)):
            raise InputFormatError(f"{key} must be an integer, got {value!r}")
    for key, value in (("M", rows), ("g", g), ("t", t)):
        if not isinstance(value, list):
            raise InputFormatError(f"{key} must be a list, got {value!r}")
    tu_mode = data.get("tu_mode", "verify")
    if tu_mode not in ("verify", "assert"):
        raise InputFormatError(f"tu_mode must be 'verify' or 'assert', got {tu_mode!r}")
    if len(rows) != n or not all(isinstance(r, list) for r in rows):
        raise InputFormatError("M does not match the declared n x m shape")
    for row in rows:
        if not _json_integers(row):  # walked again to name its first bad entry
            bad = next(e for e in row if not _json_integers((e,)))
            raise InputFormatError(f"matrix entries must lie in {{-1, 0, +1}}, got {bad!r}")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InputFormatError("name must be a string")
    return ProblemFile(name=name, m=m, n=n, M=tuple(map(tuple, rows)), g=_rationals(g),
                       t=_rationals(t), tu_mode=tu_mode)


def problem_to_json(p: ProblemFile) -> dict:
    out: dict = {}
    if p.name is not None:
        out["name"] = p.name
    out.update({
        "m": p.m,
        "n": p.n,
        "M": [list(row) for row in p.M],
        "g": list(map(str, p.g)),
        "t": list(map(str, p.t)),
        "tu_mode": p.tu_mode,
    })
    return out


def parse_solution(data: dict) -> SolutionFile:
    if not isinstance(data, dict):
        raise InputFormatError("solution file must be a JSON object")
    try:
        closest = data["closest"]
        distance_sq = data["distance_sq"]
        iterations = data["iterations"]
        lambda_trace = data["lambda_trace"]
        certified = data["certified"]
        tool_version = data["tool_version"]
    except KeyError as exc:
        raise InputFormatError(f"missing required field {exc.args[0]!r}") from exc
    oracle_agreement = data.get("oracle_agreement")
    seed = data.get("seed")
    if not isinstance(closest, list) or not _json_integers(closest):
        raise InputFormatError(f"closest must be a list of integers, got {closest!r}")
    if not _json_integers((iterations,)):
        raise InputFormatError(f"iterations must be an integer, got {iterations!r}")
    if not isinstance(lambda_trace, list):
        raise InputFormatError(f"lambda_trace must be a list, got {lambda_trace!r}")
    if not isinstance(certified, bool):
        raise InputFormatError(f"certified must be a boolean, got {certified!r}")
    if oracle_agreement is not None and not isinstance(oracle_agreement, bool):
        raise InputFormatError(
            f"oracle_agreement must be a boolean or null, got {oracle_agreement!r}"
        )
    if seed is not None and not _json_integers((seed,)):
        raise InputFormatError(f"seed must be an integer or null, got {seed!r}")
    if not isinstance(tool_version, str):
        raise InputFormatError(f"tool_version must be a string, got {tool_version!r}")
    return SolutionFile(
        closest=tuple(closest),
        distance_sq=_rationals([distance_sq])[0],
        iterations=iterations,
        lambda_trace=_rationals(lambda_trace),
        certified=certified,
        oracle_agreement=oracle_agreement,
        seed=seed,
        tool_version=tool_version,
    )


def solution_to_json(s: SolutionFile) -> dict:
    out = {
        "closest": list(s.closest),
        "distance_sq": str(s.distance_sq),
        "iterations": s.iterations,
        "lambda_trace": list(map(str, s.lambda_trace)),
        "certified": s.certified,
    }
    if s.oracle_agreement is not None:
        out["oracle_agreement"] = s.oracle_agreement
    out["seed"] = s.seed
    out["tool_version"] = s.tool_version
    return out


def lattice_from_problem(p: ProblemFile) -> ZonotopalLattice:
    matrix = tu_matrix(p.M, mode=p.tu_mode, width=p.m)
    return ZonotopalLattice(matrix=matrix, weights=p.g)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputFormatError(f"{path} is nested too deeply to parse") from exc


def _load_problem(path: str) -> ProblemFile:
    return parse_problem(_load_json(path))


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputFormatError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    problem = _load_problem(args.file)
    lattice = lattice_from_problem(problem)
    instance = cvp_instance(lattice, problem.t, project=not args.no_project)
    if args.oracle:
        refuse_above_oracle_caps(lattice)  # a refusal after the solve wastes it
    try:
        solution = solve_cvp(instance)
    except InternalInvariantError as exc:
        # the solver's invariants rest on total unimodularity, so a failed
        # self-check that a TU test blames on a false "tu_mode": "assert" is
        # bad input (exit 1), not a solver bug (exit 2)
        if problem.tu_mode == "assert" and tu_verdict(lattice.matrix.entries) is False:
            raise InvalidInputError("matrix asserted totally unimodular is not") from exc
        raise
    agreement = None
    if args.oracle:
        reference = brute_force_cvp(instance)
        agreement = distance_sq(reference, instance.target, lattice) == solution.distance_sq
    payload = solution_to_json(SolutionFile(
        closest=solution.closest,
        distance_sq=solution.distance_sq,
        iterations=solution.iterations,
        lambda_trace=solution.lambda_trace(),
        certified=solution.certified,
        oracle_agreement=agreement,
        seed=None,
        tool_version=__version__,
    ))
    _emit(payload, args.trace)
    return 0


def _parse_arcs(text: str) -> list[tuple[int, int]]:
    arcs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split("-")
        if len(pieces) != 2:
            raise InputFormatError(f"arc {part!r} is not of the form TAIL-HEAD")
        try:
            arcs.append((int(pieces[0]), int(pieces[1])))
        except ValueError as exc:
            raise InputFormatError(f"arc {part!r} has non-integer endpoints") from exc
    if not arcs:
        raise InputFormatError("at least one arc is required")
    return arcs


def _parse_weights(text: str | None, m: int) -> FracVec | None:
    """--weights as m rationals, or None (the families' all ones) without
    it; the lattice checks their sign."""
    if text is None:
        return None
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if len(parts) != m:
        raise InputFormatError(f"expected {m} weights, got {len(parts)}")
    return frac_vec(parts)


def _problem_from_lattice(name: str, lattice: ZonotopalLattice) -> ProblemFile:
    """The lattice, whose M every family proves TU, as a problem file:
    "verify" only where a loader can decide M."""
    matrix = lattice.matrix
    return ProblemFile(
        name=name,
        m=lattice.m,
        n=matrix.n,
        M=matrix.entries,
        g=lattice.weights,
        t=tuple(Fraction(0) for _ in range(lattice.m)),
        tu_mode="verify" if tu_decidable(matrix.entries) else "assert",
    )


def cmd_construct(args) -> int:
    kind = args.kind
    if kind == "graphic" or kind == "cographic":
        if args.vertices is None or args.arcs is None:
            raise InputFormatError(f"{kind} construction needs --vertices and --arcs")
        arcs = _parse_arcs(args.arcs)
        d = digraph(args.vertices, arcs)
        weights = _parse_weights(args.weights, len(arcs))
        build = graphic_lattice if kind == "graphic" else cographic_lattice
        lattice = build(d, weights)
        name = f"{kind}-{args.vertices}v-{len(arcs)}a"
    elif kind == "vfk":
        if args.gram is None:
            raise InputFormatError("vfk construction needs --gram FILE")
        data = _load_json(args.gram)
        rows = data["gram"] if isinstance(data, dict) and "gram" in data else data
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise InputFormatError("gram file must hold a matrix or {'gram': matrix}")
        gram = obtuse_superbasis_gram([_rationals(row) for row in rows])
        lattice, _ = voronoi_first_kind(gram)
        name = f"vfk-{gram.size - 1}d"
    elif kind == "tensor":
        if args.m is None or args.n is None:
            raise InputFormatError("tensor construction needs --m and --n")
        mm = (args.m + 1) * (args.n + 1)
        lattice = tensor_lattice(args.m, args.n, _parse_weights(args.weights, mm))
        name = f"tensor-a{args.m}-a{args.n}"
    elif kind == "an":
        if args.n is None:
            raise InputFormatError("an construction needs --n")
        lattice = a_n_lattice(args.n, _parse_weights(args.weights, args.n + 1))
        name = f"an-{args.n}"
    else:  # pragma: no cover - argparse restricts choices
        raise InputFormatError(f"unknown construction {kind!r}")
    _emit(problem_to_json(_problem_from_lattice(name, lattice)), args.output)
    return 0


def cmd_voronoi(args) -> int:
    problem = _load_problem(args.file)
    lattice = lattice_from_problem(problem)
    chains = enumerate_primitive_chains(lattice)
    payload = {
        "m": lattice.m,
        "count": len(chains),
        "vectors": [list(c.coords) for c in chains],
    }
    _emit(payload, args.output)
    return 0


def cmd_check(args) -> int:
    problem = _load_problem(args.file)
    matrix = tu_matrix(problem.M, mode="assert", width=problem.m)
    lattice = ZonotopalLattice(matrix=matrix, weights=problem.g)
    payload = {
        "m": problem.m,
        "n": problem.n,
        "tu_mode": problem.tu_mode,
        "tu": tu_verdict(matrix.entries),
        "rank": lattice.rank(),
        "t_in_span": project_onto_span(problem.t, lattice) == problem.t,
    }
    _emit(payload, args.output)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zonolat",
        description="Exact closest-vector solver for zonotopal lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a CVP problem file")
    p_solve.add_argument("file")
    p_solve.add_argument("--oracle", action="store_true",
                         help="cross-check against brute-force enumeration")
    p_solve.add_argument("--trace", metavar="PATH",
                         help="write the solution JSON to PATH instead of stdout")
    p_solve.add_argument("--no-project", action="store_true",
                         help="require the target to lie in the span already")
    p_solve.set_defaults(func=cmd_solve)

    p_con = sub.add_parser("construct", help="emit a problem file for a family")
    p_con.add_argument("kind", choices=["graphic", "cographic", "vfk", "tensor", "an"])
    p_con.add_argument("--vertices", type=int)
    p_con.add_argument("--arcs", help="comma-separated TAIL-HEAD pairs, e.g. 0-1,1-2")
    p_con.add_argument("--gram", help="JSON file with the superbasis Gram matrix")
    p_con.add_argument("--m", type=int)
    p_con.add_argument("--n", type=int)
    p_con.add_argument("--weights", help="comma-separated positive rationals")
    p_con.add_argument("-o", "--output", metavar="PATH")
    p_con.set_defaults(func=cmd_construct)

    p_vor = sub.add_parser("voronoi", help="emit the strict Voronoi vectors")
    p_vor.add_argument("file")
    p_vor.add_argument("-o", "--output", metavar="PATH")
    p_vor.set_defaults(func=cmd_voronoi)

    p_chk = sub.add_parser("check", help="report TU status and span membership")
    p_chk.add_argument("file")
    p_chk.add_argument("-o", "--output", metavar="PATH")
    p_chk.set_defaults(func=cmd_check)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact answers of any size are written: lift Python's limit on
    # int <-> str conversion while the command runs, where it exists.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (InternalInvariantError, OracleFailureError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except ZonolatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    raise SystemExit(main())
