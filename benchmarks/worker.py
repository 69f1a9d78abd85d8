"""One benchmark round in a fresh process.

    python3 benchmarks/worker.py ROUND.json

ROUND.json names the problem files, whether to trace, the source
directory to import `zonolat` from and where to write the result.  A
fresh process per round starts every module-level cache cold, so a round
pays the per-lattice set-up that a `zonolat solve` process pays.

Per problem the round times set-up (JSON text to a ready `CVPInstance`)
and the solve (`solve_cvp` plus serialization) through the
same public calls `zonolat solve` makes.  Before the first problem and
after each one it times `reference_s()`, which tells how fast the host
ran this process just then (see run.py).
"""

from __future__ import annotations

import json
import resource
import sys
from contextlib import nullcontext
from fractions import Fraction
from time import perf_counter

_REFERENCE_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 7) for j in range(9)]
                     for i in range(8)]


def reference_s() -> float:
    """Time of a fixed task in the style of the solver that uses no zonolat
    code: Gauss-Jordan elimination of a fixed 8 x 9 matrix of Fractions,
    eight times over.  On a shared host the speed at which this process
    runs changes by up to half within seconds; this measures it."""
    start = perf_counter()
    for _ in range(8):
        a = [row[:] for row in _REFERENCE_MATRIX]
        for c in range(8):
            p = next((r for r in range(c, 8) if a[r][c] != 0), None)
            if p is None:
                continue
            a[c], a[p] = a[p], a[c]
            for r in range(8):
                if r != c and a[r][c] != 0:
                    f = a[r][c] / a[c][c]
                    a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return perf_counter() - start


def _emit(cli, version, sol) -> str:
    """Solution text exactly as `zonolat solve` writes it."""
    payload = cli.solution_to_json(cli.SolutionFile(
        closest=sol.closest,
        distance_sq=sol.distance_sq,
        iterations=sol.iterations,
        lambda_trace=sol.lambda_trace(),
        certified=sol.certified,
        oracle_agreement=None,
        seed=None,
        tool_version=version,
    ))
    return json.dumps(payload, indent=2) + "\n"


def run_round(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import zonolat
    from zonolat import cli, mmcc

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    texts = []
    for path in spec["problems"]:
        with open(path, "r", encoding="utf-8") as fh:
            texts.append(fh.read())

    results = []
    reference = [reference_s()]
    for i, text in enumerate(texts):
        if tracer:
            tracer.instance = i
        rec = {"setup_s": None, "solve_s": None, "answer": None, "error": None}
        try:
            t0 = perf_counter()
            with span("setup"):
                with span("cli.parse_problem"):
                    problem = cli.parse_problem(json.loads(text))
                with span("cli.lattice_from_problem"):
                    lattice = cli.lattice_from_problem(problem)
                with span("mmcc.cvp_instance"):
                    instance = mmcc.cvp_instance(lattice, problem.t)
            t1 = perf_counter()
            rec["setup_s"] = t1 - t0
            with span("solve"):
                with span("mmcc.solve_cvp"):
                    solution = mmcc.solve_cvp(instance)
                with span("cli.emit"):
                    answer = _emit(cli, zonolat.__version__, solution)
            rec["solve_s"] = perf_counter() - t1
            rec["answer"] = answer
        except Exception as exc:  # one failed instance must not end the round
            rec["error"] = f"{type(exc).__name__}: {exc}"
        results.append(rec)
        reference.append(reference_s())

    out = {
        "results": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "reference_s": reference,
        "absent": tracer.absent if tracer else [],
    }
    if tracer:
        tracer.write(spec["spans"])
    return out


def main(argv: list[str]) -> int:
    with open(argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    out = run_round(spec)
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
