"""Seeded benchmark of `zonolat solve`.

    python3 benchmarks/run.py --workload graphic-lp --seed 1 --seconds 60 --trace 0

Run it from the root of a source checkout; it imports `zonolat` from
`src/` and refuses to run without it.  It writes the workload's seeded
problem files under `.bench_work/`, runs them in rounds, each round a
fresh process (see worker.py), checks every answer exactly (check.py) and
prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
with `--trace 1` its per-layer metrics, taken from traced rounds on a
prefix of the workload next to untraced rounds on the same prefix.  The
set-up and solve times behind the end-to-end metrics are scaled to a
reference host speed (see `_per_instance`).  The report also prints
wrong_answers, failed_share, certified_share and, for untraced runs,
solve_s_p50, the wall-clock solve rate and the host's slowdown;
manifest.json says why these are not listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

#: Instances per workload, and the prefix of them the traced run uses.
#: Sized so that, with the seed code on a 2-core x86-64 machine, a 60 s
#: run makes two to four untraced rounds of either.  Scaled times of one
#: instance agree within a few percent between rounds, so what moves the
#: figures from seed to seed is the instances the seed draws; more
#: instances in fewer rounds average that out.
WORKLOADS = {
    "graphic-lp": {"count": 9, "traced": 5},
    "cut-certify": {"count": 48, "traced": 8},
}
#: Untraced rounds per run, at least; more run while they fit.  A slower
#: program takes longer rather than being cut off, so it reports its figures.
MIN_ROUNDS = 2


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


class Rounds:
    """Runs worker rounds, each in a fresh process, and keeps their results."""

    def __init__(self, work: Path, src: Path):
        self.work, self.src = work, src
        self.count = 0

    def run(self, files: list[Path], trace: bool) -> dict:
        self.count += 1
        tag = self.work / f"round{self.count}"
        spec = {
            "problems": [str(f) for f in files],
            "trace": trace,
            "src": str(self.src),
            "out": f"{tag}.out.json",
            "spans": f"{tag}.spans.jsonl",
        }
        for key in ("out", "spans"):
            Path(spec[key]).unlink(missing_ok=True)
        Path(f"{tag}.spec.json").write_text(json.dumps(spec), encoding="utf-8")
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), f"{tag}.spec.json"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise BenchError(f"round {self.count} exited {proc.returncode}:\n{proc.stderr}")
        out = json.loads(Path(spec["out"]).read_text(encoding="utf-8"))
        out["wall_s"] = perf_counter() - start
        out["trace"] = trace
        if trace:
            from tracing import read_spans

            out["spans"] = read_spans(spec["spans"])
        return out


def _bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _code_hash(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _time_left(start: float, seconds: float) -> float:
    return seconds - (perf_counter() - start)


def plain_rounds(rounds: Rounds, files: list[Path], seconds: float) -> list[dict]:
    """At least MIN_ROUNDS rounds, then more while another fits."""
    start = perf_counter()
    out = [rounds.run(files, trace=False) for _ in range(MIN_ROUNDS)]
    while _time_left(start, seconds) >= max(r["wall_s"] for r in out):
        out.append(rounds.run(files, trace=False))
    return out


def traced_rounds(rounds: Rounds, files: list[Path], seconds: float) -> list[dict]:
    """Pairs of an untraced and a traced round on the same files,
    alternating which goes first, while a further pair fits."""
    start = perf_counter()
    out: list[dict] = []
    while True:
        first = len(out) // 2 % 2 == 1
        pair_start = perf_counter()
        out.append(rounds.run(files, trace=first))
        out.append(rounds.run(files, trace=not first))
        if _time_left(start, seconds) < perf_counter() - pair_start:
            return out


class Verdict:
    """Exact checks of every answer of a run, outside any timed region."""

    def __init__(self, problems: list[dict], results: list[dict]):
        from check import Checker, Problem

        checker = Checker()
        self.attempted = self.failed = self.wrong = self.certified = 0
        self.errors: list[str] = []
        self.answers: dict[int, str] = {}
        for rnd in results:
            for i, rec in enumerate(rnd["results"]):
                self.attempted += 1
                if rec["error"] is not None:
                    self.failed += 1
                    self.errors.append(f"instance {i}: {rec['error']}")
                    continue
                previous = self.answers.setdefault(i, rec["answer"])
                if previous != rec["answer"]:
                    raise BenchError(f"instance {i}: answers differ between rounds")
        self.faults: dict[int, list[str]] = {}
        self.control_failures = []
        self.iterations = self.max_bits = 0
        parsed = {}
        for i, text in self.answers.items():
            answer = parsed[i] = json.loads(text)
            problem = Problem(problems[i])
            faults = checker.faults(problem, answer)
            if faults:
                self.faults[i] = faults
            if not checker.origin_control_ok(problem, answer):
                self.control_failures.append(i)
            self.iterations += answer["iterations"]
            values = [Fraction(x) for x in answer["lambda_trace"]]
            values.append(Fraction(answer["distance_sq"]))
            self.max_bits = max([self.max_bits] + [_bits(x) for x in values])
        for rnd in results:
            for i, rec in enumerate(rnd["results"]):
                if rec["error"] is None:
                    self.wrong += i in self.faults
                    self.certified += parsed[i]["certified"]
        self.parsed = parsed

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted

    @property
    def certified_share(self) -> float:
        return self.certified / self.attempted

    def counts(self) -> dict:
        """Per distinct instance, so they do not depend on the round count."""
        return {
            "iterations": self.iterations,
            "max_bits": self.max_bits,
            "wrong_instances": len(self.faults),
            "certified_instances": sum(a["certified"] for a in self.parsed.values()),
        }


def cli_parity(files: list[Path], verdict: Verdict) -> bool:
    """`zonolat solve FILE` prints exactly the benchmark's answer text, on
    the instance with the fewest iterations."""
    if not verdict.parsed:
        return False
    from zonolat import cli

    i = min(verdict.parsed, key=lambda k: (verdict.parsed[k]["iterations"], k))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["solve", str(files[i])])
    return code == 0 and buf.getvalue() == verdict.answers[i]


def record_counts(root: Path, src: Path, workload: str, seed: int,
                  scope: str, counts: dict) -> None:
    """Store the hardware-independent counts of this code and seed; raise if
    an earlier run of the same code and seed counted differently."""
    path = root / ".bench_work" / "counts" / f"{workload}-seed{seed}-{_code_hash(src)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    stored = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    before = stored.get(scope)
    if before is not None and before != counts:
        raise BenchError(
            f"hardware-independent counts changed between runs of the same code "
            f"and seed: {before} != {counts}"
        )
    stored[scope] = counts
    path.write_text(json.dumps(stored, sort_keys=True), encoding="utf-8")


#: `worker.reference_s()` on the 2-core x86-64 machine the baseline was
#: measured on, at its fastest.  Times are scaled to the host speed it
#: stands for; see `_per_instance`.
REFERENCE_S = 0.015


def _per_instance(results: list[dict], key: str, scaled: bool) -> list[float]:
    """Each instance's median time for `key` over the rounds in which it ran.

    A shared host runs this process up to half slower in spells of a few
    seconds, and a whole minute can fall in one, so even the best of a
    run's rounds moves by a quarter from run to run.  With `scaled`, each
    time is multiplied by REFERENCE_S over the mean of the reference times
    taken just before and after its instance: the time the instance would
    have taken at the reference speed."""
    out = []
    for i in range(len(results[0]["results"])):
        times = []
        for r in results:
            t = r["results"][i][key]
            if t is None:
                continue
            if scaled:
                t *= 2 * REFERENCE_S / (r["reference_s"][i] + r["reference_s"][i + 1])
            times.append(t)
        if times:
            out.append(statistics.median(times))
    return out


def end_to_end(results: list[dict]) -> dict:
    """setup_s sums the instances' scaled set-up times, solve_s_p50 is the
    median of their scaled solve times and instances_per_s their count over
    their sum.  The wall-clock solve rate and the host's slowdown against
    the reference are reported next to them."""
    setup = _per_instance(results, "setup_s", scaled=True)
    solve = _per_instance(results, "solve_s", scaled=True)
    wall = _per_instance(results, "solve_s", scaled=False)
    return {
        "setup_s": sum(setup),
        "solve_s_p50": statistics.median(solve),
        "instances_per_s": len(solve) / sum(solve),
        "wall_instances_per_s": len(wall) / sum(wall),
        "host_slowdown": statistics.median(
            x for r in results for x in r["reference_s"]) / REFERENCE_S,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in results),
    }


#: Layer counts that must repeat exactly between traced rounds and runs.
TRACED_COUNTS = ("simplex.lp_solves", "simplex.probe_solves", "oracle.certify_calls",
                 "core.tu_rows_verified", "mmcc.lambda_calls", "oracle.cell_facets")


def per_layer(results: list[dict], verdict: Verdict) -> tuple[dict, dict]:
    from tracing import layer_metrics

    traced = [r for r in results if r["trace"]]
    plain = [r for r in results if not r["trace"]]
    layers = [layer_metrics(r["spans"]) for r in traced]
    for name in TRACED_COUNTS:
        if len({m[name] for m in layers}) != 1:
            raise BenchError(f"{name} differs between traced rounds of one run")
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    for name in TRACED_COUNTS:
        out[name] = layers[0][name]

    def busy(rnd):
        return sum((rec["setup_s"] or 0) + (rec["solve_s"] or 0) for rec in rnd["results"])

    out["trace.overhead"] = (statistics.median(busy(r) for r in traced)
                             / statistics.median(busy(r) for r in plain) - 1)
    out["trace.absent_hooks"] = len(traced[0]["absent"])
    out["mmcc.iterations"] = verdict.iterations
    out["mmcc.max_bits"] = verdict.max_bits
    out["mmcc.lp_per_iteration"] = (layers[0]["simplex.solve_phase_lps"] / verdict.iterations
                                    if verdict.iterations else 0.0)
    out["answers.wrong"] = verdict.wrong
    out["answers.failed_share"] = verdict.failed_share
    out["answers.certified_share"] = verdict.certified_share
    counts = {name: out[name] for name in TRACED_COUNTS}
    counts.update(verdict.counts())
    return out, counts


def run(args, root: Path, src: Path) -> dict:
    import workloads

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    size = WORKLOADS[args.workload]
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    problems = workloads.GENERATORS[args.workload](args.seed, size["count"])
    files = []
    for k, problem in enumerate(problems):
        path = work / f"problem{k:03d}.json"
        path.write_text(json.dumps(problem, indent=1) + "\n", encoding="utf-8")
        files.append(path)

    rounds = Rounds(work, src)
    if args.trace:
        n = size["traced"]
        files, problems = files[:n], problems[:n]
        results = traced_rounds(rounds, files, args.seconds)
    else:
        results = plain_rounds(rounds, files, args.seconds)
    verdict = Verdict(problems, results)
    parity = cli_parity(files, verdict)
    if args.trace:
        metrics, counts = per_layer(results, verdict)
        record_counts(root, src, args.workload, args.seed, "traced", counts)
    else:
        metrics = end_to_end(results)
        record_counts(root, src, args.workload, args.seed, "full", verdict.counts())

    print(f"workload {args.workload}, seed {args.seed}, {len(problems)} instances, "
          f"{len(results)} rounds, trace {args.trace}")
    report = [("wrong_answers", verdict.wrong, "count"),
              ("failed_share", verdict.failed_share, "ratio"),
              ("certified_share", verdict.certified_share, "ratio")]
    if not args.trace:
        report += [("solve_s_p50", metrics["solve_s_p50"], "s"),
                   ("wall_instances_per_s", metrics["wall_instances_per_s"], "1/s"),
                   ("host_slowdown", metrics["host_slowdown"], "ratio")]
    report += [(e["name"], metrics[e["name"]], e["unit"]) for e in listed]
    for name, value, unit in report:
        print(f"  {name:<28} {value} {unit}")
    if args.trace and results[0]["absent"]:
        print("  absent hooks: " + ", ".join(results[0]["absent"]))
    for i, faults in sorted(verdict.faults.items()):
        print(f"  WRONG instance {i}: {'; '.join(faults)}")
    for i in verdict.control_failures:
        print(f"  NEGATIVE CONTROL FAILED on instance {i}")
    for line in verdict.errors[:5]:
        print(f"  FAILED {line}")
    if not parity:
        print("  CLI PARITY FAILED: `zonolat solve` output differs from the benchmark's")
    return {
        "correct": verdict.wrong == 0 and not verdict.control_failures and parity,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
                    for e in listed},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "zonolat" / "__init__.py").is_file():
        print("error: src/zonolat not found; run from the root of a zonolat checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import zonolat

    if src.resolve() not in Path(zonolat.__file__).resolve().parents:
        print(f"error: imported zonolat from {zonolat.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    try:
        result = run(args, root, src)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
