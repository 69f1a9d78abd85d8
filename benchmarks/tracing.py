"""In-memory spans around the solver's layer boundaries.

The tracer replaces each hooked function in the module namespace its
callers look it up in, so `src/` is left untouched.  A span is the list
`[name, start, end, parent, instance, info]`: `parent` is the index of the
enclosing span (-1 at the top), `instance` the problem index and `info` a
small per-hook record (LP shape, TU rows verified, facet count).  Spans
stay in memory until `write` is called at the end of a round.
"""

from __future__ import annotations

import importlib
import json
import statistics
from contextlib import contextmanager
from time import perf_counter


def _tu_rows(args, kwargs, result):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "verify")
    return len(args[0]) if mode == "verify" else 0


def _lp_shape(args, kwargs, result):
    p = args[0] if args else kwargs["p"]
    return [len(p.A), len(p.c)]


def _facets(args, kwargs, result):
    return len(result.relevant_vectors)


#: (module, function, info extractor).  Each function is wrapped in the
#: namespace its caller uses, e.g. `cli.lattice_from_problem` calls
#: `zonolat.cli.tu_matrix` and `mmcc.cvp_instance` calls
#: `zonolat.mmcc.project_onto_span`.
HOOKS = (
    ("zonolat.cli", "tu_matrix", _tu_rows),
    ("zonolat.mmcc", "project_onto_span", None),
    ("zonolat.simplex", "solve_lp", _lp_shape),
    ("zonolat.simplex", "solve_with_fixed_zero", None),
    ("zonolat.mmcc", "compute_lambda", None),
    ("zonolat.mmcc", "min_mean_voronoi_vector", None),
    ("zonolat.mmcc", "stopping_data", None),
    ("zonolat.oracle", "certify_closest", None),
    ("zonolat.oracle", "voronoi_cell", _facets),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.instance = -1
        self.absent: list[str] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.instance, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, info=None) -> None:
        end = perf_counter()
        self.stack.pop()
        span = self.spans[idx]
        span[1], span[2], span[5] = start, end, info

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, start)

    def install(self) -> None:
        """Wrap every hook that exists; record the missing ones as absent."""
        for module_name, attr, info in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(span_name(module_name, attr))
                continue
            setattr(module, attr, self._wrap(fn, span_name(module_name, attr), info))

    def _wrap(self, fn, name, info):
        def traced(*args, **kwargs):
            idx = self._open(name)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, start,
                            info(args, kwargs, result) if info and result is not None else None)

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# ---------------------------------------------------------------------------
# Aggregation into per-layer metrics
# ---------------------------------------------------------------------------

#: Layer of each span name.  The spans that enclose a whole phase of one
#: problem ("setup", "solve") belong to no layer.
LAYER = {
    "cli.parse_problem": "cli",
    "cli.emit": "cli",
    "cli.lattice_from_problem": "cli",
    "cli.tu_matrix": "core",
    "mmcc.project_onto_span": "core",
    "mmcc.cvp_instance": "mmcc",
    "mmcc.solve_cvp": "mmcc",
    "mmcc.compute_lambda": "mmcc",
    "mmcc.min_mean_voronoi_vector": "mmcc",
    "mmcc.stopping_data": "mmcc",
    "simplex.solve_lp": "simplex",
    "simplex.solve_with_fixed_zero": "simplex",
    "oracle.certify_closest": "oracle",
    "oracle.voronoi_cell": "oracle",
}
LAYERS = ("cli", "core", "simplex", "mmcc", "oracle")


def _root_phase(spans: list, idx: int) -> str:
    while spans[idx][3] >= 0:
        idx = spans[idx][3]
    return spans[idx][0]


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer totals over one round of spans.

    Durations and self times are summed over the round; a span's self time
    is its duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    count: dict[str, int] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    solve_self = {layer: 0.0 for layer in LAYERS}
    solve_total = 0.0
    lp_times, lp_rows, lp_cols = [], [], []
    tu_rows = facets = solve_lps = 0
    for idx, (name, start, end, parent, _, info) in enumerate(spans):
        dur = end - start
        own = dur - child_time[idx]
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + own
        count[name] = count.get(name, 0) + 1
        if parent < 0 and name == "solve":
            solve_total += dur
        layer = LAYER.get(name)
        if layer:
            layer_self[layer] += own
        in_solve = layer is not None and _root_phase(spans, idx) == "solve"
        if in_solve:
            solve_self[layer] += own
        if name == "simplex.solve_lp":
            solve_lps += in_solve
            lp_times.append(dur)
            if info:
                lp_rows.append(info[0])
                lp_cols.append(info[1])
        elif name == "cli.tu_matrix" and info:
            tu_rows += info
        elif name == "oracle.voronoi_cell" and info:
            facets += info

    def mean(xs):
        return statistics.fmean(xs) if xs else 0.0

    out = {
        "cli.parse_s": total.get("cli.parse_problem", 0.0),
        "cli.emit_s": total.get("cli.emit", 0.0),
        "core.tu_verify_s": total.get("cli.tu_matrix", 0.0),
        "core.tu_rows_verified": tu_rows,
        "core.project_s": total.get("mmcc.project_onto_span", 0.0),
        "simplex.lp_solves": count.get("simplex.solve_lp", 0),
        "simplex.solve_phase_lps": solve_lps,
        "simplex.probe_solves": count.get("simplex.solve_with_fixed_zero", 0),
        "simplex.lp_s": total.get("simplex.solve_lp", 0.0),
        "simplex.lp_s_p50": statistics.median(lp_times) if lp_times else 0.0,
        "simplex.lp_cols_mean": mean(lp_cols),
        "simplex.lp_rows_mean": mean(lp_rows),
        "mmcc.lambda_calls": count.get("mmcc.compute_lambda", 0),
        "mmcc.stopping_s": total.get("mmcc.stopping_data", 0.0),
        "mmcc.extract_self_s": self_time.get("mmcc.min_mean_voronoi_vector", 0.0),
        "mmcc.solve_self_s": self_time.get("mmcc.solve_cvp", 0.0),
        "oracle.certify_s": total.get("oracle.certify_closest", 0.0),
        "oracle.certify_calls": count.get("oracle.certify_closest", 0),
        "oracle.cell_facets": facets,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.solve_share"] = solve_self[layer] / solve_total if solve_total else 0.0
    return out
