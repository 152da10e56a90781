"""In-memory span tracing around the calls into each pairprox layer.

The tracer patches the public functions and `evaluate` methods of the
package from the outside, so the program itself carries no tracing code.
Each call records one span (name, start, end, parent, work), where work is
the flop count of an LU call and the pairs scanned by check_pair_monotone;
a layer's
self time is its span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import csv
import gzip
import statistics
import time
from collections import defaultdict

import numpy as np

from pairprox import applications, cli, linalg, operators, resolvents, rng, solvers

# Which layer call each span stands for.  Names are "<module>.<function>"
# except where one metric covers several functions (linalg.io,
# operators.evaluate).  Calls left unwrapped, such as the uniform draws
# inside rng.uniform_box, count in their caller's self time.
_FUNCTIONS = [
    (linalg, "lu_factorize", "linalg.lu_factorize"),
    (linalg, "lu_solve", "linalg.lu_solve"),
    (linalg, "jacobi_eigendecomposition", "linalg.jacobi_eigendecomposition"),
    (linalg, "read_matrix", "linalg.io"),
    (linalg, "read_vector", "linalg.io"),
    (linalg, "write_matrix", "linalg.io"),
    (linalg, "write_vector", "linalg.io"),
    (operators, "check_pair_monotone", "operators.check_pair_monotone"),
    (resolvents, "build_engine", "resolvents.build_engine"),
    (resolvents, "warped", "resolvents.warped"),
    (resolvents, "transformed", "resolvents.transformed"),
    (solvers, "gppa", "solvers.gppa"),
    (solvers, "gppa2", "solvers.gppa2"),
    (applications, "generate_consistent_system", "applications.generate_consistent_system"),
    (applications, "select_kappa", "applications.select_kappa"),
    (applications, "build_kkt", "applications.build_kkt"),
    (applications, "read_qp", "applications.read_qp"),
    (applications, "solve_kkt", "applications.solve_kkt"),
    (applications, "least_squares_iterate", "applications.least_squares_iterate"),
    (cli, "main", "cli.main"),
]
_METHODS = [
    (rng.SplitMix64, "normal", "rng.normal"),
    (rng.SplitMix64, "uniform_box", "rng.uniform_box"),
] + [
    (cls, "evaluate", "operators.evaluate")
    for cls in vars(operators).values()
    if isinstance(cls, type) and issubclass(cls, operators.OperatorExpr) and "evaluate" in vars(cls)
]


def _lu_solve_flops(_result, fact, *_args, **_kw) -> float:
    return 2.0 * fact.dim**2


def _lu_factorize_flops(_result, a, *_args, **_kw) -> float:
    return 2.0 / 3.0 * np.shape(a)[0] ** 3


def _pairs_scanned(report, *_args, **_kw) -> float:
    return report.samples if report is not None else 0.0


# work of one call, from its result (None if it raised) and its arguments
_WORK = {
    "linalg.lu_solve": _lu_solve_flops,
    "linalg.lu_factorize": _lu_factorize_flops,
    "operators.check_pair_monotone": _pairs_scanned,
}

RESOLVENTS = ("resolvents.warped", "resolvents.transformed")
SOLVES = ("solvers.gppa", "solvers.gppa2", "applications.least_squares_iterate")


class Tracer:
    """Records spans while installed; `with tracer:` installs and removes it.

    `spans` holds one (name, start, end, parent, work) tuple per call, in
    start order, so a parent's index is always below its children's; parent
    -1 marks a call made directly by the benchmark.
    """

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._saved: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        work = _WORK.get(name)
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, work(result, *args, **kwargs) if work else 0.0)

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for owner, attr, name in _FUNCTIONS + _METHODS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        done = list(self.spans)
        self.spans.clear()
        return done


def summarize(spans: list) -> dict:
    """Per-name calls, total and self seconds and work, plus the counts
    that the ratios need: lu_solves made under a resolvent call."""
    child_cover = [0.0] * len(spans)
    under_resolvent = [False] * len(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    work_done = defaultdict(float)
    lu_solves_in_resolvent = 0
    for i, (name, start, end, parent, work) in enumerate(spans):
        if parent >= 0:
            child_cover[parent] += end - start
            under_resolvent[i] = under_resolvent[parent] or spans[parent][0] in RESOLVENTS
        if name == "linalg.lu_solve" and under_resolvent[i]:
            lu_solves_in_resolvent += 1
    for i, (name, start, end, _parent, work) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_cover[i]
        work_done[name] += work
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "work": dict(work_done),
        "lu_solves_in_resolvent": lu_solves_in_resolvent,
        "spans": len(spans),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summaries: list[dict], scales: list[float], untraced_wall: list[float],
                  traced_wall: list[float]) -> dict:
    """Per-layer metrics of one traced pass: counts from the first summary
    (they repeat exactly), times as medians over all traced passes, each
    pass's self times multiplied by its entry in `scales`."""
    first = summaries[0]
    calls = first["calls"]

    def self_s(name):
        return statistics.median(s["self_s"].get(name, 0.0) * k for s, k in zip(summaries, scales))

    def gflops(name):
        secs = self_s(name)
        return _ratio(first["work"].get(name, 0.0), secs) / 1e9

    resolvent_calls = sum(calls.get(n, 0) for n in RESOLVENTS)
    solves = sum(calls.get(n, 0) for n in SOLVES)
    untraced = statistics.median(untraced_wall)
    traced = statistics.median(traced_wall)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    for layer in ("linalg.lu_solve", "linalg.lu_factorize"):
        put(f"{layer}.calls", calls.get(layer, 0), "count")
        put(f"{layer}.self_s", self_s(layer), "s")
        put(f"{layer}.gflops", gflops(layer), "GFLOP/s")
    for layer in (
        "linalg.jacobi_eigendecomposition",
        "resolvents.transformed",
        "resolvents.warped",
        "resolvents.build_engine",
        "operators.evaluate",
        "rng.uniform_box",
    ):
        put(f"{layer}.calls", calls.get(layer, 0), "count")
        put(f"{layer}.self_s", self_s(layer), "s")
    for layer in (
        "applications.select_kappa",
        "linalg.io",
        "applications.generate_consistent_system",
        "rng.normal",
        "operators.check_pair_monotone",
        "solvers.gppa",
        "solvers.gppa2",
        "applications.least_squares_iterate",
        "cli.main",
    ):
        put(f"{layer}.self_s", self_s(layer), "s")
    put("operators.pairs_scanned", first["work"].get("operators.check_pair_monotone", 0.0), "count")
    put("resolvents.calls", resolvent_calls, "count")
    put("resolvents.lu_solves_per_call", _ratio(first["lu_solves_in_resolvent"], resolvent_calls), "ratio")
    put("solvers.solves", solves, "count")
    put("resolvents.engines_per_solve", _ratio(calls.get("resolvents.build_engine", 0), solves), "ratio")
    put("trace.spans", first["spans"], "count")
    put("trace.untraced_wall_s", untraced, "s")
    put("trace.traced_wall_s", traced, "s")
    put("trace.overhead_frac", _ratio(traced - untraced, untraced), "ratio")
    return out


def write_spans(path: str, spans: list) -> None:
    """Gzipped CSV, one row per span: index, name, start, end, parent, work."""
    with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("span", "name", "start", "end", "parent", "work"))
        for i, (name, start, end, parent, work) in enumerate(spans):
            writer.writerow((i, name, repr(start), repr(end), parent, repr(work)))
