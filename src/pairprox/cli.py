"""Command-line surface: solver runs, pair-monotonicity checks, benchmark
tables, and curated demos.

Exit codes: 0 success, 1 input error, 2 not converged, 3 violation found.
Benchmark parallelism is controlled by the PAIRPROX_WORKERS environment
variable (default 1); output rows are sorted by (n, trial) regardless of
execution order, so results are byte-identical modulo the seconds column.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import os
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import applications as apps
from . import linalg, operators as ops, solvers
from .errors import PairproxError
from .rng import derive_seed, require_seed

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2
EXIT_VIOLATION = 3

WORKERS_ENV = "PAIRPROX_WORKERS"
# numpy's error state in every subcommand, and in each bench worker thread
_QUIET_ERRSTATE = {"over": "ignore", "invalid": "ignore"}


# ---------------------------------------------------------------------------
# benchmark harness


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark campaign: sizes x trials consistent random systems,
    solved from x0 = 0 until e_k = ||A x_k - b|| falls below `tolerance`."""

    sizes: tuple[int, ...]
    trials: int = 5
    seed: int = 0
    kappa: float | None = 0.2
    kappa_fraction: float | None = None
    tolerance: float = 1.5e-4
    spectrum: tuple[float, float] = (0.5, 2.0)
    zero_fraction: float = 0.1
    max_iters: int = 100_000

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(linalg._require_count("sizes", n)) for n in self.sizes))
        if not self.sizes:
            raise ValueError("sizes must name at least one size")
        # a repeated size re-runs the same seeded trials, and every median of
        # the summary would count them twice
        repeated = sorted({n for n in self.sizes if self.sizes.count(n) > 1})
        if repeated:
            raise ValueError(f"sizes must be distinct, got {', '.join(map(str, repeated))} more than once")
        linalg._require_count("trials", self.trials)
        linalg.real_scalar("tolerance", self.tolerance, 0, float("inf"), "(]")
        if (self.kappa is None) == (self.kappa_fraction is None):
            raise ValueError("set exactly one of kappa (absolute) or kappa_fraction")
        _check_kappa(self.kappa, self.kappa_fraction)
        # checked here as well as by the generator, so that a bad interval
        # ends the campaign before its first trial
        apps._check_spectrum(self.spectrum, self.zero_fraction)
        linalg._require_count("max_iters", self.max_iters)
        require_seed(self.seed)


@dataclass(frozen=True)
class RunRecord:
    n: int
    trial: int
    seed: int
    iterations: int
    seconds: float
    ek: float
    status: str


def _status_label(result: solvers.SolveResult) -> str:
    if result.status is solvers.Status.FAILED:
        return f"Failed({result.reason})"
    return result.status.value


def run_trial(spec: BenchSpec, n: int, trial: int) -> RunRecord:
    """One row of the table. A trial that cannot be solved is a Failed row,
    so that the campaign goes on: generated data that is not finite is
    reported without a solve, and an error of the kappa selection or the
    solve (a singular resolvent at a tiny kappa, a shifted operator that
    overflows) is named by its exception class; both rows have 0 iterations,
    0 seconds and ek NaN."""
    trial_seed = derive_seed(spec.seed, n, trial)
    system = apps.generate_consistent_system(n, trial_seed, spec.spectrum, spec.zero_fraction)

    def failed(reason: str) -> RunRecord:
        return RunRecord(n, trial, trial_seed, 0, 0.0, float("nan"), f"Failed({reason})")

    if not (linalg.all_finite(system.matrix) and linalg.all_finite(system.rhs)):
        return failed("non-finite data")
    cfg = solvers.SolverConfig(tol_residual=spec.tolerance, max_iters=spec.max_iters)
    kkt = apps.KKTSystem(system.matrix, system.rhs, n)
    try:
        if spec.kappa is not None:
            kappa = spec.kappa
        else:
            kappa = apps.select_kappa(system.matrix, kappa_fraction=spec.kappa_fraction).kappa
        t0 = time.perf_counter()
        sol = apps.solve_kkt(kkt, kappa, x0=np.zeros(n), cfg=cfg)
    except (PairproxError, ValueError) as exc:
        return failed(type(exc).__name__)
    elapsed = time.perf_counter() - t0
    return RunRecord(n, trial, trial_seed, sol.result.iterations, elapsed, _last_residual(sol.result), _status_label(sol.result))


def run_bench(spec: BenchSpec, workers: int | None = None) -> list[RunRecord]:
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    tasks = [(n, t) for n in spec.sizes for t in range(spec.trials)]
    if workers <= 1:
        records = [run_trial(spec, n, t) for n, t in tasks]
    else:
        # threads do not inherit the caller's numpy error state
        with ThreadPoolExecutor(workers, initializer=functools.partial(np.seterr, **_QUIET_ERRSTATE)) as pool:
            records = list(pool.map(lambda nt: run_trial(spec, *nt), tasks))
    return sorted(records, key=lambda r: (r.n, r.trial))


BENCH_HEADER = ("n", "trial", "seed", "iters", "seconds", "ek", "status")


def write_bench_csv(fh, records: list[RunRecord]) -> None:
    """Write the table to the open text file `fh`."""
    writer = csv.writer(fh)
    writer.writerow(BENCH_HEADER)
    for r in records:
        writer.writerow((r.n, r.trial, r.seed, r.iterations, repr(r.seconds), repr(r.ek), r.status))


def bench_summary(records: list[RunRecord]) -> str:
    lines = ["n  median_iters  median_seconds  median_ek  all_converged"]
    for n in sorted({r.n for r in records}):
        group = [r for r in records if r.n == n]
        ok = all(r.status == "Converged" for r in group)
        lines.append(
            f"{n}  {statistics.median(r.iterations for r in group):g}  "
            f"{statistics.median(r.seconds for r in group):.3f}  "
            f"{statistics.median(r.ek for r in group):.4e}  {ok}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument helpers


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        sizes = ()
    if not sizes or min(sizes) < 1:
        raise ValueError(f"--sizes must be 'n1,n2,...' with positive integers, got {text!r}")
    return sizes


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok)


def _parse_pair(text: str) -> tuple[np.ndarray, np.ndarray]:
    left, sep, right = text.partition(":")
    if not sep:
        raise ValueError(f"pair {text!r} must look like 'x1,..,xn:y1,..,yn'")
    x = np.array(_parse_float_list(left))
    y = np.array(_parse_float_list(right))
    if x.size != y.size or x.size == 0:
        raise ValueError(f"pair {text!r} sides must have equal nonzero length")
    return x, y


def _parse_box(text: str) -> tuple[float, float]:
    try:
        lo, hi = _parse_float_list(text)
        ok = float("-inf") < lo < hi < float("inf")
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"--box must be 'lo,hi' with finite numbers lo < hi, got {text!r}")
    return lo, hi


def _check_kappa(kappa: float | None, kappa_fraction: float | None) -> None:
    """The library's rule for whichever of kappa and kappa_fraction is set.
    The solve commands check it, and build their config, before reading any file."""
    if kappa is not None:
        apps.require_kappa(kappa)
    if kappa_fraction is not None:
        apps.require_kappa_fraction(kappa_fraction)


def _resolve_kappa(args, matrix: np.ndarray) -> float:
    """A selected kappa lies inside (0, |alpha|/2) by construction; an
    explicit --kappa is checked against that bound and only warned about."""
    if args.kappa is not None:
        report = apps.verify_pair_lemma(matrix, args.kappa)
        if not report.kappa_within_bound:
            print(
                f"warning: kappa={args.kappa:g} is not below |alpha|/2={report.alpha_abs / 2:g}, "
                "so the pair lemma does not guarantee a monotone pair",
                file=sys.stderr,
            )
        return args.kappa
    fraction = args.kappa_fraction if args.kappa_fraction is not None else apps.DEFAULT_KAPPA_FRACTION
    return apps.select_kappa(matrix, kappa_fraction=fraction).kappa


def _last_residual(result: solvers.SolveResult) -> float:
    """The residual of the last recorded step; NaN if no step was recorded."""
    return result.trace.residuals[-1] if result.trace.residuals else float("nan")


def _finish(result: solvers.SolveResult, out: str | None, trace: str | None) -> int:
    """Write the preimage to --out and the trace to --trace, and return the exit code."""
    if out:
        linalg.write_vector(out, result.preimage)
    if trace:
        solvers.write_trace_csv(trace, result.trace)
    return EXIT_OK if result.status is solvers.Status.CONVERGED else EXIT_NOT_CONVERGED


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve_kkt(args) -> int:
    _check_kappa(args.kappa, args.kappa_fraction)
    cfg = solvers.SolverConfig(tol_residual=args.tol, max_iters=args.max_iters)
    qp = apps.read_qp(args.problem)
    kkt = apps.build_kkt(qp)
    kappa = _resolve_kappa(args, kkt.matrix)
    sol = apps.solve_kkt(kkt, kappa, cfg=cfg)
    print(f"status: {_status_label(sol.result)} after {sol.result.iterations} iterations (kappa={kappa:g})")
    print(f"final error ||Ax - b|| = {_last_residual(sol.result):.6e}")
    print("primal y:", " ".join(f"{v:.12g}" for v in sol.primal))
    print("multipliers:", " ".join(f"{v:.12g}" for v in sol.multipliers))
    return _finish(sol.result, args.out, args.trace)


def cmd_least_squares(args) -> int:
    _check_kappa(args.kappa, args.kappa_fraction)
    cfg = solvers.SolverConfig(tol_residual=args.tol, max_iters=args.max_iters)
    a = linalg.read_matrix(args.matrix)
    b = linalg.read_vector(args.rhs)
    kappa = _resolve_kappa(args, a)
    sol = apps.least_squares_iterate(a, b, kappa, cfg=cfg)
    res = sol.result
    print(f"status: {_status_label(res)} after {res.iterations} iterations (kappa={kappa:g})")
    print(f"optimality residual ||A^2 x - A b|| = {sol.optimality_residuals[-1]:.6e}")
    print(f"data error ||A x - b|| = {sol.data_errors[-1]:.6e}")
    return _finish(res, args.out, args.trace)


def cmd_bench(args) -> int:
    if args.kappa is None and args.kappa_fraction is None:
        args.kappa = 0.2
    spec = BenchSpec(
        sizes=_parse_sizes(args.sizes),
        trials=args.trials,
        seed=args.seed,
        kappa=args.kappa,
        kappa_fraction=args.kappa_fraction,
        tolerance=args.tol,
        spectrum=args.spectrum,
        zero_fraction=args.zero_fraction,
        max_iters=args.max_iters,
    )
    # the table is opened before the first trial, so that a bad --out path
    # is reported before the campaign runs
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        records = run_bench(spec)
        write_bench_csv(fh, records)
    print(bench_summary(records))
    return EXIT_OK if all(r.status == "Converged" for r in records) else EXIT_NOT_CONVERGED


def cmd_check_pair(args) -> int:
    require_seed(args.seed)
    box = _parse_box(args.box) if args.box is not None else None
    f = ops.load_operator(args.f_operator)
    v = ops.load_operator(args.v_operator)
    include = [_parse_pair(p) for p in args.include_pair]
    # a pair whose products overflow in a wide box is no evidence either
    # way; a box where every pair overflows is a ValueError, so exit 1
    report = ops.check_pair_monotone(f, v, box=box, samples=args.samples, seed=args.seed, include=include)
    print(f"verdict: {report.verdict.value}")
    print(f"pairs scanned: {report.samples}")
    print(f"min quotient <F(x)-F(y), v(x)-v(y)> / ||x-y||^2 = {report.min_quotient:.12g}")
    print(f"min inner product = {report.min_inner:.12g}")
    print("witness x:", " ".join(f"{t:.12g}" for t in report.witness_x))
    print("witness y:", " ".join(f"{t:.12g}" for t in report.witness_y))
    print("witness selections (Fx, Fy, vx, vy):", ", ".join(s.value for s in report.witness_selections))
    if report.verdict is ops.Verdict.VIOLATION_FOUND:
        print(f"violation value: {report.min_inner:.12g}")
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# demos


def _save_trace(out_dir: str | None, name: str, result: solvers.SolveResult) -> None:
    """Write the result's trace CSV as `name` under --out, if it is set."""
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        solvers.write_trace_csv(os.path.join(out_dir, name), result.trace)


def _demo_example_1(out_dir: str | None) -> int:
    f = ops.trig_block_operator()
    v = ops.swap_operator()
    print("operator: (x1, x2) -> (x2 + |sin x1|, x1 - cos|x2|)")
    alone = ops.check_pair_monotone(f, ops.identity_operator(2), box=(-5.0, 5.0), samples=5000, seed=11)
    print(f"against the identity kernel: {alone.verdict.value} (min inner {alone.min_inner:.4g})")
    paired = ops.check_pair_monotone(f, v, box=(-5.0, 5.0), samples=10_000, seed=11)
    print(f"against the swap kernel:     {paired.verdict.value} (min inner {paired.min_inner:.4g})")
    print("no closed-form resolvent is registered for the trig terms, so the")
    print("solvers leave this operator to the monotonicity checker only.")
    return EXIT_OK if paired.verdict is ops.Verdict.MONOTONE_EVIDENCE else EXIT_VIOLATION


def _demo_example_2(out_dir: str | None) -> int:
    f = ops.sign_swap_operator()
    v = ops.swap_operator()
    zero = np.zeros(2)
    print("operator: (x1, x2) -> (Sign(x2) + x1, Sign(x1) - x2), swap kernel")
    ok = True

    res = solvers.gppa(f, v, np.array([5.0, -3.0]), solvers.SolverConfig(trace_level=solvers.TraceLevel.FULL), reference=zero)
    dist = float(np.linalg.norm(res.preimage))
    ok &= res.status is solvers.Status.CONVERGED and dist <= 1e-9
    print(f"warped iteration from (5, -3): {_status_label(res)} in {res.iterations} steps, |x - 0| = {dist:.2e}")
    mono = all(b <= a + 1e-10 for a, b in zip(res.trace.residuals, res.trace.residuals[1:]))
    print(f"  residual norms nonincreasing: {mono}")
    ok &= mono
    _save_trace(out_dir, "example-2-warped.csv", res)

    res1 = solvers.gppa1(f, v, np.array([3.0, 1.0]), solvers.SolverConfig(trace_level=solvers.TraceLevel.FULL), reference=zero)
    dist1 = float(np.linalg.norm(res1.image))
    ok &= res1.status is solvers.Status.CONVERGED and dist1 <= 1e-9
    print(f"transformed iteration from (3, 1): {_status_label(res1)} in {res1.iterations} steps, |image - 0| = {dist1:.2e}")
    _save_trace(out_dir, "example-2-transformed.csv", res1)

    cfg2 = solvers.SolverConfig(
        tol_residual=0.0,
        max_iters=10_000,
        halpern=solvers.HalpernConfig(anchor=(1.0, 1.0)),
        trace_level=solvers.TraceLevel.FULL,
    )
    res2 = solvers.gppa2(f, v, np.array([3.0, 1.0]), cfg2, reference=zero)
    dist2 = res2.trace.err_to_ref[-1]
    ok &= dist2 <= 1e-3
    print(f"anchored iteration, 10000 steps: |x - 0| = {dist2:.2e} (anchored averaging is slow by design)")
    _save_trace(out_dir, "example-2-anchored.csv", res2)
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def _demo_least_squares(out_dir: str | None) -> int:
    a = np.diag([1.0, 0.0])
    b = np.array([1.0, 1.0])
    print("A = diag(1, 0), b = (1, 1): b is outside ran A; the optimality")
    print("residual ||A^2 x - A b|| must vanish while ||A x - b|| floors at 1.")
    sol = apps.least_squares_iterate(a, b, kappa=0.2, cfg=solvers.SolverConfig(tol_residual=1e-10, trace_level=solvers.TraceLevel.FULL))
    res = sol.result
    print(f"status: {_status_label(res)} in {res.iterations} iterations")
    print(f"final optimality residual: {sol.optimality_residuals[-1]:.3e}")
    print(f"final data error: {sol.data_errors[-1]:.6f} (distance from b to ran A)")
    print(f"minimizer first coordinate: {res.preimage[0]:.9f} (exact projection: 1)")
    _save_trace(out_dir, "least-squares.csv", res)
    ok = res.status is solvers.Status.CONVERGED and abs(sol.data_errors[-1] - 1.0) <= 1e-6
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def _demo_dca_divergence(out_dir: str | None) -> int:
    a = np.diag([1.0, -1.0])
    b = np.zeros(2)
    x0 = np.array([1.0, 1.0])
    print("A = diag(1, -1), b = 0: indefinite and perfectly solvable (x = 0).")
    dca = solvers.dca_baseline(a, b, m=2.0, x0=x0, cfg=solvers.SolverConfig(max_iters=1000))
    print(f"difference-of-convex splitting (m = 2): {_status_label(dca)} after {dca.iterations} iterations")
    _save_trace(out_dir, "dca-divergence-dca.csv", dca)
    kkt = apps.KKTSystem(a, b, 1)
    sol = apps.solve_kkt(kkt, kappa=0.2, x0=x0, cfg=solvers.SolverConfig(tol_residual=1e-8))
    ek = _last_residual(sol.result)
    print(f"shifted-kernel iteration (kappa = 0.2): {_status_label(sol.result)} in {sol.result.iterations} iterations, e_k = {ek:.2e}")
    _save_trace(out_dir, "dca-divergence-gppa.csv", sol.result)
    ok = dca.status is solvers.Status.FAILED and dca.reason == "Diverged"
    ok &= sol.result.status is solvers.Status.CONVERGED and ek <= 1e-8
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


_DEMOS = {
    "example-1": _demo_example_1,
    "example-2": _demo_example_2,
    "least-squares": _demo_least_squares,
    "dca-divergence": _demo_dca_divergence,
}


def cmd_demo(args) -> int:
    return _DEMOS[args.name](args.out)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pairprox", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kappa_flags(p):
        kappa = p.add_mutually_exclusive_group()
        kappa.add_argument("--kappa", type=float, default=None, help="absolute kernel shift")
        kappa.add_argument("--kappa-fraction", type=float, default=None,
                           help="kernel shift as a fraction of the smallest absolute nonzero eigenvalue")

    p = sub.add_parser("solve-kkt", help="solve a QP problem file through its saddle system")
    p.add_argument("problem", help="QP JSON file (matrix files Q, C plus inline vectors c, d)")
    add_kappa_flags(p)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=100_000)
    p.add_argument("--out", default=None, help="write the solution vector here")
    p.add_argument("--trace", default=None, help="write the iteration trace CSV here")
    p.set_defaults(fn=cmd_solve_kkt)

    p = sub.add_parser("least-squares", help="minimize ||Ax - b||^2 for symmetric A")
    p.add_argument("matrix", help="matrix text file ('rows cols' header)")
    p.add_argument("rhs", help="text file of whitespace-separated floats")
    add_kappa_flags(p)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iters", type=int, default=100_000)
    p.add_argument("--out", default=None)
    p.add_argument("--trace", default=None)
    p.set_defaults(fn=cmd_least_squares)

    p = sub.add_parser("bench", help="benchmark table over random consistent systems")
    p.add_argument("--sizes", default="400,600,800,1000")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    add_kappa_flags(p)
    p.add_argument("--tol", type=float, default=1.5e-4)
    p.add_argument("--spectrum", type=_parse_float_list, default=(0.5, 2.0),
                   help="'lo,hi' interval for absolute eigenvalues")
    p.add_argument("--zero-fraction", type=float, default=0.1)
    p.add_argument("--max-iters", type=int, default=100_000)
    p.add_argument("--out", default=None, help="write the CSV table here (default: stdout)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("check-pair", help="sample-based monotonicity check of an operator pair")
    p.add_argument("f_operator", help="operator JSON file for F")
    p.add_argument("v_operator", help="operator JSON file for v")
    p.add_argument("--box", default=None, help="'lo,hi' sampling box applied to every coordinate")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--include-pair", action="append", default=[],
                   help="extra pair 'x1,..,xn:y1,..,yn' scanned before sampling (repeatable)")
    p.set_defaults(fn=cmd_check_pair)

    p = sub.add_parser("demo", help="run a curated example")
    p.add_argument("name", choices=sorted(_DEMOS), help="the demo to run")
    p.add_argument("--out", default=None, help="directory for trace CSVs")
    p.set_defaults(fn=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else EXIT_OK
    # data or options of extreme size may overflow anywhere along the way;
    # the checks on the results report that (a non-finite iterate is a
    # Failed solve, non-finite data an input error), so numpy's overflow and
    # invalid-value warnings are noise; an input file nested too deeply to
    # read is a RecursionError, and one of a size no array can hold a MemoryError
    try:
        with np.errstate(**_QUIET_ERRSTATE):
            return args.fn(args)
    except (OSError, ValueError, KeyError, RecursionError, MemoryError, PairproxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def console_main() -> None:
    sys.exit(main())
