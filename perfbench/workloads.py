"""The benchmark's four seeded workloads.

Each workload makes its inputs from the seed it is given, calls pairprox
only through its public API, and checks every result against a ground truth
that the benchmark works out on its own.  One pass of a workload is the
unit that is timed; it returns a `PassResult`.

Why these four (each loads a different layer):

- kkt_table: the paper's benchmark table (acceptance criterion 1), 20
  factorizations at n up to 1000 with about 23 solves each; LU
  factorization and problem generation dominate.
- lsq_laplacian: least squares on a singular graph Laplacian, one
  factorization for about 455 solves; the triangular solve dominates.
- sign_pair_2d: the 2-D set-valued pair (criterion 9 and check-pair); tiny
  arrays, so sign-pattern case analysis and operator evaluation dominate.
- cli_defaults: `solve-kkt` with default options; the only path through
  kappa selection (the Jacobi eigensolver) and the file formats.
"""
from __future__ import annotations

import contextlib
import io
import os
import re
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from pairprox import applications as apps
from pairprox import cli, operators as ops, solvers
from pairprox.rng import derive_seed

perf_counter = time.perf_counter


@dataclass
class PassResult:
    """Timings, iteration count and check outcomes of one pass.  `wall_s`
    and `setup_s` cover only what `run_pass` itself timed."""

    wall_s: float = 0.0
    setup_s: float = 0.0
    solve_s: float = 0.0
    iterations: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    # the timed intervals behind each time: kind -> [(start, end, share)]
    intervals: dict[str, list[tuple[float, float, float]]] = field(
        default_factory=lambda: {"wall": [], "setup": [], "solve": []})

    def add_time(self, kind: str, start: float, end: float, share: float = 1.0) -> None:
        """Add `share` of the interval from `start` to `end` (perf_counter
        readings) to `<kind>_s`, and keep the interval for correction."""
        setattr(self, f"{kind}_s", getattr(self, f"{kind}_s") + share * (end - start))
        self.intervals[kind].append((start, end, share))

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; a miss is recorded, never raised."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _guarded(result: PassResult, what: str, fn):
    """Run one operation; an exception counts as a failed operation."""
    try:
        return fn()
    except Exception as exc:  # any error from the library is a failed operation
        result.check(False, f"{what}: {type(exc).__name__}: {exc}")
        return None


class Workload:
    """A seeded workload; `workdir` is a scratch directory it may write.

    `setup()` makes the inputs of one pass and `run_pass(inputs)` runs and
    checks it; the caller times the set-up.  Set-up work that a pass
    interleaves with solving is timed by the pass into `setup_s`.
    """

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def run_pass(self, inputs) -> PassResult:
        raise NotImplementedError

    def warm_up(self) -> PassResult:
        """One untimed pass, so that lazy set-up and caches are filled."""
        return self.run_pass(self.setup())


# ---------------------------------------------------------------------------
# kkt_table: the paper's benchmark table


class KKTTable(Workload):
    """n in {400, 600, 800, 1000} x 5 trials of a random consistent singular
    system, solved from x0 = 0 at kappa = 0.2 until e_k <= 1.5e-4; the same
    calls as `cli.run_trial`, with generation timed apart from solving."""

    name = "kkt_table"
    SIZES = (400, 600, 800, 1000)
    TRIALS = 5
    KAPPA = 0.2
    TOL = 1.5e-4
    SPECTRUM = (0.5, 2.0)
    ZERO_FRACTION = 0.1
    MEDIAN_ITERS_MAX = 40

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.cfg = solvers.SolverConfig(tol_residual=self.TOL, trace_level=solvers.TraceLevel.NORMS)
        self.bench_iterations: list[int] | None = None

    def warm_up(self) -> PassResult:
        """The untimed pass runs `cli.run_bench` with one worker, whatever
        PAIRPROX_WORKERS says; every timed pass must then reproduce its
        per-trial iteration counts."""
        result = PassResult()
        spec = cli.BenchSpec(
            sizes=self.SIZES, trials=self.TRIALS, seed=self.seed, kappa=self.KAPPA,
            tolerance=self.TOL, spectrum=self.SPECTRUM, zero_fraction=self.ZERO_FRACTION,
        )
        records = _guarded(result, "cli.run_bench", lambda: cli.run_bench(spec, workers=1))
        if records is not None:
            result.check(all(r.status == "Converged" for r in records), "cli.run_bench: not all converged")
            self.bench_iterations = [r.iterations for r in records]
        return result

    def setup(self):
        """Per-trial seeds; the systems themselves are generated one at a
        time inside the pass, as `cli.run_trial` does, to bound memory."""
        return [(n, trial, derive_seed(self.seed, n, trial)) for n in self.SIZES for trial in range(self.TRIALS)]

    def run_pass(self, trials) -> PassResult:
        result = PassResult()
        iters: dict[int, list[int]] = {n: [] for n in self.SIZES}
        start = perf_counter()
        for n, trial, trial_seed in trials:
            t0 = perf_counter()
            system = apps.generate_consistent_system(n, trial_seed, self.SPECTRUM, self.ZERO_FRACTION)
            kkt = apps.KKTSystem(system.matrix, system.rhs, n)
            t1 = perf_counter()
            sol = _guarded(
                result, f"solve_kkt n={n} trial={trial}",
                lambda: apps.solve_kkt(kkt, self.KAPPA, x0=np.zeros(n), cfg=self.cfg),
            )
            t2 = perf_counter()
            result.add_time("setup", t0, t1)
            result.add_time("solve", t1, t2)
            if sol is None:
                continue
            res = sol.result
            ek = float(np.linalg.norm(system.matrix @ res.preimage - system.rhs))
            result.check(
                res.status is solvers.Status.CONVERGED and ek <= self.TOL,
                f"n={n} trial={trial}: status {res.status.value}, e_k {ek:.3e}",
            )
            result.iterations += res.iterations
            iters[n].append(res.iterations)
        for n, counts in iters.items():
            med = statistics.median(counts) if counts else float("inf")
            result.check(med <= self.MEDIAN_ITERS_MAX, f"n={n}: median iterations {med}")
        if self.bench_iterations is not None:
            trial_iters = [i for n in self.SIZES for i in iters[n]]
            result.check(trial_iters == self.bench_iterations,
                         f"per-trial iterations {trial_iters} differ from cli.run_bench {self.bench_iterations}")
        result.add_time("wall", start, perf_counter())
        return result


# ---------------------------------------------------------------------------
# lsq_laplacian: least squares on a singular PSD system


def neumann_laplacian(side: int) -> np.ndarray:
    """5-point graph Laplacian of a side x side grid; its kernel is the
    constant vector."""
    path = np.diag(np.r_[1.0, np.full(side - 2, 2.0), 1.0]) - np.eye(side, k=1) - np.eye(side, k=-1)
    eye = np.eye(side)
    return np.kron(path, eye) + np.kron(eye, path)


class LsqLaplacian(Workload):
    """min ||Ax - b||^2 for the 30 x 30 Neumann Laplacian (n = 900) with
    b = smooth load + Gaussian + 1, so b is outside ran A.  The residual
    floor is the length of b's kernel component, |sum b| / sqrt(n)."""

    name = "lsq_laplacian"
    SIDE = 30
    OFFSET = 1.0
    LOAD = 10.0
    KAPPA = 0.2
    TOL = 1e-6
    FLOOR_TOL = 1e-6

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.cfg = solvers.SolverConfig(tol_residual=self.TOL, trace_level=solvers.TraceLevel.NORMS)

    def setup(self):
        a = neumann_laplacian(self.SIDE)
        # the smooth load fixes the weight of b on the two slowest modes, so
        # the iteration count hardly depends on the seed (about 455)
        mode = np.cos(np.pi * (np.arange(self.SIDE) + 0.5) / self.SIDE)
        mode /= np.linalg.norm(mode)
        flat = np.full(self.SIDE, 1.0 / np.sqrt(self.SIDE))
        load = self.LOAD * (np.kron(mode, flat) + np.kron(flat, mode))
        b = load + np.random.default_rng(self.seed).standard_normal(a.shape[0]) + self.OFFSET
        return a, b

    def run_pass(self, inputs) -> PassResult:
        a, b = inputs
        result = PassResult()
        start = perf_counter()
        sol = _guarded(result, "least_squares_iterate",
                       lambda: apps.least_squares_iterate(a, b, self.KAPPA, cfg=self.cfg))
        result.add_time("solve", start, perf_counter())
        if sol is not None:
            res = sol.result
            x = res.preimage
            floor = abs(float(b.sum())) / np.sqrt(b.size)
            data_error = float(np.linalg.norm(a @ x - b))
            optimality = float(np.linalg.norm(a @ (a @ x) - a @ b))
            result.check(
                res.status is solvers.Status.CONVERGED and optimality <= self.TOL
                and abs(data_error - floor) <= self.FLOOR_TOL,
                f"status {res.status.value}, optimality {optimality:.3e}, "
                f"data error {data_error:.9f} against floor {floor:.9f}",
            )
            result.iterations = res.iterations
        result.add_time("wall", start, perf_counter())
        return result


# ---------------------------------------------------------------------------
# sign_pair_2d: the 2-D set-valued pair


class SignPair2D(Workload):
    """10 000 anchored (Halpern) steps on (Sign(x2) + x1, Sign(x1) - x2) with
    the swap kernel from a seeded start in [-5, 5]^2, anchor (1, 1); then
    check-pair on the trig pair with 10 000 seeded samples over [-5, 5]^2.
    The only zero is the origin, and the trig pair is monotone."""

    name = "sign_pair_2d"
    STEPS = 10_000
    ANCHOR = (1.0, 1.0)
    BOX = (-5.0, 5.0)
    SAMPLES = 10_000
    DIST_MAX = 1e-3

    def setup(self):
        rng = np.random.default_rng(self.seed)
        x0 = rng.uniform(*self.BOX, size=2)
        sample_seed = int(rng.integers(2**32))
        cfg = solvers.SolverConfig(
            tol_residual=0.0, max_iters=self.STEPS,
            halpern=solvers.HalpernConfig(anchor=self.ANCHOR),
            trace_level=solvers.TraceLevel.FULL,
        )
        return (ops.sign_swap_operator(), ops.trig_block_operator(), ops.swap_operator(), x0, sample_seed, cfg)

    def run_pass(self, inputs) -> PassResult:
        sign_f, trig_f, swap, x0, sample_seed, cfg = inputs
        result = PassResult()
        start = perf_counter()
        res = _guarded(result, "gppa2", lambda: solvers.gppa2(sign_f, swap, x0, cfg, reference=np.zeros(2)))
        report = _guarded(
            result, "check_pair_monotone",
            lambda: ops.check_pair_monotone(trig_f, swap, box=self.BOX, samples=self.SAMPLES, seed=sample_seed),
        )
        result.add_time("solve", start, perf_counter())
        if res is not None:
            # a fixed step budget with tol 0 ends at the iteration cap by design
            dist = float(np.linalg.norm(res.trace.iterates[-1]))
            result.check(
                res.status is solvers.Status.MAX_ITERS and res.iterations == self.STEPS and dist <= self.DIST_MAX,
                f"anchored run from {x0}: status {res.status.value}, {res.iterations} steps, |x| {dist:.3e}",
            )
            result.iterations = res.iterations
        if report is not None:
            result.check(
                report.verdict is ops.Verdict.MONOTONE_EVIDENCE and report.samples == self.SAMPLES,
                f"check-pair: {report.verdict.value} over {report.samples} pairs",
            )
        result.add_time("wall", start, perf_counter())
        return result


# ---------------------------------------------------------------------------
# cli_defaults: the user's default command path


_STATUS_LINE = re.compile(r"^status: (\S+) after (\d+) iterations", re.MULTILINE)


class CliDefaults(Workload):
    """`pairprox solve-kkt problem.json --out x.txt --trace trace.csv` run in
    process, with no kappa given, so kappa selection runs.  The QP has 120
    primal variables and 40 constraints around a planted KKT point
    (y*, lambda*): c = -(Q y* + C^T lambda*), d = C y*."""

    name = "cli_defaults"
    N_PRIMAL = 120
    N_DUAL = 40
    Y_TOL = 1e-6

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.problem = os.path.join(workdir, "problem.json")
        self.out = os.path.join(workdir, "x.txt")
        self.trace = os.path.join(workdir, "trace.csv")

    def setup(self):
        rng = np.random.default_rng(self.seed)
        basis, _ = np.linalg.qr(rng.standard_normal((self.N_PRIMAL, self.N_PRIMAL)))
        q = (basis * rng.uniform(0.5, 2.0, self.N_PRIMAL)) @ basis.T
        q = 0.5 * (q + q.T)
        con = rng.standard_normal((self.N_DUAL, self.N_PRIMAL)) / np.sqrt(self.N_PRIMAL)
        y_star = rng.standard_normal(self.N_PRIMAL)
        lam_star = rng.standard_normal(self.N_DUAL)
        c = -(q @ y_star + con.T @ lam_star)
        d = con @ y_star
        apps.write_qp(self.problem, apps.QPProblem(q, c, con, d))
        return y_star

    def run_pass(self, y_star) -> PassResult:
        result = PassResult()
        start = perf_counter()
        for path in (self.out, self.trace):
            if os.path.exists(path):
                os.remove(path)
        stdout = io.StringIO()
        argv = ["solve-kkt", self.problem, "--out", self.out, "--trace", self.trace]
        t0 = perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = _guarded(result, "cli.main", lambda: cli.main(argv))
        result.add_time("solve", t0, perf_counter())
        text = stdout.getvalue()
        status = _STATUS_LINE.search(text)
        y_err = float("inf")
        if code == cli.EXIT_OK and os.path.exists(self.out):
            with open(self.out) as fh:
                x = np.array([float(tok) for tok in fh.read().split()])
            if x.size == self.N_PRIMAL + self.N_DUAL:
                y_err = float(np.max(np.abs(x[: self.N_PRIMAL] - y_star)))
        result.check(
            code == cli.EXIT_OK and status is not None and status.group(1) == "Converged" and y_err <= self.Y_TOL,
            f"solve-kkt: exit {code}, status line {status.group(0) if status else None!r}, |y - y*| {y_err:.3e}",
        )
        if status is not None:
            result.iterations = int(status.group(2))
        result.add_time("wall", start, perf_counter())
        return result


WORKLOADS = {w.name: w for w in (KKTTable, LsqLaplacian, SignPair2D, CliDefaults)}
