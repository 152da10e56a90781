#!/usr/bin/env python3
"""Fingerprints of pairprox's seeded outputs, to show that a change keeps
them bitwise.

    python3 scripts/fingerprint.py > FINGERPRINTS.json

Prints one JSON object. "fingerprints" maps each entry below to the sha256
of a fixed serialization of its outputs; "environment" names what those
bits depend on besides the source: the numpy version, its BLAS, and the
kernel core OpenBLAS picked for this CPU, where it can be read. BLAS runs
on one thread while the entries run.

The serialization hashes each part in a fixed order, each prefixed by a
type tag and its length in bytes: arrays, traces and other numbers as
float64 bytes, and statuses, reasons, counts, standard output and files as
UTF-8 text. Wall-clock seconds are left out of traces, CSV files and
summaries. The entries:

- sign_pair_2d seeds 1-3: the anchored run at FULL trace, in full and cut
  at 1000 steps, and the check-pair report;
- gppa2 at FULL trace on a 2-D Sign pair whose kernel has an offset and
  a -1 sign, with an anchor from which all but its first 8 steps take the
  sign pattern that pins every row;
- gppa and gppa1 at FULL trace on the sign-swap pair from three starts,
  at the default gamma = 1 and at the gamma schedule (0.5, 1, 2, 0.75);
- check-pair on the sign-swap pair with the swap kernel: one report for
  each pinned pair, some with Sign coordinates at zero where F is a box,
  and one for all of them with 2000 seeded samples;
- least squares at FULL trace on lsq_laplacian seeds 1-2, in full and cut
  at 50 steps;
- solve-kkt on the cli_defaults QP of seed 1: exit code, standard output,
  --out and the trace;
- the files the writers make: the text of that QP's problem.json,
  problem-Q.mat and problem-C.mat, and of the sign-swap operator's file;
- the KKT solve of kkt_table's seed-1 trial-0 system at n = 400 and
  n = 1000, at FULL trace;
- the LU factorization, at blocks 7 and 64, of three seeded zero-laden
  matrices: one with a fifth of its entries +0 and a fifth -0, one with
  nine tenths zeros, half of them -0, and one whose column 100, mid-panel
  at both blocks, is a combination of those before it;
- dca_baseline at FULL trace on a seeded 200 x 200 positive definite
  system with m = 2;
- the seeded generators: the matrix, right-hand side, solution,
  eigenvalues and range distance of an inconsistent system with 30% of its
  eigenvalues zero and of a consistent system at n = 200;
- the trace's edge paths at FULL trace: least squares from a start within
  tol on a system whose step matrix 2A + 2 kappa I is singular, and a
  gppa run whose first step overflows;
- bench --sizes 5,9 --trials 2: exit code, summary and table;
- the four demos: exit code, standard output and trace files.

The entries in LONG take most of the tool's run. The cut runs repeat the
first steps of the full-length ones, and the KKT solve at n = 400 runs the
LU panels of the one at n = 1000, at a fraction of the cost, so the tests
re-run every entry outside LONG, and LONG is checked by hand:

    python3 scripts/fingerprint.py | diff FINGERPRINTS.json -

The workload data comes from the set-up of perfbench/workloads.py. The
library is imported from this checkout's src/ directory.
"""
from __future__ import annotations

import contextlib
import csv
import ctypes
import dataclasses
import functools
import glob
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
for _path in (ROOT / "perfbench", ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402

from pairprox import applications as apps  # noqa: E402
from pairprox import cli, linalg, operators as ops, solvers  # noqa: E402
from pairprox.rng import SplitMix64  # noqa: E402
from run import environment as bench_environment  # noqa: E402
from workloads import CliDefaults, KKTTable, LsqLaplacian, SignPair2D  # noqa: E402

FULL = solvers.TraceLevel.FULL
SIGN_SWAP_STARTS = ((5.0, -3.0), (0.3, -0.7), (-2.5, 4.25))
# pairs with coordinates at zero, where Sign is an interval, and one without
SIGN_SWAP_PAIRS = (
    ((0.0, 0.0), (0.0, 1.0)),
    ((0.0, 2.0), (-1.5, 0.0)),
    ((0.5, 0.0), (-0.5, 0.0)),
    ((0.0, -3.0), (2.0, 0.25)),
    ((1.0, -2.0), (-0.75, 0.5)),
)
GAMMA_SCHEDULE = (0.5, 1.0, 2.0, 0.75)
DEMOS = ("example-1", "example-2", "least-squares", "dca-divergence")
ANCHORED_CUT, LSQ_CUT = 1000, 50
KINK_ANCHOR = (4.5, -3.25)


def digest(parts) -> str:
    """sha256 over `parts`: None, text, integers, or anything numpy reads as
    float64, such as arrays, floats and lists of either."""
    h = hashlib.sha256()
    for part in parts:
        if part is None:
            tag, data = b"n", b""
        elif isinstance(part, str):
            tag, data = b"s", part.encode()
        elif isinstance(part, int):
            tag, data = b"i", str(int(part)).encode()
        else:
            tag, data = b"f", np.asarray(part, dtype=np.float64).tobytes()
        h.update(tag + len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def _result(res: solvers.SolveResult) -> list:
    trace = res.trace
    return [
        res.status.value, res.reason, res.iterations, res.preimage, res.image,
        len(trace.residuals), trace.residuals, trace.steps, trace.err_to_ref, trace.iterates,
    ]


def _without_seconds(path) -> str:
    """A CSV file's text with its seconds column dropped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("seconds")
    return "\n".join(",".join(cell for i, cell in enumerate(row) if i != drop) for row in rows)


def _run_cli(argv) -> list:
    """The exit code and standard output of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return [code, out.getvalue()]


def _anchored_run(seed, max_iters=None):
    def run(workdir):
        sign_f, _, swap, x0, _, cfg = SignPair2D(seed, workdir).setup()
        cfg = cfg if max_iters is None else dataclasses.replace(cfg, max_iters=max_iters)
        return _result(solvers.gppa2(sign_f, swap, x0, cfg, reference=np.zeros(2)))

    return run


def _report(report: ops.PairMonotonicityReport) -> list:
    return [report.samples, report.min_quotient, report.min_inner, report.witness_x, report.witness_y,
            *(s.value for s in report.witness_selections), report.verdict.value]


def _check_pair(seed):
    def run(workdir):
        _, trig_f, swap, _, sample_seed, _ = SignPair2D(seed, workdir).setup()
        return _report(ops.check_pair_monotone(trig_f, swap, box=SignPair2D.BOX, samples=SignPair2D.SAMPLES, seed=sample_seed))

    return run


def _sign_swap_check_pair(workdir):
    f, v = ops.sign_swap_operator(), ops.swap_operator()
    # over a one-point box every seeded pair coincides and is skipped, so
    # each of these reports reads one pinned pair alone
    parts = [part for pair in SIGN_SWAP_PAIRS
             for part in _report(ops.check_pair_monotone(f, v, box=(0.0, 0.0), samples=2, include=[pair]))]
    return parts + _report(ops.check_pair_monotone(f, v, box=SignPair2D.BOX, samples=2_000, seed=1, include=SIGN_SWAP_PAIRS))


def _kink_run(workdir):
    # sym of the linear part (in the sign variables) is positive definite,
    # so the engine is certified, and off its diagonal, so it runs the table
    f = ops.Sum((ops.SignBlock(1.0, (1, 0)), ops.Affine([[0.5, 0.0], [2.0, -0.5]])))
    v = ops.Sum((ops.Permutation((1, 0), (1.0, -1.0)), ops.Affine(np.zeros((2, 2)), offset=(0.5, -0.25))))
    cfg = solvers.SolverConfig(tol_residual=0.0, max_iters=200, halpern=solvers.HalpernConfig(anchor=KINK_ANCHOR),
                               trace_level=FULL)
    return _result(solvers.gppa2(f, v, np.array([5.0, -3.0]), cfg, reference=np.array([0.5, -0.25])))


def _sign_swap(solver, x0, gamma=1.0):
    def run(workdir):
        cfg = solvers.SolverConfig(gamma_schedule=gamma, trace_level=FULL)
        return _result(solver(ops.sign_swap_operator(), ops.swap_operator(), np.array(x0), cfg, reference=np.zeros(2)))

    return run


def _least_squares(seed, max_iters=None):
    def run(workdir):
        a, b = LsqLaplacian(seed, workdir).setup()
        cfg = solvers.SolverConfig(tol_residual=LsqLaplacian.TOL, trace_level=FULL)
        cfg = cfg if max_iters is None else dataclasses.replace(cfg, max_iters=max_iters)
        sol = apps.least_squares_iterate(a, b, LsqLaplacian.KAPPA, cfg=cfg)
        return [*_result(sol.result), sol.optimality_residuals, sol.data_errors]

    return run


def _solve_kkt(workdir):
    workload = CliDefaults(1, workdir)
    workload.setup()
    parts = _run_cli(["solve-kkt", workload.problem, "--out", workload.out, "--trace", workload.trace])
    return [*parts, pathlib.Path(workload.out).read_text(), _without_seconds(workload.trace)]


def _written_files(workdir):
    workload = CliDefaults(1, workdir)
    workload.setup()
    stem = os.path.splitext(workload.problem)[0]
    operator = os.path.join(workdir, "sign_swap.json")
    ops.save_operator(operator, ops.sign_swap_operator())
    return [pathlib.Path(path).read_text() for path in (workload.problem, f"{stem}-Q.mat", f"{stem}-C.mat", operator)]


def _kkt_table(n):
    def run(workdir):
        workload = KKTTable(1, workdir)
        trial_seed = next(seed for size, trial, seed in workload.setup() if size == n and trial == 0)
        system = apps.generate_consistent_system(n, trial_seed, KKTTable.SPECTRUM, KKTTable.ZERO_FRACTION)
        kkt = apps.KKTSystem(system.matrix, system.rhs, n)
        cfg = dataclasses.replace(workload.cfg, trace_level=FULL)
        return _result(apps.solve_kkt(kkt, KKTTable.KAPPA, x0=np.zeros(n), cfg=cfg).result)

    return run


def _zero_laden_matrices(n=150):
    rng = SplitMix64(7)
    signed, sparse, dependent = (rng.normal(n * n).reshape(n, n) for _ in range(3))
    u = rng.uniform(n * n).reshape(n, n)
    signed[u < 0.2] = 0.0
    signed[u > 0.8] = -0.0
    u = rng.uniform(n * n).reshape(n, n)
    sparse[u < 0.45] = 0.0
    sparse[(0.45 <= u) & (u < 0.9)] = -0.0
    dependent[:, 100] = dependent[:, :100] @ rng.normal(100)
    return signed, sparse, dependent


def _lu_factorize(workdir):
    parts = []
    for a in _zero_laden_matrices():
        for block in (7, 64):
            fact = linalg.lu_factorize(a, block=block)
            parts += [fact.packed, fact.perm, int(fact.singular)]
            for start, stop, strip, inverse in fact.lower_blocks + fact.upper_blocks:
                parts += [start, stop, strip, inverse]
    return parts


def _dca_baseline(workdir):
    # A = G G^T / n + I / 2 has its spectrum in about [0.5, 4.5], so the
    # iteration contracts by at most 2 / 2.5 per step
    n = 200
    rng = SplitMix64(11)
    g = rng.normal(n * n).reshape(n, n)
    a = g @ g.T / n + 0.5 * np.eye(n)
    b = a @ rng.normal(n)
    return _result(solvers.dca_baseline(a, b, 2.0, np.zeros(n), solvers.SolverConfig(trace_level=FULL)))


def _trace_edges(workdir):
    # least squares from a start within tol, where the step's 2A + 2 kappa I
    # is singular: no engine is built and no step is taken
    a, x0 = np.diag([1.0, -0.2]), np.array([2.0, -1.0])
    sol = apps.least_squares_iterate(a, a @ x0, 0.2, x0=x0, cfg=solvers.SolverConfig(trace_level=FULL))
    # v(x0) = 2 x0 - 2 x0 overflows to inf - inf, so the first step fails
    f = ops.Affine(np.eye(2))
    v = ops.Sum((ops.Affine(2.0 * np.eye(2)), ops.Affine(-2.0 * np.eye(2))))
    with np.errstate(all="ignore"):
        res = solvers.gppa(f, v, np.array([1e308, 0.0]), solvers.SolverConfig(trace_level=FULL))
    return [*_result(sol.result), sol.optimality_residuals, sol.data_errors, *_result(res)]


def _generated_systems(workdir):
    systems = (apps.generate_inconsistent_system(33, 5007, zero_fraction=0.3), apps.generate_consistent_system(200, 1))
    return [part for s in systems for part in (s.matrix, s.rhs, s.solution, s.eigenvalues, s.range_distance)]


def _bench(workdir):
    table = os.path.join(workdir, "bench.csv")
    code, summary = _run_cli(["bench", "--sizes", "5,9", "--trials", "2", "--out", table])
    # the summary's third column is the median seconds
    lines = [" ".join(w for i, w in enumerate(line.split()) if i != 2) for line in summary.splitlines()]
    return [code, "\n".join(lines), _without_seconds(table)]


def _demo(name):
    def run(workdir):
        out = os.path.join(workdir, f"demo-{name}")
        parts = _run_cli(["demo", name, "--out", out])
        for trace in sorted(os.listdir(out)) if os.path.isdir(out) else ():
            parts += [trace, _without_seconds(os.path.join(out, trace))]
        return parts

    return run


ENTRIES = {
    **{
        name: make
        for seed in (1, 2, 3)
        for name, make in (
            (f"sign_pair_2d/seed={seed}/gppa2", _anchored_run(seed)),
            (f"sign_pair_2d/seed={seed}/gppa2/max_iters={ANCHORED_CUT}", _anchored_run(seed, ANCHORED_CUT)),
            (f"sign_pair_2d/seed={seed}/check_pair", _check_pair(seed)),
        )
    },
    f"sign_kink/gppa2/anchor={KINK_ANCHOR[0]:g},{KINK_ANCHOR[1]:g}": _kink_run,
    **{
        f"sign_swap/{solver.__name__}/x0={x0[0]:g},{x0[1]:g}": _sign_swap(solver, x0)
        for solver in (solvers.gppa, solvers.gppa1)
        for x0 in SIGN_SWAP_STARTS
    },
    **{
        f"sign_swap/{solver.__name__}/gamma={','.join(f'{g:g}' for g in GAMMA_SCHEDULE)}/x0={x0[0]:g},{x0[1]:g}":
            _sign_swap(solver, x0, GAMMA_SCHEDULE)
        for solver in (solvers.gppa, solvers.gppa1)
        for x0 in SIGN_SWAP_STARTS
    },
    "sign_swap/check_pair/include=zeros": _sign_swap_check_pair,
    **{f"lsq_laplacian/seed={seed}": _least_squares(seed) for seed in (1, 2)},
    **{f"lsq_laplacian/seed={seed}/max_iters={LSQ_CUT}": _least_squares(seed, LSQ_CUT) for seed in (1, 2)},
    "cli_defaults/solve-kkt": _solve_kkt,
    "written_files/cli_defaults/seed=1+sign_swap": _written_files,
    **{f"kkt_table/seed=1/n={n}/trial=0/solve_kkt": _kkt_table(n) for n in (400, 1000)},
    "linalg/lu_factorize/signed-zeros": _lu_factorize,
    "dca_baseline/n=200": _dca_baseline,
    "generators/inconsistent/n=33/seed=5007/zero_fraction=0.3+consistent/n=200/seed=1": _generated_systems,
    "trace_edges/least_squares/start_within_tol+gppa/first_step_overflows": _trace_edges,
    "bench/sizes=5,9/trials=2": _bench,
    **{f"demo/{name}": _demo(name) for name in DEMOS},
}


LONG = (
    *(f"sign_pair_2d/seed={seed}/gppa2" for seed in (1, 2, 3)),
    *(f"lsq_laplacian/seed={seed}" for seed in (1, 2)),
    "kkt_table/seed=1/n=1000/trial=0/solve_kkt",
    "demo/example-2",
)


@functools.cache
def _openblas_function(stem, restype, *argtypes):
    """The function `stem` of the OpenBLAS bundled with numpy, found as
    perfbench/run.py finds it, with its C signature declared, or None."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{stem}64_", f"openblas_{stem}64_", f"openblas_{stem}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, list(argtypes)
                return fn
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run BLAS on one thread: a threaded product sums in another order."""
    get = _openblas_function("get_num_threads", ctypes.c_int)
    put = _openblas_function("set_num_threads", None, ctypes.c_int)
    if get is None or put is None:
        yield
        return
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def fingerprints(names=None) -> dict[str, str]:
    """The fingerprint of each entry named, of every entry by default, with
    BLAS on one thread."""
    with tempfile.TemporaryDirectory() as workdir, _one_blas_thread():
        return {name: digest(ENTRIES[name](workdir)) for name in (ENTRIES if names is None else names)}


def environment() -> dict[str, str | None]:
    """What the fingerprints depend on besides the source. Where OpenBLAS
    cannot be found, its core is None and BLAS may run threaded."""
    bench = bench_environment(np)
    corename = _openblas_function("get_corename", ctypes.c_char_p)
    return {
        "numpy": bench["numpy"],
        "blas": f"{bench['blas']} {bench['blas_version']}",
        "openblas_core": corename().decode() if corename else None,
    }


if __name__ == "__main__":
    print(json.dumps({"environment": environment(), "fingerprints": fingerprints()}, indent=2))
