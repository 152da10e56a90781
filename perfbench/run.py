#!/usr/bin/env python3
"""pairprox benchmark: one seeded workload per run, end to end or traced.

    python3 perfbench/run.py --workload kkt_table --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory and from nowhere else.  A run makes one untimed warm-up
pass, then timed passes for about `--seconds` (at least MIN_PASSES), and
reports medians over the passes.  With `--trace 0` it prints the end-to-end
metrics, with the raw medians of their times beside them in the log.  With
`--trace 1` it alternates untraced and traced passes and prints the
per-layer metrics of a traced pass, and writes the spans, in raw times,
under `.bench_out/`.  Every reported time is corrected for the machine's
changing speed by a probe that samples it all through the run, and is in
the probe's reference seconds (see speed.py).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the exit code is 1 when any
ground-truth check failed.  `--workload all` runs every workload in its own
process and prints one table.
"""
from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("kkt_table", "lsq_laplacian", "sign_pair_2d", "cli_defaults")
MIN_PASSES = 2

# One BLAS thread: the numbers then do not depend on how many cores the
# machine has free, and never oversubscribe it.  Set before numpy loads.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _has_sources() -> bool:
    """The library is imported from this checkout's src/ and nowhere else."""
    if os.path.isfile(os.path.join(SRC, "pairprox", "__init__.py")):
        return True
    print(f"error: no pairprox sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
    return False


def _blas_threads(np) -> int | None:
    """Ask the loaded OpenBLAS for its thread count, when it exposes one."""
    import ctypes

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
    }


def _metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(setup, min_seconds: float = 0.2) -> tuple[float, float, int]:
    """Run `setup` back to back for at least `min_seconds`, as one run of a
    cheap set-up is too short to time steadily; return (start, end, calls)."""
    count = 0
    start = time.perf_counter()
    while True:
        setup()
        count += 1
        end = time.perf_counter()
        if end - start >= min_seconds:
            return start, end, count


def one_pass(workload, tracer=None):
    """Set up and run one pass; the repeated set-up that times `setup_s`
    runs untraced, and the pass's wall time counts one set-up."""
    start, end, count = timed_setup(workload.setup)
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        inputs = workload.setup()
        t1 = time.perf_counter()
        result = workload.run_pass(inputs)
    result.add_time("setup", start, end, 1.0 / count)
    result.add_time("wall", t0, t1)
    return result


def measure(workload, seconds: float, trace: bool):
    """Warm up, then time passes, untraced and traced by turns when `trace`;
    return (all passes, per-traced-pass span summaries, spans of the last
    traced pass)."""
    import tracing

    passes = [workload.warm_up()]
    summaries, spans = [], []
    tracer = tracing.Tracer() if trace else None
    rounds = 0
    start = time.perf_counter()
    while True:
        passes.append(one_pass(workload))
        if tracer is not None:
            passes.append(one_pass(workload, tracer))
            spans = tracer.take()
            summaries.append(tracing.summarize(spans))
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_PASSES and elapsed + elapsed / rounds > seconds:
            break
    return passes, summaries, spans


def run_one(args) -> int:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    # kkt_table must run with one worker whatever the caller's environment says
    os.environ.pop("PAIRPROX_WORKERS", None)
    if not _has_sources():
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import tracing
    from speed import REFERENCE_S, SpeedProbe, spread
    from workloads import WORKLOADS

    env = environment(np)
    print("environment:", json.dumps(env))
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        with SpeedProbe() as probe:
            passes, summaries, spans = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    timed = passes[1:]
    # the iteration count of a seed is part of the math: it must repeat
    for i, p in enumerate(timed[1:], start=2):
        attempted += 1
        if p.iterations != timed[0].iterations:
            failures.append(f"pass {i}: {p.iterations} iterations, pass 1 had {timed[0].iterations}")
    for f in failures:
        print("FAILED:", f, file=sys.stderr)

    def corrected(p, kind):
        return sum(share * probe.corrected(a, b) for a, b, share in p.intervals[kind])

    timed_untraced = timed[:: 2 if args.trace else 1]
    traced = timed[1::2] if args.trace else []
    print(f"workload {args.workload}, seed {args.seed}: {len(timed_untraced)} untraced passes"
          + (f", {len(traced)} traced passes" if args.trace else ""))
    print(f"speed probe: {len(probe.samples)} samples, median {probe.median_sample() * 1e6:.1f} us, "
          f"reference {REFERENCE_S * 1e6:.1f} us")
    if args.trace:
        walls = [corrected(p, "wall") for p in traced]
        # a span's self time is scaled by its pass's mean speed correction
        scales = [w / p.wall_s for w, p in zip(walls, traced)]
        untraced = [corrected(p, "wall") for p in timed_untraced]
        metrics = tracing.layer_metrics(summaries, scales, untraced, walls)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv.gz")
        tracing.write_spans(path, spans)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = {}
        for kind in ("wall", "setup", "solve"):
            raw = [getattr(p, f"{kind}_s") for p in timed_untraced]
            fixed = [corrected(p, kind) for p in timed_untraced]
            metrics[f"{kind}_s"] = _metric(statistics.median(fixed), "s")
            print(f"  {kind}_s over {len(raw)} passes: raw median {statistics.median(raw):.4f} spread "
                  f"{spread(raw):.3f}; corrected median {statistics.median(fixed):.4f} spread {spread(fixed):.3f}")
        metrics["iterations"] = _metric(timed[0].iterations, "count")
        metrics["peak_rss_mb"] = _metric(_peak_rss_mb(), "MB")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {len(failures)}/{attempted} = {len(failures) / attempted:.4g}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in its own process, so each peak_rss_mb covers one."""
    if not _has_sources():
        return 2
    rows = {}
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return 2
        if not rows:
            print(lines[0])  # the environment line
        rows[name] = json.loads(lines[-1])
        worst = max(worst, proc.returncode)
    names = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':<44}" + "".join(f"{w:>16}" for w in rows))
    for metric in names:
        unit = rows[WORKLOAD_NAMES[0]]["metrics"][metric]["unit"]
        cells = "".join(f"{r['metrics'][metric]['value']:>16.6g}" for r in rows.values())
        print(f"{metric + ' [' + unit + ']':<44}{cells}")
    cells = "".join(f"{r['failed'] / r['attempted']:>16.4g}" for r in rows.values())
    print(f"{'failed_frac [failed/attempted]':<44}{cells}")
    return worst


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
