"""The names the benchmark under perfbench/ reaches into.

perfbench/tracing.py patches pairprox's layer functions by name when a
traced pass starts, and the kkt_table workload's warm-up calls
`cli.run_bench(spec, workers=1)`. A rename in the library would otherwise
first show up as a failing benchmark run; these tests make it a tier-1
failure. perfbench/ is only imported here, never written to.
"""
import inspect
import os
import sys

import pytest

from pairprox import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, PERFBENCH)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import tracing
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(PERFBENCH)
    return tracing


def test_every_patched_name_exists(tracing):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing._FUNCTIONS + tracing._METHODS
        if attr not in vars(owner)
    ]
    assert missing == []


def test_tracer_installs_and_restores(tracing):
    hooks = tracing._FUNCTIONS + tracing._METHODS
    originals = [vars(owner)[attr] for owner, attr, _ in hooks]
    with tracing.Tracer():
        assert all(vars(owner)[attr] is not fn for (owner, attr, _), fn in zip(hooks, originals))
    assert all(vars(owner)[attr] is fn for (owner, attr, _), fn in zip(hooks, originals))


def test_run_bench_accepts_workers():
    assert "workers" in inspect.signature(cli.run_bench).parameters
    records = cli.run_bench(cli.BenchSpec(sizes=(4,), trials=1, tolerance=1e-6), workers=1)
    assert [(r.n, r.trial, r.status) for r in records] == [(4, 0, "Converged")]
