import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

# pytest's `pythonpath` setting puts src/ on this process's import path; tests
# that start `python -m pairprox` need it in the environment as well, so that
# an uninstalled checkout runs the whole suite
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


# the address-space cap of `capped_python`, far above what a run of the
# suite's inputs needs: an allocation past it raises MemoryError in the child
# rather than taking the host's memory
_CAP_BYTES = 3 * 2**30


@pytest.fixture
def capped_python():
    """Runs `python *args` in a child process whose address space is capped,
    on one BLAS thread, and returns the completed process."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (_CAP_BYTES, _CAP_BYTES))

    def run(*args):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, timeout=120, preexec_fn=cap, env=env
        )

    return run
