import os
from pathlib import Path

# pytest's `pythonpath` setting puts src/ on this process's import path; tests
# that start `python -m pairprox` need it in the environment as well, so that
# an uninstalled checkout runs the whole suite
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
