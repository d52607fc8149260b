"""Paths, launch environment and set-up shared by the benchmark's scripts."""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent      # the checkout
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"                  # scratch output, git-ignored

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# small, yet it reaches the lazily imported schema validator, the quotient
# probes and the degree-5 entry of the matcher's permutation cache
WARMUP = ("example2", 240)


class MissingProgram(RuntimeError):
    """The checkout holds no rootlift sources to benchmark."""


def pin_threads():
    """One BLAS/OpenMP thread: the benchmark is one single-threaded caller.
    Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import rootlift from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "rootlift" / "__init__.py").is_file():
        raise MissingProgram(f"no rootlift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jsonschema  # noqa: F401  - imported lazily by cli.validate_config
    import scipy.optimize  # noqa: F401  - imported lazily by the LSAP matcher

    import rootlift
    from rootlift import cli, scenarios

    package = Path(rootlift.__file__).resolve().parent
    if package != (SRC / "rootlift").resolve():
        raise MissingProgram(f"imported rootlift from {package}, not from {SRC}")
    return cli, scenarios


def set_up():
    """Import the program and run one small warm-up operation."""
    cli, scenarios = import_program()
    name, samples = WARMUP
    out = RUN_DIR / f"warmup-{os.getpid()}"
    try:
        code = cli.run_scenario(scenarios.builtin_scenario(name, samples), str(out))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if code != 0:
        raise RuntimeError(f"warm-up {name}@{samples} exited {code}")
    return cli, scenarios
