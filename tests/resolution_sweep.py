"""Examples 2 and 3 across resolutions: one line per run.

Runs the builtin scenarios example2 (time warp; cole yes, ah no) and
example3 (half turn; cole no) through ``cli.run_scenario`` at n = 2000,
2500, ..., 20000 and at the odd n 2001, 4001, 8001, 12001, 16001 and 20001,
and prints each run's exit code (0: every answer matches ``expect``), its
observed answers, the ``cole`` certificate kind and the wall time.  A run
that raises prints the exception instead.  The last line counts the runs
that matched, and the script exits 1 unless every run matched.  Not
collected by pytest (the file name has no ``test_``
prefix); run it from the repository root:

    PYTHONPATH=src python tests/resolution_sweep.py [n ...]
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

from rootlift import cli, scenarios

RESOLUTIONS = sorted(set(range(2000, 20001, 500)) | {2001, 4001, 8001, 12001, 16001, 20001})


def sweep(resolutions) -> int:
    matched = runs = 0
    for n in resolutions:
        for name in ("example2", "example3"):
            runs += 1
            with tempfile.TemporaryDirectory() as out:
                t0 = time.perf_counter()
                try:
                    code = cli.run_scenario(scenarios.builtin_scenario(name, n), out)
                except Exception as exc:  # noqa: BLE001 - a failed run is reported, not fatal
                    print(f"{name} n={n} error {type(exc).__name__}: {exc}", flush=True)
                    continue
                seconds = time.perf_counter() - t0
                with open(os.path.join(out, "verdict.json"), encoding="utf-8") as fh:
                    doc = json.load(fh)
            cole = doc["analyses"]["cole"]
            observed = doc["expectations"]["observed"]
            answers = " ".join(f"{k}={observed[k]}" for k in ("cole", "ah") if k in observed)
            matched += code == 0
            print(f"{name} n={n} exit={code} {answers} "
                  f"cole_certificate={cole.get('certificate_kind')} {seconds:.2f}s", flush=True)
    print(f"{matched} of {runs} runs matched expect")
    return matched == runs


if __name__ == "__main__":
    sys.exit(0 if sweep([int(a) for a in sys.argv[1:]] or RESOLUTIONS) else 1)
