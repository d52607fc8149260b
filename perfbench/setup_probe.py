"""Time the benchmark's set-up in a fresh interpreter and print it.

Prints the set-up time and then the time of the hostspeed reference taken
right after it.  ``run.py`` starts this script several times, scales each
set-up time to the nominal host speed and reports the median as
``setup_s``.  Interpreter start-up is not included.

    python3 perfbench/setup_probe.py
"""

import time

T0 = time.perf_counter()

import common  # noqa: E402

common.pin_threads()
common.set_up()
ELAPSED = time.perf_counter() - T0

import hostspeed  # noqa: E402  - imported after timing; it is no part of set-up

print(repr(ELAPSED), repr(hostspeed.reference_seconds(repeats=15)))
