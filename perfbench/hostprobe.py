"""The host probe: a fixed piece of pure-Python work whose time gives the
host's speed at that moment.  It uses nothing from ``zerocontrol``, so no
change to the program moves it."""

import time

LOOPS = 100_000  # about 10 ms on a 2-vCPU Xeon VM


def probe() -> float:
    """Seconds the fixed loop takes now."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    acc = 0
    for i in range(LOOPS):
        acc += i * i % 7
    return time.clock_gettime(time.CLOCK_MONOTONIC) - start
