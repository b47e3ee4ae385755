"""A fixed pure-Python kernel that gauges the host's current speed.

The 2-CPU host this benchmark was tuned on runs the same Python code up to
1.8x slower for seconds to minutes at a time, whatever the measured process
does. The benchmark times every op between two runs of ``kernel`` and
scales the op by REFERENCE_MS / (their mean time), so timings read as if
the host ran at its fast speed. The kernel shares no code with spdcpol: a
slower program is slower against it too.
"""

import math
import time

REFERENCE_MS = 0.25   # the kernel's time on that host in its fast state


def kernel() -> str:
    total = 0.0
    for i in range(1000):
        x = i * 1e-3
        total += math.sin(x) * math.cos(x) / (1.0 + x)
    return ",".join(format(total * k, ".17g") for k in range(100))


def seconds() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two kernel runs to host speed."""
    return REFERENCE_MS * 2e-3 / (before + after)
