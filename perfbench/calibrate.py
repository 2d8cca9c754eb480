"""Machine-speed probe, run in the rep's own process between its ops.

On a shared host the same rep's wall time drifts by 20% or more over
minutes as other tenants load the machine, which no run length averages
away.  The probe runs a fixed pure-Python loop (integer arithmetic, tuples,
dict updates, small sorts, bisect: the kinds of work semicubic's hot paths
do) with the cyclic GC off, so its speed does not depend on the program's
heap.  rescale() turns a time measured while the probe ran at some speed
into seconds on a machine where it runs REF_UNITS_PER_S units a second:
wall_norm_s and setup_s are rescaled this way.
"""

from __future__ import annotations

import gc
import time
from bisect import bisect_right

# A typical probe speed on the reference machine (2-core KVM Xeon, Python
# 3.11.7), where it ranged from 700 to 1350.  Only ratios matter.
REF_UNITS_PER_S = 1000.0
# How closely the program's times follow the probe's speed.  Regressing log
# time on log probe speed over reps on the reference machine gave slopes of
# 0.75 (constants workload), 0.95 (crosscheck) and 0.5 (set-up spawns); with
# 0.75 the run-to-run spread of both times was lowest.
ELASTICITY = 0.75
PROBE_SHARE = 0.5      # probe time as a share of the op just before it
PROBE_MIN_S = 0.1
PROBE_MAX_S = 1.0


def probe_seconds(op_wall_s: float) -> float:
    """How long to probe after an op that took op_wall_s."""
    return min(PROBE_MAX_S, max(PROBE_MIN_S, PROBE_SHARE * op_wall_s))


def rescale(seconds: float, units_per_s: float) -> float:
    """A time measured at the given probe speed, in reference seconds."""
    return seconds * (units_per_s / REF_UNITS_PER_S) ** ELASTICITY


def _unit() -> int:
    acc = 0
    counts: dict = {}
    items = []
    for i in range(1, 1500):
        j = (i * 2654435761) % 1000003
        counts[j & 255] = counts.get(j & 255, 0) + 1
        items.append((j, i))
        if len(items) == 32:
            items.sort()
            acc += bisect_right(items, (j, 0))
            items = []
        acc += (j * j * j) // 7 % 13
    return acc


def probe(seconds: float) -> tuple:
    """Run whole units for about `seconds`; return (units, elapsed seconds)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        units = 0
        t0 = time.perf_counter()
        while True:
            _unit()
            units += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                return units, elapsed
    finally:
        if enabled:
            gc.enable()
