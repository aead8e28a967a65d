"""Summary statistics for benchmark samples.

A phase of a workload is timed in chunks of equal work. On a shared host
the speed of the machine itself drifts, by up to a factor of two over
minutes, as other tenants come and go. So right after each chunk (and each
set-up) the benchmark times a short fixed reference loop of small numpy
operations, the kind of work the library does, and each sample becomes
``(items, seconds, reference steps per second)``. A chunk's rate is then
reported at a nominal reference speed, ``REFERENCE_RATE``: a host twice as
slow takes twice as long for both, and the figure stays put, while a change
to the library moves only the chunk. Raw figures are kept beside them.

Load from other processes also slows single chunks, never speeds them up,
so a rate metric is the 90th percentile of the chunk rates (``FAST_LEVEL``);
the median is reported beside it. Timings also carry their sample count
and, where there are enough samples, the highest tail percentile that has
at least ten samples beyond it.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10
FAST_LEVEL = 90.0
REFERENCE_STEPS = 1000
REFERENCE_RATE = 300_000.0      # reference steps per second that reported figures assume


def reference_rate() -> float:
    """The host's speed now: steps per second of a fixed loop of small numpy operations.

    The cyclic garbage collector is off while it runs: otherwise the loop's
    allocations can trigger a collection of the garbage the timed chunk
    left behind, and the loop would measure the workload instead of the host.
    """
    a = np.full((24, 24), 0.01)
    x = np.ones((24, 1))
    keep = {}
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(REFERENCE_STEPS):
            y = np.tanh(a @ x + x)
            keep[i % 17] = (y, i)
            x = y
        return REFERENCE_STEPS / (time.perf_counter() - start)
    finally:
        gc.enable()


def at_reference_speed(seconds: float, reference: float) -> float:
    """A duration measured while the reference ran at ``reference`` steps/s, at REFERENCE_RATE."""
    return seconds * reference / REFERENCE_RATE


def percentile(values, level: float) -> float:
    """Percentile by linear interpolation between closest ranks (level in 0..100)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= level <= 100.0:
        raise ValueError(f"percentile level {level} outside 0..100")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * level / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_level(count: int) -> float | None:
    """Highest level in TAIL_LEVELS with at least MIN_BEYOND of ``count`` samples above it."""
    for level in TAIL_LEVELS:
        if count * (100.0 - level) / 100.0 >= MIN_BEYOND - 1e-9:    # 100 - 99.9 < 0.1
            return level
    return None


def rate(items: float, seconds: float) -> float:
    if seconds <= 0.0:
        raise ValueError(f"non-positive duration {seconds!r}")
    return items / seconds


def summarize_rates(samples) -> dict:
    """Fast and median chunk rate of ``(items, seconds, reference)`` samples at
    reference speed, with count, slow tail and the raw figures.

    For a rate the tail that matters is the slow side: at level L the summary
    gives the rate that (100 - L)% of chunks fall below.
    """
    if not samples:
        raise ValueError("no samples")
    raw = [rate(items, seconds) for items, seconds, _ in samples]
    rates = [rate(items, at_reference_speed(seconds, ref)) for items, seconds, ref in samples]
    out = {"fast": percentile(rates, FAST_LEVEL), "median": statistics.median(rates),
           "n": len(rates), "raw_fast": percentile(raw, FAST_LEVEL),
           "raw_median": statistics.median(raw),
           "items": sum(items for items, _, _ in samples),
           "seconds": sum(seconds for _, seconds, _ in samples), "rates": rates,
           "references": [ref for _, _, ref in samples]}
    level = tail_level(len(rates))
    if level is not None:
        out[f"slow_p{level:g}"] = percentile(rates, 100.0 - level)
    return out


def summarize_times(samples) -> dict:
    """Median of ``(seconds, reference)`` durations at reference speed, with count,
    raw median and, when possible, a high percentile."""
    if not samples:
        raise ValueError("no samples")
    values = [at_reference_speed(seconds, ref) for seconds, ref in samples]
    out = {"median": statistics.median(values), "n": len(values),
           "raw_median": statistics.median(seconds for seconds, _ in samples)}
    level = tail_level(len(values))
    if level is not None:
        out[f"p{level:g}"] = percentile(values, level)
    return out
