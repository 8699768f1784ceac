"""Summary statistics and per-process accounting for the benchmark."""

from __future__ import annotations

import math
import os
import statistics

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50, 75, 90, 95)

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def percentile(values, p):
    """Nearest-rank percentile *p* (0 < p <= 100) of *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n):
    """The highest percentile of the ladder with at least ten of *n*
    samples beyond it (the lowest rung when none has).

    A p95 over 40 polls is the mean of two samples; the rule keeps a
    reported tail from being one outlier.
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= 10:
            best = p
    return best


def tail(values):
    """``(percentile used, value)`` by :func:`tail_percentile`."""
    p = tail_percentile(len(values))
    return p, percentile(values, p)


#: Throughput is the median over this many equal slices of the measuring
#: window: one slow slice (a neighbour's burst, a checkpoint) moves the
#: mean over the whole window, but not the median of five.
SLICES = 5


def slice_rate(times, start, seconds):
    """Events per second: the window cut into equal slices, the events
    at *times* counted in each, and the median of the slices' rates."""
    width = seconds / SLICES
    counts = [0] * SLICES
    for t in times:
        index = int((t - start) / width)
        if 0 <= index < SLICES:
            counts[index] += 1
    return statistics.median(count / width for count in counts)


def cpu_seconds(pid):
    """User + system CPU seconds consumed so far by process *pid*."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # The command name may hold spaces; fields resume after ')'.
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_S


def peak_rss_mb(pid):
    """Peak resident set size of process *pid* in MB (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")
