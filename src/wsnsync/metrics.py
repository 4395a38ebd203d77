"""Error metrics over simulation traces.

A trace is a sequence of sample times and a (samples x nodes) float64 array
of logical clock readings (seconds), one row per sample, NaN where a node
has not booted yet. A node's error is its reading minus true time,
e_i = v_i - t, computed with that one subtraction wherever an error is read.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def max_global_error(time_s: float, readings: np.ndarray) -> float | None:
    """Spread between the fastest and slowest clock in one row of readings,
    max_i e_i - min_i e_i.

    Rounding v - t is monotone in v, so max(v) - t is exactly the largest
    error. None when fewer than two nodes are up (no pair to compare).
    """
    up = [v for v in readings.tolist() if v == v]  # NaN: not up yet
    if len(up) < 2:
        return None
    return (max(up) - time_s) - (min(up) - time_s)


def max_local_error(
    time_s: float, readings: np.ndarray, edges: Iterable[tuple[int, int]]
) -> float | None:
    """Largest |e_i - e_j| over edges (pairs of column indices) whose both
    endpoints are up."""
    worst: float | None = None
    vals = readings.tolist()
    for i, j in edges:
        vi, vj = vals[i], vals[j]
        if vi == vi and vj == vj:  # NaN: not up
            d = abs((vi - time_s) - (vj - time_s))
            if worst is None or d > worst:
                worst = d
    return worst


def convergence_time(
    times_s: Sequence[float],
    readings: np.ndarray,
    threshold_s: float,
    window: int = 5,
    *,
    start_after: float = 0.0,
) -> float | None:
    """Earliest sample time from which max_global_error stays below
    threshold_s for ``window`` consecutive samples.

    Samples at t < start_after (e.g. before the last node boots) are
    excluded. Samples with an undefined global error (fewer than two nodes)
    break any run in progress. Returns None when no qualifying window
    exists.
    """
    if threshold_s <= 0:
        raise ValueError("threshold_s must be positive")
    if window < 1:
        raise ValueError("window must be >= 1")
    run_start: float | None = None
    run_len = 0
    for t, row in zip(times_s, readings):
        if t < start_after:
            continue
        g = max_global_error(t, row)
        if g is not None and g < threshold_s:
            if run_len == 0:
                run_start = t
            run_len += 1
            if run_len >= window:
                return run_start
        else:
            run_start = None
            run_len = 0
    return None


@dataclass(frozen=True)
class TraceSummary:
    """Per-run summary statistics.

    steady_state_max_global_err_s is the median of max_global_error over the
    samples from the convergence instant onward (robust to isolated drift
    steps); peak_err_after_convergence_s is their maximum. Both are None for
    runs that never converge.
    """

    convergence_time_s: float | None
    steady_state_max_global_err_s: float | None
    peak_err_after_convergence_s: float | None


def summarize(
    times_s: Sequence[float],
    readings: np.ndarray,
    threshold_s: float,
    window: int = 5,
    *,
    start_after: float = 0.0,
) -> TraceSummary:
    t_conv = convergence_time(times_s, readings, threshold_s, window,
                              start_after=start_after)
    if t_conv is None:
        return TraceSummary(None, None, None)
    tail = [
        g
        for t, row in zip(times_s, readings)
        if t >= t_conv and (g := max_global_error(t, row)) is not None
    ]
    if not tail:
        return TraceSummary(t_conv, None, None)
    return TraceSummary(t_conv, statistics.median(tail), max(tail))
