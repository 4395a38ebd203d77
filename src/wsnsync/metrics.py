"""Error metrics over simulation traces.

A trace is a sequence of ascending sample times and a (samples x nodes)
float64 array of logical clock readings (seconds), one row per sample, NaN
where a node has not booted yet. A node's error is its reading minus true
time, e_i = v_i - t, computed with that one subtraction wherever an error is
read. Each metric reduces the whole array to one value per sample, NaN where
it is undefined; fmax/fmin skip NaN cells without a warning.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ranges import require


def max_global_error(times_s: Sequence[float], readings: np.ndarray) -> np.ndarray:
    """Per sample, the spread between the fastest and slowest clock that is
    up, max_i e_i - min_i e_i.

    Rounding v - t is monotone in v, so max(v) - t is exactly the largest
    error. NaN where fewer than two nodes are up (no pair to compare).
    """
    t = np.asarray(times_s, dtype=float)
    spread = ((np.fmax.reduce(readings, axis=1, initial=np.nan) - t)
              - (np.fmin.reduce(readings, axis=1, initial=np.nan) - t))
    spread[np.count_nonzero(readings == readings, axis=1) < 2] = np.nan
    return spread


def max_local_error(
    times_s: Sequence[float], readings: np.ndarray, edges: Iterable[tuple[int, int]]
) -> np.ndarray:
    """Per sample, the largest |e_i - e_j| over edges (pairs of column
    indices) whose two ends are both up; NaN where no such edge exists."""
    t = np.asarray(times_s, dtype=float)[:, None]
    i, j = np.array(list(edges), dtype=np.intp).reshape(-1, 2).T
    gaps = np.abs((readings[:, i] - t) - (readings[:, j] - t))
    return np.fmax.reduce(gaps, axis=1, initial=np.nan)


def convergence_time(
    times_s: Sequence[float],
    errors_s: np.ndarray,
    threshold_s: float,
    window: int,
    *,
    start_after: float = 0.0,
) -> float | None:
    """Earliest sample time from which the error series ``errors_s`` (one
    value per sample, e.g. max_global_error) stays below threshold_s for
    ``window`` consecutive samples.

    Samples at t < start_after (e.g. before the last node boots) are
    excluded. An undefined (NaN) error breaks any run in progress. Returns
    None when no qualifying window exists.
    """
    require("positive", threshold_s=threshold_s)
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    below = (np.asarray(times_s) >= start_after) & (errors_s < threshold_s)
    counts = np.concatenate(([0], np.cumsum(below)))
    starts = np.flatnonzero(counts[window:] - counts[:-window] == window)
    return times_s[starts[0]] if starts.size else None


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


def median(values: Sequence[float]) -> float:
    """The middle of the sorted nonempty values, or the mean of the two
    middle ones: statistics.median's arithmetic, without its import."""
    s = sorted(values)
    i = len(s) // 2
    return s[i] if len(s) % 2 else (s[i - 1] + s[i]) / 2


def summarize(
    times_s: Sequence[float],
    readings: np.ndarray,
    threshold_s: float,
    window: int = 5,
    *,
    start_after: float = 0.0,
) -> TraceSummary:
    errors = max_global_error(times_s, readings)
    t_conv = convergence_time(times_s, errors, threshold_s, window,
                              start_after=start_after)
    if t_conv is None:
        return TraceSummary(None, None, None)
    # nonempty: the converged window holds `window` defined samples
    tail = errors[np.asarray(times_s) >= t_conv]
    tail = tail[tail == tail].tolist()  # NaN: undefined
    return TraceSummary(t_conv, median(tail), max(tail))
