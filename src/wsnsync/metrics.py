"""Error metrics over simulation traces.

A trace is a time-ordered sequence of SampleFrame objects, each holding the
logical clock readings (seconds) of the nodes booted at that sample instant.
A node's error is its reading minus true time, e_i = v_i - t, computed with
that one subtraction wherever an error is read.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class SampleFrame:
    """Logical clock readings (node id -> seconds) of the nodes up at
    true time time_s."""

    time_s: float
    logical_s: dict[int, float]


def max_global_error(frame: SampleFrame) -> float | None:
    """Spread between the fastest and slowest clock, max_i e_i - min_i e_i.

    Rounding v - t is monotone in v, so max(v) - t is exactly the largest
    error. None when fewer than two nodes are up (no pair to compare).
    """
    vals = frame.logical_s.values()
    if len(vals) < 2:
        return None
    t = frame.time_s
    return (max(vals) - t) - (min(vals) - t)


def max_local_error(
    frame: SampleFrame, edges: Iterable[tuple[int, int]]
) -> float | None:
    """Largest |e_i - e_j| over edges whose both endpoints are up."""
    worst: float | None = None
    t = frame.time_s
    vals = frame.logical_s
    for i, j in edges:
        if i in vals and j in vals:
            d = abs((vals[i] - t) - (vals[j] - t))
            if worst is None or d > worst:
                worst = d
    return worst


def convergence_time(
    frames: Sequence[SampleFrame],
    threshold_s: float,
    window: int = 5,
    *,
    start_after: float = 0.0,
) -> float | None:
    """Earliest sample time from which max_global_error stays below
    threshold_s for ``window`` consecutive samples.

    Samples at t < start_after (e.g. before the last node boots) are
    excluded. Frames with an undefined global error (fewer than two nodes)
    break any run in progress. Returns None when no qualifying window
    exists.
    """
    if threshold_s <= 0:
        raise ValueError("threshold_s must be positive")
    if window < 1:
        raise ValueError("window must be >= 1")
    run_start: float | None = None
    run_len = 0
    for fr in frames:
        if fr.time_s < start_after:
            continue
        g = max_global_error(fr)
        if g is not None and g < threshold_s:
            if run_len == 0:
                run_start = fr.time_s
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
    frames: Sequence[SampleFrame],
    threshold_s: float,
    window: int = 5,
    *,
    start_after: float = 0.0,
) -> TraceSummary:
    t_conv = convergence_time(frames, threshold_s, window, start_after=start_after)
    if t_conv is None:
        return TraceSummary(None, None, None)
    tail = [
        g
        for fr in frames
        if fr.time_s >= t_conv and (g := max_global_error(fr)) is not None
    ]
    if not tail:
        return TraceSummary(t_conv, None, None)
    return TraceSummary(t_conv, statistics.median(tail), max(tail))
