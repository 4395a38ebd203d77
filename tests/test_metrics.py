"""Global/local error metrics and convergence detection."""
from __future__ import annotations

import dataclasses
import math
import statistics
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsnsync.metrics import (
    convergence_time,
    max_global_error,
    max_local_error,
    median,
    TraceSummary,
    summarize,
)


WIDTH = 8  # columns of a test row; a column missing from a dict reads NaN


def _readings(values: dict[int, float]) -> np.ndarray:
    """One row of readings: column -> value, NaN (not up) elsewhere."""
    row = np.full(WIDTH, math.nan)
    for col, v in values.items():
        row[col] = v
    return row


def _frame(t: float, errors: dict[int, float]) -> tuple[float, np.ndarray]:
    """A sample time and its row of readings t + e; the tests use errors e
    with t + e - t == e (dyadic gaps, small t), so exact comparisons hold."""
    return t, _readings({col: t + e for col, e in errors.items()})


def _frames(*frames: tuple[float, np.ndarray]) -> tuple[list[float], np.ndarray]:
    """Sample times and the (samples x WIDTH) readings array of frames."""
    return [t for t, _ in frames], np.array([row for _, row in frames])


def _defined(series: np.ndarray) -> list[float | None]:
    """A per-sample series as Python floats, None where it is NaN."""
    return [None if v != v else v for v in series.tolist()]


# ---------------------------------------------------------------------------
# per-sample metrics


def test_max_global_error_is_spread():
    frames = _frames(_frame(100.0, {1: 0.0, 2: 5.0, 3: -3.0}),
                     _frame(110.0, {1: 0.0, 2: 0.5}))
    assert _defined(max_global_error(*frames)) == [8.0, 0.5]


def test_max_global_error_observed_peak_scale():
    # a 1157 us gap between two clocks reads back as 1157 us
    frames = _frames(_frame(0.0, {1: 0.0, 2: 1157e-6}))
    assert max_global_error(*frames)[0] == pytest.approx(1157e-6, rel=1e-12)


def test_max_global_error_needs_two_nodes():
    frames = _frames(_frame(0.0, {}), _frame(10.0, {1: 0.375}),
                     _frame(20.0, {1: 0.0, 2: 0.25}))
    assert _defined(max_global_error(*frames)) == [None, None, 0.25]
    assert _defined(max_global_error([0.0], np.empty((1, 0)))) == [None]


def test_max_local_error_over_edges():
    edges = [(1, 2), (2, 3)]
    frames = _frames(_frame(100.0, {1: 0.0, 2: 5.0, 3: -3.0}),
                     _frame(110.0, {1: 0.0, 2: 1.0, 3: 10.0}))
    assert _defined(max_local_error(*frames, edges)) == [8.0, 9.0]
    # local error never exceeds global error
    assert np.all(max_local_error(*frames, edges) <= max_global_error(*frames))


def test_max_local_error_skips_down_endpoints():
    edges = [(1, 2), (2, 3)]
    frames = _frames(_frame(100.0, {1: 0.0, 2: 5.0}),  # node 3 not booted
                     _frame(110.0, {1: 0.0}))
    assert _defined(max_local_error(*frames, edges)) == [5.0, None]
    assert _defined(max_local_error(*frames, [])) == [None, None]


_READINGS = st.floats(min_value=-1e15, max_value=1e15)
_COLUMNS = st.integers(min_value=0, max_value=WIDTH - 1)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.floats(min_value=1e-9, max_value=1e15),
                       st.dictionaries(_COLUMNS, _READINGS, max_size=WIDTH)),
             min_size=1, max_size=6),
    st.lists(st.tuples(_COLUMNS, _COLUMNS), max_size=12),
)
@example(  # rows with 0, 1 and 3 nodes up
    [(10.0, {}), (20.0, {2: 7.5}), (30.0, {0: 1.0, 2: -4.0, 5: 1e15})],
    [(0, 2), (2, 5), (1, 2)],
)
def test_spreads_equal_those_of_per_node_errors(frames, edges):
    # the metrics subtract t inside the spread; the reference forms every
    # error v - t first, row by row, as a per-node error table would hold it
    times = [t for t, _ in frames]
    readings = np.array([_readings(values) for _, values in frames])
    want_global, want_local = [], []
    for t, values in frames:
        errors = {col: v - t for col, v in values.items()}
        want_global.append(max(errors.values()) - min(errors.values())
                           if len(errors) >= 2 else None)
        local = [abs(errors[i] - errors[j]) for i, j in edges
                 if i in errors and j in errors]
        want_local.append(max(local) if local else None)
    assert _defined(max_global_error(times, readings)) == want_global
    assert _defined(max_local_error(times, readings, edges)) == want_local


_MEDIAN_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -1.5]),
                           st.floats(allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(_MEDIAN_VALUES, min_size=1, max_size=9))
@example([0.0, -0.0])
@example([-0.0, 0.0, -0.0])
def test_median_is_statistics_median_bit_for_bit(values):
    # odd and even lengths from every draw; duplicates and signed zeros
    # come from the sampled values
    for vals in (values, values[1:] or values * 2):
        assert struct.pack("<d", median(vals)) == struct.pack("<d", statistics.median(vals))


# ---------------------------------------------------------------------------
# convergence time


def _series(errors: list[float], dt: float = 10.0) -> tuple[list[float], np.ndarray]:
    """Sample times k * dt and a per-sample error series."""
    return [k * dt for k in range(len(errors))], np.array(errors)


def test_convergence_time_start_of_qualifying_window():
    series = _series([5.0, 3.0, 0.5, 0.375, 0.25, 0.125, 0.0625])
    # five consecutive samples below 1.0 starting at t = 20
    assert convergence_time(*series, 1.0, window=5) == 20.0


def test_convergence_window_resets_on_excursion():
    series = _series([0.5, 0.5, 0.5, 2.0, 0.5, 0.5, 0.5, 0.5, 0.5])
    assert convergence_time(*series, 1.0, window=5) == 40.0


def test_convergence_window_one_is_first_crossing():
    series = _series([5.0, 0.875, 5.0])
    assert convergence_time(*series, 1.0, window=1) == 10.0


def test_convergence_requires_full_window():
    series = _series([0.5, 0.5, 0.5, 0.5])
    assert convergence_time(*series, 1.0, window=5) is None
    assert convergence_time(*_series([]), 1.0, window=1) is None


def test_convergence_start_after_excludes_early_samples():
    series = _series([0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125])
    assert convergence_time(*series, 1.0, window=3) == 0.0
    assert convergence_time(*series, 1.0, window=3, start_after=25.0) == 30.0


def test_convergence_run_broken_by_undefined_frames():
    times, readings = _frames(
        _frame(0.0, {1: 0.0, 2: 0.125}),
        _frame(10.0, {1: 0.0}),  # single node: undefined global error
        _frame(20.0, {1: 0.0, 2: 0.125}),
        _frame(30.0, {1: 0.0, 2: 0.125}),
    )
    errors = max_global_error(times, readings)
    assert convergence_time(times, errors, 1.0, window=2) == 20.0


def test_convergence_validates_inputs():
    series = _series([0.125, 0.125])
    with pytest.raises(ValueError):
        convergence_time(*series, 0.0, window=5)
    # a NaN threshold once read as "never converges", an infinite one as
    # converged at the first sample
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^threshold_s must be finite and positive, "
                                             f"got {bad}$"):
            convergence_time(*series, bad, window=5)
    with pytest.raises(ValueError):
        convergence_time(*series, 1.0, window=0)
    with pytest.raises(TypeError):  # summarize declares the one default window
        convergence_time(*series, 1.0)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=6,
             max_size=40),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.1, max_value=4.9),
)
def test_convergence_monotone_in_threshold(gaps: list[float], th: float,
                                           extra: float):
    # loosening the threshold can only move the convergence instant earlier
    series = _series(gaps)
    t_tight = convergence_time(*series, th, window=3)
    t_loose = convergence_time(*series, th + extra, window=3)
    if t_tight is not None:
        assert t_loose is not None
        assert t_loose <= t_tight


# ---------------------------------------------------------------------------
# summaries


def _staircase(errors: list[float], dt: float = 10.0):
    return _frames(*(_frame(k * dt, {1: 0.0, 2: g}) for k, g in enumerate(errors)))


def test_summarize_median_and_peak_over_tail():
    frames = _staircase([9.0, 9.0, 0.5, 0.25, 0.375, 0.125, 0.75])
    s = summarize(*frames, 1.0, window=3)
    assert s.convergence_time_s == 20.0
    # tail gaps: 0.5, 0.25, 0.375, 0.125, 0.75 -> median 0.375, peak 0.75
    assert s.steady_state_max_global_err_s == 0.375
    assert s.peak_err_after_convergence_s == 0.75
    # summary.csv writes repr(value); repr(np.float64(0.75)) is 'np.float64(0.75)'
    assert all(type(v) is float for v in dataclasses.astuple(s))


def test_summarize_even_tail_averages_middle_pair():
    frames = _staircase([9.0, 0.125, 0.25, 0.375, 0.5])
    s = summarize(*frames, 1.0, window=2)
    assert s.convergence_time_s == 10.0
    assert s.steady_state_max_global_err_s == 0.3125
    assert s.peak_err_after_convergence_s == 0.5


def test_summarize_tail_skips_undefined_samples():
    times, readings = _frames(
        *(_frame(k * 10.0, {1: 0.0, 2: g}) for k, g in enumerate([9.0, 0.25, 0.5])),
        _frame(30.0, {1: 0.0}),  # single node: undefined global error
        _frame(40.0, {1: 0.0, 2: 0.75}),
    )
    s = summarize(times, readings, 1.0, window=2)
    assert s == TraceSummary(10.0, 0.5, 0.75)


def test_summarize_unconverged_run_is_all_none():
    frames = _staircase([9.0, 9.0, 9.0, 9.0, 9.0, 9.0])
    s = summarize(*frames, 1.0, window=3)
    assert s.convergence_time_s is None
    assert s.steady_state_max_global_err_s is None
    assert s.peak_err_after_convergence_s is None
