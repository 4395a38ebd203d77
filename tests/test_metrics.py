"""Global/local error metrics and convergence detection."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnsync.metrics import (
    SampleFrame,
    convergence_time,
    max_global_error,
    max_local_error,
    summarize,
)


def _frame(t: float, errors: dict[int, float]) -> SampleFrame:
    """A frame whose readings are t + e; the tests use errors e with
    t + e - t == e (dyadic gaps, small t), so exact comparisons hold."""
    return SampleFrame(t, {nid: t + e for nid, e in errors.items()})


# ---------------------------------------------------------------------------
# per-frame metrics


def test_max_global_error_is_spread():
    assert max_global_error(_frame(100.0, {1: 0.0, 2: 5.0, 3: -3.0})) == 8.0


def test_max_global_error_observed_peak_scale():
    # a 1157 us gap between two clocks reads back as 1157 us
    fr = _frame(0.0, {1: 0.0, 2: 1157e-6})
    assert max_global_error(fr) == pytest.approx(1157e-6, rel=1e-12)


def test_max_global_error_needs_two_nodes():
    assert max_global_error(_frame(0.0, {})) is None
    assert max_global_error(_frame(0.0, {1: 0.375})) is None


def test_max_local_error_over_edges():
    edges = [(1, 2), (2, 3)]
    fr = _frame(100.0, {1: 0.0, 2: 5.0, 3: -3.0})
    assert max_local_error(fr, edges) == 8.0
    fr2 = _frame(100.0, {1: 0.0, 2: 1.0, 3: 10.0})
    assert max_local_error(fr2, edges) == 9.0
    # local error never exceeds global error
    assert max_local_error(fr2, edges) <= max_global_error(fr2)


def test_max_local_error_skips_down_endpoints():
    edges = [(1, 2), (2, 3)]
    fr = _frame(100.0, {1: 0.0, 2: 5.0})  # node 3 not booted
    assert max_local_error(fr, edges) == 5.0
    assert max_local_error(_frame(100.0, {1: 0.0}), edges) is None


_READINGS = st.floats(min_value=-1e15, max_value=1e15)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-9, max_value=1e15),
    st.dictionaries(st.integers(min_value=0, max_value=7), _READINGS, max_size=8),
    st.lists(st.tuples(st.integers(min_value=0, max_value=7),
                       st.integers(min_value=0, max_value=7)), max_size=12),
)
def test_spreads_equal_those_of_per_node_errors(t, readings, edges):
    # the metrics subtract t inside the spread; the reference forms every
    # error v - t first, as a per-node error table would hold it
    fr = SampleFrame(t, readings)
    errors = {nid: v - t for nid, v in readings.items()}
    if len(errors) < 2:
        assert max_global_error(fr) is None
    else:
        assert max_global_error(fr) == max(errors.values()) - min(errors.values())
    local = [abs(errors[i] - errors[j]) for i, j in edges
             if i in errors and j in errors]
    assert max_local_error(fr, edges) == (max(local) if local else None)


# ---------------------------------------------------------------------------
# convergence time


def _staircase(errors: list[float], dt: float = 10.0) -> list[SampleFrame]:
    return [_frame(k * dt, {1: 0.0, 2: g}) for k, g in enumerate(errors)]


def test_convergence_time_start_of_qualifying_window():
    frames = _staircase([5.0, 3.0, 0.5, 0.375, 0.25, 0.125, 0.0625])
    # five consecutive samples below 1.0 starting at t = 20
    assert convergence_time(frames, 1.0, window=5) == 20.0


def test_convergence_window_resets_on_excursion():
    frames = _staircase([0.5, 0.5, 0.5, 2.0, 0.5, 0.5, 0.5, 0.5, 0.5])
    assert convergence_time(frames, 1.0, window=5) == 40.0


def test_convergence_window_one_is_first_crossing():
    frames = _staircase([5.0, 0.875, 5.0])
    assert convergence_time(frames, 1.0, window=1) == 10.0


def test_convergence_requires_full_window():
    frames = _staircase([0.5, 0.5, 0.5, 0.5])
    assert convergence_time(frames, 1.0, window=5) is None


def test_convergence_start_after_excludes_early_samples():
    frames = _staircase([0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125])
    assert convergence_time(frames, 1.0, window=3) == 0.0
    assert convergence_time(frames, 1.0, window=3, start_after=25.0) == 30.0


def test_convergence_run_broken_by_undefined_frames():
    frames = [
        _frame(0.0, {1: 0.0, 2: 0.125}),
        _frame(10.0, {1: 0.0}),  # single node: undefined global error
        _frame(20.0, {1: 0.0, 2: 0.125}),
        _frame(30.0, {1: 0.0, 2: 0.125}),
    ]
    assert convergence_time(frames, 1.0, window=2) == 20.0


def test_convergence_validates_inputs():
    frames = _staircase([0.125, 0.125])
    with pytest.raises(ValueError):
        convergence_time(frames, 0.0)
    with pytest.raises(ValueError):
        convergence_time(frames, 1.0, window=0)


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
    frames = _staircase(gaps)
    t_tight = convergence_time(frames, th, window=3)
    t_loose = convergence_time(frames, th + extra, window=3)
    if t_tight is not None:
        assert t_loose is not None
        assert t_loose <= t_tight


# ---------------------------------------------------------------------------
# summaries


def test_summarize_median_and_peak_over_tail():
    frames = _staircase([9.0, 9.0, 0.5, 0.25, 0.375, 0.125, 0.75])
    s = summarize(frames, 1.0, window=3)
    assert s.convergence_time_s == 20.0
    # tail gaps: 0.5, 0.25, 0.375, 0.125, 0.75 -> median 0.375, peak 0.75
    assert s.steady_state_max_global_err_s == 0.375
    assert s.peak_err_after_convergence_s == 0.75


def test_summarize_even_tail_averages_middle_pair():
    frames = _staircase([9.0, 0.125, 0.25, 0.375, 0.5])
    s = summarize(frames, 1.0, window=2)
    assert s.convergence_time_s == 10.0
    assert s.steady_state_max_global_err_s == 0.3125
    assert s.peak_err_after_convergence_s == 0.5


def test_summarize_unconverged_run_is_all_none():
    frames = _staircase([9.0, 9.0, 9.0, 9.0, 9.0, 9.0])
    s = summarize(frames, 1.0, window=3)
    assert s.convergence_time_s is None
    assert s.steady_state_max_global_err_s is None
    assert s.peak_err_after_convergence_s is None
