"""Hardware oscillator and logical clock behavior."""
from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsnsync import clocks
from wsnsync.clocks import (
    ClockRegressionError,
    HardwareClock,
    LogicalClock,
    OscillatorParams,
)


def _gen(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


# ---------------------------------------------------------------------------
# OscillatorParams validation


def test_params_reject_nonpositive_nominal():
    with pytest.raises(ValueError):
        OscillatorParams(nominal_hz=0.0, max_drift_hz=0.0, resample_interval_s=30.0)
    with pytest.raises(ValueError):
        OscillatorParams(nominal_hz=-1e6, max_drift_hz=0.0, resample_interval_s=30.0)


def test_params_reject_bad_drift_bound():
    with pytest.raises(ValueError):
        OscillatorParams(nominal_hz=1e6, max_drift_hz=-1.0, resample_interval_s=30.0)
    with pytest.raises(ValueError):
        OscillatorParams(nominal_hz=1e6, max_drift_hz=1e6, resample_interval_s=30.0)


def test_params_reject_nonpositive_resample():
    with pytest.raises(ValueError):
        OscillatorParams(nominal_hz=1e6, max_drift_hz=0.0, resample_interval_s=0.0)


def test_params_have_no_drift_or_segment_default():
    # results depend on both, so every caller states them
    with pytest.raises(TypeError):
        OscillatorParams(1e6)
    with pytest.raises(TypeError):
        OscillatorParams(1e6, 25.0)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_params_reject_non_finite(bad):
    with pytest.raises(ValueError):
        OscillatorParams(nominal_hz=bad, max_drift_hz=0.0, resample_interval_s=30.0)
    with pytest.raises(ValueError):
        OscillatorParams(nominal_hz=1e6, max_drift_hz=bad, resample_interval_s=30.0)
    with pytest.raises(ValueError):
        OscillatorParams(nominal_hz=1e6, max_drift_hz=0.0, resample_interval_s=bad)


# ---------------------------------------------------------------------------
# HardwareClock


def _segment_drift(hw: HardwareClock, now: float, dt: float) -> float:
    """Drift in Hz over [now, now + dt], which must lie in one segment."""
    before = hw.read_ticks()
    hw.advance(now + dt)
    return (hw.read_ticks() - before) / dt - hw.params.nominal_hz


def _assert_same_drift(a: HardwareClock, b: HardwareClock, now: float, dt: float):
    # both clocks stand at ``now``; the drift of the segment holding it
    assert _segment_drift(a, now, dt) == pytest.approx(_segment_drift(b, now, dt),
                                                       rel=0, abs=1e-6)


def test_zero_drift_advance_is_exact():
    hw = HardwareClock(OscillatorParams(nominal_hz=1e6, max_drift_hz=0.0,
                                        resample_interval_s=30.0), _gen())
    hw.advance(2.5)
    assert hw.read_ticks() == 2.5e6
    hw.advance(2.5)  # the clock stands at 2.5 s
    with pytest.raises(ClockRegressionError):
        hw.advance(2.4999)


def test_initial_ticks_offset_carried():
    hw = HardwareClock(OscillatorParams(nominal_hz=1e6, max_drift_hz=0.0,
                                        resample_interval_s=30.0), _gen(), initial_ticks=123.0)
    assert hw.read_ticks() == 123.0
    hw.advance(1.0)
    assert hw.read_ticks() == 123.0 + 1e6


def test_negative_initial_ticks_rejected():
    with pytest.raises(ValueError):
        HardwareClock(OscillatorParams(nominal_hz=1e6, max_drift_hz=0.0,
                                       resample_interval_s=30.0), _gen(), initial_ticks=-1.0)


@pytest.mark.parametrize("field,bad", [
    ("start_time", math.nan), ("start_time", math.inf), ("start_time", -math.inf),
    ("initial_ticks", math.nan), ("initial_ticks", math.inf),
])
def test_non_finite_start_rejected(field: str, bad: float):
    with pytest.raises(ValueError, match=field):
        HardwareClock(OscillatorParams(nominal_hz=1e6, max_drift_hz=0.0,
                                       resample_interval_s=30.0), _gen(), **{field: bad})


def test_nan_advance_raises_and_leaves_the_clock_usable():
    hw = HardwareClock(OscillatorParams(nominal_hz=1e6, max_drift_hz=0.0,
                                        resample_interval_s=30.0), _gen(), start_time=5.0)
    with pytest.raises(ClockRegressionError):
        hw.advance(math.nan)
    hw.advance(6.0)
    assert hw.read_ticks() == 1e6


_FAR_ADVANCE = """
import math
import numpy as np
from wsnsync.clocks import HardwareClock, OscillatorParams

def clock():
    return HardwareClock(OscillatorParams(nominal_hz=1e6, max_drift_hz=1.0,
                                          resample_interval_s=30.0),
                         np.random.default_rng(0))

untouched = clock()
untouched.advance(45.0)
for far in (math.inf, 1e300):
    hw = clock()
    try:
        hw.advance(far)
    except ValueError:
        pass
    else:
        raise SystemExit(f"advance({far}) returned")
    hw.advance(45.0)  # the failed call changed nothing, drift draws included
    print(hw.read_ticks() == untouched.read_ticks())
"""


def test_advance_too_far_to_count_segments_raises():
    # one loop pass per drift segment: these never ended, so run them in a
    # child that a timeout can stop
    src = str(Path(clocks.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _FAR_ADVANCE], env=env,
                          capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (0, "True\nTrue\n"), proc.stderr


def test_advance_refuses_segments_it_cannot_count_in_process():
    # ulp(1e17) is 16 s, past twice a 1 s segment: refused on the first
    # boundary, naming the segment length, with the clock left as it was
    params = OscillatorParams(nominal_hz=1e6, max_drift_hz=1.0, resample_interval_s=1.0)
    hw, twin = HardwareClock(params, _gen(4)), HardwareClock(params, _gen(4))
    ticks = hw.advance(2.5)
    twin.advance(2.5)
    with pytest.raises(ValueError, match=r"^advance to 1e\+17: drift segments of 1\.0 s "
                                         r"cannot be counted that far$"):
        hw.advance(1e17)
    assert hw.read_ticks() == ticks
    assert hw.advance(3.5) == twin.advance(3.5)  # same time, drift and segment


def test_advance_backwards_raises():
    hw = HardwareClock(OscillatorParams(nominal_hz=1e6, max_drift_hz=0.0,
                                        resample_interval_s=30.0), _gen(), start_time=5.0)
    with pytest.raises(ClockRegressionError):
        hw.advance(4.999)


def test_instantaneous_rate_within_drift_bound():
    params = OscillatorParams(nominal_hz=1e6, max_drift_hz=100.0,
                              resample_interval_s=1.0)
    hw = HardwareClock(params, _gen(3))
    t = 0.0
    for _ in range(200):
        before = hw.read_ticks()
        t += 1.0
        hw.advance(t)
        seg = hw.read_ticks() - before
        assert 1e6 - 100.0 <= seg <= 1e6 + 100.0


def test_drift_segment_statistics_match_uniform_law():
    # Per-segment drift is U(-f_max, f_max): mean 0, variance f_max^2 / 3.
    fmax = 100.0
    params = OscillatorParams(nominal_hz=1e6, max_drift_hz=fmax,
                              resample_interval_s=1.0)
    hw = HardwareClock(params, _gen(11))
    ticks = [hw.read_ticks()]
    for k in range(1, 20002):
        hw.advance(float(k))
        ticks.append(hw.read_ticks())
    # each 1 s step spans one segment: f + drift ticks, up to rounding
    arr = np.diff(ticks) - 1e6
    assert np.max(np.abs(arr)) <= fmax + 1e-4
    assert abs(arr.mean()) < 5.0 * fmax / math.sqrt(3.0 * len(arr))
    assert arr.var() == pytest.approx(fmax * fmax / 3.0, rel=0.05)


def test_same_seed_same_trajectory():
    params = OscillatorParams(nominal_hz=1e6, max_drift_hz=50.0,
                              resample_interval_s=2.0)
    a = HardwareClock(params, _gen(7))
    b = HardwareClock(params, _gen(7))
    for t in (0.5, 3.0, 3.1, 10.0, 42.25):
        a.advance(t)
        b.advance(t)
        assert a.read_ticks() == b.read_ticks()
    _assert_same_drift(a, b, 42.25, 0.5)


def test_partition_independent_on_segment_boundaries():
    # Splitting an advance exactly at resample boundaries reproduces the
    # single-call tick count bit for bit.
    params = OscillatorParams(nominal_hz=1e6, max_drift_hz=100.0,
                              resample_interval_s=3.0)
    a = HardwareClock(params, _gen(5))
    b = HardwareClock(params, _gen(5))
    a.advance(30.0)
    for t in (3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0, 24.0, 27.0, 30.0):
        b.advance(t)
    assert a.read_ticks() == b.read_ticks()
    _assert_same_drift(a, b, 30.0, 1.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.001, max_value=99.999), min_size=1,
                max_size=20))
def test_partition_independent_anywhere(splits: list[float]):
    # Arbitrary mid-segment splits hit the same drift draws; tick counts
    # agree up to float summation reordering.
    params = OscillatorParams(nominal_hz=1e6, max_drift_hz=100.0,
                              resample_interval_s=7.0)
    a = HardwareClock(params, _gen(9))
    b = HardwareClock(params, _gen(9))
    a.advance(100.0)
    for t in sorted(splits):
        b.advance(t)
    b.advance(100.0)
    assert b.read_ticks() == pytest.approx(a.read_ticks(), rel=1e-12)
    _assert_same_drift(a, b, 100.0, 4.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=2,
                max_size=30))
def test_ticks_never_decrease(times: list[float]):
    params = OscillatorParams(nominal_hz=1e6, max_drift_hz=100.0,
                              resample_interval_s=5.0)
    hw = HardwareClock(params, _gen(1))
    last = hw.read_ticks()
    for t in sorted(times):
        hw.advance(t)
        assert hw.read_ticks() >= last
        last = hw.read_ticks()


def test_quantized_readings_are_floored():
    params = OscillatorParams(nominal_hz=10.0, max_drift_hz=0.0,
                              resample_interval_s=30.0, quantize_ticks=True)
    hw = HardwareClock(params, _gen())
    hw.advance(0.25)
    assert hw.read_ticks() == 2.0  # 2.5 raw ticks -> floor 2
    hw.advance(0.3)
    assert hw.read_ticks() == 3.0  # raw 3.0 -> floor 3


@pytest.mark.parametrize("quantize", [False, True])
def test_advance_returns_the_reading(quantize):
    # across drift-segment boundaries too; quantized, the floor of the raw count
    params = OscillatorParams(nominal_hz=10.0, max_drift_hz=2.0, resample_interval_s=1.0,
                              quantize_ticks=quantize)
    hw = HardwareClock(params, _gen(3), initial_ticks=0.5)
    raw = HardwareClock(OscillatorParams(nominal_hz=10.0, max_drift_hz=2.0,
                                         resample_interval_s=1.0), _gen(3), initial_ticks=0.5)
    for t in (0.25, 1.0, 2.75, 3.5):
        ticks = hw.advance(t)
        assert ticks == hw.read_ticks()
        assert ticks == (math.floor(raw.advance(t)) if quantize else raw.advance(t))


# ---------------------------------------------------------------------------
# LogicalClock


def test_read_is_affine_in_ticks():
    lc = LogicalClock(value=100.0, rate=1e-6, anchor_ticks=0.0)
    assert lc.read(0.0) == 100.0
    assert lc.read(5e6) == 105.0


def test_read_before_anchor_raises():
    lc = LogicalClock(value=0.0, rate=1e-6, anchor_ticks=50.0)
    with pytest.raises(ClockRegressionError):
        lc.read(49.0)


@pytest.mark.parametrize("call", [
    lambda lc: lc.read(math.nan),
    lambda lc: lc.apply_correction(math.nan),
    lambda lc: lc.apply_correction(math.nan, offset_s=0.5, new_rate=2e-6),
], ids=["read", "apply_correction", "apply_correction_with_rate"])
def test_nan_ticks_raise_and_leave_the_clock_unchanged(call):
    lc = LogicalClock(value=3.0, rate=1e-6, anchor_ticks=50.0)
    with pytest.raises(ClockRegressionError):
        call(lc)
    assert lc == LogicalClock(value=3.0, rate=1e-6, anchor_ticks=50.0)


def test_offset_correction_shifts_value():
    lc = LogicalClock(value=10.0, rate=1e-6, anchor_ticks=0.0)
    lc.apply_correction(1e6, offset_s=0.5)
    assert lc.value == 11.5  # 10 + 1 elapsed + 0.5 offset
    assert lc.anchor_ticks == 1e6
    assert lc.rate == 1e-6


def test_rate_correction_takes_effect_after_anchor():
    lc = LogicalClock(value=0.0, rate=2e-6, anchor_ticks=0.0)
    lc.apply_correction(1e6, new_rate=1e-6)
    # the old rate covered [0, 1e6) ticks; the new rate applies afterwards
    assert lc.value == 2.0
    assert lc.read(2e6) == 3.0


def test_correction_without_offset_is_continuous():
    lc = LogicalClock(value=7.0, rate=1.5e-6, anchor_ticks=100.0)
    before = lc.read(5e5)
    lc.apply_correction(5e5, new_rate=1e-6)
    assert lc.read(5e5) == before


@pytest.mark.parametrize("offset_s,new_rate", [
    (math.nan, None), (math.inf, 2e-6), (0.5, math.inf), (0.5, -math.inf), (0.0, math.nan),
])
def test_non_finite_correction_raises_and_leaves_the_clock_unchanged(offset_s, new_rate):
    lc = LogicalClock(value=3.0, rate=1e-6, anchor_ticks=50.0)
    with pytest.raises(ValueError, match="correction must be finite"):
        lc.apply_correction(100.0, offset_s=offset_s, new_rate=new_rate)
    assert lc == LogicalClock(value=3.0, rate=1e-6, anchor_ticks=50.0)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=1e-7, max_value=1e-5),
    st.floats(min_value=0.0, max_value=1e9),
    st.floats(min_value=0.0, max_value=1e9),
)
# each read is rounded at its own magnitude before the difference cancels it
@example(value=0.0, rate=9.796620287887991e-06, a=999999988.0, b=999999999.0)
def test_read_linearity(value: float, rate: float, a: float, b: float):
    lc = LogicalClock(value=value, rate=rate, anchor_ticks=0.0)
    lo, hi = min(a, b), max(a, b)
    # Seven roundings separate the two sides: a product and a sum in each
    # read, their difference, and hi - lo and its product on the right. Each
    # result lies below 2 * m, so each is off by at most ulp(m).
    m = abs(value) + rate * hi
    assert abs((lc.read(hi) - lc.read(lo)) - rate * (hi - lo)) <= 7 * math.ulp(m)
