"""Rate-update rules, published step-size bounds, and effective gains."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnsync.protocols import (
    Protocol,
    ProtocolParams,
    avgpisync_rate_update,
    default_max_error_s,
    default_step_size,
    effective_gain,
    grades_rate_update,
    newton_rate_update,
    nominal_interval_ticks,
    rate_update,
    step_size_bound,
)

B = 30.0
F = 1e6
BF = B * F


def _params(kind: Protocol, step: float) -> ProtocolParams:
    return ProtocolParams(kind=kind, step_size=step, beacon_period_s=B,
                          nominal_hz=F)


# ---------------------------------------------------------------------------
# parsing and validation


def test_parse_names_and_alias():
    assert Protocol.parse("newton") is Protocol.NEWTON
    assert Protocol.parse("GRADES") is Protocol.GRADES
    assert Protocol.parse(" avgpisync ") is Protocol.AVGPISYNC
    assert Protocol.parse("pisync") is Protocol.AVGPISYNC


def test_parse_unknown_rejected():
    with pytest.raises(ValueError, match="unknown protocol"):
        Protocol.parse("ntp")


def test_params_validation():
    with pytest.raises(ValueError):
        _params(Protocol.NEWTON, 0.0)
    with pytest.raises(ValueError):
        ProtocolParams(kind=Protocol.NEWTON, step_size=1.0, beacon_period_s=0.0)
    with pytest.raises(ValueError):
        ProtocolParams(kind=Protocol.NEWTON, step_size=1.0, nominal_hz=-1.0)
    with pytest.raises(ValueError):
        ProtocolParams(kind=Protocol.NEWTON, step_size=1.0, max_error_s=0.0)
    with pytest.raises(ValueError):
        ProtocolParams(kind=Protocol.NEWTON, step_size=1.0,
                       beacon_period_s=30.0, gather_wait_s=30.0)


@pytest.mark.parametrize("name", ["beacon_period_s", "nominal_hz", "max_error_s",
                                  "step_size"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_params_reject_non_finite(name, bad):
    # an infinite step size or beacon period once ran and gave NaN readings
    # or an OverflowError from the simulator
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ProtocolParams(**{"kind": Protocol.NEWTON, "step_size": 1.0, name: bad})


def test_params_reject_overflowing_ticks_per_round():
    with pytest.raises(ValueError, match="ticks per round"):
        ProtocolParams(kind=Protocol.NEWTON, step_size=1.0, beacon_period_s=1e300,
                       nominal_hz=1e300)


def test_zero_gather_wait_allowed():
    p = ProtocolParams(kind=Protocol.NEWTON, step_size=1.0, gather_wait_s=0.0)
    assert p.gather_wait_s == 0.0


# ---------------------------------------------------------------------------
# update rules


def test_nominal_interval_ticks():
    assert nominal_interval_ticks(B, F) == 3e7


def test_newton_deadbeat_example():
    # mu = 1 removes the measured rate error outright: a clock running 5%
    # fast (1.05e-6 s/tick) that accumulated e = 1.5 s over one beacon
    # period lands exactly on the nominal rate.
    p = _params(Protocol.NEWTON, 1.0)
    assert newton_rate_update(1.05e-6, 1.5, p) == 1e-6


def test_newton_partial_step():
    p = _params(Protocol.NEWTON, 0.5)
    assert newton_rate_update(1.05e-6, 1.5, p) == pytest.approx(1.025e-6,
                                                                rel=1e-15)


def test_grades_step_at_published_bound():
    p = _params(Protocol.GRADES, 1.0 / (BF * BF))
    got = grades_rate_update(1e-6, 1.5, p)
    assert got == pytest.approx(1e-6 - 5e-8, rel=1e-14)


def test_avgpisync_step_at_published_bound():
    p = _params(Protocol.AVGPISYNC, 2.0 / BF)
    assert avgpisync_rate_update(1e-6, 1.5, p) == 9e-7


def test_positive_error_reduces_rate():
    for kind in Protocol:
        p = _params(kind, default_step_size(kind, B, F))
        assert rate_update(1e-6, 1e-3, p) < 1e-6
        assert rate_update(1e-6, -1e-3, p) > 1e-6


def test_rate_update_dispatch_matches_direct_calls():
    fns = {
        Protocol.NEWTON: newton_rate_update,
        Protocol.GRADES: grades_rate_update,
        Protocol.AVGPISYNC: avgpisync_rate_update,
    }
    for kind, fn in fns.items():
        p = _params(kind, default_step_size(kind, B, F))
        assert rate_update(9.9e-7, 2e-4, p) == fn(9.9e-7, 2e-4, p)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(list(Protocol)),
    st.floats(min_value=1e-18, max_value=1.9),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=5e-7, max_value=2e-6),
)
def test_all_rules_share_one_normalized_form(kind: Protocol, raw: float,
                                             e: float, rate: float):
    # Every rule is rate - gain * e / (B*f) for its effective gain, so the
    # network dynamics depend on the protocol only through that gain.
    lo, hi = step_size_bound(kind, B, F)
    step = raw if kind is Protocol.NEWTON else raw * hi / 2.0
    p = _params(kind, step)
    g = effective_gain(kind, step, B, F)
    expected = rate - g * e / BF
    assert rate_update(rate, e, p) == pytest.approx(expected, rel=1e-12,
                                                    abs=1e-24)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(list(Protocol)),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_update_is_affine_in_error(kind: Protocol, e1: float, e2: float):
    p = _params(kind, default_step_size(kind, B, F))
    base = rate_update(1e-6, 0.0, p)
    d1 = rate_update(1e-6, e1, p) - base
    d2 = rate_update(1e-6, e2, p) - base
    both = rate_update(1e-6, e1 + e2, p) - base
    # affine up to a few ulp of the rate, whose quantum is ~2.1e-22 here
    assert both == pytest.approx(d1 + d2, rel=1e-9, abs=1e-21)
    assert base == 1e-6


# ---------------------------------------------------------------------------
# bounds and gains


def test_published_bounds_at_reference_parameters():
    assert step_size_bound(Protocol.NEWTON, B, F) == (0.0, 2.0)
    assert step_size_bound(Protocol.GRADES, B, F) == (0.0, 1.0 / 9e14)
    assert step_size_bound(Protocol.AVGPISYNC, B, F) == (0.0, 2.0 / 3e7)


def test_effective_gain_forms():
    assert effective_gain(Protocol.NEWTON, 1.0, B, F) == 1.0
    assert effective_gain(Protocol.GRADES, 1.0 / (BF * BF), B, F) == 1.0
    assert effective_gain(Protocol.AVGPISYNC, 2.0 / BF, B, F) == 2.0


def test_published_bounds_imply_contraction():
    # At the published upper bound the per-round error retention |1 - gain|
    # stays below 1 for every protocol; grades' published bound is half its
    # actual stability edge, so its gain caps at 1 instead of 2.
    for kind in Protocol:
        _, hi = step_size_bound(kind, B, F)
        g = effective_gain(kind, hi, B, F)
        assert 0.0 < g <= 2.0
        if kind is Protocol.GRADES:
            assert g == pytest.approx(1.0, rel=1e-12)
        else:
            assert g == pytest.approx(2.0, rel=1e-12)


def _noiseless_pairwise_errors(kind: Protocol, step: float, n: int) -> list[float]:
    p = _params(kind, step)
    rate = 1.05e-6
    out = []
    for _ in range(n):
        e = rate * BF - B
        rate = rate_update(rate, e, p)
        out.append(abs(e))
    return out


def test_grades_actual_stability_edge_is_twice_published_bound():
    # The rule here absorbs constant factors into mu, which doubles the
    # usable range: gains slightly below 2 still contract, gains above 2
    # diverge. The published bound (gain 1) is therefore conservative.
    edge = 2.0 / (BF * BF)
    converging = _noiseless_pairwise_errors(Protocol.GRADES, 0.9 * edge, 400)
    diverging = _noiseless_pairwise_errors(Protocol.GRADES, 1.1 * edge, 400)
    assert converging[-1] < 1e-9 * converging[0]
    assert diverging[-1] > 1e6 * diverging[0]


def test_within_bound_flags_out_of_range_steps():
    assert _params(Protocol.NEWTON, 1.0).within_bound()
    assert not _params(Protocol.NEWTON, 2.0).within_bound()
    assert _params(Protocol.AVGPISYNC, 1e-8).within_bound()
    assert not _params(Protocol.AVGPISYNC, 1e-6).within_bound()


def test_default_step_sizes_sit_inside_bounds():
    for kind in Protocol:
        step = default_step_size(kind, B, F)
        lo, hi = step_size_bound(kind, B, F)
        assert lo < step < hi
    assert default_step_size(Protocol.NEWTON, B, F) == 1.0
    assert effective_gain(
        Protocol.GRADES, default_step_size(Protocol.GRADES, B, F), B, F
    ) == pytest.approx(0.15, rel=1e-12)
    assert effective_gain(
        Protocol.AVGPISYNC, default_step_size(Protocol.AVGPISYNC, B, F), B, F
    ) == pytest.approx(0.2, rel=1e-12)


def test_default_guard_threshold():
    # twice the drift a bounded oscillator can accumulate in one period:
    # 2 * 30 s * 100 Hz / 1 MHz = 6 ms, i.e. 6000 ticks at 1 MHz.
    assert default_max_error_s(B, F, 100.0) == 6e-3
