"""Mean recursion, second-moment recursion, and the Monte Carlo oracle.

The moment pins below were frozen from pairwise_oracle(seed=20260814,
n_steps=300, n_runs=200000) with the default parameter set, averaging the
last 100 rounds. The closed forms must stay in agreement with them.
"""
from __future__ import annotations

import hashlib
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsnsync import analysis
from wsnsync.analysis import (
    _CHUNK,
    MAX_ORACLE_RUN_STEPS,
    MAX_ORACLE_RUNS,
    MEAN_GATE_SIGMA,
    MomentParams,
    NonconvergentMomentError,
    asymptotic_error_variance,
    check_oracle_size,
    final_step_sigma,
    is_mean_convergent,
    mean_agreement_max_sigma,
    mean_step,
    mean_trace,
    pairwise_oracle,
    second_moment_coefficients,
    second_moment_fixed_point,
    steady_state_stats,
    validate_grid,
    variant_moment_predictions,
)
from wsnsync.clocks import OscillatorParams

# frozen Monte Carlo pins (default parameters, mu = 1)
ORACLE_MEAN_Z2 = 3.3330505443412652e-09
ORACLE_MEAN_E2 = 6.000115881812696e-06


# ---------------------------------------------------------------------------
# mean recursion


def _mean_map(m: MomentParams) -> tuple[np.ndarray, np.ndarray]:
    # NOTES' transition matrix A and offset b of the mean recursion
    b, f, mu = m.beacon_period_s, m.nominal_hz, m.step_size
    return np.array([[0.0, b * f], [0.0, 1.0 - mu]]), np.array([-b, mu / f])


def test_transition_matrix_and_offset():
    for mu in (0.5, 1.0, 1.7):
        m = MomentParams(beacon_period_s=30.0, nominal_hz=1e6, step_size=mu)
        a, b = _mean_map(m)
        for s in ((0.0, 1e-6), (2.0, 1.4e-6), (-7.5, 0.9e-6), (1e3, 3e-6)):
            assert np.array_equal(mean_step(s, m), a @ np.array(s) + b)


def test_eigenvalues_zero_and_one_minus_mu():
    for mu in (0.1, 0.5, 1.0, 1.9, 2.2):
        a, _ = _mean_map(MomentParams(step_size=mu))
        np.testing.assert_allclose(sorted(np.linalg.eigvals(a).real),
                                   sorted((0.0, 1.0 - mu)), rtol=0, atol=1e-12)


def test_mean_convergence_interval():
    assert not is_mean_convergent(MomentParams(step_size=0.0))
    assert is_mean_convergent(MomentParams(step_size=0.1))
    assert is_mean_convergent(MomentParams(step_size=1.999))
    assert not is_mean_convergent(MomentParams(step_size=2.0))
    assert not is_mean_convergent(MomentParams(step_size=2.2))


def test_fixed_point_is_stationary():
    # the fixed point (E[e], E[Delta]) = (0, 1/f)
    m = MomentParams()
    fp = (0.0, 1.0 / m.nominal_hz)
    assert mean_step(fp, m) == fp


def test_deadbeat_one_step_rate():
    # mu = 1 lands the mean rate on 1/f in a single application, exactly,
    # from any starting state.
    m = MomentParams(step_size=1.0)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(42)))
    for _ in range(100):
        d0 = float(gen.uniform(0.1e-6, 10e-6))
        e0 = float(gen.uniform(-100.0, 100.0))
        _, d1 = mean_step((e0, d0), m)
        assert d1 == 1e-6


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.01, max_value=1.99),
       st.floats(min_value=-5e-6, max_value=5e-6))
def test_rate_error_contracts_by_one_minus_mu(mu: float, dev: float):
    m = MomentParams(step_size=mu)
    _, d1 = mean_step((0.0, 1e-6 + dev), m)
    assert d1 - 1e-6 == pytest.approx((1.0 - mu) * dev, rel=1e-9, abs=1e-20)


def test_mean_trace_matches_repeated_steps():
    m = MomentParams(step_size=0.7)
    state = (2.0, 1.4e-6)
    tr = mean_trace(m, state, 5)
    s = state
    for k in range(5):
        s = mean_step(s, m)
        assert tuple(tr[k]) == s


def test_divergence_outside_interval():
    m = MomentParams(step_size=2.2)
    s = (0.0, 1.5e-6)
    for _ in range(200):
        s = mean_step(s, m)
    assert abs(s[1] - 1e-6) > 1.0  # rate error exploded


# ---------------------------------------------------------------------------
# second moment closed forms


def test_moment_params_from_delay_std():
    p = MomentParams.from_delay_std(1e-5)
    assert p.delay_diff_var == pytest.approx(2e-10, rel=1e-15)
    assert p.delay_std_s == pytest.approx(1e-5, rel=1e-12)


@pytest.mark.parametrize("field,value", [
    ("beacon_period_s", 0.0), ("beacon_period_s", -30.0), ("beacon_period_s", np.inf),
    ("nominal_hz", 0.0), ("nominal_hz", np.nan),
    ("max_drift_hz", -1e-9), ("max_drift_hz", np.inf),
    ("step_size", np.nan), ("step_size", -np.inf),
    ("delay_diff_var", -1e-20), ("delay_diff_var", np.inf),
])
def test_moment_params_reject_bad_values(field: str, value: float):
    with pytest.raises(ValueError, match=field):
        MomentParams(**{field: value})


def test_moment_params_accept_the_edges():
    # zero drift and delay are the noiseless oracle; any finite step size is
    # a parameter set to analyse, divergent or not
    for kwargs in ({"max_drift_hz": 0.0, "delay_diff_var": 0.0},
                   {"step_size": 0.0}, {"step_size": -1.0}, {"step_size": 2.5}):
        MomentParams(**kwargs)
    with pytest.raises(ValueError, match="^delay_std_s must be finite and nonnegative, got inf$"):
        MomentParams.from_delay_std(np.inf)


@pytest.mark.parametrize("bad", [-1e-5, -5e-324, math.nan, -math.inf])
def test_moment_params_from_delay_std_refuse_a_bad_std_by_its_name(bad):
    # the square once lost the sign: -1e-5 gave a model whose delay std read 1e-05
    with pytest.raises(ValueError, match=f"^delay_std_s must be finite and nonnegative, "
                                         f"got {bad}$"):
        MomentParams.from_delay_std(bad)


def test_moment_params_from_delay_std_refuse_a_square_past_float_range():
    # 1e200 squared once raised OverflowError, a traceback from the CLI; 1e154
    # squares to a float, but twice that does not. Either is refused by the
    # std's name, which the CLI turns into its flag
    for std in (1e200, 1e154):
        rule = f"delay_std_s must keep delay_diff_var = 2 * delay_std_s**2 finite, got {std}"
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
            MomentParams.from_delay_std(std)


def test_moment_params_refuse_the_drift_an_oscillator_refuses():
    # a drift bound at or above the nominal frequency, in the same words
    for drift in (50.0, 100.0):
        with pytest.raises(ValueError) as oscillator:
            OscillatorParams(nominal_hz=50.0, max_drift_hz=drift, resample_interval_s=30.0)
        with pytest.raises(ValueError) as model:
            MomentParams(nominal_hz=50.0, max_drift_hz=drift)
        assert str(model.value) == str(oscillator.value)


def test_drift_integral_variance_formula():
    p = MomentParams()
    assert p.drift_integral_var() == (30.0 * 100.0) ** 2 / 3.0


def test_drift_integral_variance_matches_sampling():
    p = MomentParams()
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(8)))
    w = p.beacon_period_s * gen.uniform(-p.max_drift_hz, p.max_drift_hz, 100000)
    assert w.var() == pytest.approx(p.drift_integral_var(), rel=0.05)


def test_second_moment_coefficients_at_defaults():
    a, c = second_moment_coefficients(MomentParams())
    assert a == pytest.approx(1e4 / 3e12, rel=1e-12)
    assert c == pytest.approx(1e4 / 3e12 + 2e-10 / 900.0, rel=1e-12)


def test_second_moment_step_and_fixed_point_consistent():
    p = MomentParams(step_size=0.5)
    z2 = second_moment_fixed_point(p)
    a, c = second_moment_coefficients(p)
    assert a * z2 + c == pytest.approx(z2, rel=1e-12)


def test_nonconvergent_moment_raises():
    p = MomentParams(step_size=2.2)
    with pytest.raises(NonconvergentMomentError):
        second_moment_fixed_point(p)
    with pytest.raises(NonconvergentMomentError):
        asymptotic_error_variance(p)


def test_closed_forms_match_frozen_oracle_pins():
    p = MomentParams()
    assert second_moment_fixed_point(p) == pytest.approx(ORACLE_MEAN_Z2,
                                                         rel=0.01)
    assert asymptotic_error_variance(p) == pytest.approx(ORACLE_MEAN_E2,
                                                         rel=0.01)


def test_variant_conventions_disagree_with_corrected_forms():
    # The alternative coefficient conventions undercount the per-round drift
    # variance by ~1/B and drop the delay cross covariance; their variance
    # predictions land far from both the corrected form and the oracle.
    p = MomentParams()
    ve = asymptotic_error_variance(p)
    variants = variant_moment_predictions(p)
    assert set(variants) == {"unit_time_drift", "dropped_unit_constant"}
    for pred in variants.values():
        assert abs(pred["var_e"] - ve) / ve > 0.5


def test_variant_predictions_nan_when_divergent():
    variants = variant_moment_predictions(MomentParams(step_size=2.5))
    for pred in variants.values():
        assert np.isnan(pred["z2"]) and np.isnan(pred["var_e"])
    # at mu = 2.2 the corrected recursion diverges, yet the convention that
    # drops the unit constant still claims a finite fixed point: one of the
    # disagreements the validation report documents
    at_22 = variant_moment_predictions(MomentParams(step_size=2.2))
    assert np.isnan(at_22["unit_time_drift"]["var_e"])
    assert np.isfinite(at_22["dropped_unit_constant"]["var_e"])


# ---------------------------------------------------------------------------
# Monte Carlo oracle


def test_oracle_rejects_empty_runs():
    with pytest.raises(ValueError):
        pairwise_oracle(MomentParams(), seed=1, n_steps=0, n_runs=10)
    with pytest.raises(ValueError):
        pairwise_oracle(MomentParams(), seed=1, n_steps=10, n_runs=0)


def test_oracle_size_limits():
    # validate-analysis's default, the benchmark's oracle and the 200k pin
    for n_runs, n_steps in ((20_000, 300), (50_000, 300), (200_000, 300)):
        check_oracle_size(n_runs, n_steps)
    check_oracle_size(MAX_ORACLE_RUNS, MAX_ORACLE_RUN_STEPS // MAX_ORACLE_RUNS)
    with pytest.raises(ValueError, match=f"^n_runs must be at least 1 and at most "
                                         f"{MAX_ORACLE_RUNS}, got {MAX_ORACLE_RUNS + 1}$"):
        check_oracle_size(MAX_ORACLE_RUNS + 1, 1)
    with pytest.raises(ValueError, match="^n_steps must be at least 1 and at most 250 at "
                                         f"n_runs = {MAX_ORACLE_RUNS}, .*, got 251$"):
        check_oracle_size(MAX_ORACLE_RUNS, MAX_ORACLE_RUN_STEPS // MAX_ORACLE_RUNS + 1)
    # a step of few runs counts as a slice's runs
    check_oracle_size(2, MAX_ORACLE_RUN_STEPS // _CHUNK)
    with pytest.raises(ValueError, match="^n_steps must be at least 1 and at most 100000 at "
                                         "n_runs = 2, .*, got 100001$"):
        check_oracle_size(2, MAX_ORACLE_RUN_STEPS // _CHUNK + 1)


def test_oracle_is_deterministic():
    p = MomentParams()
    a = pairwise_oracle(p, seed=123, n_steps=20, n_runs=500)
    b = pairwise_oracle(p, seed=123, n_steps=20, n_runs=500)
    np.testing.assert_array_equal(a.mean_e, b.mean_e)
    np.testing.assert_array_equal(a.var_rate, b.var_rate)


def test_oracle_noiseless_matches_mean_recursion_exactly():
    p = MomentParams(max_drift_hz=0.0, delay_diff_var=0.0)
    m = MomentParams()
    d0 = 1.3e-6
    tr = pairwise_oracle(p, seed=5, n_steps=30, n_runs=3, initial_rate=d0)
    pred = mean_trace(m, (0.0, d0), 30)
    np.testing.assert_allclose(tr.mean_e, pred[:, 0], rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(tr.mean_rate, pred[:, 1], rtol=1e-13)
    assert float(tr.var_e.max()) == 0.0


def test_oracle_ensemble_means_track_the_mean_recursion():
    p = MomentParams()
    m = MomentParams()
    d0 = 1.05e-6
    tr = pairwise_oracle(p, seed=77, n_steps=120, n_runs=8000,
                         initial_rate=d0)
    assert final_step_sigma(tr, m, (0.0, d0)) < 4.0
    # the max over all rounds is looser but still bounded for a sane seed
    assert mean_agreement_max_sigma(tr, m, (0.0, d0)) < 6.0


def test_oracle_steady_state_matches_closed_forms():
    p = MomentParams()
    tr = pairwise_oracle(p, seed=20260814, n_steps=300, n_runs=50000)
    ss = steady_state_stats(tr, 100)
    assert ss["mean_rate"] == pytest.approx(1e-6, rel=1e-4)
    assert ss["mean_z2"] == pytest.approx(second_moment_fixed_point(p),
                                          rel=0.1)
    assert ss["mean_e2"] == pytest.approx(asymptotic_error_variance(p),
                                          rel=0.1)


def _reference_oracle(p: MomentParams, *, seed: int, n_steps: int, n_runs: int,
                      initial_rate: float | None = None) -> np.ndarray:
    """pairwise_oracle's rounds as whole-array expressions, one new array per
    operation; rows mean_e, var_e, mean_rate, var_rate."""
    b, f, mu = p.beacon_period_s, p.nominal_hz, p.step_size
    sigma_b = p.delay_std_s
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    rate = np.full(n_runs, 1.0 / f if initial_rate is None else initial_rate)
    beta_prev = gen.normal(0.0, sigma_b, n_runs)
    rows = []
    for _ in range(n_steps):
        w = b * gen.uniform(-p.max_drift_hz, p.max_drift_hz, n_runs)
        beta = gen.normal(0.0, sigma_b, n_runs)
        e = rate * (b * f + w) - (b + beta - beta_prev)
        rate = rate - mu / (b * f) * e
        beta_prev = beta
        rows.append((e.mean(), e.var(), rate.mean(), rate.var()))
    return np.array(rows).T


def _oracle_bytes(tr) -> bytes:
    return b"".join(np.asarray(a, "<f8").tobytes()
                    for a in (tr.mean_e, tr.var_e, tr.mean_rate, tr.var_rate))


@settings(max_examples=60, deadline=None)
# run counts on each side of the kernel's chunk boundaries
@example(n_runs=_CHUNK - 1, n_steps=3, mu=0.7, f_max=0.0, sigma_b=0.0,
         initial_rate=None, seed=1)
@example(n_runs=_CHUNK, n_steps=3, mu=1.3, f_max=100.0, sigma_b=1e-5,
         initial_rate=1.05e-6, seed=2)
@example(n_runs=_CHUNK + 1, n_steps=4, mu=0.25, f_max=250.0, sigma_b=0.0,
         initial_rate=None, seed=3)
@example(n_runs=2 * _CHUNK + 3, n_steps=4, mu=1.9, f_max=0.0, sigma_b=3e-3,
         initial_rate=0.97e-6, seed=4)
@given(
    n_runs=st.integers(1, 300),
    n_steps=st.integers(1, 20),
    mu=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
    f_max=st.floats(0.0, 1e3),
    sigma_b=st.floats(0.0, 1e-2),
    initial_rate=st.none() | st.floats(0.0, 2e-6),
    seed=st.integers(0, 2**32 - 1),
)
def test_oracle_equals_array_expressions_bit_for_bit(
    n_runs, n_steps, mu, f_max, sigma_b, initial_rate, seed
):
    p = MomentParams.from_delay_std(sigma_b, max_drift_hz=f_max, step_size=mu)
    kwargs = dict(seed=seed, n_steps=n_steps, n_runs=n_runs, initial_rate=initial_rate)
    tr = pairwise_oracle(p, **kwargs)
    assert _oracle_bytes(tr) == _reference_oracle(p, **kwargs).astype("<f8").tobytes()


@pytest.mark.parametrize("size", [1, 7, 8192, analysis._CHUNK, analysis._BLOCK, 20_004])
@pytest.mark.parametrize("name", ["_CHUNK", "_BLOCK"])
def test_oracle_bytes_do_not_depend_on_the_block_or_slice_size(monkeypatch, name, size):
    # a ragged run count: the last block and slice are short at most sizes.
    # Sizes 1 and 7 take 23 runs, which 7 cuts into 7, 7, 7 and 2
    kwargs = dict(seed=9, n_steps=2, n_runs=23 if size <= 7 else 20_003, initial_rate=1.03e-6)
    default = _oracle_bytes(pairwise_oracle(MomentParams(), **kwargs))
    monkeypatch.setattr(analysis, name, size)
    assert _oracle_bytes(pairwise_oracle(MomentParams(), **kwargs)) == default


def test_oracle_memory_is_three_run_buffers():
    # rate, x and beta of 50k float64 runs are 400 KB each; the chunk
    # scratches and the per-step statistics fit in the remaining half buffer
    p = MomentParams()
    pairwise_oracle(p, seed=1, n_steps=3, n_runs=50_000)  # warm-up
    tracemalloc.start()
    try:
        pairwise_oracle(p, seed=1, n_steps=3, n_runs=50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 400_000


def test_oracle_matches_pinned_bytes():
    # sha256 of the four float64 series, recorded before the in-place kernel
    tr = pairwise_oracle(MomentParams(), seed=20260814, n_steps=300, n_runs=20000)
    assert hashlib.sha256(_oracle_bytes(tr)).hexdigest() == (
        "d803528cab6a342b7ae1d47def3a32d56f5af74f4f40b01f60e40c9e27d65d1a"
    )


def test_steady_state_stats_validates_tail():
    tr = pairwise_oracle(MomentParams(), seed=3, n_steps=10, n_runs=50)
    for tail in (0, 11):
        with pytest.raises(ValueError,
                           match=f"^tail must be at least 1 and at most 10, got {tail}$"):
            steady_state_stats(tr, tail)


def test_trace_derived_quantities():
    tr = pairwise_oracle(MomentParams(), seed=9, n_steps=5, n_runs=100)
    np.testing.assert_allclose(tr.mean_e2, tr.var_e + tr.mean_e**2)
    np.testing.assert_allclose(
        tr.stderr_e, np.sqrt(tr.var_e / tr.n_runs)
    )


# ---------------------------------------------------------------------------
# validation of a step-size grid

_SMALL = {"seed": 1, "n_runs": 2000, "n_steps": 80, "tail": 20, "initial_rate_offset": 0.05}


def _grid(*mus: float) -> list[MomentParams]:
    return [MomentParams.from_delay_std(1e-5, step_size=mu) for mu in mus]


def _no_kernel(*args, **kwargs):
    raise AssertionError("an oracle kernel ran")


def test_validate_grid_runs_no_oracle_outside_the_mean_interval(monkeypatch):
    monkeypatch.setattr(analysis, "pairwise_oracle", _no_kernel)
    rows = validate_grid(_grid(0.0, 2.0, 2.2), **_SMALL)
    assert [r["mu"] for r in rows] == [0.0, 2.0, 2.2]
    assert [r["note"] for r in rows] == ["marginal by design (|1 - mu| = 1)"] * 2 + [
        "divergent by design"]
    for r in rows:
        assert not r["failed"] and r["variants"] == {}
        assert {r[k] for k in ("final_sigma", "worst_sigma", "predicted_var",
                               "empirical_var", "rel_err")} == {None}


# a stopped or reversed clock, and NaN or inf, would be checked as if valid
@pytest.mark.parametrize("size", [{"tail": _SMALL["n_steps"]}, {"tail": 0},
                                  {"n_runs": MAX_ORACLE_RUNS + 1}, {"n_runs": 1},
                                  *({"initial_rate_offset": r} for r in (-1.0, -2.0, math.inf,
                                                                         math.nan))],
                         ids=["tail-n_steps", "tail-0", "runs", "one-run", "stopped-clock",
                              "reversed-clock", "inf-rate", "nan-rate"])
def test_validate_grid_refuses_before_any_kernel(monkeypatch, size):
    monkeypatch.setattr(analysis, "pairwise_oracle", _no_kernel)
    name, value = next(iter(size.items()))
    with pytest.raises(ValueError, match=f"^{name} must .*, got {value}$"):
        validate_grid(_grid(2.2, 1.0), **{**_SMALL, **size})


def test_validate_grid_starts_each_oracle_at_its_own_nominal_rate(monkeypatch):
    # (1 + offset) / nominal_hz per model; an offset is refused by its name
    # where one model's rate leaves float range, though another's does not
    real, rates = analysis.pairwise_oracle, {}

    def oracle(p, **kwargs):
        rates[p.nominal_hz] = kwargs["initial_rate"]
        return real(p, **kwargs)

    monkeypatch.setattr(analysis, "pairwise_oracle", oracle)
    validate_grid([MomentParams(), MomentParams(nominal_hz=32768.0, max_drift_hz=10.0)],
                  **_SMALL)
    assert rates == {1e6: (1 + 0.05) / 1e6, 32768.0: (1 + 0.05) / 32768.0}
    monkeypatch.setattr(analysis, "pairwise_oracle", _no_kernel)
    with pytest.raises(ValueError, match=r"^initial_rate_offset must keep \(1 \+ "
                                         r"initial_rate_offset\) / nominal_hz finite and "
                                         r"positive, got 1e\+300$"):
        validate_grid([MomentParams(), MomentParams(nominal_hz=1e-10, max_drift_hz=0.0)],
                      **{**_SMALL, "initial_rate_offset": 1e300})


@pytest.mark.filterwarnings("error")  # refused, not warned of
def test_validate_grid_refuses_oracle_statistics_out_of_float_range():
    # a finite initial rate whose first round's error variance overflows,
    # leaving a NaN that the gate would read as a pass
    with pytest.raises(ValueError, match="^the oracle's statistics at mu 1.0 leave float range$"):
        validate_grid(_grid(1.0), **{**_SMALL, "initial_rate_offset": 1e300})


def test_validate_grid_refuses_a_noiseless_oracle_before_any_kernel(monkeypatch):
    # no drift and no delay leave the oracle's standard error 0; a model
    # that runs no oracle is still reported
    monkeypatch.setattr(analysis, "pairwise_oracle", _no_kernel)
    with pytest.raises(ValueError, match="^max_drift_hz must be positive at mu 1.0 where "
                                         "delay_std_s is 0: .*, got 0.0$"):
        validate_grid([*_grid(0.5), MomentParams(max_drift_hz=0.0, delay_diff_var=0.0)],
                      **_SMALL)
    [row] = validate_grid([MomentParams(max_drift_hz=0.0, delay_diff_var=0.0, step_size=2.2)],
                          **_SMALL)
    assert row["note"] == "divergent by design"


@pytest.mark.parametrize("beacon_period", [1e-200, 1e-160])
def test_moment_params_refuse_closed_forms_out_of_float_range(monkeypatch, beacon_period):
    # B * B underflows: the delay term divides by 0 at 1e-200 and is inf at
    # 1e-160. Only a mean-convergent model is refused; no oracle is run.
    monkeypatch.setattr(analysis, "pairwise_oracle", _no_kernel)
    with pytest.raises(ValueError, match=re.escape(
            f"the closed forms at mu 1.0 leave float range at a beacon period of "
            f"{beacon_period} s, nominal 1000000.0 Hz, drift bound 100.0 Hz")):
        MomentParams(beacon_period_s=beacon_period)
    divergent = MomentParams(beacon_period_s=beacon_period, step_size=2.2)
    [row] = validate_grid([divergent], **_SMALL)
    assert row["note"] == "divergent by design"


def test_validate_grid_fails_a_mean_above_the_gate(monkeypatch):
    monkeypatch.setattr(analysis, "final_step_sigma", lambda *a, **k: 9.9)
    [row] = validate_grid(_grid(1.0), **_SMALL)
    assert row["failed"] and row["note"] == "MEAN CHECK FAILED"
    assert row["final_sigma"] == 9.9 > MEAN_GATE_SIGMA


def test_validate_grid_row_failure_cancels_queued_kernels(monkeypatch):
    real_oracle = analysis.pairwise_oracle
    started = []

    def oracle(p, **kwargs):
        started.append(p.step_size)
        if p.step_size != 0.25:
            time.sleep(0.2)  # the first row raises meanwhile
        return real_oracle(p, **kwargs)

    def failing_sigma(*args, **kwargs):
        raise ValueError("row failed")

    monkeypatch.setattr(analysis, "pairwise_oracle", oracle)
    monkeypatch.setattr(analysis, "final_step_sigma", failing_sigma)
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 1)
    with pytest.raises(ValueError, match="row failed"):
        validate_grid(_grid(0.25, 0.5, 1.0, 1.5), **_SMALL)
    assert started in ([0.25], [0.25, 0.5])  # 1.0 and 1.5 never start


def test_validate_grid_refuses_a_zero_oracle_variance():
    # a 1e-300 Hz drift rounds away inside the oracle: its error variance is 0
    models = [MomentParams(max_drift_hz=1e-300, delay_diff_var=0.0)]
    with pytest.raises(ValueError, match="below float resolution"):
        validate_grid(models, **{**_SMALL, "n_runs": 500, "n_steps": 40, "tail": 10})


def test_validate_grid_gives_each_variant_its_disagreement(monkeypatch):
    # the command only formats it; a variant with no fixed point reads NaN
    variants = {"finite": {"z2": 1.0, "var_e": 2e-7}, "none": {"z2": math.nan, "var_e": math.nan}}
    monkeypatch.setattr(analysis, "variant_moment_predictions", lambda p: variants)
    [row] = validate_grid(_grid(1.0), **_SMALL)
    empirical = row["empirical_var"]
    assert row["variants"]["finite"]["rel_err"] == abs(2e-7 - empirical) / empirical
    assert math.isnan(row["variants"]["none"]["rel_err"])
    assert row["rel_err"] == abs(row["predicted_var"] - empirical) / empirical


def test_validate_grid_rows_do_not_depend_on_the_workers(monkeypatch):
    rows = {}
    for cpus in (1, 4):
        monkeypatch.setattr(analysis.os, "cpu_count", lambda cpus=cpus: cpus)
        rows[cpus] = validate_grid(_grid(0.5, 1.0, 2.2, 1.5), **_SMALL)
    assert rows[1] == rows[4]
    assert [r["note"] for r in rows[1]] == ["", "", "divergent by design", ""]
    assert rows[1][1]["rel_err"] < 0.1  # mu 1.0 on the default parameter set
