"""Closed-form convergence analysis of the newton rate update, with a
Monte Carlo oracle to validate every formula.

Model: one node synchronizing to a perfect reference every B seconds. At
round k the node measures its own error e(k) against the reference value it
received and corrects its logical rate Delta with step size mu:

    e(k+1)     = Delta(k) * T(k) - (B + D(k+1))
    Delta(k+1) = Delta(k) - mu/(B*f) * e(k+1)

where T(k) = B*f + w(k+1) is the hardware ticks elapsed over the round,
w = B*r with r ~ U(-f_max, f_max) the (per-round constant) oscillator drift,
and D(k+1) = b(k+1) - b(k) the difference of the i.i.d. Gaussian message
delays b ~ N(0, sigma_b^2) affecting successive received reference values,
so Var[D] = sigma_D^2 = 2*sigma_b^2 and successive D's are correlated.

Mean recursion. Taking expectations, the state (E[e], E[Delta]) evolves
linearly with transition matrix [[0, B*f], [0, 1-mu]], of spectrum
{0, 1-mu}, and offset [-B, mu/f], so the mean converges iff
0 < mu < 2, to the fixed point (0, 1/f). mu = 1 reaches E[Delta] = 1/f in a
single step.

Second moment. In normalized rate error z = Delta*f - 1 the recursion is

    z(k+1) = z(k) * (1 - mu - mu*w/(B*f)) - mu*w/(B*f) + (mu/B) * D(k+1)

Squaring and taking expectations, using E[w] = E[D] = 0,
E[w^2] = B^2*f_max^2/3 (one drift sample per round), z(k) independent of
w(k+1), and the cross covariance Cov(z(k), D(k+1)) = -(mu/B)*sigma_b^2
that the shared delay b(k) induces, the steady-state-form recursion is

    E[z^2(k+1)] = a * E[z^2(k)] + c
    a = (1-mu)^2 + mu^2 * f_max^2 / (3 f^2)
    c = mu^2 * f_max^2 / (3 f^2) + mu^3 * sigma_D^2 / B^2

(exact once E[z] has converged to 0; |a| < 1 required for a fixed point).

Error variance. e(k+1) = z(k)*(B + w/f) + w/f - D, so at steady state

    Var[e] = E[z^2] * (B^2 + E[w^2]/f^2) + E[w^2]/f^2 + (1 + mu) * sigma_D^2

where the mu*sigma_D^2 term again comes from the z-D cross covariance.

Alternative coefficient conventions for the same recursion circulate in
which the drift variance is scaled per unit time instead of per round
(f_max^2/(3*B*f^2) terms) and the delay cross covariance is dropped; the
oracle shows they disagree with the simulated recursion by large factors
(~30x at the default parameters). They are computed by
variant_moment_predictions() purely so validation reports can document the
disagreement.
"""
from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .clocks import OscillatorParams
from .protocols import (WORST_CASE_DRIFT_HZ, Protocol, ProtocolParams, default_step_size,
                        ticks_per_round)
from .ranges import require


class NonconvergentMomentError(ValueError):
    """Second-moment recursion has |a| >= 1; no finite fixed point exists."""


# ---------------------------------------------------------------------------
# the pairwise model and its mean recursion


@dataclass(frozen=True)
class MomentParams:
    """Parameters of the pairwise model: the mean recursion reads B, f and
    mu, the second-moment recursion all five. The defaults are the
    protocol's own: ProtocolParams' B and f, newton's default step and the
    worst-case drift bound WORST_CASE_DRIFT_HZ.

    delay_diff_var: sigma_D^2, variance of the difference of two successive
    message delays. With i.i.d. delays of standard deviation sigma_b this is
    2*sigma_b^2 (use from_delay_std); the cross-covariance terms in the
    closed forms assume that i.i.d. structure. The event simulator draws
    N(0, sigma^2) per message and clamps it at 0, and only the ack's delay
    enters the measured offset; its match is
    delay_diff_var = 2*sigma^2*(1/2 - 1/(2*pi)), twice the variance of a
    clamped draw, not from_delay_std(sigma).

    ValueError for a field that is not finite, B or f not positive, a drift
    bound outside [0, f), a negative delay_diff_var, or a mean-convergent
    model whose closed forms (Var[e] and the variants' fixed points) leave
    float range.
    """

    beacon_period_s: float = ProtocolParams.beacon_period_s
    nominal_hz: float = ProtocolParams.nominal_hz
    max_drift_hz: float = WORST_CASE_DRIFT_HZ
    step_size: float = default_step_size(Protocol.NEWTON, beacon_period_s, nominal_hz)
    # one ulp below from_delay_std(DelayModel.std_s); see NOTES.md
    delay_diff_var: float = 2e-10

    def __post_init__(self) -> None:
        ticks_per_round(self.beacon_period_s, self.nominal_hz)
        # the drift rule of a clock whose drift is redrawn every round
        OscillatorParams(self.nominal_hz, self.max_drift_hz, self.beacon_period_s)
        require("nonnegative", delay_diff_var=self.delay_diff_var)
        if not math.isfinite(self.step_size):
            raise ValueError(f"step_size must be finite, got {self.step_size}")
        if is_mean_convergent(self):
            try:
                predicted, variants = _predictions(self)
                fixed = [v["var_e"] for v in variants.values() if v["var_e"] == v["var_e"]]
                finite = all(map(math.isfinite, [predicted or 0.0, *fixed]))
            except ArithmeticError:
                finite = False
            if not finite:
                raise ValueError(
                    f"the closed forms at mu {self.step_size} leave float range at a beacon "
                    f"period of {self.beacon_period_s} s, nominal {self.nominal_hz} Hz, drift "
                    f"bound {self.max_drift_hz} Hz and delay std {self.delay_std_s} s")

    @classmethod
    def from_delay_std(cls, delay_std_s: float, **settings) -> "MomentParams":
        """The model of i.i.d. delays of standard deviation delay_std_s;
        ValueError unless it is finite and nonnegative and its
        delay_diff_var, 2 * delay_std_s**2, is finite."""
        require("nonnegative", delay_std_s=delay_std_s)
        try:
            delay_diff_var = 2.0 * delay_std_s**2
        except OverflowError:  # a square past float range
            delay_diff_var = math.inf
        if delay_diff_var == math.inf:
            raise ValueError(f"delay_std_s must keep delay_diff_var = 2 * delay_std_s**2 "
                             f"finite, got {delay_std_s}")
        return cls(delay_diff_var=delay_diff_var, **settings)

    @property
    def delay_std_s(self) -> float:
        return float(np.sqrt(self.delay_diff_var / 2.0))

    def drift_integral_var(self) -> float:
        """E[w^2]: variance of integrated drift over one round, (B*f_max)^2/3."""
        return (self.beacon_period_s * self.max_drift_hz) ** 2 / 3.0


def mean_step(state: tuple[float, float], p: MomentParams) -> tuple[float, float]:
    """One round of the mean recursion on (E[e], E[Delta])."""
    _, d = state
    b, f, mu = p.beacon_period_s, p.nominal_hz, p.step_size
    return (b * f * d - b, (1.0 - mu) * d + mu / f)


def is_mean_convergent(p: MomentParams) -> bool:
    return 0.0 < p.step_size < 2.0


def mean_trace(
    p: MomentParams, state0: tuple[float, float], n_steps: int
) -> np.ndarray:
    """Iterate mean_step n_steps times; rows are (E[e], E[Delta]) after each
    step, shape (n_steps, 2)."""
    out = np.empty((n_steps, 2))
    s = state0
    for k in range(n_steps):
        s = mean_step(s, p)
        out[k] = s
    return out


# ---------------------------------------------------------------------------
# second moment and error variance


def second_moment_coefficients(p: MomentParams) -> tuple[float, float]:
    """(a, c) of E[z^2(k+1)] = a*E[z^2(k)] + c. See module docstring."""
    mu, f, b = p.step_size, p.nominal_hz, p.beacon_period_s
    drift = p.max_drift_hz**2 / (3.0 * f * f)
    a = (1.0 - mu) ** 2 + mu * mu * drift
    c = mu * mu * drift + mu**3 * p.delay_diff_var / (b * b)
    return a, c


def second_moment_fixed_point(p: MomentParams) -> float:
    """Steady-state E[z^2]. Raises NonconvergentMomentError when |a| >= 1."""
    a, c = second_moment_coefficients(p)
    if abs(a) >= 1.0:
        raise NonconvergentMomentError(
            f"second-moment recursion does not contract: |a| = {abs(a)} >= 1"
        )
    return c / (1.0 - a)


def _error_variance(p: MomentParams, z2: float, ew2: float, delay_term: float) -> float:
    """Var[e] = E[z^2] * (B^2 + E[w^2]/f^2) + E[w^2]/f^2 + the delay term."""
    f, b = p.nominal_hz, p.beacon_period_s
    return z2 * (b * b + ew2 / (f * f)) + ew2 / (f * f) + delay_term


def asymptotic_error_variance(p: MomentParams) -> float:
    """Steady-state Var[e]. Raises NonconvergentMomentError when |a| >= 1."""
    return _error_variance(p, second_moment_fixed_point(p), p.drift_integral_var(),
                           (1.0 + p.step_size) * p.delay_diff_var)


def variant_moment_predictions(p: MomentParams) -> dict[str, dict[str, float]]:
    """Predictions of alternative coefficient conventions, for reports only.

    unit_time_drift: drift variance scaled per unit second rather than per
        round (f_max^2/(3*B*f^2)) and no delay cross covariance.
    dropped_unit_constant: as unit_time_drift but additionally missing the
        leading 1 in the contraction coefficient.

    Returned values are NaN where the variant has no finite fixed point.
    """
    mu, f, b = p.step_size, p.nominal_hz, p.beacon_period_s
    drift_ut = p.max_drift_hz**2 / (3.0 * b * f * f)
    c_v = mu * mu * drift_ut + mu * mu * p.delay_diff_var / (b * b)
    ew2_ut = b * p.max_drift_hz**2 / 3.0

    out: dict[str, dict[str, float]] = {}
    for name, a_v in (
        ("unit_time_drift", 1.0 - 2.0 * mu + mu * mu * (1.0 + drift_ut)),
        ("dropped_unit_constant", mu * mu * (1.0 + drift_ut) - 2.0 * mu),
    ):
        if abs(a_v) >= 1.0:
            out[name] = {"z2": float("nan"), "var_e": float("nan")}
            continue
        z2_v = c_v / (1.0 - a_v)
        out[name] = {"z2": z2_v, "var_e": _error_variance(p, z2_v, ew2_ut, p.delay_diff_var)}
    return out


# ---------------------------------------------------------------------------
# Monte Carlo oracle


# pairwise_oracle's per-element arithmetic runs in blocks of _BLOCK
# elements, each turning its uniforms into rate * (B*f + w), and within a
# block in slices of _CHUNK for the delays. Every numpy call releases the
# GIL and takes it back, and validate-analysis's kernel threads contend for
# it on each, so the pieces are large: 50k runs are one block and five
# slices, 54 calls a step. A block's two 480 KB operands still fit a 2 MB
# L2 at 4M runs. No output bit depends on either value.
_CHUNK = 10_000
_BLOCK = 6 * _CHUNK
# The largest oracle, per step size. Runs set memory: a kernel holds three
# float64 arrays of n_runs, and validate-analysis runs one kernel per core,
# so the limit holds 96 MB per kernel, 192 MB on two cores. Runs x steps set
# time: 36-43 ns per run and step at 4M runs as the host's speed swings (2
# vCPU Xeon, numpy 2.4.6), so the limit is about 40 s per kernel. A step of
# few runs still costs its numpy calls, so fewer runs than a slice count as
# a slice.
MAX_ORACLE_RUNS = 4 * 10**6
MAX_ORACLE_RUN_STEPS = 10**9


def check_oracle_size(n_runs: int, n_steps: int) -> None:
    """ValueError unless 1 <= n_runs <= MAX_ORACLE_RUNS, n_steps >= 1 and
    max(n_runs, one slice) x n_steps <= MAX_ORACLE_RUN_STEPS."""
    if not 1 <= n_runs <= MAX_ORACLE_RUNS:
        raise ValueError(f"n_runs must be at least 1 and at most {MAX_ORACLE_RUNS}, got {n_runs}")
    most = MAX_ORACLE_RUN_STEPS // max(n_runs, _CHUNK)
    if not 1 <= n_steps <= most:
        raise ValueError(f"n_steps must be at least 1 and at most {most} at n_runs = {n_runs}, "
                         f"the limit of runs x steps per step size, got {n_steps}")


@dataclass(frozen=True)
class OracleTrace:
    """Per-round ensemble statistics from pairwise_oracle.

    Arrays have length n_steps; entry k describes round k+1 (e after the
    measurement, Delta after the rate update).
    """

    mean_e: np.ndarray
    var_e: np.ndarray
    mean_rate: np.ndarray
    var_rate: np.ndarray
    n_runs: int
    nominal_hz: float

    @property
    def stderr_e(self) -> np.ndarray:
        return np.sqrt(self.var_e / self.n_runs)

    @property
    def stderr_rate(self) -> np.ndarray:
        return np.sqrt(self.var_rate / self.n_runs)

    @property
    def mean_e2(self) -> np.ndarray:
        return self.var_e + self.mean_e**2

    @property
    def mean_z2(self) -> np.ndarray:
        f = self.nominal_hz
        return f * f * (self.var_rate + (self.mean_rate - 1.0 / f) ** 2)


def pairwise_oracle(
    p: MomentParams,
    *,
    seed: int,
    n_steps: int,
    n_runs: int,
    initial_rate: float | None = None,
) -> OracleTrace:
    """Simulate the exact stochastic recursions and return ensemble stats.

    Drift is sampled once per round as w = B * U(-f_max, f_max), matching a
    hardware clock whose piecewise-constant drift segments align with the
    rounds. Delays are i.i.d. N(0, delay_std^2) per received message, with
    the initial message's delay drawn too, so successive delay differences
    D(k+1) = b(k+1) - b(k) carry their real correlation.

    This is the ground truth the closed forms above are validated against.
    """
    check_oracle_size(n_runs, n_steps)
    b, f, mu = p.beacon_period_s, p.nominal_hz, p.step_size
    f_max, sigma_b = p.max_drift_hz, p.delay_std_s
    gain = mu / (b * f)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    # Each round evaluates
    #   e    = rate * (b*f + b*U(-f_max, f_max)) - (b + beta - beta_prev)
    #   rate = rate - mu/(b*f) * e
    # one IEEE operation at a time in this order, so every element gets the
    # bits the array expressions would give. numpy's uniform(lo, hi) is
    # lo + (hi-lo)*u, and normal(0, s) is 0.0 + s*z, which differs from s*z
    # only in the sign of a zero that b + beta (b > 0) then loses. Three
    # n_runs buffers: rate, x (the uniforms, then e, then the variance
    # scratch) and beta, which holds the previous round's delays until its
    # slice draws the new ones. A fill in pieces draws what one fill draws,
    # and all of a round's uniforms are drawn before its first normal; the
    # reductions stay whole-array, since a pairwise sum's rounding depends
    # on the length. See NOTES.md, "The oracle kernel".
    rate = np.full(n_runs, 1.0 / f if initial_rate is None else initial_rate, dtype=float)
    x = np.empty(n_runs)
    beta = gen.standard_normal(n_runs)
    beta *= sigma_b
    w = np.empty(min(_CHUNK, n_runs))
    d = np.empty_like(w)
    blocks = []
    for i in range(0, n_runs, _BLOCK):
        end = min(i + _BLOCK, n_runs)
        bounds = [(lo, min(lo + _CHUNK, end)) for lo in range(i, end, _CHUNK)]
        blocks.append((x[i:end], rate[i:end], [
            (x[lo:hi], rate[lo:hi], beta[lo:hi], w[:hi - lo], d[:hi - lo])
            for lo, hi in bounds]))

    # rows mean_e, var_e, mean_rate, var_rate; each var as np.var computes it
    stats = np.empty((4, n_steps))
    for k in range(n_steps):
        gen.random(out=x)
        for xb, rb, slices in blocks:
            xb *= 2.0 * f_max
            xb += -f_max
            xb *= b
            xb += b * f
            xb *= rb
            for xc, rc, bc, wc, dc in slices:
                gen.standard_normal(out=wc)
                wc *= sigma_b
                np.add(wc, b, out=dc)
                dc -= bc
                bc[...] = wc
                xc -= dc  # e
                np.multiply(xc, gain, out=dc)
                rc -= dc
        for row, v in ((0, x), (2, rate)):  # e's pass leaves x free for rate's
            m = np.add.reduce(v) / n_runs
            np.subtract(v, m, out=x)
            x *= x
            stats[row, k] = m
            stats[row + 1, k] = np.add.reduce(x) / n_runs
    return OracleTrace(
        mean_e=stats[0],
        var_e=stats[1],
        mean_rate=stats[2],
        var_rate=stats[3],
        n_runs=n_runs,
        nominal_hz=f,
    )


def steady_state_stats(trace: OracleTrace, tail: int) -> dict[str, float]:
    """Average the last ``tail`` rounds of an oracle trace.

    Returns mean_e, mean_e2 (empirical Var[e] once the mean is ~0), mean_z2
    and mean_rate over the tail.
    """
    if not 1 <= tail <= len(trace.mean_e):
        raise ValueError(f"tail must be at least 1 and at most {len(trace.mean_e)}, got {tail}")
    sl = slice(len(trace.mean_e) - tail, None)
    return {
        "mean_e": float(trace.mean_e[sl].mean()),
        "mean_e2": float(trace.mean_e2[sl].mean()),
        "mean_z2": float(trace.mean_z2[sl].mean()),
        "mean_rate": float(trace.mean_rate[sl].mean()),
    }


def _mean_sigma_series(
    trace: OracleTrace, p: MomentParams, state0: tuple[float, float]
) -> np.ndarray:
    """Per round, the larger over (E[e], E[Delta]) of
    |oracle mean - predicted mean| / stderr."""
    pred = mean_trace(p, state0, len(trace.mean_e))
    return np.maximum(
        np.abs(trace.mean_e - pred[:, 0]) / np.maximum(trace.stderr_e, 1e-300),
        np.abs(trace.mean_rate - pred[:, 1]) / np.maximum(trace.stderr_rate, 1e-300),
    )


def mean_agreement_max_sigma(
    trace: OracleTrace, p: MomentParams, state0: tuple[float, float]
) -> float:
    """Largest |oracle mean - predicted mean| / stderr over all rounds and
    both state components.

    Informational: with hundreds of compared rounds the max routinely
    brushes 4 by chance alone; gate pass/fail decisions on
    final_step_sigma instead.
    """
    return float(_mean_sigma_series(trace, p, state0).max())


def final_step_sigma(
    trace: OracleTrace, p: MomentParams, state0: tuple[float, float]
) -> float:
    """|oracle mean - predicted mean| / stderr at the final round, the
    larger of the two state components. A single two-component comparison,
    so a 4-sigma gate (MEAN_GATE_SIGMA) has a negligible false-alarm rate."""
    return float(_mean_sigma_series(trace, p, state0)[-1])


MEAN_GATE_SIGMA = 4.0


def _predictions(p: MomentParams) -> tuple[float | None, dict[str, dict[str, float]]]:
    """asymptotic_error_variance of p and its variant_moment_predictions, or
    None and no variants where it does not converge; a variant's NaN is its
    missing fixed point."""
    with contextlib.suppress(NonconvergentMomentError):
        return asymptotic_error_variance(p), variant_moment_predictions(p)
    return None, {}


def validate_grid(models: list[MomentParams], *, seed: int, n_runs: int, n_steps: int,
                  tail: int, initial_rate_offset: float) -> list[dict]:
    """Check each model against its own oracle, started at E[e] = 0 and
    rate (1 + ``initial_rate_offset``) / its nominal_hz with seed
    ``seed + 7919 * its index``; one row
    per model, in order: mu, final_sigma, worst_sigma, predicted_var,
    empirical_var (E[e^2] over the last ``tail`` rounds), rel_err (None
    where not computed), note, variants (variant_moment_predictions, each
    with its rel_err) and failed (final_sigma above MEAN_GATE_SIGMA). Only
    mean-convergent models run an oracle, and MomentParams keeps their
    closed forms in float range. ValueError before any kernel for fewer
    than 2 runs, a size that check_oracle_size refuses, a ``tail`` outside
    [1, n_steps), an offset that makes a rate 0, negative, inf or NaN, or a
    mean-convergent model with no drift and no delay; and at a model whose
    oracle statistics leave float range or whose oracle variance is 0
    (noise below float resolution)."""
    # the mean check divides by the oracle's standard error, the variance
    # check by its empirical variance; both are 0 without two noisy runs
    if n_runs < 2:
        raise ValueError(f"n_runs must be at least 2 for a standard error, got {n_runs}")
    check_oracle_size(n_runs, n_steps)
    if not 1 <= tail < n_steps:
        raise ValueError(f"tail must be at least 1 and below n_steps = {n_steps}, got {tail}")
    rates = [(1.0 + initial_rate_offset) / p.nominal_hz for p in models]
    if not all(0 < rate < math.inf for rate in rates):
        raise ValueError("initial_rate_offset must keep (1 + initial_rate_offset) / nominal_hz "
                         f"finite and positive, got {initial_rate_offset}")
    for p in models:
        if is_mean_convergent(p) and p.max_drift_hz == p.delay_diff_var == 0:
            raise ValueError(f"max_drift_hz must be positive at mu {p.step_size} where "
                             "delay_std_s is 0: a noiseless oracle has no standard error, "
                             f"got {p.max_drift_hz}")
    convergent = [k for k, p in enumerate(models) if is_mean_convergent(p)]

    @np.errstate(over="ignore", invalid="ignore")  # refused below, not warned of
    def kernel(k: int) -> OracleTrace:
        return pairwise_oracle(models[k], seed=seed + 7919 * k, n_steps=n_steps,
                               n_runs=n_runs, initial_rate=rates[k])

    # A kernel spends most of its time in numpy calls that release the GIL,
    # so the kernels run concurrently on threads. Each call also takes the
    # GIL back, so a kernel's calls per step set how often the threads trade
    # it; hence pairwise_oracle's large blocks and slices.
    rows = []
    with contextlib.ExitStack() as stack:
        traces = map(kernel, [])
        if convergent:
            import concurrent.futures

            pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=min(len(convergent), os.cpu_count() or 1))
            # on a row that raises too: queued kernels are dropped
            stack.callback(pool.shutdown, cancel_futures=True)
            traces = pool.map(kernel, convergent)
        for k, p in enumerate(models):
            row = {"mu": p.step_size, "final_sigma": None, "worst_sigma": None,
                   "predicted_var": None, "empirical_var": None, "rel_err": None,
                   "note": "", "variants": {}, "failed": False}
            rows.append(row)
            if k not in convergent:
                row["note"] = ("marginal by design (|1 - mu| = 1)"
                               if abs(1.0 - p.step_size) == 1.0 else "divergent by design")
                continue
            trace, state0 = next(traces), (0.0, rates[k])
            # a mean out of float range makes its variance NaN or inf too; the
            # gate below would read NaN as a pass
            if not np.isfinite(trace.var_e + trace.var_rate).all():
                raise ValueError(f"the oracle's statistics at mu {p.step_size} leave float range")
            final = final_step_sigma(trace, p, state0)
            row.update(final_sigma=final, worst_sigma=mean_agreement_max_sigma(trace, p, state0),
                       failed=final > MEAN_GATE_SIGMA)
            notes = ["MEAN CHECK FAILED"] if row["failed"] else []
            predicted, variants = _predictions(p)
            if predicted is None:
                notes.append("moment nonconvergent")
            else:
                empirical = steady_state_stats(trace, tail)["mean_e2"]
                if empirical == 0:  # rel_err and the variants divide by it
                    raise ValueError(
                        f"the oracle's error variance at mu {p.step_size} is 0: a drift "
                        f"bound of {p.max_drift_hz} Hz and a delay std of {p.delay_std_s} s "
                        "give noise below float resolution")
                for pred in variants.values():
                    pred["rel_err"] = abs(pred["var_e"] - empirical) / empirical
                row.update(predicted_var=predicted, empirical_var=empirical,
                           rel_err=abs(predicted - empirical) / empirical, variants=variants)
            row["note"] = "; ".join(notes)
    return rows
