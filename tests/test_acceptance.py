"""End-to-end acceptance checks.

Each test prints one `criterion N [PASS|FAIL]` line directly to the
terminal (bypassing capture) and then asserts, so the suite both reports
and enforces every criterion:

1. the mean recursion converges exactly for step sizes inside (0, 2) and
   fails outside;
2. mu = 1 is deadbeat for the mean rate;
3. the stochastic pairwise oracle reaches the predicted fixed point;
4. the closed-form second moment and error variance match the oracle, with
   the alternative-convention disagreement emitted in the validation report;
5. the newton protocol out-converges both baseline reconstructions on the
   16-node line;
6. its post-convergence error stays within a factor of two of avgpisync;
7. an ideal two-node simulation reproduces the mean recursion bit for bit;
8. repeated CLI runs are byte-identical.
"""
from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from wsnsync.analysis import (
    MomentParams,
    asymptotic_error_variance,
    mean_step,
    mean_trace,
    pairwise_oracle,
    second_moment_fixed_point,
    steady_state_stats,
)
from wsnsync.cli import main as cli_main
from wsnsync.metrics import summarize
from wsnsync.protocols import Protocol, ProtocolParams
from wsnsync.simulation import build_line_topology, record_schedule, run_simulation

B = 30.0
F_HAT = 1e6
SEEDS = list(range(1, 11))


def _report(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    marker = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {num} [{marker}] {name}: {detail}")
    assert ok, f"criterion {num} {name}: {detail}"


def _relative_gap(state: tuple[float, float]) -> float:
    # distance from the fixed point (0, 1/f), each component in its
    # natural scale (B for the error, 1/f for the rate)
    e, d = state
    return max(abs(e) / B, abs(d - 1.0 / F_HAT) * F_HAT)


# ---------------------------------------------------------------------------
# criteria 1 and 2: mean recursion


def test_criterion_1_convergence_bound(capsys):
    t0 = time.perf_counter()
    iters: dict[float, int | None] = {}
    for mu in (0.1, 0.5, 1.0, 1.9, 2.0, 2.2):
        m = MomentParams(beacon_period_s=B, nominal_hz=F_HAT, step_size=mu)
        state = (0.0, 1.5e-6)
        found = None
        for k in range(10000):
            state = mean_step(state, m)
            if _relative_gap(state) <= 1e-12:
                found = k + 1
                break
        iters[mu] = found
    elapsed = time.perf_counter() - t0
    inside_ok = all(iters[mu] is not None for mu in (0.1, 0.5, 1.0, 1.9))
    outside_ok = all(iters[mu] is None for mu in (2.0, 2.2))
    _report(
        capsys, 1, "convergence bound",
        inside_ok and outside_ok and elapsed < 1.0,
        f"iterations to 1e-12: {iters}, elapsed {elapsed:.3f} s",
    )


def test_criterion_2_deadbeat_step(capsys):
    t0 = time.perf_counter()
    m = MomentParams(beacon_period_s=B, nominal_hz=F_HAT, step_size=1.0)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(271828)))
    exact = 0
    for _ in range(100):
        start = (float(gen.uniform(-50.0, 50.0)),
                 float(gen.uniform(0.1e-6, 10e-6)))
        _, d1 = mean_step(start, m)
        exact += d1 == 1.0 / F_HAT
    elapsed = time.perf_counter() - t0
    _report(
        capsys, 2, "deadbeat step size",
        exact == 100 and elapsed < 1.0,
        f"{exact}/100 random starts hit 1/f exactly in one step, "
        f"elapsed {elapsed:.3f} s",
    )


# ---------------------------------------------------------------------------
# criteria 3 and 4: stochastic steady state


def test_criterion_3_pairwise_steady_state(capsys):
    t0 = time.perf_counter()
    p = MomentParams.from_delay_std(
        1e-5, beacon_period_s=B, nominal_hz=F_HAT, max_drift_hz=100.0,
        step_size=1.0,
    )
    tr = pairwise_oracle(p, seed=314159, n_steps=200, n_runs=10000)
    e_sigma = abs(tr.mean_e[-1]) / tr.stderr_e[-1]
    rate_rel = abs(tr.mean_rate[-1] - 1.0 / F_HAT) * F_HAT
    elapsed = time.perf_counter() - t0
    _report(
        capsys, 3, "pairwise steady state",
        e_sigma <= 4.0 and rate_rel <= 1e-4 and elapsed < 30.0,
        f"final mean e at {e_sigma:.2f} standard errors from 0, mean rate "
        f"within {rate_rel:.2e} relative of 1/f, elapsed {elapsed:.2f} s",
    )


def test_criterion_4_moment_and_variance_validation(tmp_path: Path, capsys):
    t0 = time.perf_counter()
    p = MomentParams.from_delay_std(
        1e-5, beacon_period_s=B, nominal_hz=F_HAT, max_drift_hz=100.0,
        step_size=1.0,
    )
    tr = pairwise_oracle(p, seed=20260814, n_steps=300, n_runs=20000)
    ss = steady_state_stats(tr, 100)
    z2_rel = abs(second_moment_fixed_point(p) - ss["mean_z2"]) / ss["mean_z2"]
    var_rel = abs(asymptotic_error_variance(p) - ss["mean_e2"]) / ss["mean_e2"]

    # the validation report must emit the residual disagreement of the
    # alternative coefficient conventions
    code = cli_main([
        "validate-analysis", "--out-dir", str(tmp_path), "--mu-grid", "1.0",
        "--oracle-runs", "4000", "--oracle-steps", "150", "--tail", "50",
    ])
    out = capsys.readouterr().out
    reported = "disagrees with oracle" in out
    elapsed = time.perf_counter() - t0
    _report(
        capsys, 4, "moment/variance validation",
        z2_rel < 0.10 and var_rel < 0.10 and code == 0 and reported
        and elapsed < 60.0,
        f"fixed point within {z2_rel:.2%}, variance within {var_rel:.2%} of "
        f"oracle; variant disagreement emitted in report: {reported}; "
        f"elapsed {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# criteria 5 and 6: protocol comparison on the 16-node line


def _comparison_params(kind: Protocol) -> ProtocolParams:
    return ProtocolParams(
        kind=kind,
        beacon_period_s=B,
        nominal_hz=F_HAT,
        max_error_s=6000.0 / F_HAT,
        gather_wait_s=1.0,
    )


@pytest.fixture(scope="module")
def comparison():
    # One event pass per seed runs the three protocols in lock step: the
    # same traces as three full runs (test_replayed_schedule_equals_the_live_run).
    t0 = time.perf_counter()
    sim_kwargs = {
        "max_drift_hz": 25.0, "drift_resample_interval_s": 3600.0, "delay_std_s": 1e-5,
        "duration_s": 12240.0, "sample_interval_s": 10.0, "boot_window_s": 300.0,
    }
    topo = build_line_topology(16)
    summaries = {kind: [] for kind in Protocol}
    for seed in SEEDS:
        schedule = record_schedule(topo, [_comparison_params(kind) for kind in Protocol],
                                   seed=seed, **sim_kwargs)
        for kind in Protocol:
            trace = run_simulation(topo, _comparison_params(kind), schedule=schedule)
            summaries[kind].append(summarize(
                trace.sample_times_s, trace.logical_s, 1000.0 / F_HAT, 5,
                start_after=trace.boot_complete_time,
            ))
    return summaries, time.perf_counter() - t0


def _median_conv(summaries) -> float:
    return statistics.median(
        s.convergence_time_s if s.convergence_time_s is not None
        else float("inf")
        for s in summaries
    )


def test_criterion_5_protocol_comparison(comparison, capsys):
    summaries, elapsed = comparison
    conv = {kind.value: _median_conv(summaries[kind]) for kind in Protocol}
    newton = conv["newton"]
    smaller = min(conv["grades"], conv["avgpisync"])
    ok = (
        newton < conv["grades"]
        and newton < conv["avgpisync"]
        and newton < 0.6 * smaller
        and elapsed < 300.0
    )
    _report(
        capsys, 5, "protocol comparison",
        ok,
        f"median convergence times over {len(SEEDS)} seeds (s): {conv}; "
        f"newton/min-baseline ratio {newton / smaller:.3f} (< 0.6 required); "
        f"30 runs in {elapsed:.1f} s",
    )


def test_criterion_6_error_performance_parity(comparison, capsys):
    summaries, _ = comparison
    med = {}
    unconverged = 0
    for kind in (Protocol.NEWTON, Protocol.AVGPISYNC):
        vals = [s.steady_state_max_global_err_s for s in summaries[kind]]
        unconverged += sum(v is None for v in vals)
        med[kind.value] = statistics.median(
            v if v is not None else float("inf") for v in vals
        )
    ratio = med["newton"] / med["avgpisync"]
    _report(
        capsys, 6, "error-performance parity",
        unconverged == 0 and 0.5 <= ratio <= 2.0,
        f"median post-convergence max global error: newton "
        f"{med['newton'] * 1e6:.1f} us, avgpisync "
        f"{med['avgpisync'] * 1e6:.1f} us, ratio {ratio:.3f} "
        f"(within [0.5, 2] required), unconverged runs: {unconverged}",
    )


# ---------------------------------------------------------------------------
# criterion 7: simulator vs mean recursion, bit exact


def test_criterion_7_small_instance_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    f = float(2**20)  # power-of-two frequency keeps every product exact
    b = 32.0
    d0 = (1.0 + 2.0**-4) / f  # 6.25% fast initial rate, exactly representable
    params = ProtocolParams(
        kind=Protocol.NEWTON, step_size=1.0, beacon_period_s=b,
        nominal_hz=f, max_error_s=10.0, gather_wait_s=0.0,
    )
    trace = run_simulation(
        build_line_topology(2), params, max_drift_hz=0.0, drift_resample_interval_s=30.0,
        delay_std_s=0.0, duration_s=50 * b,
        sample_interval_s=50 * b, boot_window_s=0.0, seed=1,
        initial_rate=d0, initial_ticks=0.0,
    )
    rounds = [r for r in trace.rounds if r.node_id == 2][:51]
    pred = mean_trace(MomentParams(b, f, step_size=1.0), (0.0, d0), 50)
    mism = 0
    for k in range(1, 51):
        r = rounds[k]
        if -r.mean_offset_s != pred[k - 1, 0] or r.new_rate != pred[k - 1, 1]:
            mism += 1
    elapsed = time.perf_counter() - t0
    _report(
        capsys, 7, "small-instance oracle equivalence",
        len(rounds) == 51 and rounds[0].mean_offset_s == 0.0 and mism == 0
        and elapsed < 1.0,
        f"50 beacons compared bit-exactly, {mism} mismatches, "
        f"elapsed {elapsed:.3f} s",
    )


# ---------------------------------------------------------------------------
# criterion 8: CLI determinism


def test_criterion_8_determinism(tmp_path: Path, capsys):
    t0 = time.perf_counter()
    args = [
        "run", "--topology", "line:4", "--duration", "400",
        "--boot-window", "100", "--seed", "5",
        "--protocol", "newton,grades,avgpisync",
    ]
    d1, d2 = tmp_path / "first", tmp_path / "second"
    code1 = cli_main([*args, "--out-dir", str(d1)])
    code2 = cli_main([*args, "--out-dir", str(d2)])
    capsys.readouterr()
    names = sorted(p.name for p in d1.glob("trace_*.csv"))
    identical = bool(names) and all(
        (d1 / n).read_bytes() == (d2 / n).read_bytes() for n in names
    )
    elapsed = time.perf_counter() - t0
    _report(
        capsys, 8, "determinism",
        code1 == 0 and code2 == 0 and len(names) == 3 and identical
        and elapsed < 60.0,
        f"{len(names)} trace files byte-identical across reruns, "
        f"elapsed {elapsed:.1f} s",
    )
