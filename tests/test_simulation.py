"""Event-driven simulator: topology, scheduling, determinism, protocol rounds."""
from __future__ import annotations

import dataclasses
import io
import json
import math
import re
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnsync import simulation
from wsnsync.analysis import (
    MomentParams,
    asymptotic_error_variance,
    mean_trace,
)
from wsnsync.protocols import Protocol, ProtocolParams, default_step_size, effective_gain
from wsnsync.simulation import (
    BEACON,
    DEADLINE,
    DELAY_BLOCK,
    DELIVERY,
    SAMPLE,
    DelayModel,
    EventQueue,
    Topology,
    build_line_topology,
    record_schedule,
    run_simulation,
)


def _gen(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _newton_params(b: float = 30.0, f: float = 1e6, **kw) -> ProtocolParams:
    kw.setdefault("step_size", 1.0)
    kw.setdefault("max_error_s", 6e-3)
    return ProtocolParams(kind=Protocol.NEWTON, beacon_period_s=b,
                          nominal_hz=f, **kw)


# a run's drift settings: none at all, or the CLI's 25 Hz redrawn hourly
_NO_DRIFT = {"max_drift_hz": 0.0, "drift_resample_interval_s": 30.0}
_HOURLY_DRIFT = {"max_drift_hz": 25.0, "drift_resample_interval_s": 3600.0}


# ---------------------------------------------------------------------------
# topology


def test_line_topology_shape():
    topo = build_line_topology(16)
    assert topo.node_ids == tuple(range(1, 17))
    assert len(topo.edges) == 15
    assert topo.gateway == 1
    assert topo.neighbors[1] == (2,)
    assert topo.neighbors[8] == (7, 9)
    assert topo.neighbors[16] == (15,)


def test_line_topology_needs_two_nodes():
    with pytest.raises(ValueError):
        build_line_topology(1)


def test_edges_normalized_sorted_unique():
    topo = Topology((1, 2, 3), ((3, 1), (1, 3), (2, 1)), 1)
    assert topo.edges == ((1, 2), (1, 3))


def test_topology_validation():
    with pytest.raises(ValueError, match="duplicate"):
        Topology((1, 1, 2), ((1, 2),), 1)
    with pytest.raises(ValueError, match="self loop"):
        Topology((1, 2), ((1, 1),), 1)
    with pytest.raises(ValueError, match="unknown node"):
        Topology((1, 2), ((1, 3),), 1)
    with pytest.raises(ValueError, match="gateway"):
        Topology((1, 2), ((1, 2),), 9)
    with pytest.raises(ValueError, match="cannot reach"):
        Topology((1, 2, 3, 4), ((1, 2), (3, 4)), 1)


def test_large_line_topology_builds_and_validates():
    topo = build_line_topology(4096)
    assert len(topo.edges) == 4095
    assert topo.neighbors[4096] == (4095,)
    with pytest.raises(ValueError, match="unknown node"):
        Topology(topo.node_ids, (*topo.edges, (4096, 4097)), 1)


def test_topology_to_config_round_trip():
    topo = build_line_topology(4)
    assert Topology.from_config(topo.to_config()) == topo
    # a topology file: a star around gateway 2, edges in any order
    star = Topology((1, 2, 3, 4), ((3, 2), (2, 1), (4, 2)), 2)
    text = json.dumps({"nodes": [4, 3, 2, 1], "edges": [[2, 4], [1, 2], [2, 3]],
                       "gateway": 2})
    assert Topology.from_config(json.loads(text)) == star
    assert Topology.from_config(json.loads(json.dumps(star.to_config()))) == star


@pytest.mark.parametrize("config,message", [
    ({"nodes": [1, 2], "edges": [[1, 2]]}, "not a topology config: KeyError.'gateway'"),
    ({"nodes": 2, "edges": [[1, 2]], "gateway": 1}, "not a topology config: TypeError"),
    ([1, 2], "not a topology config: TypeError"),
    ({"nodes": [1], "edges": [], "gateway": 1}, "at least two nodes"),
])
def test_topology_from_config_rejects_bad_configs(config, message):
    with pytest.raises(ValueError, match=message):
        Topology.from_config(config)


# ---------------------------------------------------------------------------
# delays, event ordering


def test_delay_model_validation_and_floor():
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            DelayModel(std_s=bad)
        with pytest.raises(ValueError):
            DelayModel(floor_s=bad)
    dm = DelayModel(std_s=0.0, floor_s=0.25)
    assert dm.sample(dm.normals(_gen())) == 0.25


def test_block_drawn_delays_equal_scalar_draws():
    # the floor clamps some draws and not others
    dm = DelayModel(std_s=1e-3, floor_s=2e-4)
    n = 2 * DELAY_BLOCK + 7
    normals = dm.normals(_gen(5))
    blocked = [dm.sample(normals) for _ in range(n)]
    gen = _gen(5)
    scalar = [max(dm.floor_s, float(gen.normal(0.0, dm.std_s))) for _ in range(n)]
    assert blocked == scalar
    assert min(blocked) == dm.floor_s < max(blocked)


def test_event_queue_priority_classes():
    q = EventQueue()
    q.push(5.0, SAMPLE, "s")
    q.push(5.0, BEACON, "b")
    q.push(5.0, DELIVERY, "d")
    q.push(5.0, DEADLINE, "x")
    q.push(4.0, SAMPLE, "early")
    order = [q.pop()[2] for _ in range(len(q))]
    assert order == ["early", "d", "x", "b", "s"]


def test_event_queue_fifo_within_class():
    q = EventQueue()
    q.push(1.0, BEACON, "first")
    q.push(1.0, BEACON, "second")
    assert q.pop()[2] == "first"
    assert q.pop()[2] == "second"


# ---------------------------------------------------------------------------
# run_simulation argument validation


def test_run_simulation_validates_arguments():
    topo = build_line_topology(2)
    with pytest.raises(ValueError):
        run_simulation(topo, _newton_params(), **_NO_DRIFT, duration_s=0.0)
    with pytest.raises(ValueError):
        run_simulation(topo, _newton_params(), **_NO_DRIFT,
                       duration_s=100.0, sample_interval_s=0.0)
    with pytest.raises(ValueError):
        run_simulation(topo, _newton_params(), **_NO_DRIFT,
                       duration_s=100.0, boot_window_s=100.0)
    # 0 and a negative initial rate: a clock that stands still or runs
    # backwards is refused, not simulated
    for bad in (float("inf"), float("nan"), 0.0, -1e-6):
        with pytest.raises(ValueError, match="finite"):
            run_simulation(topo, _newton_params(), **_NO_DRIFT, duration_s=bad)
        with pytest.raises(ValueError, match="finite"):
            run_simulation(topo, _newton_params(), **_NO_DRIFT,
                           duration_s=100.0, sample_interval_s=bad)
        with pytest.raises(ValueError,
                           match=f"^initial_rate must be finite and positive, got {bad}$"):
            run_simulation(topo, _newton_params(), **_NO_DRIFT,
                           duration_s=1000.0, initial_rate=bad)


_OVERFLOWING_RUN = {"topology": build_line_topology(3),
                    "max_drift_hz": 25.0, "drift_resample_interval_s": 30.0,
                    "duration_s": 300.0, "boot_window_s": 60.0, "seed": 1}


def test_run_simulation_rejects_overflowing_clocks():
    # a huge step size under a guard that never blocks it drives the rate,
    # then the readings, to inf and NaN; the run is refused instead
    params = ProtocolParams(kind=Protocol.GRADES, step_size=1e300, max_error_s=1e300)
    with pytest.raises(ValueError, match="out of float range"):
        run_simulation(params=params, **_OVERFLOWING_RUN)


def test_a_lone_failing_params_fails_at_its_run_not_its_pass():
    # the pass keeps the error of a lone params as it does among several
    params = ProtocolParams(kind=Protocol.GRADES, step_size=1e300, max_error_s=1e300)
    schedule = record_schedule(params_seq=[params], **_OVERFLOWING_RUN)
    assert list(schedule) == [params] and isinstance(schedule[params], ValueError)
    with pytest.raises(ValueError) as live:
        run_simulation(params=params, **_OVERFLOWING_RUN)
    frames = []
    for _ in range(2):  # the kept error gathers no frames from earlier calls
        with pytest.raises(ValueError, match=f"^{re.escape(str(live.value))}$") as shared:
            run_simulation(_OVERFLOWING_RUN["topology"], params, schedule=schedule)
        frames.append(len(traceback.extract_tb(shared.value.__traceback__)))
    assert frames[0] == frames[1]


# a rate so large that the first sample reads inf, while no round's
# correction fails: the guard skips the rate update at that error
_SAMPLE_OVERFLOW_RUN = {"topology": build_line_topology(2),
                        **_NO_DRIFT, "delay_std_s": 0.0, "duration_s": 15.0,
                        "boot_window_s": 0.0, "seed": 1, "initial_rate": 1e302,
                        "initial_ticks": 0.0}


def test_a_reading_out_of_float_range_fails_its_run():
    # the scan after the pass finds it, alone or from a recorded schedule
    params = ProtocolParams(Protocol.NEWTON, 1.0)
    message = ("^node 2 reads inf at t = 10.0 s: the settings drive its clock out of "
               "float range$")
    with pytest.raises(ValueError, match=message):
        run_simulation(params=params, **_SAMPLE_OVERFLOW_RUN)
    schedule = record_schedule(params_seq=[params], **_SAMPLE_OVERFLOW_RUN)
    with pytest.raises(ValueError, match=message):
        run_simulation(_SAMPLE_OVERFLOW_RUN["topology"], params, schedule=schedule)


def test_a_failure_keeps_the_first_message(monkeypatch):
    # a round's correction and the readings scan report through _Clocks.fail,
    # which keeps the first; the round names the correction that failed
    real_fail, reports = simulation._Clocks.fail, []

    def fail(self, i, reading, t, where):
        reports.append(where)
        real_fail(self, i, reading, t, where)

    monkeypatch.setattr(simulation._Clocks, "fail", fail)
    params = ProtocolParams(kind=Protocol.GRADES, step_size=1e300, max_error_s=1e300)
    error = record_schedule(params_seq=[params], **_OVERFLOWING_RUN)[params]
    first = ("node 2 reads 64.42433358067846 at t = 71.46013128238575 s, where its "
             "correction is offset_s=7.035768056752403, new_rate=inf: the settings drive "
             "its clock out of float range")
    assert str(error) == first
    assert reports[0] != "" and reports[-1] == ""  # the scan reported after the round


def test_run_simulation_rejects_runaway_schedules(monkeypatch):
    # too many sample frames or beacon rounds per node is refused before
    # the event pass starts; exactly the limit is accepted
    class Started(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Started

    monkeypatch.setattr(simulation, "_event_pass", refuse)
    topo = build_line_topology(2)
    limit = simulation.MAX_PERIODS_PER_RUN
    with pytest.raises(Started):
        run_simulation(topo, _newton_params(), **_NO_DRIFT,
                       duration_s=float(limit), sample_interval_s=1.0)
    with pytest.raises(ValueError, match="sample_interval_s"):
        run_simulation(topo, _newton_params(), **_NO_DRIFT,
                       duration_s=float(limit + 1), sample_interval_s=1.0)
    fast_beacons = _newton_params(b=1e-3, gather_wait_s=0.0)
    with pytest.raises(ValueError, match="beacon_period_s"):
        run_simulation(topo, fast_beacons, **_NO_DRIFT, duration_s=2000.0,
                       sample_interval_s=10.0)
    # each drift segment is one draw per node
    short_segments = {"max_drift_hz": 0.0, "drift_resample_interval_s": 1.0}
    with pytest.raises(Started):
        run_simulation(topo, _newton_params(), **short_segments,
                       duration_s=float(limit), sample_interval_s=limit / 10)
    with pytest.raises(ValueError, match="drift_resample_interval_s"):
        run_simulation(topo, _newton_params(), **short_segments,
                       duration_s=float(limit + 1), sample_interval_s=limit / 10)
    # over every node but the gateway, whose counter reads true time
    line17 = build_line_topology(17)
    with pytest.raises(Started):
        run_simulation(line17, _newton_params(), **short_segments,
                       duration_s=limit / 16, sample_interval_s=limit / 160)
    with pytest.raises(ValueError, match="drift_resample_interval_s x 16 nodes = 1.00002e"):
        run_simulation(line17, _newton_params(), **short_segments,
                       duration_s=limit / 16 + 1, sample_interval_s=limit / 160)


def test_a_runs_readings_are_bounded_over_its_nodes():
    # 10^6 frames (MAX_PERIODS_PER_RUN) of line:10 hold exactly
    # MAX_READINGS_PER_RUN readings; line:11's are refused before any pass
    run = {**_NO_DRIFT, "duration_s": 1e6, "sample_interval_s": 1.0}
    assert simulation.MAX_READINGS_PER_RUN == 10 * simulation.MAX_PERIODS_PER_RUN
    simulation.run_config(build_line_topology(10), _newton_params(), **run)
    message = ("^duration_s / sample_interval_s x 11 nodes = 1.1e\\+07 exceeds the limit "
               f"of {simulation.MAX_READINGS_PER_RUN} per run$")
    with pytest.raises(ValueError, match=message):
        simulation.run_config(build_line_topology(11), _newton_params(), **run)


class _Uncounted(list):
    """A node list that fails the test if anything iterates it."""

    def __iter__(self):
        raise AssertionError("the node list was built before it was counted")


def test_topologies_are_bounded_in_nodes_before_they_are_built(monkeypatch):
    with pytest.raises(ValueError, match=f"^{simulation.MAX_NODES + 1} nodes exceed the "
                                         f"limit of {simulation.MAX_NODES}$"):
        build_line_topology(simulation.MAX_NODES + 1)
    line5 = build_line_topology(5)
    monkeypatch.setattr(simulation, "MAX_NODES", 5)
    assert build_line_topology(5) == line5
    assert Topology.from_config(line5.to_config()) == line5
    with pytest.raises(ValueError, match="^6 nodes exceed the limit of 5$"):
        build_line_topology(6)
    config = {**build_line_topology(3).to_config(), "nodes": _Uncounted(range(1, 7))}
    with pytest.raises(ValueError, match="^6 nodes exceed the limit of 5$"):
        Topology.from_config(config)


# ---------------------------------------------------------------------------
# exactness in the noise-free regime


def test_ideal_run_has_exactly_zero_error():
    # power-of-two frequency, zero drift, zero delay, aligned boots: every
    # logical reading reproduces true time bit for bit, forever.
    f = float(2**20)
    params = _newton_params(b=32.0, f=f, gather_wait_s=0.0, max_error_s=10.0)
    trace = run_simulation(
        build_line_topology(2), params, **_NO_DRIFT,
        delay_std_s=0.0, duration_s=512.0,
        sample_interval_s=8.0, boot_window_s=0.0, seed=3,
        initial_ticks=0.0,
    )
    assert len(trace.sample_times_s) == 64
    assert trace.logical_s.shape == (64, 2)
    for t, row in zip(trace.sample_times_s, trace.logical_s.tolist()):
        assert row == [t, t]


def test_two_node_ideal_run_follows_mean_recursion():
    # zero drift and delay with a 5% fast initial rate: each averaging round
    # reproduces one application of the mean recursion.
    b, f, d0 = 30.0, 1e6, 1.05e-6
    params = _newton_params(b=b, f=f, gather_wait_s=0.0, max_error_s=10.0)
    trace = run_simulation(
        build_line_topology(2), params, **_NO_DRIFT,
        delay_std_s=0.0, duration_s=40 * b,
        sample_interval_s=40 * b, boot_window_s=0.0, seed=1,
        initial_rate=d0, initial_ticks=0.0,
    )
    rounds = [r for r in trace.rounds if r.node_id == 2]
    assert len(rounds) == 41
    assert rounds[0].mean_offset_s == 0.0
    pred = mean_trace(MomentParams(b, f, step_size=1.0), (0.0, d0), len(rounds) - 1)
    sim_e = np.array([-r.mean_offset_s for r in rounds[1:]])
    sim_rate = np.array([r.new_rate for r in rounds[1:]])
    np.testing.assert_allclose(sim_e, pred[:, 0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(sim_rate, pred[:, 1], rtol=1e-12)


@pytest.mark.parametrize("kind", list(Protocol))
def test_noisy_drift_error_variance_matches_closed_form(kind):
    # With the drift resampled every beacon period and both anchored at the
    # boot instant, each round integrates exactly one drift draw, as the
    # second-moment model assumes. One analysis covers all three protocols
    # through the effective gain. First case: drift on, delay off. Second:
    # delay on too. The simulator clamps each message's N(0, sigma^2) delay
    # at 0 and only the ack's delay enters the measured offset, so the
    # model's delay_diff_var is twice the variance of a clamped draw, not
    # 2*sigma^2 (see NOTES.md). The gather wait ends the last round after
    # the run does, one round fewer.
    b, f, f_max = 30.0, 1e6, 100.0
    for sigma, gather_wait_s, n_rounds in ((0.0, 0.0, 63), (1e-3, 0.5, 62)):
        params = ProtocolParams(kind=kind, beacon_period_s=b, nominal_hz=f,
                                max_error_s=1.0, gather_wait_s=gather_wait_s)
        per_seed = []
        for seed in range(100):
            trace = run_simulation(
                build_line_topology(2), params, max_drift_hz=f_max,
                drift_resample_interval_s=b, delay_std_s=sigma, duration_s=3060.0,
                sample_interval_s=3060.0, boot_window_s=0.0, seed=seed,
                initial_ticks=0.0,
            )
            errors = [r.mean_offset_s for r in trace.rounds if r.node_id == 2][40:]
            assert len(errors) == n_rounds
            per_seed.append(np.mean(np.square(errors)))
        # rounds of one seed are correlated, seeds are independent
        empirical = float(np.mean(per_seed))
        std_err = float(np.std(per_seed, ddof=1)) / math.sqrt(len(per_seed))
        predicted = asymptotic_error_variance(MomentParams(
            beacon_period_s=b, nominal_hz=f, max_drift_hz=f_max,
            step_size=effective_gain(kind, params.step_size, b, f),
            delay_diff_var=2.0 * sigma**2 * (0.5 - 1.0 / (2.0 * math.pi)),
        ))
        assert std_err < 0.05 * predicted
        assert abs(empirical - predicted) < 4.0 * std_err


def test_gateway_error_is_identically_zero():
    params = _newton_params()
    trace = run_simulation(build_line_topology(4), params, **_HOURLY_DRIFT,
                           duration_s=900.0, boot_window_s=100.0, seed=5)
    gateway = trace.topology.node_ids.index(1)
    for t, row in zip(trace.sample_times_s, trace.logical_s.tolist()):
        if t >= trace.boot_times[1]:
            assert row[gateway] == t


# ---------------------------------------------------------------------------
# protocol round mechanics


def test_valid_time_spreads_one_hop_per_beacon():
    # with simultaneous boots, node k (k-1 hops from the gateway) gets its
    # first answered round k-1 beacon periods after node 2 does: unsynced
    # neighbors stay silent, so acks appear hop by hop.
    params = _newton_params(gather_wait_s=1.0)
    trace = run_simulation(build_line_topology(4), params, **_HOURLY_DRIFT,
                           delay_std_s=1e-5,
                           duration_s=200.0, boot_window_s=0.0, seed=2)
    first_answered = {}
    for r in trace.rounds:
        if r.n_acks > 0 and r.node_id not in first_answered:
            first_answered[r.node_id] = r.time_s
    assert first_answered == {2: 1.0, 3: 31.0, 4: 61.0}
    for r in trace.rounds:
        if r.time_s < first_answered[r.node_id]:
            assert r.n_acks == 0
            assert r.mean_offset_s is None
            assert r.new_rate is None


def test_first_answered_round_adopts_neighborhood_mean():
    # cold-booted clocks start seconds off true time; the first answered
    # round must wipe that offset while the guard blocks the rate update.
    params = _newton_params(gather_wait_s=1.0, max_error_s=6e-3)
    trace = run_simulation(build_line_topology(2), params, **_HOURLY_DRIFT,
                           delay_std_s=1e-5,
                           duration_s=120.0, boot_window_s=0.0, seed=4)
    first = next(r for r in trace.rounds if r.n_acks > 0)
    assert abs(first.mean_offset_s) > 1.0  # cold-boot offset is seconds-scale
    assert first.new_rate is None  # guard blocked the rate update
    later = [r for r in trace.rounds if r.time_s > first.time_s]
    assert later and all(abs(r.mean_offset_s) < 1e-3 for r in later)
    assert all(r.new_rate is not None for r in later)


def test_guard_threshold_gates_rate_updates():
    tiny = _newton_params(max_error_s=1e-12)
    trace = run_simulation(build_line_topology(3), tiny, **_HOURLY_DRIFT,
                           duration_s=300.0, boot_window_s=0.0, seed=6)
    answered = [r for r in trace.rounds if r.n_acks > 0]
    assert answered
    assert all(r.new_rate is None for r in answered)

    huge = _newton_params(max_error_s=1e9)
    trace2 = run_simulation(build_line_topology(3), huge, **_HOURLY_DRIFT,
                            duration_s=300.0, boot_window_s=0.0, seed=6)
    answered2 = [r for r in trace2.rounds if r.n_acks > 0]
    assert answered2
    assert all(r.new_rate is not None for r in answered2)


def test_ack_counts_bounded_by_degree():
    params = _newton_params()
    trace = run_simulation(build_line_topology(5), params, **_HOURLY_DRIFT,
                           duration_s=600.0, boot_window_s=120.0, seed=7)
    degree = {nid: len(trace.topology.neighbors[nid])
              for nid in trace.topology.node_ids}
    assert all(r.n_acks <= degree[r.node_id] for r in trace.rounds)


@st.composite
def _connected_topologies(draw, max_nodes: int = 6):
    # a random tree (node k hangs off an earlier node) plus random extra edges
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = [(k, draw(st.integers(min_value=1, max_value=k - 1))) for k in range(2, n + 1)]
    node = st.integers(min_value=1, max_value=n)
    extra = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                          max_size=n))
    return Topology(tuple(range(1, n + 1)), tuple(edges + extra), draw(node))


_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
# up to the 1 s gather wait, so some acks arrive after their round's deadline
_DELAY_STDS = st.sampled_from([0.0, 1e-5, 1e-2, 0.5])
_BOOT_WINDOWS = st.floats(min_value=0.0, max_value=200.0)


def _property_run(topo: Topology, seed: int, delay_std: float, boot_window: float,
                  quantize_ticks: bool = False):
    return run_simulation(topo, _newton_params(gather_wait_s=1.0), max_drift_hz=25.0,
                          drift_resample_interval_s=60.0, quantize_ticks=quantize_ticks,
                          delay_std_s=delay_std, duration_s=400.0, boot_window_s=boot_window,
                          seed=seed)


def _assert_finite_exactly_after_boot(trace) -> None:
    # a reading (and its error) is finite from the node's boot on, NaN before
    times = np.array(trace.sample_times_s)
    boots = np.array([trace.boot_times[nid] for nid in trace.topology.node_ids])
    up = times[:, None] >= boots[None, :]
    assert trace.logical_s.shape == up.shape
    assert np.array_equal(np.isfinite(trace.logical_s), up)
    assert np.isfinite(trace.logical_s - times[:, None])[up].all()
    assert np.isnan(trace.logical_s[~up]).all()


@settings(max_examples=20, deadline=None)
@given(_connected_topologies(), _SEEDS, _DELAY_STDS, _BOOT_WINDOWS, st.booleans())
def test_each_delivery_is_queued_only_if_its_receiver_can_take_it(topo, seed, delay_std,
                                                                   boot_window, quantize):
    # the pass admits a delivery once, when it is sent: every queued request
    # lands at or after its receiver's boot, every queued ack by the deadline
    # of a round whose request it answers, and every delivery by the horizon
    pushed, push = [], EventQueue.push

    def recorded(queue, time, kind, data=None):
        if kind == DELIVERY:
            pushed.append((time, data))
        push(queue, time, kind, data)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(EventQueue, "push", recorded)
        trace = _property_run(topo, seed, delay_std, boot_window, quantize)
    boots = [trace.boot_times[nid] for nid in topo.node_ids]
    requests = {(sender, receiver, deadline)
                for _, (receiver, sender, answer, deadline) in pushed if answer is None}
    for time, (receiver, sender, answer, deadline) in pushed:
        assert time <= trace.config["duration_s"]
        if answer is None:
            assert time >= boots[receiver]
        else:
            assert time <= deadline and (receiver, sender, deadline) in requests


@settings(max_examples=25, deadline=None)
@given(_connected_topologies(), _SEEDS, _DELAY_STDS, _BOOT_WINDOWS)
def test_rounds_and_frames_are_well_formed(topo, seed, delay_std, boot_window):
    trace = _property_run(topo, seed, delay_std, boot_window)
    for r in trace.rounds:
        assert r.n_acks <= len(topo.neighbors[r.node_id])
    _assert_finite_exactly_after_boot(trace)


# Valid values of every setting of a run, over ranges that keep one run to
# milliseconds; a drawn subset of settings is then replaced by a bad value.
# Each is a ProtocolParams field or a run_config keyword, by name.
_VALID_SETTINGS = {
    "step_size": st.floats(min_value=1e-3, max_value=4.0),
    "beacon_period_s": st.floats(min_value=5.0, max_value=60.0),
    "nominal_hz": st.floats(min_value=1e3, max_value=1e7),
    "max_error_s": st.floats(min_value=1e-6, max_value=1.0),
    "gather_wait_s": st.floats(min_value=0.0, max_value=2.0),
    "max_drift_hz": st.floats(min_value=0.0, max_value=100.0),
    "drift_resample_interval_s": st.floats(min_value=1.0, max_value=4000.0),
    "delay_std_s": st.floats(min_value=0.0, max_value=1.0),
    "delay_floor_s": st.floats(min_value=0.0, max_value=0.1),
    "duration_s": st.floats(min_value=1.0, max_value=400.0),
    "sample_interval_s": st.floats(min_value=1.0, max_value=100.0),
    "boot_window_s": st.floats(min_value=0.0, max_value=400.0),
    "initial_rate": st.none() | st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    "initial_ticks": st.none() | st.floats(min_value=0.0, max_value=1e9),
}
_BAD_VALUES = st.sampled_from([0.0, -1.0, 1e300, math.nan, math.inf, -math.inf])


@st.composite
def _run_settings(draw):
    cfg = {name: draw(valid) for name, valid in _VALID_SETTINGS.items()}
    for name in draw(st.lists(st.sampled_from(sorted(cfg)), max_size=2)):
        cfg[name] = draw(_BAD_VALUES)
    return cfg


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(Protocol), st.integers(min_value=2, max_value=4), _SEEDS,
       st.booleans(), _run_settings())
def test_settings_raise_or_give_finite_readings(kind, n, seed, quantize, cfg):
    # ProtocolParams and run_simulation either refuse the input with
    # ValueError or the run's readings are finite exactly where booted
    fields = {f.name for f in dataclasses.fields(ProtocolParams)}
    try:
        params = ProtocolParams(kind, **{k: v for k, v in cfg.items() if k in fields})
        trace = run_simulation(build_line_topology(n), params, seed=seed, quantize_ticks=quantize,
                               **{k: v for k, v in cfg.items() if k not in fields})
    except ValueError:
        return
    _assert_finite_exactly_after_boot(trace)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=7), _SEEDS, _DELAY_STDS, _BOOT_WINDOWS)
def test_first_answered_round_moves_outward_along_a_line(n, seed, delay_std,
                                                         boot_window):
    # only synced nodes answer, so node k can first hear from node k - 1,
    # and only after node k - 1's own first answered round
    trace = _property_run(build_line_topology(n), seed, delay_std, boot_window)
    first_answered: dict[int, float] = {}
    for r in trace.rounds:
        if r.n_acks > 0:
            first_answered.setdefault(r.node_id, r.time_s)
    for k in range(3, n + 1):
        if k in first_answered:
            assert first_answered[k] > first_answered[k - 1]


def test_messages_to_powered_off_nodes_are_lost():
    # staggered boots leave early riser requests unanswered: rounds with
    # zero acks appear and carry no correction.
    params = _newton_params()
    trace = run_simulation(build_line_topology(3), params, **_HOURLY_DRIFT,
                           duration_s=500.0, boot_window_s=200.0, seed=8)
    empty = [r for r in trace.rounds if r.n_acks == 0]
    assert empty
    assert all(r.mean_offset_s is None and r.new_rate is None for r in empty)
    # nodes read NaN in samples taken before their boot
    assert np.isnan(trace.logical_s).any()
    for t, row in zip(trace.sample_times_s, trace.logical_s.tolist()):
        for nid, v in zip(trace.topology.node_ids, row):
            assert (t < trace.boot_times[nid]) == math.isnan(v)


# ---------------------------------------------------------------------------
# determinism


def _small_run(protocol: Protocol, seed: int = 11):
    b, f = 30.0, 1e6
    params = ProtocolParams(kind=protocol, beacon_period_s=b, nominal_hz=f,
                            max_error_s=6e-3, gather_wait_s=1.0)
    return run_simulation(build_line_topology(4), params, **_HOURLY_DRIFT,
                          delay_std_s=1e-5,
                          duration_s=600.0, boot_window_s=100.0, seed=seed)


def test_same_seed_serializes_byte_identically():
    a, b = _small_run(Protocol.NEWTON), _small_run(Protocol.NEWTON)
    bufs = []
    for trace in (a, b):
        buf = io.StringIO()
        trace.write_csv(buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    assert bufs[0].startswith("# config = {")


def test_different_seeds_differ():
    a, b = _small_run(Protocol.NEWTON, seed=11), _small_run(Protocol.NEWTON,
                                                            seed=12)
    assert a.boot_times != b.boot_times


def test_protocols_share_identical_randomness_under_one_seed():
    # swapping the update rule must not shift any random stream: boot times,
    # round schedule and ack pattern all stay identical across protocols.
    runs = {p: _small_run(p) for p in Protocol}
    base = runs[Protocol.NEWTON]
    base_pattern = [(r.time_s, r.node_id, r.n_acks) for r in base.rounds]
    for p, trace in runs.items():
        assert trace.boot_times == base.boot_times
        assert [(r.time_s, r.node_id, r.n_acks) for r in trace.rounds] \
            == base_pattern


def test_trace_csv_structure():
    trace = _small_run(Protocol.NEWTON)
    buf = io.StringIO()
    trace.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[1] == "sample_time,node_id,logical_value,true_time,error_seconds"
    n_rows = int(np.isfinite(trace.logical_s).sum())
    assert len(lines) == 2 + n_rows


def test_boot_complete_time_is_last_boot():
    trace = _small_run(Protocol.NEWTON)
    assert trace.boot_complete_time == max(trace.boot_times.values())
    assert 0.0 <= trace.boot_complete_time < 100.0


# ---------------------------------------------------------------------------
# one event pass per seed: protocols run in lock step equal their live runs


# a star whose hub is not the gateway, in a topology file's format
_STAR = Topology.from_config(json.loads(
    '{"nodes": [1, 2, 3, 4, 5], "edges": [[2, 1], [2, 3], [2, 4], [2, 5]], "gateway": 1}'
))
# the gateway is the hub: it answers every node, at true time
_GATEWAY_STAR = Topology((1, 2, 3, 4, 5), ((1, 2), (1, 3), (1, 4), (1, 5)), 1)


@st.composite
def _schedule_cases(draw):
    topo = draw(st.sampled_from([build_line_topology(n) for n in range(3, 9)]
                                + [_STAR, _GATEWAY_STAR]))
    f = draw(st.sampled_from([1e6, 2e6]))
    sim_kwargs = {
        "max_drift_hz": draw(st.sampled_from([25.0, 0.0])),
        "drift_resample_interval_s": draw(st.sampled_from([30.0, 3600.0])),
        "quantize_ticks": draw(st.booleans()),
        "delay_std_s": draw(_DELAY_STDS),
        "delay_floor_s": draw(st.sampled_from([0.0, 2e-3])),
        # a horizon off the beacon grid cuts the last rounds' acks off
        "duration_s": draw(st.floats(min_value=150.0, max_value=700.0)),
        "sample_interval_s": draw(st.sampled_from([10.0, 15.0])),
        "boot_window_s": draw(st.floats(min_value=0.0, max_value=120.0)),
        "seed": draw(_SEEDS),
        "initial_rate": draw(st.none() | st.floats(min_value=0.9, max_value=1.1)
                             .map(lambda r: r / f)),
        "initial_ticks": draw(st.none() | st.floats(min_value=0.0, max_value=1e9)),
    }
    # the protocols' settings: the guard is arithmetic, the rest shape the pass
    protocol_kwargs = {"b": draw(st.sampled_from([30.0, 20.0])), "f": f,
                       "max_error_s": draw(st.sampled_from([6e-3, 1.0])),
                       "gather_wait_s": draw(st.sampled_from([0.0, 1.0]))}
    # newton again at other step sizes, as a mu sweep's values would run
    default = default_step_size(Protocol.NEWTON, 30.0, 1e6)
    step_sizes = draw(st.lists(st.floats(min_value=0.25, max_value=1.5)
                               .filter(lambda mu: mu != default),
                               min_size=1, max_size=3, unique=True))
    # where the failing params sits among the live ones
    failing_at = draw(st.integers(min_value=0, max_value=3 + len(step_sizes)))
    return topo, sim_kwargs, protocol_kwargs, step_sizes, failing_at


def _replayable_params(kind: Protocol, b: float = 30.0, f: float = 1e6,
                       max_error_s: float = 6e-3, gather_wait_s: float = 1.0) -> ProtocolParams:
    return ProtocolParams(kind, beacon_period_s=b, nominal_hz=f, max_error_s=max_error_s,
                          gather_wait_s=gather_wait_s)


@settings(max_examples=30, deadline=None)
@given(_schedule_cases())
def test_replayed_schedule_equals_the_live_run(case):
    # one lock-step pass of all three protocols, newton at other step sizes
    # (params that differ only in step_size), and one more params whose
    # huge step drives its clocks out of float range once a round has acks;
    # the pass keeps feeding it, first, between or after the live ones
    topo, sim_kwargs, protocol_kwargs, step_sizes, failing_at = case
    params_seq = [_replayable_params(kind, **protocol_kwargs) for kind in Protocol]
    params_seq += [dataclasses.replace(params_seq[0], step_size=mu) for mu in step_sizes]
    params_seq.insert(failing_at, dataclasses.replace(params_seq[1], step_size=1e300,
                                                      max_error_s=1e300))
    schedule = record_schedule(topo, params_seq, **sim_kwargs)
    for params in params_seq:
        try:
            live = run_simulation(topo, params, **sim_kwargs)
        except ValueError as exc:  # only this protocol fails, the same way
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                run_simulation(topo, params, schedule=schedule)
            continue
        shared = run_simulation(topo, params, schedule=schedule)
        assert shared.logical_s.tobytes() == live.logical_s.tobytes()
        assert shared.rounds == live.rounds
        assert shared.round_columns.tobytes() == live.round_columns.tobytes()
        assert shared.boot_times == live.boot_times
        assert shared.config == live.config


_REFUSAL_RUN = {"topology": build_line_topology(4),
                "max_drift_hz": 25.0, "drift_resample_interval_s": 30.0,
                "duration_s": 300.0, "boot_window_s": 60.0, "seed": 11}


@pytest.mark.parametrize("change,setting", [
    ({"seed": 12}, "seed"),
    ({"params": _newton_params(b=20.0)}, "beacon_period_s"),
    ({"params": _newton_params(gather_wait_s=0.5)}, "gather_wait_s"),
    ({"topology": build_line_topology(5)}, "topology"),
    ({"topology": _STAR}, "topology"),
    ({"max_drift_hz": 20.0}, "max_drift_hz"),
    ({"delay_std_s": 2e-5}, "delay_std_s"),
    ({"duration_s": 330.0}, "duration_s"),
    ({"sample_interval_s": 5.0}, "sample_interval_s"),
    ({"boot_window_s": 30.0}, "boot_window_s"),
    ({"initial_ticks": 0.0}, "initial_ticks"),
    ({"params": _newton_params(f=2e6)}, "nominal_hz"),
])
def test_replay_refuses_a_schedule_of_other_settings(change, setting):
    # a run of the change has another config at `setting` than the one its
    # schedule holds; the replay refuses the change: a setting given with
    # the schedule, a topology other than its own, or params it did not run
    run = {**_REFUSAL_RUN, "params": _newton_params()}
    schedule = record_schedule(params_seq=[_newton_params()], **_REFUSAL_RUN)
    assert simulation.run_config(**{**run, **change})[setting] != \
        schedule[_newton_params()].config[setting]
    replay = {"topology": run["topology"], "params": run["params"], **change}
    if given := [key for key in change if key not in ("topology", "params")]:
        with pytest.raises(TypeError, match=re.escape(f"got {', '.join(map(repr, given))}")):
            run_simulation(**replay, schedule=schedule)
    elif "topology" in change:
        with pytest.raises(ValueError, match="^the schedule's pass ran on another topology$"):
            run_simulation(**replay, schedule=schedule)
    else:
        with pytest.raises(ValueError, match=re.escape(
                f"the schedule's pass did not run {replay['params']}")):
            run_simulation(**replay, schedule=schedule)


def test_a_replay_takes_the_schedules_settings():
    # its config is the live run's; a setting given with the schedule is
    # refused even at its recorded value, and so are params whose config
    # differs in the protocol's arithmetic alone, which the pass did not run
    run = {**_REFUSAL_RUN, "params": _newton_params()}
    schedule = record_schedule(params_seq=[_newton_params()], **_REFUSAL_RUN)
    equal_topology = build_line_topology(4)  # compared by value
    replayed = run_simulation(equal_topology, _newton_params(), schedule=schedule)
    assert replayed.config == run_simulation(**run).config
    with pytest.raises(TypeError, match="^a schedule takes no settings, got 'seed'$"):
        run_simulation(equal_topology, _newton_params(), schedule=schedule, seed=11)
    other = _newton_params(step_size=0.5, max_error_s=1.0)
    with pytest.raises(ValueError, match=re.escape(f"the schedule's pass did not run {other}")):
        run_simulation(equal_topology, other, schedule=schedule)


@settings(max_examples=20, deadline=None)
@given(_connected_topologies(max_nodes=5), _SEEDS, st.booleans(),
       st.floats(min_value=1e-9, max_value=2.0, exclude_max=True))
def test_three_protocols_are_one_rule_at_one_gain(topo, seed, quantize, gain):
    # at B = 30 s and f = 1 MHz each rule at per-round gain g is
    # rate' = rate - g * e / (B * f): the three make the same guard decisions
    # and read the same clocks up to rounding, since rate_update's three
    # expressions can differ in the last bit
    b, f = 30.0, 1e6
    params_seq = [ProtocolParams(kind, gain / effective_gain(kind, 1.0, b, f), b, f)
                  for kind in Protocol]
    schedule = record_schedule(topo, params_seq, **_HOURLY_DRIFT, quantize_ticks=quantize,
                               duration_s=1200.0, boot_window_s=60.0, seed=seed)
    newton, *others = (run_simulation(topo, p, schedule=schedule) for p in params_seq)
    skipped = np.isnan(newton.round_outcomes)
    assert not skipped[1::2].all()  # the guard lets some rate updates through
    for trace in others:
        assert np.array_equal(np.isnan(trace.round_outcomes), skipped)
        np.testing.assert_allclose(trace.logical_s, newton.logical_s, rtol=1e-12)


@pytest.mark.parametrize("quantize", [False, True])
@pytest.mark.parametrize("kind", list(Protocol))
def test_a_traces_header_determines_its_rows(kind, quantize):
    # every header key rebuilds the run, and the rerun writes the same bytes
    params = ProtocolParams(kind, default_step_size(kind, 30.0, 1e6) * 0.5, max_error_s=1e-2,
                            gather_wait_s=0.5)
    run = {"max_drift_hz": 25.0, "drift_resample_interval_s": 300.0,
           "quantize_ticks": quantize, "delay_std_s": 1e-3, "delay_floor_s": 2e-4,
           "duration_s": 900.0, "sample_interval_s": 7.0, "boot_window_s": 90.0, "seed": 5,
           "initial_rate": 0.999e-6, "initial_ticks": 123456.5}
    topology, written = _STAR, []
    for _ in range(2):
        out = io.StringIO()
        run_simulation(topology, params, **run).write_csv(out)
        written.append(out.getvalue())
        header = written[-1].partition("\n")[0]
        assert header.startswith("# config = ")
        config = json.loads(header.removeprefix("# config = "))
        _, *fields = dataclasses.fields(ProtocolParams)
        params = ProtocolParams(Protocol(config.pop("protocol")),
                                **{f.name: config.pop(f.name) for f in fields})
        topology = Topology.from_config(config.pop("topology"))
        assert config == run  # the rest is exactly the run's keywords
        run = config
    assert written[0] == written[1]
    assert written[0].count("\n") > 100


def test_run_simulation_takes_record_schedules_settings_alone():
    run = {**_REFUSAL_RUN, "params": _newton_params()}
    with pytest.raises(TypeError, match="'duration'"):
        run_simulation(**run, duration=300.0)
    with pytest.raises(TypeError, match="'max_drift_hz' and 'drift_resample_interval_s'"):
        run_simulation(**{k: v for k, v in run.items() if "drift" not in k})
    with pytest.raises(TypeError, match="'osc_params'"):  # a model is no setting
        run_simulation(**run, osc_params=None)


@pytest.mark.parametrize("setting, message", [
    ({"max_drift_hz": 1e6}, "max_drift_hz must satisfy 0 <= max_drift < nominal, got 1000000.0"),
    ({"drift_resample_interval_s": 0.0}, "resample_interval_s must be finite and positive, "
                                         "got 0.0"),
    ({"delay_std_s": -1.0}, "std_s must be finite and nonnegative, got -1.0"),
    ({"delay_floor_s": math.inf}, "floor_s must be finite and nonnegative, got inf"),
])
def test_run_config_refuses_what_its_models_refuse(setting, message):
    # in the models' own words, before the schedule budget divides by a
    # segment length
    run = {**_REFUSAL_RUN, "params": _newton_params(), **setting}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulation.run_config(**run)


@pytest.mark.parametrize("setting, message", [
    ({"quantize_ticks": "no"}, "quantize_ticks must be a bool, got 'no'"),
    ({"quantize_ticks": 1}, "quantize_ticks must be a bool, got 1"),
    ({"seed": True}, "seed must be a nonnegative int, got True"),
    ({"seed": 1.5}, "seed must be a nonnegative int, got 1.5"),
    ({"seed": -1}, "seed must be a nonnegative int, got -1"),
    ({"initial_ticks": -1.0}, "initial_ticks must be finite and nonnegative, got -1.0"),
])
def test_run_config_refuses_mistyped_settings(monkeypatch, setting, message):
    # at the boundary, naming the key, before any event pass starts
    def no_pass(*args, **kwargs):
        raise AssertionError("an event pass started")

    monkeypatch.setattr(simulation, "_event_pass", no_pass)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_simulation(params=_newton_params(), **{**_REFUSAL_RUN, **setting})


def test_a_pass_holds_each_round_once():
    # the pass holds every round's time (8 bytes), node index and acks (4
    # bytes each) once, shared by every trace; each protocol holds only the
    # mean offset and rate (8 bytes each) of the rounds with acks, where it
    # computed them. Five floats per round and protocol, as rounds were
    # once held, would be 40 * 3 * rounds bytes.
    params_seq = [_replayable_params(kind) for kind in Protocol]
    schedule = record_schedule(params_seq=params_seq, **_REFUSAL_RUN)
    traces = [run_simulation(_REFUSAL_RUN["topology"], p, schedule=schedule) for p in params_seq]
    assert traces == list(schedule.values())
    pass_rounds = traces[0].pass_rounds
    assert all(trace.pass_rounds is pass_rounds for trace in traces)
    times, _, acks = pass_rounds
    rounds, acked = len(times), sum(1 for n in acks if n)
    assert 0 < acked < rounds
    held = [*pass_rounds, *(trace.round_outcomes for trace in traces)]
    assert sum(a.buffer_info()[1] * a.itemsize for a in held) == (
        rounds * (8 + 4 + 4) + 3 * acked * (8 + 8))
    for trace in traces:  # the five-float layout is built on first read
        assert "round_columns" not in vars(trace)
        assert len(trace.round_columns) == 5 * rounds


def test_trace_builds_its_rounds_once_when_read(monkeypatch):
    real = simulation.RoundRecord
    built = []

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(simulation, "RoundRecord", counted)
    schedule = record_schedule(params_seq=[_newton_params(), _newton_params(step_size=0.5)],
                               **_REFUSAL_RUN)
    trace = run_simulation(_REFUSAL_RUN["topology"], _newton_params(), schedule=schedule)
    assert built == []
    assert trace.rounds is trace.rounds
    assert len(built) == len(trace.rounds) > 0
    assert trace.rounds == run_simulation(params=_newton_params(), **_REFUSAL_RUN).rounds


def test_record_schedule_refuses_params_one_pass_cannot_run():
    newton = _newton_params()
    with pytest.raises(ValueError, match="params_seq is empty"):
        record_schedule(params_seq=[], **_REFUSAL_RUN)
    with pytest.raises(ValueError, match=re.escape(f"params_seq holds {newton} twice")):
        record_schedule(params_seq=[newton, _newton_params(step_size=0.5), newton],
                        **_REFUSAL_RUN)
    for other in (_newton_params(b=20.0), _newton_params(gather_wait_s=0.5)):
        with pytest.raises(ValueError, match=re.escape(
                f"{other} needs another event pass than {newton}")):
            record_schedule(params_seq=[newton, other], **_REFUSAL_RUN)
