"""Event-driven simulator: topology, scheduling, determinism, protocol rounds."""
from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnsync import simulation
from wsnsync.analysis import (
    MeanStateModel,
    MomentParams,
    asymptotic_error_variance,
    mean_trace,
)
from wsnsync.clocks import OscillatorParams
from wsnsync.protocols import Protocol, ProtocolParams, default_step_size, effective_gain
from wsnsync.simulation import (
    DELAY_BLOCK,
    DelayModel,
    EventKind,
    EventQueue,
    Topology,
    build_line_topology,
    run_simulation,
)


def _gen(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _newton_params(b: float = 30.0, f: float = 1e6, **kw) -> ProtocolParams:
    kw.setdefault("step_size", 1.0)
    kw.setdefault("max_error_s", 6e-3)
    return ProtocolParams(kind=Protocol.NEWTON, beacon_period_s=b,
                          nominal_hz=f, **kw)


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
    cfg = topo.to_config()
    again = Topology(tuple(cfg["nodes"]),
                     tuple(tuple(e) for e in cfg["edges"]), cfg["gateway"])
    assert again == topo


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
    q.push(5.0, EventKind.SAMPLE, "s")
    q.push(5.0, EventKind.BEACON, "b")
    q.push(5.0, EventKind.DELIVERY, "d")
    q.push(5.0, EventKind.DEADLINE, "x")
    q.push(4.0, EventKind.SAMPLE, "early")
    order = [q.pop()[2] for _ in range(len(q))]
    assert order == ["early", "d", "x", "b", "s"]


def test_event_queue_fifo_within_class():
    q = EventQueue()
    q.push(1.0, EventKind.BEACON, "first")
    q.push(1.0, EventKind.BEACON, "second")
    assert q.pop()[2] == "first"
    assert q.pop()[2] == "second"


# ---------------------------------------------------------------------------
# run_simulation argument validation


def test_run_simulation_validates_arguments():
    topo = build_line_topology(2)
    osc = OscillatorParams(nominal_hz=1e6)
    with pytest.raises(ValueError):
        run_simulation(topo, _newton_params(), osc_params=osc, duration_s=0.0)
    with pytest.raises(ValueError):
        run_simulation(topo, _newton_params(), osc_params=osc,
                       duration_s=100.0, sample_interval_s=0.0)
    with pytest.raises(ValueError):
        run_simulation(topo, _newton_params(), osc_params=osc,
                       duration_s=100.0, boot_window_s=100.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            run_simulation(topo, _newton_params(), osc_params=osc, duration_s=bad)
        with pytest.raises(ValueError, match="finite"):
            run_simulation(topo, _newton_params(), osc_params=osc,
                           duration_s=100.0, sample_interval_s=bad)
        with pytest.raises(ValueError, match="finite"):
            run_simulation(topo, _newton_params(), osc_params=osc,
                           duration_s=1000.0, initial_rate=bad)


def test_run_simulation_rejects_overflowing_clocks():
    # a huge step size under a guard that never blocks it drives the rate,
    # then the readings, to inf and NaN; the run is refused instead
    params = ProtocolParams(kind=Protocol.GRADES, step_size=1e300, max_error_s=1e300)
    osc = OscillatorParams(nominal_hz=1e6, max_drift_hz=25.0)
    with pytest.raises(ValueError, match="out of float range"):
        run_simulation(build_line_topology(3), params, osc_params=osc,
                       duration_s=300.0, boot_window_s=60.0, seed=1)


def test_run_simulation_rejects_runaway_schedules(monkeypatch):
    # too many sample frames or beacon rounds per node is refused before
    # the simulator is built; exactly the limit is accepted
    class Started(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Started

    monkeypatch.setattr(simulation, "_Sim", refuse)
    topo = build_line_topology(2)
    osc = OscillatorParams(nominal_hz=1e6)
    limit = simulation.MAX_PERIODS_PER_RUN
    with pytest.raises(Started):
        run_simulation(topo, _newton_params(), osc_params=osc,
                       duration_s=float(limit), sample_interval_s=1.0)
    with pytest.raises(ValueError, match="sample_interval_s"):
        run_simulation(topo, _newton_params(), osc_params=osc,
                       duration_s=float(limit + 1), sample_interval_s=1.0)
    fast_beacons = _newton_params(b=1e-3, gather_wait_s=0.0)
    with pytest.raises(ValueError, match="beacon_period_s"):
        run_simulation(topo, fast_beacons, osc_params=osc, duration_s=2000.0,
                       sample_interval_s=10.0)


# ---------------------------------------------------------------------------
# exactness in the noise-free regime


def test_ideal_run_has_exactly_zero_error():
    # power-of-two frequency, zero drift, zero delay, aligned boots: every
    # logical reading reproduces true time bit for bit, forever.
    f = float(2**20)
    params = _newton_params(b=32.0, f=f, gather_wait_s=0.0, max_error_s=10.0)
    osc = OscillatorParams(nominal_hz=f, max_drift_hz=0.0)
    trace = run_simulation(
        build_line_topology(2), params, osc_params=osc,
        delay_model=DelayModel(std_s=0.0), duration_s=512.0,
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
    osc = OscillatorParams(nominal_hz=f, max_drift_hz=0.0)
    trace = run_simulation(
        build_line_topology(2), params, osc_params=osc,
        delay_model=DelayModel(std_s=0.0), duration_s=40 * b,
        sample_interval_s=40 * b, boot_window_s=0.0, seed=1,
        initial_rate=d0, initial_ticks=0.0,
    )
    rounds = [r for r in trace.rounds if r.node_id == 2]
    assert len(rounds) == 41
    assert rounds[0].mean_offset_s == 0.0
    pred = mean_trace(MeanStateModel(b, f, 1.0), (0.0, d0), len(rounds) - 1)
    sim_e = np.array([-r.mean_offset_s for r in rounds[1:]])
    sim_rate = np.array([r.new_rate for r in rounds[1:]])
    np.testing.assert_allclose(sim_e, pred[:, 0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(sim_rate, pred[:, 1], rtol=1e-12)


@pytest.mark.parametrize("kind", list(Protocol))
def test_noisy_drift_error_variance_matches_closed_form(kind):
    # Drift on, delay off: with the drift resampled every beacon period and
    # both anchored at the boot instant, each round integrates exactly one
    # drift draw, as the second-moment model assumes. One analysis covers
    # all three protocols through the effective gain. The delay term is left
    # out: the model's D(k) = b(k) - b(k-1) differs from the simulator's
    # per-message clamped delays (see NOTES.md).
    b, f, f_max = 30.0, 1e6, 100.0
    mu = default_step_size(kind, b, f)
    params = ProtocolParams(kind=kind, step_size=mu, beacon_period_s=b,
                            nominal_hz=f, max_error_s=1.0, gather_wait_s=0.0)
    osc = OscillatorParams(nominal_hz=f, max_drift_hz=f_max, resample_interval_s=b)
    per_seed = []
    for seed in range(100):
        trace = run_simulation(
            build_line_topology(2), params, osc_params=osc,
            delay_model=DelayModel(std_s=0.0), duration_s=3060.0,
            sample_interval_s=3060.0, boot_window_s=0.0, seed=seed,
            initial_ticks=0.0,
        )
        errors = [r.mean_offset_s for r in trace.rounds if r.node_id == 2][40:]
        assert len(errors) == 63
        per_seed.append(np.mean(np.square(errors)))
    # rounds of one seed are correlated, seeds are independent
    empirical = float(np.mean(per_seed))
    std_err = float(np.std(per_seed, ddof=1)) / math.sqrt(len(per_seed))
    predicted = asymptotic_error_variance(MomentParams(
        beacon_period_s=b, nominal_hz=f, max_drift_hz=f_max,
        step_size=effective_gain(kind, mu, b, f), delay_diff_var=0.0,
    ))
    assert std_err < 0.05 * predicted
    assert abs(empirical - predicted) < 4.0 * std_err


def test_gateway_error_is_identically_zero():
    params = _newton_params()
    osc = OscillatorParams(nominal_hz=1e6, max_drift_hz=25.0,
                           resample_interval_s=3600.0)
    trace = run_simulation(build_line_topology(4), params, osc_params=osc,
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
    osc = OscillatorParams(nominal_hz=1e6, max_drift_hz=25.0,
                           resample_interval_s=3600.0)
    trace = run_simulation(build_line_topology(4), params, osc_params=osc,
                           delay_model=DelayModel(std_s=1e-5),
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
    osc = OscillatorParams(nominal_hz=1e6, max_drift_hz=25.0,
                           resample_interval_s=3600.0)
    trace = run_simulation(build_line_topology(2), params, osc_params=osc,
                           delay_model=DelayModel(std_s=1e-5),
                           duration_s=120.0, boot_window_s=0.0, seed=4)
    first = next(r for r in trace.rounds if r.n_acks > 0)
    assert abs(first.mean_offset_s) > 1.0  # cold-boot offset is seconds-scale
    assert first.new_rate is None  # guard blocked the rate update
    later = [r for r in trace.rounds if r.time_s > first.time_s]
    assert later and all(abs(r.mean_offset_s) < 1e-3 for r in later)
    assert all(r.new_rate is not None for r in later)


def test_guard_threshold_gates_rate_updates():
    osc = OscillatorParams(nominal_hz=1e6, max_drift_hz=25.0,
                           resample_interval_s=3600.0)
    tiny = _newton_params(max_error_s=1e-12)
    trace = run_simulation(build_line_topology(3), tiny, osc_params=osc,
                           duration_s=300.0, boot_window_s=0.0, seed=6)
    answered = [r for r in trace.rounds if r.n_acks > 0]
    assert answered
    assert all(r.new_rate is None for r in answered)

    huge = _newton_params(max_error_s=1e9)
    trace2 = run_simulation(build_line_topology(3), huge, osc_params=osc,
                            duration_s=300.0, boot_window_s=0.0, seed=6)
    answered2 = [r for r in trace2.rounds if r.n_acks > 0]
    assert answered2
    assert all(r.new_rate is not None for r in answered2)


def test_ack_counts_bounded_by_degree():
    params = _newton_params()
    osc = OscillatorParams(nominal_hz=1e6, max_drift_hz=25.0,
                           resample_interval_s=3600.0)
    trace = run_simulation(build_line_topology(5), params, osc_params=osc,
                           duration_s=600.0, boot_window_s=120.0, seed=7)
    degree = {nid: len(trace.topology.neighbors[nid])
              for nid in trace.topology.node_ids}
    assert all(r.n_acks <= degree[r.node_id] for r in trace.rounds)


@st.composite
def _connected_topologies(draw):
    # a random tree (node k hangs off an earlier node) plus random extra edges
    n = draw(st.integers(min_value=2, max_value=6))
    edges = [(k, draw(st.integers(min_value=1, max_value=k - 1))) for k in range(2, n + 1)]
    node = st.integers(min_value=1, max_value=n)
    extra = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                          max_size=n))
    return Topology(tuple(range(1, n + 1)), tuple(edges + extra), draw(node))


_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
# up to the 1 s gather wait, so some acks arrive after their round's deadline
_DELAY_STDS = st.sampled_from([0.0, 1e-5, 1e-2, 0.5])
_BOOT_WINDOWS = st.floats(min_value=0.0, max_value=200.0)


def _property_run(topo: Topology, seed: int, delay_std: float, boot_window: float):
    osc = OscillatorParams(nominal_hz=1e6, max_drift_hz=25.0, resample_interval_s=60.0)
    return run_simulation(topo, _newton_params(gather_wait_s=1.0), osc_params=osc,
                          delay_model=DelayModel(std_s=delay_std), duration_s=400.0,
                          boot_window_s=boot_window, seed=seed)


def _assert_finite_exactly_after_boot(trace) -> None:
    # a reading (and its error) is finite from the node's boot on, NaN before
    times = np.array(trace.sample_times_s)
    boots = np.array([trace.boot_times[nid] for nid in trace.topology.node_ids])
    up = times[:, None] >= boots[None, :]
    assert trace.logical_s.shape == up.shape
    assert np.array_equal(np.isfinite(trace.logical_s), up)
    assert np.isfinite(trace.logical_s - times[:, None])[up].all()
    assert np.isnan(trace.logical_s[~up]).all()


@settings(max_examples=25, deadline=None)
@given(_connected_topologies(), _SEEDS, _DELAY_STDS, _BOOT_WINDOWS)
def test_rounds_and_frames_are_well_formed(topo, seed, delay_std, boot_window):
    trace = _property_run(topo, seed, delay_std, boot_window)
    for r in trace.rounds:
        assert r.n_acks <= len(topo.neighbors[r.node_id])
    _assert_finite_exactly_after_boot(trace)


# Valid values of every setting of a run, over ranges that keep one run to
# milliseconds; a drawn subset of settings is then replaced by a bad value.
_VALID_SETTINGS = {
    "step_size": st.floats(min_value=1e-3, max_value=4.0),
    "beacon_period_s": st.floats(min_value=5.0, max_value=60.0),
    "nominal_hz": st.floats(min_value=1e3, max_value=1e7),
    "max_error_s": st.floats(min_value=1e-6, max_value=1.0),
    "gather_wait_s": st.floats(min_value=0.0, max_value=2.0),
    "osc_nominal_hz": st.floats(min_value=1e3, max_value=1e7),
    "max_drift_hz": st.floats(min_value=0.0, max_value=100.0),
    "resample_interval_s": st.floats(min_value=1.0, max_value=4000.0),
    "std_s": st.floats(min_value=0.0, max_value=1.0),
    "floor_s": st.floats(min_value=0.0, max_value=0.1),
    "duration_s": st.floats(min_value=1.0, max_value=400.0),
    "sample_interval_s": st.floats(min_value=1.0, max_value=100.0),
    "boot_window_s": st.floats(min_value=0.0, max_value=400.0),
    "initial_rate": st.none() | st.floats(min_value=-1.0, max_value=1.0),
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
    # every constructor on the way to a trace either refuses its input with
    # ValueError or the run's readings are finite exactly where booted
    try:
        params = ProtocolParams(
            kind=kind, step_size=cfg["step_size"],
            beacon_period_s=cfg["beacon_period_s"], nominal_hz=cfg["nominal_hz"],
            max_error_s=cfg["max_error_s"], gather_wait_s=cfg["gather_wait_s"],
        )
        osc = OscillatorParams(
            nominal_hz=cfg["osc_nominal_hz"], max_drift_hz=cfg["max_drift_hz"],
            resample_interval_s=cfg["resample_interval_s"], quantize_ticks=quantize,
        )
        delay = DelayModel(std_s=cfg["std_s"], floor_s=cfg["floor_s"])
        trace = run_simulation(
            build_line_topology(n), params, osc_params=osc, delay_model=delay,
            duration_s=cfg["duration_s"], sample_interval_s=cfg["sample_interval_s"],
            boot_window_s=cfg["boot_window_s"], seed=seed,
            initial_rate=cfg["initial_rate"], initial_ticks=cfg["initial_ticks"],
        )
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
    osc = OscillatorParams(nominal_hz=1e6, max_drift_hz=25.0,
                           resample_interval_s=3600.0)
    trace = run_simulation(build_line_topology(3), params, osc_params=osc,
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
    params = ProtocolParams(kind=protocol,
                            step_size=default_step_size(protocol, b, f),
                            beacon_period_s=b, nominal_hz=f,
                            max_error_s=6e-3, gather_wait_s=1.0)
    osc = OscillatorParams(nominal_hz=f, max_drift_hz=25.0,
                           resample_interval_s=3600.0)
    return run_simulation(build_line_topology(4), params, osc_params=osc,
                          delay_model=DelayModel(std_s=1e-5),
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
