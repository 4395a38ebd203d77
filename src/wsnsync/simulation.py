"""Deterministic event-driven network simulator.

Each non-gateway node runs the same round protocol: every beacon period it
broadcasts a clock request to its one-hop neighbors, collects the clock
values carried by the acks, and after a fixed gather wait averages the
observed offsets (neighbor value minus own value at ack receipt). An ack
that arrives after the deadline of the round that asked for it is dropped,
so every round averages at most one ack per neighbor. The
average is always applied as an offset correction; the rate update is
applied only when the average magnitude is below the guard threshold, and
consumes the node's own error (the negated average). The gateway answers
requests with exact true time and never touches its own clock.

Nodes power on with cold clocks: the logical value starts at rate times the
hardware counter, so a node that boots late (or with a nonzero counter) is
seconds-to-minutes off true time. Only nodes holding a valid time answer
clock requests: the gateway from boot, every other node after it completes
its first averaging round. The first completed round therefore adopts the
neighborhood mean outright (the guard blocks the rate update at that error
magnitude), and valid time spreads outward from the gateway hop by hop
instead of cold clocks polluting neighborhood averages.

Determinism: all randomness flows from one seed through independent
SeedSequence child streams (boot times, message delays, one stream per node
clock), and simultaneous events are ordered by a fixed priority (message
deliveries, then averaging deadlines, then beacons, then trace samples) with
insertion order inside each class. Reruns with identical inputs produce
identical traces; runs that differ only in protocol arithmetic see identical
boot times, drift trajectories and delay draws.
"""
from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterator

import numpy as np

from .clocks import HardwareClock, LogicalClock, OscillatorParams
from .protocols import ProtocolParams, rate_update

TRACE_COLUMNS = ("sample_time", "node_id", "logical_value", "true_time", "error_seconds")
# Delay draws are made this many at a time; a block of normal draws holds
# the same values in the same order as that many scalar draws.
DELAY_BLOCK = 4096
# Most sample frames, and most beacon rounds per node, that one run may
# schedule; the defaults need 1224 and 408.
MAX_PERIODS_PER_RUN = 10**6
# Event kinds, which are also the priorities of simultaneous events (lower
# runs first) and the indices of _Sim.run's handlers.
DELIVERY, DEADLINE, BEACON, SAMPLE = range(4)


@dataclass(frozen=True)
class DelayModel:
    """Per-message delay: N(0, std^2) clamped below at floor_s."""

    std_s: float = 1e-5
    floor_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.std_s < math.inf:
            raise ValueError(f"std_s must be finite and nonnegative, got {self.std_s}")
        if not 0 <= self.floor_s < math.inf:
            raise ValueError(f"floor_s must be finite and nonnegative, got {self.floor_s}")

    def normals(self, gen: np.random.Generator) -> Iterator[float]:
        """Endless N(0, std^2) draws from ``gen``, made DELAY_BLOCK at a time."""
        while True:
            yield from gen.normal(0.0, self.std_s, DELAY_BLOCK).tolist()

    def sample(self, normals: Iterator[float]) -> float:
        """One message delay from the next draw of ``normals()``."""
        return max(self.floor_s, next(normals))


@dataclass(frozen=True)
class Topology:
    """Undirected connected graph with a designated gateway node.

    Edges are normalized to sorted unique (low, high) pairs; every node must
    reach the gateway.
    """

    node_ids: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    gateway: int

    def __post_init__(self) -> None:
        ids = tuple(sorted(self.node_ids))
        id_set = set(ids)
        if len(ids) != len(id_set):
            raise ValueError("duplicate node ids")
        if len(ids) < 2:
            raise ValueError("need at least two nodes")
        norm = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self loop on node {i}")
            if i not in id_set or j not in id_set:
                raise ValueError(f"edge ({i}, {j}) references unknown node")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "node_ids", ids)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        if self.gateway not in ids:
            raise ValueError(f"gateway {self.gateway} not among nodes")
        # connectivity: every node must reach the gateway
        seen = {self.gateway}
        frontier = [self.gateway]
        while frontier:
            cur = frontier.pop()
            for other in self.neighbors[cur]:
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        if seen != id_set:
            missing = sorted(id_set - seen)
            raise ValueError(f"nodes {missing} cannot reach the gateway")

    @cached_property
    def neighbors(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {i: [] for i in self.node_ids}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return {i: tuple(sorted(v)) for i, v in adj.items()}

    def to_config(self) -> dict:
        """The format of topology files and of a trace header's "topology"."""
        return {
            "nodes": list(self.node_ids),
            "edges": [list(e) for e in self.edges],
            "gateway": self.gateway,
        }

    @classmethod
    def from_config(cls, config: dict) -> Topology:
        """The topology ``config``, in ``to_config``'s format, describes; else ValueError."""
        try:
            nodes, edges = tuple(config["nodes"]), tuple(map(tuple, config["edges"]))
            return cls(nodes, edges, config["gateway"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"not a topology config: {exc!r}")


def build_line_topology(n: int) -> Topology:
    """Chain 1-2-...-n with the gateway at node 1."""
    return Topology(tuple(range(1, n + 1)), tuple((i, i + 1) for i in range(1, n)), 1)


class EventQueue:
    """Min-heap of (time, kind, insertion seq); FIFO within (time, kind)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = itertools.count()

    def push(self, time: float, kind: int, data: object = None) -> None:
        heapq.heappush(self._heap, (time, kind, next(self._seq), data))

    def pop(self) -> tuple[float, int, object]:
        time, kind, _, data = heapq.heappop(self._heap)
        return time, kind, data

    def __len__(self) -> int:
        return len(self._heap)


@dataclass
class NodeState:
    boot_time: float
    hw: HardwareClock
    lc: LogicalClock
    is_gateway: bool = False
    err_acc: float = 0.0
    recv_count: int = 0
    # Holds a valid time and may answer requests: gateway from boot, other
    # nodes after their first completed averaging round.
    synced: bool = False


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """Outcome of one averaging deadline at one node.

    mean_offset_s is the averaged neighbor-minus-own offset (None when no
    acks arrived); new_rate is the rate installed by the guard-protected
    update (None when skipped or no acks).
    """

    time_s: float
    node_id: int
    mean_offset_s: float | None
    new_rate: float | None
    n_acks: int


def write_csv_preamble(out: IO[str], config: dict, columns: tuple[str, ...]) -> None:
    """Every output CSV's first two lines: `# config = <sorted JSON>`, then the columns."""
    out.write("# config = " + json.dumps(config, sort_keys=True) + "\n")
    out.write(",".join(columns) + "\n")


# eq=False: a generated __eq__ would compare the readings arrays, whose
# truth value is ambiguous.
@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """One run's samples and rounds.

    logical_s holds one row per sample time and one column per node, in
    topology.node_ids order: the node's logical clock reading (seconds) at
    that true time, NaN before the node boots.
    """

    sample_times_s: tuple[float, ...]
    logical_s: np.ndarray
    rounds: tuple[RoundRecord, ...]
    topology: Topology
    boot_times: dict[int, float]
    config: dict

    @property
    def boot_complete_time(self) -> float:
        return max(self.boot_times.values())

    def write_csv(self, out: IO[str]) -> None:
        """Trace rows with the resolved config embedded as a comment header.

        Floats are written with repr (shortest round trip), so identical
        runs serialize byte-identically. Rows follow each sample's readings
        in node id order, skipping nodes not yet booted. error_seconds is
        the reading minus the sample time, logical_value - true_time.
        """
        write_csv_preamble(out, self.config, TRACE_COLUMNS)
        node_ids = self.topology.node_ids
        for t, row in zip(self.sample_times_s, self.logical_s):
            ts = repr(t)
            # one row at a time as Python floats: repr(np.float64) differs
            out.write("".join([
                f"{ts},{nid},{v!r},{ts},{v - t!r}\n"
                for nid, v in zip(node_ids, row.tolist())
                if v == v  # NaN: not booted
            ]))


class _Sim:
    def __init__(
        self,
        topology: Topology,
        params: ProtocolParams,
        osc: OscillatorParams,
        delay: DelayModel,
        duration_s: float,
        sample_interval_s: float,
        boot_window_s: float,
        seed: int,
        initial_rate: float | None,
        initial_ticks: float | None,
    ) -> None:
        self.topology = topology
        self.params = params
        self.delay = delay
        self.duration = duration_s

        root = np.random.SeedSequence(seed)
        boot_ss, delay_ss, *node_ss = root.spawn(2 + len(topology.node_ids))
        self.delay_normals = delay.normals(
            np.random.Generator(np.random.PCG64(delay_ss))
        )
        boot_gen = np.random.Generator(np.random.PCG64(boot_ss))
        boots = boot_gen.uniform(0.0, boot_window_s, len(topology.node_ids))

        nominal_rate = 1.0 / params.nominal_hz
        ticks_span = params.beacon_period_s * params.nominal_hz
        self.nodes: dict[int, NodeState] = {}
        for nid, ss, boot in zip(topology.node_ids, node_ss, boots):
            gen = np.random.Generator(np.random.PCG64(ss))
            t0 = (
                float(gen.uniform(0.0, ticks_span))
                if initial_ticks is None
                else float(initial_ticks)
            )
            hw = HardwareClock(osc, gen, start_time=float(boot), initial_ticks=t0)
            rate = nominal_rate if initial_rate is None else float(initial_rate)
            # Cold boot: the logical clock starts wherever the hardware
            # counter puts it, not at true time.
            lc = LogicalClock(value=rate * t0, rate=rate, anchor_ticks=t0)
            self.nodes[nid] = NodeState(
                boot_time=float(boot),
                hw=hw,
                lc=lc,
                is_gateway=(nid == topology.gateway),
                synced=(nid == topology.gateway),
            )

        self.queue = EventQueue()
        for nid in topology.node_ids:
            node = self.nodes[nid]
            if not node.is_gateway and node.boot_time <= duration_s:
                self.queue.push(node.boot_time, BEACON, nid)
        # Sample k is due at the k-th partial sum of the interval, the float
        # additions the schedule has always made, so row k of the readings
        # is filled by the event that carries k.
        times = []
        t = sample_interval_s
        while t <= duration_s:
            times.append(t)
            t += sample_interval_s
        self.sample_times = tuple(times)
        self.logical_s = np.full((len(times), len(self.nodes)), math.nan)
        if times:
            self.queue.push(times[0], SAMPLE, 0)

        self.rounds: list[RoundRecord] = []

    def run(self) -> None:
        handlers = (self._deliver, self._deadline, self._beacon, self._sample)
        heap = self.queue._heap
        pop = self.queue.pop
        while heap:
            t, kind, data = pop()
            handlers[kind](t, data)

    def _send(
        self, t: float, sender: int, receiver: int, payload: float | None,
        round_deadline: float,
    ) -> None:
        """Schedule a delivery; payload None is a request, a float an ack.

        round_deadline is the deadline of the requester's round, which the
        ack of a request carries back.
        """
        d = self.delay.sample(self.delay_normals)
        if t + d <= self.duration:
            self.queue.push(
                t + d, DELIVERY, (receiver, sender, payload, round_deadline)
            )

    def _beacon(self, t: float, nid: int) -> None:
        deadline = t + self.params.gather_wait_s
        for j in self.topology.neighbors[nid]:
            self._send(t, nid, j, None, deadline)
        if deadline <= self.duration:
            self.queue.push(deadline, DEADLINE, nid)
        if t + self.params.beacon_period_s <= self.duration:
            self.queue.push(t + self.params.beacon_period_s, BEACON, nid)

    def _deliver(self, t: float, msg: tuple[int, int, float | None, float]) -> None:
        receiver, sender, payload, round_deadline = msg
        node = self.nodes[receiver]
        if t < node.boot_time:
            return  # powered off; message lost
        # Both returns come before the clock is read: an extra advance would
        # split the float sum of ticks and change the trace bytes.
        if payload is None:
            if not node.synced:
                return  # no valid time to answer with
        elif t > round_deadline:
            return  # the round that asked has already averaged
        if node.is_gateway:
            value = t
        else:
            hw = node.hw
            hw.advance(t)
            value = node.lc.read(hw.read_ticks())
        if payload is None:
            self._send(t, receiver, sender, value, round_deadline)
        else:
            node.err_acc += payload - value
            node.recv_count += 1

    def _deadline(self, t: float, nid: int) -> None:
        node = self.nodes[nid]
        if node.recv_count == 0:
            self.rounds.append(RoundRecord(t, nid, None, None, 0))
            return
        n_acks = node.recv_count
        e_new = node.err_acc / n_acks
        node.err_acc = 0.0
        node.recv_count = 0
        new_rate: float | None = None
        if abs(e_new) < self.params.max_error_s:
            # rate update consumes the node's own error, own minus neighbors
            new_rate = rate_update(node.lc.rate, -e_new, self.params)
        node.hw.advance(t)
        node.lc.apply_correction(node.hw.read_ticks(), offset_s=e_new,
                                 new_rate=new_rate)
        node.synced = True
        self.rounds.append(RoundRecord(t, nid, e_new, new_rate, n_acks))

    def _sample(self, t: float, k: int) -> None:
        row = []
        for node in self.nodes.values():  # topology.node_ids order
            if t < node.boot_time:
                row.append(math.nan)
            elif node.is_gateway:
                row.append(t)
            else:
                hw = node.hw
                hw.advance(t)
                row.append(node.lc.read(hw.read_ticks()))
        self.logical_s[k] = row
        if k + 1 < len(self.sample_times):
            self.queue.push(self.sample_times[k + 1], SAMPLE, k + 1)


def check_schedule(duration_s: float, sample_interval_s: float,
                   beacon_period_s: float, boot_window_s: float) -> None:
    """ValueError unless duration and sample interval are finite and
    positive, every node boots before the run ends, and the run schedules
    at most MAX_PERIODS_PER_RUN sample frames and beacon rounds per node."""
    if not 0 < duration_s < math.inf:
        raise ValueError(f"duration_s must be finite and positive, got {duration_s}")
    if not 0 < sample_interval_s < math.inf:
        raise ValueError(
            f"sample_interval_s must be finite and positive, got {sample_interval_s}"
        )
    if not 0 <= boot_window_s < duration_s:
        raise ValueError("boot_window_s must satisfy 0 <= window < duration")
    for name, period in (("sample_interval_s", sample_interval_s),
                         ("beacon_period_s", beacon_period_s)):
        if duration_s / period > MAX_PERIODS_PER_RUN:
            raise ValueError(
                f"duration_s / {name} = {duration_s / period:.6g} exceeds the "
                f"limit of {MAX_PERIODS_PER_RUN} per run"
            )


def run_simulation(
    topology: Topology,
    params: ProtocolParams,
    *,
    osc_params: OscillatorParams,
    delay_model: DelayModel = DelayModel(),
    duration_s: float = 12240.0,
    sample_interval_s: float = 10.0,
    boot_window_s: float = 300.0,
    seed: int = 0,
    initial_rate: float | None = None,
    initial_ticks: float | None = None,
) -> SimulationTrace:
    """Simulate one protocol run over the given topology.

    The trace is a pure function of the arguments: rerunning with the same
    values reproduces it exactly. Every reading of a booted node is finite:
    settings that drive a clock out of float range (a huge step size under
    a wide guard, say) raise ValueError instead of returning inf or NaN.
    """
    check_schedule(duration_s, sample_interval_s, params.beacon_period_s, boot_window_s)
    for name, value in (("initial_rate", initial_rate), ("initial_ticks", initial_ticks)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")

    sim = _Sim(
        topology, params, osc_params, delay_model, duration_s,
        sample_interval_s, boot_window_s, seed, initial_rate, initial_ticks,
    )
    sim.run()
    boot_times = {nid: sim.nodes[nid].boot_time for nid in topology.node_ids}
    booted = (np.array(sim.sample_times).reshape(-1, 1)
              >= np.array(list(boot_times.values())))
    overflowed = np.argwhere(booted & ~np.isfinite(sim.logical_s))
    if overflowed.size:
        k, col = overflowed[0]
        raise ValueError(
            f"node {topology.node_ids[col]} reads {sim.logical_s[k, col]} at "
            f"t = {sim.sample_times[k]} s: the settings drive its clock out of "
            "float range"
        )
    config = {
        "protocol": params.kind.value,
        "step_size": params.step_size,
        "beacon_period_s": params.beacon_period_s,
        "nominal_hz": params.nominal_hz,
        "max_error_s": params.max_error_s,
        "gather_wait_s": params.gather_wait_s,
        "max_drift_hz": osc_params.max_drift_hz,
        "drift_resample_interval_s": osc_params.resample_interval_s,
        "quantize_ticks": osc_params.quantize_ticks,
        "delay_std_s": delay_model.std_s,
        "delay_floor_s": delay_model.floor_s,
        "topology": topology.to_config(),
        "duration_s": duration_s,
        "sample_interval_s": sample_interval_s,
        "boot_window_s": boot_window_s,
        "seed": seed,
        "initial_rate": initial_rate,
        "initial_ticks": initial_ticks,
    }
    return SimulationTrace(
        sample_times_s=sim.sample_times,
        logical_s=sim.logical_s,
        rounds=tuple(sim.rounds),
        topology=topology,
        boot_times=boot_times,
        config=config,
    )
