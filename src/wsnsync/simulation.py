"""Deterministic event-driven network simulator.

Each non-gateway node runs the same round protocol: every beacon period it
broadcasts a clock request to its one-hop neighbors, collects the clock
values carried by the acks, and after a fixed gather wait averages the
observed offsets (neighbor value minus own value at ack receipt). An ack
that would arrive after the deadline of the round that asked for it is
never queued, so every round averages at most one ack per neighbor. The
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

Each delivery is decided once, when its message is sent. Every message
draws its delay, so the draws do not depend on what is queued; then a
request is queued only if it arrives by the end of the run, at or after its
receiver's boot, and while the receiver holds a valid time or after its
next deadline, the first time it can gain one. An ack is queued only if it
arrives by the end of the run and by the deadline of the round that asked
for it. On arrival the one check left is the one that can change in
flight: a request whose receiver is still unsynced is dropped.

A run is two parts. The event pass (_event_pass) decides when each clock is
read, reads the hardware clock there and records each round's time, node
and acks; the protocol arithmetic (_Clocks) turns those readings into
logical clocks, round outcomes and trace rows. Nothing the arithmetic
computes flows back into the pass, so record_schedule runs one
seed's pass once with several protocols' arithmetic in lock step and returns
each protocol's trace, in the same bytes as a run of that protocol alone;
run_simulation(..., schedule=) looks one up.
"""
from __future__ import annotations

import heapq
import itertools
import json
import math
from array import array
from dataclasses import dataclass, replace
from functools import cached_property
from typing import IO, Iterator, Sequence

import numpy as np

from .clocks import HardwareClock, LogicalClock, OscillatorParams
from .protocols import ProtocolParams, rate_update
from .ranges import require

TRACE_COLUMNS = ("sample_time", "node_id", "logical_value", "true_time", "error_seconds")
# Delay draws are made this many at a time; a block of normal draws holds
# the same values in the same order as that many scalar draws.
DELAY_BLOCK = 4096
# Most sample frames, and most beacon rounds per node, that one run may
# schedule; the defaults need 1224 and 408.
MAX_PERIODS_PER_RUN = 10**6
# Most readings (frames x nodes) of one run: each protocol holds them as
# float64, 80 MB at the limit; the defaults on line:16 need 19,584.
MAX_READINGS_PER_RUN = 10**7
# Most nodes of a topology: line:10^5 builds in 0.5 s at 91 MB peak RSS, and
# the cost grows linearly (line:2x10^5: 0.9 s, 154 MB; 2 vCPU Xeon).
MAX_NODES = 10**5
# Event kinds, which are also the priorities of simultaneous events (lower
# runs first): the branches of _event_pass's loop. An event's data is the
# message of a delivery, the node of a deadline or beacon, or a sample's row.
DELIVERY, DEADLINE, BEACON, SAMPLE = range(4)


@dataclass(frozen=True)
class DelayModel:
    """Per-message delay: N(0, std^2) clamped below at floor_s."""

    std_s: float = 1e-5
    floor_s: float = 0.0

    def __post_init__(self) -> None:
        require("nonnegative", std_s=self.std_s, floor_s=self.floor_s)

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
            _check_node_count(len(config["nodes"]))
            nodes, edges = tuple(config["nodes"]), tuple(map(tuple, config["edges"]))
            return cls(nodes, edges, config["gateway"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"not a topology config: {exc!r}")


def _check_node_count(n: int) -> None:
    if n > MAX_NODES:
        raise ValueError(f"{n} nodes exceed the limit of {MAX_NODES}")


def build_line_topology(n: int) -> Topology:
    """Chain 1-2-...-n with the gateway at node 1."""
    _check_node_count(n)
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


# Not frozen: a frozen dataclass sets each field through object.__setattr__,
# which makes a record about four times as slow to build, and trace.rounds
# builds one per node and round (about 6,000 for a default line:16 run); a
# CLI run reads no trace.rounds and builds none.
@dataclass(slots=True)
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
    that true time, NaN before the node boots. pass_rounds are the event
    pass's round columns, shared by every trace of its schedule: each
    round's time, node index and acks, in the order the rounds closed.
    round_outcomes holds two floats per round with acks, in the same
    order, as _Clocks computed them: mean offset and new rate (NaN for
    None).
    """

    sample_times_s: tuple[float, ...]
    logical_s: np.ndarray
    pass_rounds: tuple[array, array, array]
    round_outcomes: array
    topology: Topology
    boot_times: dict[int, float]
    config: dict

    @property
    def boot_complete_time(self) -> float:
        return max(self.boot_times.values())

    @cached_property
    def round_columns(self) -> array:
        """Five floats per round, built on first read: time, node index,
        mean offset, new rate and acks, with NaN for the offset and rate of
        a round without acks and for a rate the guard did not install."""
        times, nodes, acks = self.pass_rounds
        cols = np.full((len(times), 5), math.nan)
        cols[:, 0], cols[:, 1], cols[:, 4] = times, nodes, acks
        cols[np.asarray(acks) > 0, 2:4] = np.asarray(self.round_outcomes).reshape(-1, 2)
        return array("d", cols.tobytes())

    @cached_property
    def rounds(self) -> tuple[RoundRecord, ...]:
        """The rounds as RoundRecords, built from round_columns on first read."""
        node_ids, cols = self.topology.node_ids, self.round_columns
        return tuple(
            RoundRecord(t, node_ids[int(i)], None if e != e else e,
                        None if rate != rate else rate, int(n))
            for t, i, e, rate, n in zip(*(cols[k::5] for k in range(5)))
        )

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


# The config keys that only the protocol arithmetic reads: runs whose
# configs agree on every other key share one event pass.
PROTOCOL_KEYS = ("protocol", "step_size", "max_error_s")


class _TrueTime:
    """The gateway's counter: advancing it to a true time reads that time."""

    def advance(self, to_time: float) -> float:
        return to_time


class _BootTickClock(LogicalClock):
    """A cold-boot clock on quantized ticks: anchored at the unquantized
    initial count, it also reads within its boot tick, back by under a tick."""

    def read(self, at_ticks: float) -> float:
        if math.floor(self.anchor_ticks) <= at_ticks < self.anchor_ticks:
            return self.value + self.rate * (at_ticks - self.anchor_ticks)
        return super().read(at_ticks)


def _event_pass(topology: Topology, configs: dict[ProtocolParams, dict]
                ) -> dict[ProtocolParams, SimulationTrace | ValueError]:
    """The event pass of one run (boots, counters, messages, rounds and
    sample frames), returned as each params' trace, or the error its
    arithmetic kept, in configs order.

    It decides when each clock is read, reads the counter there with one
    advance call and hands the reading to every _Clocks in turn. It owns
    every fact the protocols share: boot times, each node's counter and the
    logical clock it boots with, who may answer, the acks of each open
    round, and the gateway, whose counter reads true time. Nothing a
    _Clocks computes flows back, so every protocol sees the same pass under
    one seed. configs, the run_config of each params as record_schedule
    checked them, shape the pass through their keys outside PROTOCOL_KEYS,
    which they share; nodes are indices into topology.node_ids.

    Each delivery is admitted once, where its message is sent, after the
    message draws its delay. The BEACON branch queues a request arriving at
    a only if a <= duration_s, boot_times[j] <= a and (synced[j] or a >
    next_sync[j]); the request branch queues an ack only if a <=
    round_deadline and a <= duration_s. On arrival a request to a receiver
    still unsynced is dropped before its clock is read, since an extra
    advance would split the float sum of ticks and change the trace bytes;
    every other delivery is handled.
    """
    config = next(iter(configs.values()))
    beacon_period, gather_wait = config["beacon_period_s"], config["gather_wait_s"]
    duration_s, sample_interval_s = config["duration_s"], config["sample_interval_s"]
    nominal_hz, initial_ticks = config["nominal_hz"], config["initial_ticks"]
    osc_params = OscillatorParams(nominal_hz, config["max_drift_hz"],
                                  config["drift_resample_interval_s"], config["quantize_ticks"])
    delay_model = DelayModel(config["delay_std_s"], config["delay_floor_s"])
    ids = topology.node_ids
    index = {nid: i for i, nid in enumerate(ids)}
    neighbors = [tuple(index[j] for j in topology.neighbors[nid]) for nid in ids]
    gateway = index[topology.gateway]

    boot_ss, delay_ss, *node_ss = np.random.SeedSequence(config["seed"]).spawn(2 + len(ids))
    normals = delay_model.normals(np.random.Generator(np.random.PCG64(delay_ss)))
    boot_gen = np.random.Generator(np.random.PCG64(boot_ss))
    boot_times = boot_gen.uniform(0.0, config["boot_window_s"], len(ids)).tolist()

    ticks_span = beacon_period * nominal_hz
    rate = 1.0 / nominal_hz if config["initial_rate"] is None else float(config["initial_rate"])
    cold = _BootTickClock if osc_params.quantize_ticks else LogicalClock
    hws: list[HardwareClock | _TrueTime] = []
    boot_clocks: list[LogicalClock] = []
    for i, (ss, boot) in enumerate(zip(node_ss, boot_times)):
        if i == gateway:  # 0.0 + 1.0 * (t - 0.0) == t: true time, bit for bit
            hws.append(_TrueTime())
            boot_clocks.append(LogicalClock(0.0, 1.0))
            continue
        gen = np.random.Generator(np.random.PCG64(ss))
        t0 = float(gen.uniform(0.0, ticks_span) if initial_ticks is None else initial_ticks)
        hws.append(HardwareClock(osc_params, gen, start_time=boot, initial_ticks=t0))
        # Cold boot: the logical clock starts wherever the hardware
        # counter puts it, not at true time.
        boot_clocks.append(cold(rate * t0, rate, t0))
    # Holds a valid time and may answer requests: gateway from boot, other
    # nodes after their first round with acks.
    synced = [i == gateway for i in range(len(ids))]
    pending_acks = [0] * len(ids)
    # Each node's next deadline, the first time its synced flag can turn on:
    # its open deadline (gather_wait < beacon_period, so it has at most
    # one), else its next beacon's, the same float sum the BEACON branch
    # pushes. A delivery pops before a deadline at the same time, so a
    # request that reaches an unsynced node by then is not queued.
    next_beacon = list(boot_times)
    next_sync = [boot + gather_wait for boot in boot_times]

    queue = EventQueue()
    for i, boot in enumerate(boot_times):
        if i != gateway and boot <= duration_s:
            queue.push(boot, BEACON, i)
    # Sample k is due at the k-th partial sum of the interval; row k of the
    # readings is filled by the event that carries k.
    sample_times, t = [], sample_interval_s
    while t <= duration_s:
        sample_times.append(t)
        t += sample_interval_s
    if sample_times:
        queue.push(sample_times[0], SAMPLE, 0)
    clocks = [_Clocks(ids, params, boot_clocks, len(sample_times)) for params in configs]
    # Every round, as its deadline pops: time, node index and acks. "I" is
    # a C unsigned int, 32 bits wherever numpy runs: an index and an ack
    # count are below the node count, and an append out of range raises
    # OverflowError instead of wrapping.
    round_times, round_nodes, round_acks = array("d"), array("I"), array("I")

    pop = queue.pop
    while queue:
        t, kind, data = pop()
        if kind == DELIVERY:
            receiver, sender, answer, round_deadline = data
            if answer is not None:  # an ack, queued by its round's deadline
                ticks = hws[receiver].advance(t)
                for c, payload in zip(clocks, answer):
                    c.ack(receiver, ticks, payload)
                pending_acks[receiver] += 1
            elif synced[receiver]:  # else no valid time to answer with
                ticks = hws[receiver].advance(t)
                a = t + delay_model.sample(normals)
                if a <= round_deadline and a <= duration_s:
                    answers = [c.answer(receiver, ticks) for c in clocks]
                    queue.push(a, DELIVERY, (sender, receiver, answers, round_deadline))
        elif kind == DEADLINE:
            n_acks = pending_acks[data]
            next_sync[data] = next_beacon[data] + gather_wait
            round_times.append(t)
            round_nodes.append(data)
            round_acks.append(n_acks)
            if n_acks:  # a round without acks reads no clock and computes nothing
                pending_acks[data] = 0
                synced[data] = True
                ticks = hws[data].advance(t)
                for c in clocks:
                    c.round(t, data, ticks, n_acks)
        elif kind == BEACON:
            deadline = t + gather_wait
            next_beacon[data] = t + beacon_period
            for j in neighbors[data]:
                a = t + delay_model.sample(normals)
                if a <= duration_s and boot_times[j] <= a and (synced[j] or a > next_sync[j]):
                    queue.push(a, DELIVERY, (j, data, None, deadline))
            if deadline <= duration_s:
                queue.push(deadline, DEADLINE, data)
            if next_beacon[data] <= duration_s:
                queue.push(next_beacon[data], BEACON, data)
        else:  # SAMPLE
            ticks = [hw.advance(t) if t >= boot else None for hw, boot in zip(hws, boot_times)]
            for c in clocks:
                c.frame(data, ticks)
            if data + 1 < len(sample_times):
                queue.push(sample_times[data + 1], SAMPLE, data + 1)
    # A booted reading out of float range fails its run, as a failed round
    # does; the first such reading names the failure. The delay stream's
    # block of unused draws is freed before the scan.
    del normals
    booted = np.array(sample_times).reshape(-1, 1) >= np.array(boot_times)
    for c in clocks:
        for k, col in np.argwhere(booted & ~np.isfinite(c.logical_s))[:1]:
            c.fail(col, c.logical_s[k, col], sample_times[k], "")
    times, pass_rounds = tuple(sample_times), (round_times, round_nodes, round_acks)
    return {params: c.error or SimulationTrace(times, c.logical_s, pass_rounds, c.outcomes,
                                               topology, dict(zip(ids, boot_times)), config)
            for (params, config), c in zip(configs.items(), clocks)}


class _Clocks:
    """The protocol arithmetic of one run: each node's logical clock, ack
    sums, round outcomes and the readings array.

    The event pass feeds it readings through four methods; it starts from
    copies of the pass's boot clocks, and node_ids serve its error messages
    only. error keeps its first ValueError (fail): a correction out of float
    range (from round) or a booted reading out of it (from the pass's
    readings scan). Reads cannot raise, since no node's ticks fall below
    its clock's anchor (_BootTickClock covers the boot tick), so a failed
    _Clocks is fed to the end like the others. Its outcomes miss the round
    that failed, so they no longer line up with the pass's rounds; the
    pass keeps its error in place of a trace.
    """

    def __init__(self, node_ids: tuple[int, ...], params: ProtocolParams,
                 boot_clocks: list[LogicalClock], n_samples: int) -> None:
        self.node_ids = node_ids
        self.params = params
        # replace, not copy.copy, which materializes each clock's __dict__
        # and so slows every attribute read (a line:16 pass by about 14 %)
        self.lcs = [replace(lc) for lc in boot_clocks]
        self.error: ValueError | None = None
        self.err_acc = [0.0] * len(self.lcs)
        # A trace's round_outcomes: two floats per round with acks, mean
        # offset and new rate (NaN for None).
        self.outcomes = array("d")
        self.logical_s = np.full((n_samples, len(self.lcs)), math.nan)

    def answer(self, i: int, ticks: float) -> float:
        return self.lcs[i].read(ticks)

    def ack(self, i: int, ticks: float, payload: float) -> None:
        self.err_acc[i] += payload - self.lcs[i].read(ticks)

    def round(self, t: float, i: int, ticks: float, n_acks: int) -> None:
        """The round of node i that closed at t with n_acks > 0 acks."""
        e_new = self.err_acc[i] / n_acks
        self.err_acc[i] = 0.0
        lc = self.lcs[i]
        new_rate: float | None = None
        if abs(e_new) < self.params.max_error_s:
            # rate update consumes the node's own error, own minus neighbors
            new_rate = rate_update(lc.rate, -e_new, self.params)
        try:
            lc.apply_correction(ticks, offset_s=e_new, new_rate=new_rate)
        except ValueError:
            self.fail(i, lc.read(ticks), t,
                      f", where its correction is offset_s={e_new}, new_rate={new_rate}")
            return
        self.outcomes.extend((e_new, math.nan if new_rate is None else new_rate))

    def fail(self, i: int, reading: float, t: float, where: str) -> None:
        """Keep the first failure: node i reads ``reading`` at t, ``where``."""
        self.error = self.error or ValueError(
            f"node {self.node_ids[i]} reads {reading} at t = {t} s{where}: the settings "
            "drive its clock out of float range"
        )

    def frame(self, k: int, ticks: list[float | None]) -> None:
        """Row k of the readings, from each node's ticks (None: not booted)."""
        self.logical_s[k] = [math.nan if x is None else lc.read(x)
                             for lc, x in zip(self.lcs, ticks)]


def run_config(
    topology: Topology, params: ProtocolParams, *, max_drift_hz: float,
    drift_resample_interval_s: float, quantize_ticks: bool = OscillatorParams.quantize_ticks,
    delay_std_s: float = DelayModel.std_s, delay_floor_s: float = DelayModel.floor_s,
    duration_s: float = 12240.0, sample_interval_s: float = 10.0, boot_window_s: float = 300.0,
    seed: int = 0, initial_rate: float | None = None, initial_ticks: float | None = None,
) -> dict:
    """The config of one run of params, its trace's `# config` header: the
    topology, the params' fields and these keyword settings, each under its
    own name. Its keyword settings and their defaults, declared here alone,
    are those of record_schedule and run_simulation; TypeError for one it
    does not take or a missing drift bound or segment length.

    ValueError unless quantize_ticks is a bool and seed a nonnegative int
    (not a bool), where OscillatorParams (at the protocol's nominal
    frequency) or DelayModel refuses the settings, and unless duration and
    sample interval are finite and positive, every node boots before the run
    ends, the run schedules at most MAX_PERIODS_PER_RUN sample frames,
    beacon rounds per node and drift segments over all its nodes but the
    gateway, which reads true time, and at most MAX_READINGS_PER_RUN
    readings (sample frames x nodes), the initial rate is finite and
    positive or None and the initial ticks finite and nonnegative or None.
    """
    if not isinstance(quantize_ticks, bool):
        raise ValueError(f"quantize_ticks must be a bool, got {quantize_ticks!r}")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a nonnegative int, got {seed!r}")
    OscillatorParams(params.nominal_hz, max_drift_hz, drift_resample_interval_s, quantize_ticks)
    DelayModel(delay_std_s, delay_floor_s)
    require("positive", duration_s=duration_s, sample_interval_s=sample_interval_s)
    if not 0 <= boot_window_s < duration_s:
        raise ValueError(
            f"boot_window_s must satisfy 0 <= window < duration, got {boot_window_s}")
    n = len(topology.node_ids)
    for name, period, nodes, limit in (
            ("sample_interval_s", sample_interval_s, 1, MAX_PERIODS_PER_RUN),
            ("sample_interval_s", sample_interval_s, n, MAX_READINGS_PER_RUN),
            ("beacon_period_s", params.beacon_period_s, 1, MAX_PERIODS_PER_RUN),
            ("drift_resample_interval_s", drift_resample_interval_s, n - 1,
             MAX_PERIODS_PER_RUN)):
        if nodes * duration_s / period > limit:
            per = "" if nodes == 1 else f" x {nodes} nodes"
            raise ValueError(f"duration_s / {name}{per} = {nodes * duration_s / period:.6g} "
                             f"exceeds the limit of {limit} per run")
    if initial_rate is not None and not 0 < initial_rate < math.inf:
        raise ValueError(f"initial_rate must be finite and positive, got {initial_rate}")
    if initial_ticks is not None and not 0 <= initial_ticks < math.inf:
        raise ValueError(f"initial_ticks must be finite and nonnegative, got {initial_ticks}")
    return {
        "protocol": params.kind.value,
        "step_size": params.step_size,
        "beacon_period_s": params.beacon_period_s,
        "nominal_hz": params.nominal_hz,
        "max_error_s": params.max_error_s,
        "gather_wait_s": params.gather_wait_s,
        "max_drift_hz": max_drift_hz,
        "drift_resample_interval_s": drift_resample_interval_s,
        "quantize_ticks": quantize_ticks,
        "delay_std_s": delay_std_s,
        "delay_floor_s": delay_floor_s,
        "topology": topology.to_config(),
        "duration_s": duration_s,
        "sample_interval_s": sample_interval_s,
        "boot_window_s": boot_window_s,
        "seed": seed,
        "initial_rate": initial_rate,
        "initial_ticks": initial_ticks,
    }


def record_schedule(topology: Topology, params_seq: Sequence[ProtocolParams],
                    **settings) -> dict[ProtocolParams, SimulationTrace | ValueError]:
    """Run the event pass of these settings, run_config's, once, with the
    arithmetic of each params in params_seq in lock step, and map each, in
    params_seq order, to its trace, or to the ValueError its arithmetic
    kept; run_simulation(topology, params, schedule=) looks one up.

    The entries must differ, and their configs, which run_config checks,
    may differ only in PROTOCOL_KEYS; else ValueError. An entry whose
    arithmetic fails keeps its error, however many entries there are, for
    its run_simulation call to raise; the others finish.
    """
    if not params_seq:
        raise ValueError("params_seq is empty")
    configs = [run_config(topology, params, **settings) for params in params_seq]
    for k, (params, config) in enumerate(zip(params_seq, configs)):
        if params in params_seq[:k]:
            raise ValueError(f"params_seq holds {params} twice")
        if any(configs[0][k] != v for k, v in config.items() if k not in PROTOCOL_KEYS):
            raise ValueError(f"{params} needs another event pass than {params_seq[0]}")
    return _event_pass(topology, dict(zip(params_seq, configs)))


def run_simulation(topology: Topology, params: ProtocolParams, *,
                   schedule: dict[ProtocolParams, SimulationTrace | ValueError] | None = None,
                   **settings) -> SimulationTrace:
    """Simulate one protocol run over the given topology.

    settings are run_config's keyword arguments, with its defaults. The
    trace is a pure function of its config: rerunning with the same values
    reproduces it exactly. Every reading of a booted node is finite:
    settings that drive a clock out of float range (a huge step size under
    a wide guard, say) raise ValueError instead of returning inf or NaN.

    With a schedule from record_schedule, the trace is the one its pass
    recorded for params, under the settings it was recorded with:
    TypeError for any setting given with it, and ValueError for params its
    pass did not run, the error their arithmetic kept, or a topology other
    than its own.
    """
    if schedule is None:
        schedule = record_schedule(topology, (params,), **settings)
    elif settings:
        raise TypeError(f"a schedule takes no settings, got {', '.join(map(repr, settings))}")
    if params not in schedule:
        raise ValueError(f"the schedule's pass did not run {params}")
    trace = schedule[params]
    if isinstance(trace, ValueError):  # raised afresh by each call, without earlier frames
        raise trace.with_traceback(None)
    if topology != trace.topology:
        raise ValueError("the schedule's pass ran on another topology")
    return trace
