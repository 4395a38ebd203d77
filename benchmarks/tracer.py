"""Per-layer tracing of one wsnsync CLI invocation, installed from outside.

The program is not edited: `install()` replaces public functions and
methods of the `wsnsync` modules with timing wrappers. A function imported
by name into another module (`simulation.rate_update`, `cli.run_simulation`)
is a separate binding, so every module attribute that holds the original
object is replaced, not only the one where it is defined.

Two kinds of wrapper share one stack of child-time accumulators, so the
self time of any wrapped call is its duration minus the time of the wrapped
calls made inside it:

- HOT functions run up to millions of times per invocation (clock reads,
  queue push/pop, delay draws, rate updates). They keep only count, total
  and child time, so memory stays bounded.
- SPANS are per-run or coarser boundaries. Each call is also recorded as a
  full span (id, parent id, name, start, end), returned by `report()` and
  written out by the benchmark when it ends.
"""
from __future__ import annotations

import importlib
import itertools
import sys
import time

# (metric name, "module:qualname"); the metric name's prefix is the layer.
HOT = (
    ("clocks.advance", "wsnsync.clocks:HardwareClock.advance"),
    ("clocks.read_ticks", "wsnsync.clocks:HardwareClock.read_ticks"),
    ("clocks.logical.read", "wsnsync.clocks:LogicalClock.read"),
    ("clocks.logical.apply_correction", "wsnsync.clocks:LogicalClock.apply_correction"),
    ("simulation.queue.push", "wsnsync.simulation:EventQueue.push"),
    ("simulation.queue.pop", "wsnsync.simulation:EventQueue.pop"),
    ("simulation.delay", "wsnsync.simulation:DelayModel.sample"),
    ("protocols.rate_update", "wsnsync.protocols:rate_update"),
    ("metrics.max_global_error", "wsnsync.metrics:max_global_error"),
)
SPANS = (
    ("cli.main", "wsnsync.cli:main"),
    ("simulation.run_simulation", "wsnsync.simulation:run_simulation"),
    ("simulation.write_csv", "wsnsync.simulation:SimulationTrace.write_csv"),
    ("metrics.summarize", "wsnsync.metrics:summarize"),
    ("analysis.pairwise_oracle", "wsnsync.analysis:pairwise_oracle"),
    ("analysis.checks.final_step_sigma", "wsnsync.analysis:final_step_sigma"),
    ("analysis.checks.mean_agreement_max_sigma",
     "wsnsync.analysis:mean_agreement_max_sigma"),
    ("analysis.checks.steady_state_stats", "wsnsync.analysis:steady_state_stats"),
    ("analysis.checks.is_mean_convergent", "wsnsync.analysis:is_mean_convergent"),
    ("analysis.checks.asymptotic_error_variance",
     "wsnsync.analysis:asymptotic_error_variance"),
    ("analysis.checks.variant_moment_predictions",
     "wsnsync.analysis:variant_moment_predictions"),
)

# float64 array element passes per oracle step, counted from the kernel's
# expressions in `pairwise_oracle`: 10 array writes (two draws, w, five
# temporaries of e, two of the rate update) and 18 reads (the expressions'
# operands, plus one pass per mean and two per var of e and rate).
ORACLE_PASSES_PER_STEP = 28


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, total_s, child_s]
        self.stats: dict[str, list] = {}
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counters = {
            "rounds": 0,
            "empty_rounds": 0,
            "guard_skips": 0,
            "acks_received": 0,
            "requests_sent": 0,
            "oracle_samples": 0,
            "oracle_bytes_computed": 0,
        }
        # Child time of the innermost open wrapped call; [0] is the root.
        self._child = [0.0]
        self._span_ids = [None]
        self._next_id = itertools.count(1)

    def _hot(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child = self._child
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += child.pop()
                child[-1] += dt

        return wrapper

    def _span(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child = self._child
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            sid = next(self._next_id)
            parent = self._span_ids[-1]
            self._span_ids.append(sid)
            child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._span_ids.pop()
                stat[0] += 1
                stat[1] += t1 - t0
                stat[2] += child.pop()
                child[-1] += t1 - t0
                self.spans.append((sid, parent, name, t0, t1))
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return wrapper

    def report(self) -> dict:
        return {
            "stats": {
                name: {"calls": c, "total_s": total, "self_s": total - ch}
                for name, (c, total, ch) in sorted(self.stats.items())
            },
            "counters": dict(self.counters),
            "spans": [
                {"id": sid, "parent": parent, "name": name, "start": t0, "end": t1}
                for sid, parent, name, t0, t1 in self.spans
            ],
        }


def _observe_run(counters, args, kwargs, trace) -> None:
    """Round-level counters from the returned RoundRecords.

    A round that received acks but installed no rate was skipped by the
    guard. Requests sent are counted per recorded round as the node's
    degree, so ack_ratio = acks_received / requests_sent is the share of
    requests answered within their round.
    """
    neighbors = trace.topology.neighbors
    for r in trace.rounds:
        counters["rounds"] += 1
        counters["requests_sent"] += len(neighbors[r.node_id])
        counters["acks_received"] += r.n_acks
        if r.n_acks == 0:
            counters["empty_rounds"] += 1
        elif r.new_rate is None:
            counters["guard_skips"] += 1


def _observe_oracle(counters, args, kwargs, result) -> None:
    samples = kwargs["n_runs"] * kwargs["n_steps"]
    counters["oracle_samples"] += samples
    counters["oracle_bytes_computed"] += 8 * ORACLE_PASSES_PER_STEP * samples


_OBSERVERS = {
    "simulation.run_simulation": _observe_run,
    "analysis.pairwise_oracle": _observe_oracle,
}


def _replace(target: str, make) -> None:
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    wrapped = make(original)
    setattr(owner, attr, wrapped)
    if path:  # a method: every instance looks it up on the class
        return
    for name, module in list(sys.modules.items()):
        if name == "wsnsync" or name.startswith("wsnsync."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def install() -> Tracer:
    """Wrap every declared function and return the tracer collecting them."""
    tracer = Tracer()
    for name, target in HOT:
        _replace(target, lambda fn, name=name: tracer._hot(name, fn))
    for name, target in SPANS:
        _replace(target, lambda fn, name=name: tracer._span(name, fn))
    return tracer
