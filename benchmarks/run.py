"""wsnsync benchmark: three CLI workloads, golden output hashes, traced layers.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --record-golden

Run from the root of a source checkout; nothing needs installing. Every
invocation is `wsnsync.cli.main` in a fresh interpreter (benchmarks/child.py)
with PYTHONPATH=src, one at a time (closed loop, `--jobs 1`), writing into a
fresh directory under .bench_runs/ in the checkout.

--trace 0 repeats the workload for --seconds and reports the end-to-end
metrics as medians over the invocations. --trace 1 alternates untraced and
traced invocations (at least two of each) and reports the per-layer metrics
of benchmarks/tracer.py. Both modes first run the workload at the golden
seed and compare every output file with the sha256 in benchmarks/golden.json
(unless --seed is the golden seed, whose timed invocations are compared
instead); at any other seed, every invocation of the run must reproduce the
first one's bytes. A nonzero exit, a missing or extra output file or a
differing hash counts as a failed invocation.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it print every metric by
name and unit, error_rate, and the environment; the samples, the tracer's
spans and the environment are also written to .bench_runs/<workload>/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
GOLDEN = BENCH / "golden.json"
CHILD = BENCH / "child.py"

# Every run exits well inside the 180 s an invocation of this script may take.
HARD_LIMIT_S = 165.0
# Set-up-only interpreters after each untraced invocation. They spread the
# setup_s samples over the whole run, across the host's slow and fast phases.
SETUP_PROBES_PER_CYCLE = 2

PROTOCOLS = ("newton", "grades", "avgpisync")
DURATION_S = 12240.0  # the CLI's default horizon
COMPARE_SEEDS = 2  # simulation seeds per compare-line16 invocation
# A quarter of the default horizon keeps a line:256 invocation near 2 s, so
# a run holds about ten of them and its median is not set by two or three.
SCALE_DURATION_S = DURATION_S / 4
ORACLE_RUNS = 50_000
ORACLE_STEPS = 300
# The CLI's default grid; 2.2 is divergent by design and never reaches the
# oracle, so the oracle runs once for each of the other four.
MU_GRID = (0.25, 0.5, 1.0, 1.5, 2.2)

SIM_LAYERS = frozenset({"cli", "simulation", "clocks", "protocols", "metrics"})
ORACLE_LAYERS = frozenset({"cli", "analysis"})


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    files: frozenset[str]
    work: float  # simulated node-seconds, or oracle run-steps


def compare_line16(seed: int) -> Invocation:
    first = COMPARE_SEEDS * seed + 1
    seeds = range(first, first + COMPARE_SEEDS)
    return Invocation(
        ("run", "--protocol", ",".join(PROTOCOLS), "--topology", "line:16",
         "--seed", f"{seeds[0]}..{seeds[-1]}", "--duration", repr(DURATION_S),
         "--jobs", "1"),
        frozenset({"summary.csv"} | {f"trace_{p}_{s}.csv" for p in PROTOCOLS for s in seeds}),
        16 * DURATION_S * len(PROTOCOLS) * len(seeds),
    )


def scale_line256(seed: int) -> Invocation:
    return Invocation(
        ("run", "--protocol", "newton", "--topology", "line:256",
         "--seed", str(seed + 1), "--duration", repr(SCALE_DURATION_S), "--jobs", "1"),
        frozenset({"summary.csv", f"trace_newton_{seed + 1}.csv"}),
        256 * SCALE_DURATION_S,
    )


def oracle_validate(seed: int) -> Invocation:
    convergent = sum(0 < mu < 2 for mu in MU_GRID)
    return Invocation(
        ("validate-analysis", "--seed", str(seed + 1),
         "--oracle-runs", str(ORACLE_RUNS), "--oracle-steps", str(ORACLE_STEPS),
         "--mu-grid", ",".join(map(str, MU_GRID))),
        frozenset({"analysis.csv"}),
        ORACLE_RUNS * ORACLE_STEPS * convergent,
    )


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], Invocation]
    work_metric: str  # what work_per_s is called on this workload
    layers: frozenset[str]  # layers whose traced functions must run


WORKLOADS = {
    "compare-line16": Workload(compare_line16, "sim_node_s_per_s", SIM_LAYERS),
    "scale-line256": Workload(scale_line256, "sim_node_s_per_s", SIM_LAYERS),
    "oracle-validate": Workload(oracle_validate, "oracle_samples_per_s", ORACLE_LAYERS),
}


def sha256_files(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
    }


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def invoke(inv: Invocation, mode: str, out_dir: Path, deadline: float) -> dict:
    """One fresh interpreter running the invocation; returns its record.

    `error` is None when the invocation succeeded: exit code 0 and exactly
    the expected output files. Timing starts just before the interpreter is
    spawned, so setup_s and wall_s include its start-up.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    result_file = out_dir.with_name(out_dir.name + ".json")
    result_file.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(result_file), mode, *inv.argv,
           "--out-dir", str(out_dir)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or not result_file.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": f"exit code {proc.returncode}: {tail[0]}"}
    child = json.loads(result_file.read_text())
    rec = {
        "error": None,
        "wall_s": wall,
        "setup_s": child["ready"] - t0,
        "peak_rss_mb": child["maxrss_kb"] * 1024 / 1e6,
        "module": child["module"],
        "python": child["python"],
        "numpy": child["numpy"],
    }
    if mode == "setup":
        return rec
    rec["hashes"] = sha256_files(out_dir)
    rec["csv_bytes"] = sum(
        (out_dir / name).stat().st_size for name in rec["hashes"]
        if name.startswith("trace_")
    )
    if "trace" in child:
        rec["trace"] = child["trace"]
    if set(rec["hashes"]) != inv.files:
        rec["error"] = f"output files {sorted(rec['hashes'])}, expected {sorted(inv.files)}"
    return rec


class Checker:
    """Counts attempted and failed invocations and keeps the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def invocation(self, rec: dict, expected_hashes: dict | None, what: str) -> bool:
        """Count one invocation; fail it on an error or a hash mismatch."""
        self.attempted += 1
        error = rec["error"]
        if error is None and expected_hashes is not None and "hashes" in rec:
            differing = sorted(
                name for name in expected_hashes
                if rec["hashes"].get(name) != expected_hashes[name]
            )
            if differing:
                error = f"sha256 differs for {', '.join(differing)}"
        if error is not None:
            self.failed += 1
            self.problems.append(f"{what}: {error}")
        return error is None

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed_invocations(
    inv: Invocation, checker: Checker, reference: dict | None, work_dir: Path,
    seconds: float, deadline: float, modes: tuple[str, ...], min_cycles: int,
) -> dict[str, list[dict]]:
    """Cycle through `modes` until --seconds are used, at least min_cycles times.

    A new cycle starts only if the median cycle so far still fits, so a run
    ends close to --seconds. Every invocation must reproduce `reference`
    (the golden hashes) or, without one, the first invocation's bytes.
    """
    done: dict[str, list[dict]] = {mode: [] for mode in modes}
    cycles: list[float] = []
    start = time.perf_counter()
    while len(cycles) < min_cycles or (
        time.perf_counter() - start + median(cycles) <= seconds
        and time.perf_counter() + 2 * median(cycles) < deadline
    ):
        t0 = time.perf_counter()
        for mode in modes:
            # One directory per mode: removing the previous outputs first also
            # drops their unwritten pages, so no invocation pays for another's.
            rec = invoke(inv, mode, work_dir / mode, deadline)
            if checker.invocation(rec, reference, f"{mode} invocation"):
                if reference is None and "hashes" in rec:
                    reference = rec["hashes"]
                done[mode].append(rec)
        cycles.append(time.perf_counter() - t0)
    return done


def layer_metrics(report: dict, untraced_wall_s: float, csv_bytes: int) -> dict:
    """Per-layer metrics of one traced invocation, as {name: (value, unit)}.

    Self times are shares of the traced `cli.main` wall time, so a layer
    that does not run on a workload reads 0 % rather than a constant time.
    """
    stats, counters = report["stats"], report["counters"]
    wall = stats["cli.main"]["total_s"]

    def calls(*names: str) -> int:
        return sum(stats[n]["calls"] for n in names)

    def self_s(*names: str) -> float:
        return sum(stats[n]["self_s"] for n in names)

    def pct(*names: str) -> tuple[float, str]:
        return 100.0 * self_s(*names) / wall, "%"

    def per_s(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    events = calls("simulation.queue.pop")
    logical = ("clocks.logical.read", "clocks.logical.apply_correction")
    checks = tuple(n for n in stats if n.startswith("analysis.checks."))
    return {
        "simulation.run_simulation.self_pct": pct("simulation.run_simulation"),
        "simulation.events": (events, "count"),
        "simulation.events_per_s": (per_s(events, untraced_wall_s), "1/s"),
        "simulation.queue.self_pct": pct("simulation.queue.push", "simulation.queue.pop"),
        "simulation.delay_draws": (calls("simulation.delay"), "count"),
        "simulation.delay.self_pct": pct("simulation.delay"),
        "simulation.rounds": (counters["rounds"], "count"),
        "simulation.empty_rounds": (counters["empty_rounds"], "count"),
        "simulation.guard_skips": (counters["guard_skips"], "count"),
        "simulation.ack_ratio": (
            per_s(counters["acks_received"], counters["requests_sent"]), "ratio"),
        "simulation.write_csv.self_pct": pct("simulation.write_csv"),
        "simulation.csv_bytes": (csv_bytes, "B"),
        "simulation.csv_mb_per_s": (
            per_s(csv_bytes / 1e6, self_s("simulation.write_csv")), "MB/s"),
        "clocks.advance.calls": (calls("clocks.advance"), "count"),
        "clocks.advance.self_pct": pct("clocks.advance"),
        "clocks.read_ticks.calls": (calls("clocks.read_ticks"), "count"),
        "clocks.read_ticks.self_pct": pct("clocks.read_ticks"),
        "clocks.logical.calls": (calls(*logical), "count"),
        "clocks.logical.self_pct": pct(*logical),
        "protocols.rate_update.calls": (calls("protocols.rate_update"), "count"),
        "protocols.rate_update.self_pct": pct("protocols.rate_update"),
        "metrics.summarize.calls": (calls("metrics.summarize"), "count"),
        "metrics.summarize.self_pct": pct("metrics.summarize"),
        "metrics.max_global_error.calls": (calls("metrics.max_global_error"), "count"),
        "analysis.pairwise_oracle.self_pct": pct("analysis.pairwise_oracle"),
        "analysis.oracle_samples": (counters["oracle_samples"], "count"),
        "analysis.oracle_bytes_computed": (counters["oracle_bytes_computed"], "B"),
        "analysis.oracle_gb_per_s": (
            per_s(counters["oracle_bytes_computed"] / 1e9,
                  self_s("analysis.pairwise_oracle")), "GB/s"),
        "analysis.checks.self_pct": pct(*checks),
        "cli.self_pct": pct("cli.main"),
    }


def deterministic_part(rec: dict) -> dict:
    """What must repeat exactly between traced invocations of one input."""
    report = rec["trace"]
    return {
        "calls": {name: s["calls"] for name, s in report["stats"].items()},
        "counters": report["counters"],
        "csv_bytes": rec["csv_bytes"],
    }


def layer_problems(report: dict, layers: frozenset[str]) -> list[str]:
    """A traced function must run exactly on the workloads whose layers it
    belongs to, so a renamed or rebound function fails loudly."""
    problems = []
    for name, s in report["stats"].items():
        expected = name.split(".")[0] in layers
        if expected and s["calls"] == 0:
            problems.append(f"traced {name} recorded no calls")
        elif not expected and s["calls"]:
            problems.append(f"traced {name} ran, but its layer should not")
    return problems


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def filesystem_of(path: Path) -> str:
    best, fstype = "", "unknown"
    for line in _read("/proc/self/mountinfo").splitlines():
        fields = line.split()
        if " - " not in line or len(fields) < 5:
            continue
        mount = fields[4]
        inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, line.split(" - ", 1)[1].split()[0]
    return f"{fstype} at {best}" if best else fstype


def git_commit() -> str | None:
    """HEAD of the checkout's .git, read without running git (the benchmark
    may run from an exported tree that has none)."""
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    commit = _read(str(ROOT / ".git" / ref)).strip()
    if commit:
        return commit
    for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(rec: dict) -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip()
         for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": rec["python"],
        "numpy": rec["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "source_sha256": src.hexdigest(),
        "output_dir": str(RUNS.relative_to(ROOT)),
        "output_filesystem": filesystem_of(RUNS),
    }


def record_golden() -> int:
    """Rewrite the golden hashes from two runs of each workload at the
    golden seed, refusing if the two disagree."""
    golden = json.loads(GOLDEN.read_text())
    deadline = time.perf_counter() + 3600
    hashes = {}
    for name, workload in WORKLOADS.items():
        inv = workload.build(golden["golden_seed"])
        runs = [invoke(inv, "run", RUNS / "golden" / f"{name}-{i}", deadline) for i in (0, 1)]
        for rec in runs:
            if rec["error"] is not None:
                print(f"{name}: {rec['error']}", file=sys.stderr)
                return 1
        if runs[0]["hashes"] != runs[1]["hashes"]:
            print(f"{name}: two runs at the golden seed differ", file=sys.stderr)
            return 1
        hashes[name] = runs[0]["hashes"]
    golden["hashes"] = hashes
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result printed by main()."""
    workload = WORKLOADS[workload_name]
    golden = json.loads(GOLDEN.read_text())
    work_dir = RUNS / workload_name
    shutil.rmtree(work_dir, ignore_errors=True)
    deadline = time.perf_counter() + HARD_LIMIT_S
    checker = Checker()

    # Compiles the sources to bytecode, so no timed interpreter pays for it,
    # and proves the checkout's own wsnsync is what runs.
    inv = workload.build(seed)
    probe = invoke(inv, "setup", work_dir / "warmup", deadline)
    if probe["error"] is not None:
        raise SystemExit(f"cannot start wsnsync: {probe['error']}")
    if not Path(probe["module"]).is_relative_to(ROOT / "src"):
        raise SystemExit(f"wsnsync imported from {probe['module']}, not from this checkout")

    golden_hashes = golden["hashes"][workload_name]
    reference = golden_hashes if seed == golden["golden_seed"] else None
    if reference is None:
        rec = invoke(workload.build(golden["golden_seed"]), "run",
                     work_dir / "golden", deadline)
        checker.invocation(rec, golden_hashes, "golden-seed invocation")

    modes = ("run", "trace") if trace else ("run",) + ("setup",) * SETUP_PROBES_PER_CYCLE
    # Two traced invocations at least, so their counters can be compared.
    done = timed_invocations(inv, checker, reference, work_dir, seconds, deadline,
                             modes, min_cycles=2 if trace else 1)
    untraced = done["run"]
    wall_s = median([r["wall_s"] for r in untraced])
    result: dict = {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "argv": list(inv.argv),
        "environment": environment(probe),
        "invocations": {mode: [{k: v for k, v in r.items() if k != "trace"} for r in recs]
                        for mode, recs in done.items()},
    }
    if trace:
        traced = done["trace"]
        checker.check(len(traced) >= 2 or checker.failed > 0,
                      "fewer than two traced invocations completed")
        parts = [deterministic_part(r) for r in traced]
        checker.check(all(p == parts[0] for p in parts),
                      "deterministic counters differ between traced invocations")
        for problem in layer_problems(traced[0]["trace"], workload.layers) if traced else ():
            checker.check(False, problem)
        per_run = [layer_metrics(r["trace"], wall_s, r["csv_bytes"]) for r in traced]
        traced_wall = median([r["wall_s"] for r in traced])
        metrics = {
            name: (median([m[name][0] for m in per_run]), unit)
            for name, (_, unit) in (per_run[0].items() if per_run else ())
        }
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
        result["spans"] = [r["trace"]["spans"] for r in traced]
        result["layer_stats"] = [r["trace"]["stats"] for r in traced]
    else:
        # Every fresh interpreter of the run times its set-up the same way.
        setups = [r["setup_s"] for r in untraced + done["setup"]]
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (median([r["peak_rss_mb"] for r in untraced]), "MB"),
            "work_per_s": (inv.work / wall_s if wall_s else 0.0, "1/s"),
        }
        result["setup_samples"] = len(setups)
    result["metrics"] = metrics
    result["attempted"] = checker.attempted
    result["failed"] = checker.failed
    result["problems"] = checker.problems
    return result


def report(result: dict) -> None:
    metrics = result["metrics"]
    runs = result["invocations"]["run"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {int(result['trace'])}  argv {' '.join(result['argv'])}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "wall_s":
            note = f"median of {len(runs)} invocations"
        elif name == "setup_s":
            note = f"median of {result['setup_samples']} fresh interpreters"
        elif name == "work_per_s":
            note = f"reported as {WORKLOADS[result['workload']].work_metric}"
        print(f"  {name:<38} {value:>16.10g} {unit:<6} {note}")
    print(f"  {'error_rate':<38} {result['failed'] / max(result['attempted'], 1):>16.6g} "
          f"       {result['failed']} of {result['attempted']} invocations failed")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print("env " + json.dumps(result["environment"], sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite benchmarks/golden.json from the current code")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wsnsync" / "cli.py").is_file():
        parser.exit(2, f"no wsnsync sources under {ROOT / 'src'}\n")
    if args.record_golden:
        return record_golden()
    if args.workload is None or args.seed < 0 or args.seconds <= 0:
        parser.error("--workload, a seed >= 0 and positive --seconds are required")

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    out = RUNS / args.workload / "result.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
