"""Self-checks of the benchmark: python3 -m pytest benchmarks -q

Each workload runs at the golden seed once untraced and twice traced (about
a minute on a 2-vCPU Intel Xeon).
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_counters_repeat_and_outputs_match_golden(name, tmp_path):
    workload = bench.WORKLOADS[name]
    golden = json.loads(bench.GOLDEN.read_text())
    inv = workload.build(golden["golden_seed"])
    deadline = time.perf_counter() + 600
    plain = bench.invoke(inv, "run", tmp_path / "run", deadline)
    traced = [bench.invoke(inv, "trace", tmp_path / f"trace{i}", deadline) for i in (0, 1)]

    for rec in (plain, *traced):
        assert rec["error"] is None
        assert rec["hashes"] == golden["hashes"][name]
    first, second = (bench.deterministic_part(r) for r in traced)
    assert first == second
    assert bench.layer_problems(traced[0]["trace"], workload.layers) == []

    metrics = bench.layer_metrics(traced[0]["trace"], plain["wall_s"], traced[0]["csv_bytes"])
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        **{name: unit for name, (_, unit) in metrics.items()},
        "trace.wall_s": "s", "trace.overhead_s": "s",
    }
    if "simulation" in workload.layers:
        for counter in ("simulation.events", "simulation.rounds",
                        "simulation.delay_draws", "simulation.csv_bytes"):
            assert metrics[counter][0] > 0
        assert 0 < metrics["simulation.ack_ratio"][0] <= 1
    else:
        assert metrics["analysis.oracle_samples"][0] == inv.work


def test_layer_problems_flags_a_span_with_no_calls():
    report = {"stats": {
        "cli.main": {"calls": 1},
        "protocols.rate_update": {"calls": 0},
        "analysis.pairwise_oracle": {"calls": 2},
    }}
    assert bench.layer_problems(report, bench.SIM_LAYERS) == [
        "traced protocols.rate_update recorded no calls",
        "traced analysis.pairwise_oracle ran, but its layer should not",
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [*command, "--workload", "compare-line16", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
