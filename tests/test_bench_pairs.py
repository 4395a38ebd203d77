"""tools/bench_pairs.py with a stub runner: pair order, quartiles, refusal, file keys."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_METRICS = ("wall_s", "setup_s", "peak_rss_mb", "work_per_s")


def _result(wall_s: float, correct: bool = True) -> dict:
    """A parse_run result whose metrics all read wall_s."""
    return {"correct": correct, "attempted": 5, "failed": 0,
            "metrics": {name: {"value": wall_s, "unit": "s"} for name in _METRICS},
            "env": {"python": "3.11.7", "source_sha256": f"sha-{wall_s}"}}


def test_parse_run_reads_the_last_json_line_and_the_env_line():
    stdout = ("workload scale-line256  seed 1\n  wall_s 0.4 s\n"
              'env {"python": "3.11.7", "source_sha256": "ab"}\n'
              '{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}\n')
    assert bench_pairs.parse_run(stdout) == {
        "correct": True, "attempted": 3, "failed": 0, "metrics": {},
        "env": {"python": "3.11.7", "source_sha256": "ab"}}
    with pytest.raises(ValueError, match="no result or env line"):
        bench_pairs.parse_run('{"correct": true}\n')


def test_quartiles_use_the_inclusive_method():
    assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)


def test_the_change_wins_a_pair_only_when_strictly_better():
    better = {"wall_s": "lower", "work_per_s": "higher"}
    pairs = [{"base": {"wall_s": 2.0, "work_per_s": 2.0, "attempted": 1, "failed": 0},
              "change": {"wall_s": c, "work_per_s": c, "attempted": 1, "failed": 0}}
             for c in (1.0, 2.0, 3.0, 1.5)]
    entry = bench_pairs.workload_entry(pairs, better)
    assert entry["change_won"] == {"wall_s": 2, "work_per_s": 1}
    assert entry["change"]["median"] == {"wall_s": 1.75, "work_per_s": 1.75}
    assert entry["median_change"] == {"wall_s": -0.125, "work_per_s": -0.125}
    assert entry["base"]["attempted"] == 4 and entry["base"]["failed"] == 0


def _stub_tool(monkeypatch, tmp_path: Path, correct_until: int = 10**9) -> list:
    """Point the tool at tmp_path, with 3 pairs of BENCHMARK.json's first two
    workloads, stub trees and a stub run.py whose base reads 2.0 and change
    1.0; every run after the first correct_until reads not correct."""
    spec = json.loads((_TOOL.parents[1] / "BENCHMARK.json").read_text())
    spec["workloads"] = spec["workloads"][:2]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "PAIRS", 3)
    monkeypatch.setattr(bench_pairs, "build_tree",
                        lambda rev, dest: None if rev is None else f"sha of {rev}")
    calls = []

    def run_benchmark(tree, workload):
        calls.append((tree.name, workload))
        return _result(2.0 if tree.name.endswith("-base") else 1.0,
                       correct=len(calls) <= correct_until)

    monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)
    return calls


def test_pairs_alternate_which_side_runs_first_and_fill_the_file(tmp_path, monkeypatch):
    calls = _stub_tool(monkeypatch, tmp_path)
    assert bench_pairs.main(["--label", "t", "--base", "HEAD~1"]) == 0
    sides = [tree.rsplit("-", 1)[1] for tree, _ in calls]
    assert sides == ["base", "change", "change", "base", "base", "change"] * 2
    assert [w for _, w in calls] == ["compare-line16"] * 6 + ["scale-line256"] * 6
    bench = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert set(bench) == {"label", "command", "pairs", "sides", "workloads"}
    assert bench["command"] == ("python3 benchmarks/run.py --workload W --seed 1 --seconds 10"
                                " --trace 0")
    assert bench["pairs"] == 3
    assert bench["sides"]["base"]["rev"] == "sha of HEAD~1"
    assert bench["sides"]["change"] == {"rev": None, "source_sha256": "sha-1.0",
                                        "env": _result(1.0)["env"]}
    entry = bench["workloads"]["scale-line256"]
    assert set(entry) == {"pairs", "base", "change", "change_won", "median_change"}
    assert [p["first"] for p in entry["pairs"]] == ["base", "change", "base"]
    assert set(entry["base"]) == {"attempted", "failed", "q1", "median", "q3"}
    assert set(entry["base"]["median"]) == set(_METRICS)
    # the change halves every metric: it wins the three lower-is-better ones
    assert entry["change_won"] == {"wall_s": 3, "setup_s": 3, "peak_rss_mb": 3,
                                   "work_per_s": 0}


def test_a_run_that_is_not_correct_writes_nothing(tmp_path, monkeypatch, capsys):
    calls = _stub_tool(monkeypatch, tmp_path, correct_until=3)
    assert bench_pairs.main(["--label", "t", "--base", "HEAD"]) == 1
    assert len(calls) == 4  # the fourth run, pair 1's second, stops the tool
    assert "scale-line256" not in {w for _, w, *_ in calls}
    assert capsys.readouterr().err.endswith(
        "error: compare-line16 pair 1: the base run is not correct; nothing written\n")
    assert not (tmp_path / "BENCH_t.json").exists()
