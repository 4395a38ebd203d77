"""Alternating benchmark pairs of two source trees, written to BENCH_<label>.json.

    python3 tools/bench_pairs.py --label NAME --base REV

The base side is the git rev REV, unpacked with `git archive`; the change
side is the working tree's tracked files (staged new files included). Both
trees are built under .bench_build/. For each BENCHMARK.json workload W,
10 pairs run `python3 benchmarks/run.py --workload W --seed 1 --seconds 10
--trace 0` once in each tree, one run at a time; the base runs first in
even pairs and the change in odd ones, so neither side always meets the
host's same phase. Every run's last JSON line and its `env` line are kept.

BENCH_<label>.json, at the repository root, holds for each workload every
pair's end-to-end metrics, each side's medians, quartiles, attempted and
failed invocations, and how many pairs the change won on each metric
(better as BENCHMARK.json says; a tie wins nothing), with each side's rev
or None, its source_sha256 and its `env` line. Nothing is written if any
run fails or reads "correct": false.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
PAIRS = 10
SEED = 1
SECONDS = 10.0


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def build_tree(rev: str | None, dest: Path) -> str | None:
    """Fill ``dest`` with ``rev``'s files, or with the working tree's tracked
    files for None; return the full commit sha, or None."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    if rev is None:
        for name in _git("ls-files", "-z").decode().split("\0"):
            if name and (ROOT / name).is_file():  # a deleted file is left out
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, dest / name)
        return None
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=_git("archive", "--format=tar", sha),
                   check=True)
    return sha


def parse_run(stdout: str) -> dict:
    """One run.py run's result: its last JSON line, with its `env` line
    under "env"; ValueError if either is missing."""
    lines = stdout.strip().splitlines()
    env = [line[len("env "):] for line in lines if line.startswith("env ")]
    if not lines or not env:
        raise ValueError("no result or env line in benchmarks/run.py's output")
    return {**json.loads(lines[-1]), "env": json.loads(env[-1])}


def run_benchmark(tree: Path, workload: str) -> dict:
    """One run of benchmarks/run.py in ``tree``, parsed by parse_run."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", repr(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return parse_run(proc.stdout)


def pair_order(k: int) -> tuple[str, str]:
    """The sides of pair k in the order they run."""
    return SIDES if k % 2 == 0 else SIDES[::-1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def workload_entry(pairs: list[dict], better: dict[str, str]) -> dict:
    """One workload's entry: its pairs, each side's quartiles and
    invocation counts, the pairs the change won on each metric and the
    change of each median, as a fraction of the base's."""
    entry: dict = {"pairs": pairs}
    for side in SIDES:
        runs = [p[side] for p in pairs]
        stats = {name: quartiles([r[name] for r in runs]) for name in better}
        entry[side] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            **{key: {name: q[i] for name, q in stats.items()}
               for i, key in enumerate(("q1", "median", "q3"))},
        }
    sign = {"lower": -1, "higher": 1}
    entry["change_won"] = {
        name: sum(sign[way] * (p["change"][name] - p["base"][name]) > 0 for p in pairs)
        for name, way in better.items()
    }
    medians = {side: entry[side]["median"] for side in SIDES}
    entry["median_change"] = {name: medians["change"][name] / medians["base"][name] - 1
                              for name in better}
    return entry


def measure(workloads: list[str], better: dict[str, str],
            run: Callable[[str, str], dict]) -> tuple[dict, dict]:
    """Run PAIRS pairs of each workload through ``run(side,
    workload)``, a parse_run result, and return each workload's
    workload_entry and each side's `env` line; ValueError naming the first
    run that reads "correct": false."""
    results, envs = {}, {}
    for workload in workloads:
        pairs = []
        for k in range(PAIRS):
            pair: dict = {"first": pair_order(k)[0]}
            for side in pair_order(k):
                out = run(side, workload)
                if out.get("correct") is not True:
                    raise ValueError(f"{workload} pair {k}: the {side} run is not correct")
                envs.setdefault(side, out["env"])
                pair[side] = {"attempted": out["attempted"], "failed": out["failed"],
                              **{name: out["metrics"][name]["value"] for name in better}}
            pairs.append(pair)
        results[workload] = workload_entry(pairs, better)
    return results, envs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--base", required=True, help="git rev of the base side")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    trees = {side: ROOT / ".bench_build" / f"{args.label}-{side}" for side in SIDES}
    revs = {side: build_tree(rev, trees[side]) for side, rev in zip(SIDES, (args.base, None))}

    def run(side: str, workload: str) -> dict:
        out = run_benchmark(trees[side], workload)
        print(f"{workload} {side}: wall_s {out['metrics']['wall_s']['value']:.4f}",
              file=sys.stderr)
        return out

    try:
        results, envs = measure(workloads, better, run)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}; nothing written", file=sys.stderr)
        return 1
    bench = {
        "label": args.label,
        "command": (f"python3 benchmarks/run.py --workload W --seed {SEED} "
                    f"--seconds {SECONDS:g} --trace 0"),
        "pairs": PAIRS,
        "sides": {side: {"rev": revs[side], "source_sha256": envs[side]["source_sha256"],
                         "env": envs[side]} for side in SIDES},
        "workloads": results,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
