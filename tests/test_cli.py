"""Command line interface: parsing, precedence, outputs, determinism."""
from __future__ import annotations

import concurrent.futures
import contextlib
import errno
import hashlib
import importlib.util
import io
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsnsync import analysis, cli, metrics, outputs, simulation
from wsnsync.protocols import Protocol


def _run_args(out: Path, *extra: str) -> list[str]:
    # a fast configuration shared by most CLI tests
    return [
        "run", "--out-dir", str(out), "--topology", "line:3",
        "--duration", "300", "--boot-window", "60", "--seed", "1",
        *extra,
    ]


def _src_env() -> dict[str, str]:
    """The environment, with this package first on PYTHONPATH, for a child."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def _read_config_header(path: Path) -> dict:
    first = path.read_text().splitlines()[0]
    assert first.startswith("# config = ")
    return json.loads(first[len("# config = "):])


# ---------------------------------------------------------------------------
# parsing helpers


def test_parse_seed_specs():
    assert cli._parse_seeds("7") == [7]
    assert cli._parse_seeds("1,2,5") == [1, 2, 5]
    assert cli._parse_seeds("3..6") == [3, 4, 5, 6]
    assert len(cli._parse_seeds(f"1..{cli.MAX_SEEDS}")) == cli.MAX_SEEDS


def test_parse_seed_spec_errors():
    with pytest.raises(ValueError):
        cli._parse_seeds("6..3")
    with pytest.raises(ValueError):
        cli._parse_seeds("x")
    # one seed past the limit, as a range or as a list
    for spec in (f"0..{cli.MAX_SEEDS}", ",".join(map(str, range(cli.MAX_SEEDS + 1)))):
        with pytest.raises(ValueError, match=f"exceed the limit of {cli.MAX_SEEDS}$"):
            cli._parse_seeds(spec)


def test_parse_topology_line_and_errors(tmp_path: Path):
    topo = cli._parse_topology("line:5")
    assert topo.node_ids == (1, 2, 3, 4, 5)
    with pytest.raises(ValueError):
        cli._parse_topology("line:1")
    with pytest.raises(ValueError):
        cli._parse_topology(str(tmp_path / "missing.json"))


def test_parse_topology_json_file(tmp_path: Path):
    spec = {"nodes": [1, 2, 3], "edges": [[1, 2], [2, 3]], "gateway": 2}
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(spec))
    topo = cli._parse_topology(str(path))
    assert topo.gateway == 2
    assert topo.edges == ((1, 2), (2, 3))


# ---------------------------------------------------------------------------
# run command


def test_run_writes_traces_and_summary(tmp_path: Path, capsys):
    assert cli.main(_run_args(tmp_path)) == 0
    assert (tmp_path / "trace_newton_1.csv").exists()
    assert (tmp_path / "summary.csv").exists()
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[1] == ",".join(outputs.SUMMARY_COLUMNS)
    assert lines[2].startswith("newton,1,")
    out = capsys.readouterr().out
    assert "protocol" in out and "conv_time_s" in out


def test_run_resolved_header_echoes_settings(tmp_path: Path):
    assert cli.main(_run_args(tmp_path, "--beacon-period", "20")) == 0
    cfg = _read_config_header(tmp_path / "summary.csv")
    assert cfg["beacon_period_s"] == 20.0
    assert cfg["protocols"] == ["newton"]
    assert cfg["seeds"] == [1]
    assert cfg["per_protocol_step_size"]["newton"] == 1.0


def test_flag_beats_config_file_beats_default(tmp_path: Path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"beacon_period_s": 15.0, "window": 3}))
    args = _run_args(tmp_path, "--config", str(conf),
                     "--beacon-period", "20")
    assert cli.main(args) == 0
    cfg = _read_config_header(tmp_path / "summary.csv")
    assert cfg["beacon_period_s"] == 20.0  # flag wins over file
    assert cfg["window"] == 3  # file wins over default
    assert cfg["nominal_hz"] == 1e6  # untouched default


def test_unknown_config_key_rejected(tmp_path: Path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"beacon_perod_s": 15.0}))
    assert cli.main(_run_args(tmp_path, "--config", str(conf))) == 2
    assert "unknown config file keys" in capsys.readouterr().err


@pytest.mark.parametrize("content,message", [
    (None, "cannot read config file"),
    ("[1, 2]", "must hold a JSON object"),
])
def test_config_file_must_be_a_readable_json_object(tmp_path: Path, capsys, content, message):
    conf = tmp_path / "conf.json"
    if content is not None:
        conf.write_text(content)
    assert cli.main(_run_args(tmp_path, "--config", str(conf))) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_malformed_seed_range_exits_two(tmp_path: Path, capsys):
    assert cli.main(["run", "--out-dir", str(tmp_path), "--seed", "a..3"]) == 2
    assert capsys.readouterr().err.startswith("error: --seed 'a..3': invalid literal")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("key,value,message", [
    ("quantize_ticks", "false", 'quantize_ticks (--quantize-ticks) must be true or false, '
                                'got "false"'),
    ("window", 2.7, "window (--window) must be an integer, got 2.7"),
    ("beacon_period_s", "30", 'beacon_period_s (--beacon-period) must be a number, got "30"'),
    ("jobs", True, "jobs (--jobs) must be an integer, got true"),
])
def test_config_values_need_the_setting_type(tmp_path: Path, capsys, key, value, message):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: value}))
    assert cli.main(_run_args(tmp_path, "--config", str(conf))) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_config_integer_runs_as_float(tmp_path: Path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"beacon_period_s": 15}))
    assert cli.main(_run_args(tmp_path, "--config", str(conf))) == 0
    header = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert '"beacon_period_s": 15.0' in header


# every setting's flag and the default its command uses, as --help shows it
_RUN_HELP_DEFAULTS = {
    "--seed": "1", "--beacon-period": "30", "--nominal-hz": "1e+06",
    "--max-drift-hz": "25", "--delay-std": "1e-05", "--protocol": "newton",
    "--topology": "line:16", "--mu": "unset", "--e-max-ticks": "6000",
    "--gather-wait": "1", "--drift-resample-interval": "3600", "--duration": "12240",
    "--sample-interval": "10", "--boot-window": "300", "--threshold-ticks": "1000",
    "--window": "5", "--quantize-ticks": "off", "--jobs": "1",
}
_HELP_DEFAULTS = {
    "run": _RUN_HELP_DEFAULTS,
    "sweep": _RUN_HELP_DEFAULTS,
    "validate-analysis": {
        "--seed": "1", "--beacon-period": "30", "--nominal-hz": "1e+06",
        "--max-drift-hz": "100", "--delay-std": "1e-05",
        "--mu-grid": "0.25,0.5,1.0,1.5,2.2", "--oracle-runs": "20000",
        "--oracle-steps": "300", "--tail": "100", "--initial-rate-offset": "0.05",
    },
}


@pytest.mark.parametrize("command", sorted(_HELP_DEFAULTS))
def test_help_shows_each_default_the_command_uses(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    options = text[text.index("options:"):]
    # one entry per option: its flag, metavar and help up to the next option
    entries = {e.split()[0]: e for e in ("--" + e for e in options.split(" --")[1:])}
    settings = {f for f in entries if f not in ("--help", "--config", "--out-dir",
                                                 "--param", "--values")}
    assert settings == set(_HELP_DEFAULTS[command])
    for flag, default in _HELP_DEFAULTS[command].items():
        assert entries[flag].endswith(f"(default {default})"), entries[flag]


def test_invalid_values_exit_two(tmp_path: Path, capsys):
    assert cli.main(_run_args(tmp_path, "--beacon-period", "-5")) == 2
    assert cli.main(["run", "--out-dir", str(tmp_path), "--topology",
                     "line:zz"]) == 2
    assert cli.main(["run", "--out-dir", str(tmp_path), "--protocol",
                     "ntp"]) == 2
    # non-finite settings are rejected before any run starts
    assert cli.main(_run_args(tmp_path, "--delay-std", "nan")) == 2
    assert cli.main(_run_args(tmp_path, "--duration", "inf")) == 2
    assert cli.main(_run_args(tmp_path, "--mu", "inf")) == 2
    assert cli.main(_run_args(tmp_path, "--jobs", "0")) == 2
    assert cli.main(_run_args(tmp_path, "--jobs", "-3")) == 2
    # runaway schedules: too many sample frames or beacon rounds
    assert cli.main(_run_args(tmp_path, "--sample-interval", "1e-4")) == 2
    assert cli.main(_run_args(tmp_path, "--beacon-period", "1e-4",
                              "--gather-wait", "0")) == 2
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--seed", ",", "empty seed list"),
    ("--seed", "1,1", "duplicate seed: 1"),
    ("--protocol", "newton,newton", "duplicate protocol: newton"),
    ("--protocol", "avgpisync,grades,pisync", "duplicate protocol: avgpisync"),
])
def test_empty_or_repeated_run_lists_exit_two(tmp_path: Path, capsys, flag, value,
                                              message):
    assert cli.main(_run_args(tmp_path, flag, value)) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def _list_flag_args(out: Path, flag: str, value: str) -> list[str]:
    # the command that takes each comma-list flag, in a fast configuration
    if flag == "--mu-grid":
        return ["validate-analysis", "--out-dir", str(out), "--mu-grid", value,
                "--oracle-runs", "200", "--oracle-steps", "40", "--tail", "10"]
    if flag == "--values":
        return ["sweep", "--param", "mu", "--values", value, "--out-dir", str(out),
                "--topology", "line:3", "--duration", "300", "--boot-window", "60"]
    return _run_args(out, flag, value)


@pytest.mark.parametrize("flag,value,message", [
    ("--seed", ",,", "empty seed list"),
    ("--seed", "2,,2", "duplicate seed: 2"),
    ("--seed", "1,x", "invalid literal"),
    ("--protocol", ",", "empty protocol list"),
    ("--protocol", "newton,,pisync,avgpisync", "duplicate protocol: pisync"),
    ("--protocol", "newton,ntp", "unknown protocol 'ntp'"),
    ("--mu-grid", " , ", "empty --mu-grid entry list"),
    ("--mu-grid", "1.0,,1", "duplicate --mu-grid entry: 1.0"),
    ("--mu-grid", "1.0,x", "could not convert"),
    ("--values", ",", "empty sweep value list"),
    ("--values", "0.5,,0.50", "duplicate sweep value: 0.5"),
    ("--values", "0.5,x", "could not convert"),
])
def test_list_flags_reject_empty_repeated_or_bad_lists(tmp_path: Path, capsys, flag, value,
                                                      message):
    # one rule for every comma list: the error names the flag and the list
    assert cli.main(_list_flag_args(tmp_path, flag, value)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} {value!r}: ")
    assert message in captured.err
    assert not list(tmp_path.rglob("*.csv"))


def test_list_flags_skip_empty_entries(tmp_path: Path):
    for flag, value, output, key, expected in (
        ("--seed", "1,,2", "summary.csv", "seeds", [1, 2]),
        ("--protocol", "newton,", "summary.csv", "protocols", ["newton"]),
        ("--mu-grid", "1.0,,0.5", "analysis.csv", "mu_grid", [1.0, 0.5]),
        ("--values", ",0.5,,1.0", "sweep.csv", "sweep_values", [0.5, 1.0]),
    ):
        out = tmp_path / flag.strip("-")
        assert cli.main(_list_flag_args(out, flag, value)) == 0, flag
        assert _read_config_header(out / output)[key] == expected, flag


def _inline_pool(monkeypatch) -> type:
    """A process pool stand-in, on a 64-core machine, whose map runs each
    job in this process when its result is taken, and which records the
    workers asked for, what each job returned and each shutdown's wait and
    cancel_futures."""

    class InlinePool:
        requested: list[int] = []
        returned: list = []
        shutdowns: list[tuple[bool, bool]] = []

        def __init__(self, max_workers):
            self.requested.append(max_workers)

        def map(self, fn, jobs):
            for job in jobs:
                self.returned.append(fn(job))
                yield self.returned[-1]

        def shutdown(self, wait=True, *, cancel_futures=False):
            self.shutdowns.append((wait, cancel_futures))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(outputs.os, "cpu_count", lambda: 64)
    return InlinePool


def test_jobs_capped_by_run_count(tmp_path: Path, monkeypatch):
    # a worker makes a whole seed's pass, so the seeds cap the workers
    requested = _inline_pool(monkeypatch).requested
    args = _run_args(tmp_path, "--protocol", "newton,grades", "--jobs", "64")
    assert cli.main(args) == 0
    assert requested == []  # one seed: runs in-process, no pool
    args += ["--seed", "1..2"]
    assert cli.main(args) == 0
    assert requested == [2]
    monkeypatch.setattr(outputs.os, "cpu_count", lambda: 1)
    assert cli.main(args) == 0
    assert requested == [2]  # one core: runs in-process, no pool
    # a sweep is one job list: one pool for all its values, capped by the
    # seed groups of all of them
    monkeypatch.setattr(outputs.os, "cpu_count", lambda: 64)
    args = [*_FAST_SWEEP, "--values", "0.5,1.0,1.5", "--jobs", "64",
            "--out-dir", str(tmp_path / "sweep")]
    assert cli.main(args) == 0
    assert requested == [2, 3]


def test_past_max_jobs_a_job_runs_seeds_of_one_directory(tmp_path: Path, monkeypatch):
    # pool.map holds a future per job in the main process, so past MAX_JOBS
    # seeds a job runs several, never those of two directories
    pool = _inline_pool(monkeypatch)
    assert cli.main(_run_args(tmp_path / "a", "--seed", "1..20", "--jobs", "2")) == 0
    monkeypatch.setattr(outputs, "MAX_JOBS", 4)
    assert cli.main(_run_args(tmp_path / "b", "--seed", "1..10", "--jobs", "2")) == 0
    args = [*_FAST_SWEEP, "--values", "0.5,1.0", "--seed", "1..5", "--jobs", "64",
            "--out-dir", str(tmp_path / "c")]
    assert cli.main(args) == 0
    assert pool.requested == [2, 2, 4]
    assert [[row["seed"] for row in rows] for rows in pool.returned] == [
        *([seed] for seed in range(1, 21)),
        [1, 2, 3], [4, 5, 6], [7, 8, 9], [10],
        [1, 2, 3], [4, 5], [1, 2, 3], [4, 5]]


def test_workers_send_back_only_summary_rows(tmp_path: Path, monkeypatch):
    # a job writes its seed's traces where it runs, so a worker sends back
    # one summary row per protocol, never a pass or a trace
    pool = _inline_pool(monkeypatch)
    args = [*_FAST_SWEEP, "--protocol", "newton,grades", "--values", "0.5,1.0",
            "--seed", "1..2", "--jobs", "2", "--out-dir", str(tmp_path)]
    assert cli.main(args) == 0
    assert (pool.requested, pool.shutdowns) == ([2], [(True, True)])
    assert [[(r["protocol"], r["seed"]) for r in rows] for rows in pool.returned] == [
        [("newton", 1), ("grades", 1)], [("newton", 2), ("grades", 2)]] * 2
    for row in (row for rows in pool.returned for row in rows):
        assert tuple(row) == outputs.SUMMARY_COLUMNS
        assert all(type(v) in (str, int, float, type(None)) for v in row.values()), row
    assert len(pickle.dumps(pool.returned)) < 2000


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_an_interrupt_leaves_no_staged_file(tmp_path: Path, monkeypatch, jobs):
    # the second trace's summary, mu 1.0's, is interrupted after its trace
    # is staged: in process, and in a job of the pool stand-in
    pool = _inline_pool(monkeypatch)
    real = outputs.metrics.summarize
    calls: list[None] = []

    def interrupted(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            assert list(tmp_path.rglob("*.partial")) == [
                tmp_path / "mu_1.0" / "trace_newton_1.csv.partial"]
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(outputs.metrics, "summarize", interrupted)
    args = [*_FAST_SWEEP, "--values", "0.5,1.0", "--jobs", jobs, "--out-dir", str(tmp_path)]
    with pytest.raises(KeyboardInterrupt):
        cli.main(args)
    assert len(calls) == 2
    # queued jobs dropped, running ones waited for, before the cleanup
    assert pool.shutdowns == ([(True, True)] if jobs == "2" else [])
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "mu_0.5", "mu_0.5/summary.csv", "mu_0.5/trace_newton_1.csv"]


@pytest.mark.parametrize("protocol, mu, warns", [
    ("newton", "1.0", False), ("newton", "2.0", True),
    ("avgpisync", "1e-8", False), ("avgpisync", "1e-6", True),
], ids=["newton-1.0-silent", "newton-2.0-warns", "avgpisync-1e-8-silent",
        "avgpisync-1e-6-warns"])
def test_out_of_bound_step_size_warns(tmp_path: Path, capsys, protocol, mu, warns):
    # the bound is open: newton's 2.0 is outside it
    assert cli.main(_run_args(tmp_path, "--protocol", protocol, "--mu", mu)) == 0
    assert ("outside the convergence bound" in capsys.readouterr().err) is warns


def test_out_dir_env_fallback(tmp_path: Path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("WSNSYNC_OUT_DIR", str(target))
    args = [a for a in _run_args(tmp_path) if a != str(tmp_path)]
    args.remove("--out-dir")
    assert cli.main(args) == 0
    assert (target / "summary.csv").exists()


def test_quantize_flag_recorded(tmp_path: Path):
    assert cli.main(_run_args(tmp_path, "--quantize-ticks")) == 0
    cfg = _read_config_header(tmp_path / "trace_newton_1.csv")
    assert cfg["quantize_ticks"] is True


def test_quantized_read_within_the_boot_tick(tmp_path: Path):
    # with no boot window, delay or gather wait, a node's first quantized
    # reading falls within the tick it booted in, below its unquantized
    # initial count: the read extrapolates back instead of failing
    args = ["run", "--topology", "line:3", "--quantize-ticks", "--boot-window", "0",
            "--delay-std", "0", "--gather-wait", "0", "--duration", "150"]
    for out in ("a", "b"):
        assert cli.main([*args, "--out-dir", str(tmp_path / out)]) == 0
    trace = (tmp_path / "a" / "trace_newton_1.csv").read_bytes()
    assert trace.count(b"\n") > 2  # header and rows
    assert trace == (tmp_path / "b" / "trace_newton_1.csv").read_bytes()


def test_a_topology_file_past_max_nodes_is_refused(tmp_path: Path, monkeypatch, capsys):
    files = {}
    for n in (3, 4):
        files[n] = tmp_path / f"line{n}.json"
        files[n].write_text(json.dumps(simulation.build_line_topology(n).to_config()))
    monkeypatch.setattr(simulation, "MAX_NODES", 3)
    run = ["run", "--duration", "300", "--boot-window", "60", "--topology"]
    assert cli.main([*run, str(files[3]), "--out-dir", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main([*run, str(files[4]), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: bad topology '{files[4]}': 4 nodes exceed "
                                       "the limit of 3\n")
    assert not out.exists()


def test_a_sweeps_seeds_are_counted_over_its_values_before_any_is_planned(tmp_path: Path,
                                                                          monkeypatch, capsys):
    # the limit counts every value's seeds, and is reached exactly. The
    # refusals table holds 300 values of 10^5 seeds each, within the limit,
    # whose 3 * 10^7 runs once took more than 1 GiB before any of them ran
    monkeypatch.setattr(cli, "MAX_SEEDS", 4)
    args = [*_FAST_SWEEP, "--values", "0.5,1.0"]
    assert cli.main([*args, "--seed", "1..2", "--out-dir", str(tmp_path / "four")]) == 0
    capsys.readouterr()
    assert cli.main([*args, "--seed", "1..3", "--out-dir", str(tmp_path / "six")]) == 2
    assert capsys.readouterr().err == ("error: --seed '1..3' x 2 values: 6 seeds exceed "
                                       "the limit of 4\n")
    assert not (tmp_path / "six").exists()


def test_run_loads_neither_the_oracle_nor_a_pool(tmp_path: Path):
    # importing the CLI, and a one-worker run, leave the oracle, the worker
    # pools and statistics unloaded; only validate-analysis and --jobs use them
    probe = (
        "import sys\n"
        "unused = ('wsnsync.analysis', 'concurrent.futures', 'statistics')\n"
        "import wsnsync.cli\n"
        "print(sorted(m for m in unused if m in sys.modules))\n"
        "assert wsnsync.cli.main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in unused if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, *_run_args(tmp_path)],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]")


def test_rerun_is_byte_identical(tmp_path: Path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(_run_args(d1, "--protocol", "newton,avgpisync")) == 0
    assert cli.main(_run_args(d2, "--protocol", "newton,avgpisync")) == 0
    for name in ("trace_newton_1.csv", "trace_avgpisync_1.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    assert (d1 / "summary.csv").read_bytes() == (d2 / "summary.csv").read_bytes()


def test_runs_stream_one_trace_at_a_time(tmp_path: Path, monkeypatch):
    # each trace is written, to its staged path, before the next one is
    # requested; each seed's traces are released before the next seed's
    # event pass
    real_pass = outputs.record_schedule
    passes: list[weakref.ref] = []

    def tracked_pass(*args, **kwargs):
        assert all(ref() is None for ref in passes)
        schedule = real_pass(*args, **kwargs)
        passes.extend(weakref.ref(trace) for trace in schedule.values())
        return schedule

    monkeypatch.setattr(outputs, "record_schedule", tracked_pass)
    real = outputs.run_simulation
    made: list[Path] = []

    def tracked(*args, **kwargs):
        assert all(path.exists() for path in made)
        trace = real(*args, **kwargs)
        made.append(outputs._staged(
            tmp_path / f"trace_{trace.config['protocol']}_{trace.config['seed']}.csv"))
        return trace

    monkeypatch.setattr(outputs, "run_simulation", tracked)
    args = _run_args(tmp_path, "--protocol", "newton,grades", "--seed", "1..2")
    assert cli.main(args) == 0
    assert len(made) == 4
    assert len(passes) == 4 and all(ref() is None for ref in passes)


def test_parallel_jobs_write_the_same_bytes(tmp_path: Path):
    spec = ("--protocol", "newton,grades", "--seed", "1..2")
    assert cli.main(_run_args(tmp_path / "one", *spec, "--jobs", "1")) == 0
    assert cli.main(_run_args(tmp_path / "two", *spec, "--jobs", "2")) == 0
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert len(names) == 5
    assert sorted(p.name for p in (tmp_path / "two").iterdir()) == names
    for name in names:
        one = (tmp_path / "one" / name).read_bytes()
        two = (tmp_path / "two" / name).read_bytes()
        if name == "summary.csv":  # its header records the jobs setting
            cfg_one = _read_config_header(tmp_path / "one" / name)
            cfg_two = _read_config_header(tmp_path / "two" / name)
            assert (cfg_one.pop("jobs"), cfg_two.pop("jobs")) == (1, 2)
            assert cfg_one == cfg_two
            one, two = one.split(b"\n", 1)[1], two.split(b"\n", 1)[1]
        assert one == two, name


def test_run_builds_no_round_records(tmp_path: Path, monkeypatch):
    # writing and summarizing a trace never reads its rounds, as records or
    # as round_columns
    real = simulation.RoundRecord
    real_columns = simulation.SimulationTrace.round_columns.func
    built = []

    def counted(*args):
        built.append(args)
        return real(*args)

    def counted_columns(trace):
        built.append(trace)
        return real_columns(trace)

    monkeypatch.setattr(simulation, "RoundRecord", counted)
    monkeypatch.setattr(simulation.SimulationTrace, "round_columns", property(counted_columns))
    assert cli.main(_run_args(tmp_path, "--protocol", "newton,grades,avgpisync")) == 0
    assert built == []


@pytest.mark.parametrize("protocols", ["newton", "newton,grades,avgpisync"])
def test_each_seed_makes_one_event_pass(tmp_path: Path, monkeypatch, protocols):
    passes: list[int] = []

    real = simulation._event_pass

    def counted(topology, configs):
        [seed] = {config["seed"] for config in configs.values()}
        passes.append(seed)
        return real(topology, configs)

    monkeypatch.setattr(simulation, "_event_pass", counted)
    assert cli.main(_run_args(tmp_path, "--protocol", protocols, "--seed", "1..3")) == 0
    assert passes == [1, 2, 3]


# grades' step diverges and the huge guard never blocks it, so its clock
# leaves float range after newton's run has been written
_OVERFLOW = ("run", "--protocol", "newton,grades", "--mu", "1", "--e-max-ticks", "1e300",
             "--topology", "line:3", "--boot-window", "60")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failed_run_leaves_no_trace(tmp_path: Path, capsys, jobs):
    assert cli.main([*_OVERFLOW, "--jobs", jobs, "--out-dir", str(tmp_path)]) == 2
    assert "out of float range" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failed_run_removes_the_out_dir_it_made(tmp_path: Path, capsys, jobs):
    # the directory the run made goes again; the parent made with it stays
    out = tmp_path / "parent" / "new"
    assert cli.main([*_OVERFLOW, "--jobs", jobs, "--out-dir", str(out)]) == 2
    assert "out of float range" in capsys.readouterr().err
    assert list(tmp_path.rglob("*")) == [out.parent]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failed_rerun_leaves_the_earlier_files(tmp_path: Path, capsys, jobs):
    assert cli.main(_run_args(tmp_path, "--protocol", "newton,grades")) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["summary.csv", "trace_grades_1.csv", "trace_newton_1.csv"]
    assert cli.main([*_OVERFLOW, "--jobs", jobs, "--out-dir", str(tmp_path)]) == 2
    assert "out of float range" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_failed_sweep_keeps_only_earlier_values(tmp_path: Path, capsys):
    # the run of mu 1 fails as in _OVERFLOW; the earlier value's run completes
    args = ["sweep", "--param", "mu", "--values", "0.5,1", "--protocol", "grades",
            "--e-max-ticks", "1e300", "--topology", "line:3", "--boot-window", "60",
            "--out-dir", str(tmp_path)]
    assert cli.main(args) == 2
    assert "out of float range" in capsys.readouterr().err
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "mu_0.5", "mu_0.5/summary.csv", "mu_0.5/trace_grades_1.csv"]


_MU_05 = ["mu_0.5", "mu_0.5/summary.csv", "mu_0.5/trace_grades_1.csv",
          "mu_0.5/trace_grades_2.csv"]


@pytest.mark.parametrize("values,jobs,max_jobs,kept", [
    pytest.param("0.5,1", "1", outputs.MAX_JOBS, _MU_05, id="1"),
    pytest.param("0.5,1", "2", outputs.MAX_JOBS, _MU_05, id="2"),
    pytest.param("1,0.5", "2", outputs.MAX_JOBS, [], id="2-failing-first"),
    pytest.param("0.5,1", "1", 1, _MU_05, id="1-one-job-a-value"),
    pytest.param("0.5,1", "2", 1, _MU_05, id="2-one-job-a-value"),
])
def test_sweep_failing_at_a_later_seed_keeps_only_earlier_values(tmp_path: Path, capsys,
                                                                  monkeypatch, values, jobs,
                                                                  max_jobs, kept):
    # grades at mu 1 leaves float range by 600 s at seed 1 but not at seed 2,
    # so mu 1 fails at its second seed, after its first trace is staged;
    # under --jobs 2 the workers run the other value's seeds meanwhile, and
    # their staged traces go too when mu 1 comes first. With MAX_JOBS at 1,
    # each value's two seeds are one job, and mu 1's failing job takes none
    # of mu 0.5's rows with it, though the workers run both at once
    monkeypatch.setattr(outputs, "MAX_JOBS", max_jobs)
    args = ["sweep", "--param", "mu", "--values", values, "--protocol", "grades",
            "--e-max-ticks", "1e300", "--topology", "line:3", "--boot-window", "60",
            "--duration", "600", "--seed", "2,1", "--jobs", jobs, "--out-dir", str(tmp_path)]
    assert cli.main(args) == 2
    assert "out of float range" in capsys.readouterr().err
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == kept


def test_multiple_protocols_and_seeds(tmp_path: Path):
    args = _run_args(tmp_path, "--protocol", "newton,grades", "--seed",
                     "1..2")
    assert cli.main(args) == 0
    rows = (tmp_path / "summary.csv").read_text().splitlines()[2:]
    assert len(rows) == 4
    assert (tmp_path / "trace_grades_2.csv").exists()


def _warnings(err: str) -> list[str]:
    return [line for line in err.splitlines() if line.startswith("warning:")]


def test_rerun_names_traces_it_did_not_write(tmp_path: Path, capsys):
    assert cli.main(_run_args(tmp_path, "--seed", "1..3")) == 0
    assert cli.main(_run_args(tmp_path, "--seed", "1..3")) == 0
    assert _warnings(capsys.readouterr().err) == []  # the same set again
    assert cli.main(_run_args(tmp_path, "--seed", "1..2")) == 0
    (warning,) = _warnings(capsys.readouterr().err)
    assert warning.endswith(": trace_newton_3.csv")
    assert (tmp_path / "trace_newton_3.csv").exists()  # kept, never deleted
    assert len((tmp_path / "summary.csv").read_text().splitlines()) == 4


def test_sweep_names_traces_each_value_did_not_write(tmp_path: Path, capsys):
    args = ["sweep", "--param", "mu", "--values", "0.5,1.0", "--topology", "line:3",
            "--duration", "300", "--boot-window", "60", "--out-dir", str(tmp_path)]
    assert cli.main([*args, "--seed", "1..2"]) == 0
    capsys.readouterr()
    assert cli.main([*args, "--seed", "1"]) == 0
    warnings = _warnings(capsys.readouterr().err)
    assert len(warnings) == 2
    for warning, sub_dir in zip(warnings, ("mu_0.5", "mu_1.0")):
        assert sub_dir in warning and warning.endswith(": trace_newton_2.csv")
        assert (tmp_path / sub_dir / "trace_newton_2.csv").exists()


# ---------------------------------------------------------------------------
# the output transaction (wsnsync.outputs): README's rules for runs and
# sweeps that succeed, fail or are interrupted, and paths in the way

# two protocols over 1 s of line:2, about a millisecond a seed
_CHEAP_SWEEP = ("sweep", "--param", "mu", "--protocol", "newton,grades", "--topology", "line:2",
                "--duration", "1", "--boot-window", "0", "--sample-interval", "1")
_FAULTS = {"ValueError": lambda: ValueError("injected"), "KeyboardInterrupt": KeyboardInterrupt,
           "OSError": lambda: OSError(errno.ENOSPC, "No space left on device")}


def _tree(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root``, relative: a file's bytes, else None."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_the_output_transaction_keeps_readmes_rules(data):
    draw = data.draw
    values = ["0.5", "1.0", "1.5"][:draw(st.integers(1, 3), label="directories")]
    n_seeds, max_jobs = draw(st.integers(1, 6), label="seeds"), draw(st.integers(1, 4))
    jobs = draw(st.sampled_from(["1", "2"]), label="--jobs")
    dirs = [f"mu_{v}" for v in values]
    # each directory absent, empty, or with an earlier run's files at two
    # planned paths and a stale trace that no run of these seeds writes
    state = {d: draw(st.sampled_from(["absent", "empty", "earlier", "stale"]), label=d)
             for d in dirs}
    earlier_sweep = draw(st.booleans(), label="an earlier sweep.csv")
    planned = ["sweep.csv", "sweep.csv.partial",
               *(f"{d}/{name}{partial}" for d in dirs for partial in ("", ".partial")
                 for name in ["summary.csv", *(f"trace_{p}_{s}.csv"
                              for s in range(1, n_seeds + 1) for p in ("newton", "grades"))])]
    blocked = draw(st.none() | st.sampled_from(planned), label="a directory at")
    runs = [(d, s, p) for d in dirs for s in range(1, n_seeds + 1) for p in ("newton", "grades")]
    # a fault in a run, or a full disk while sweep.csv is written
    fault = draw(st.none() | st.tuples(st.sampled_from(runs), st.sampled_from(list(_FAULTS)))
                 | st.just(("sweep.csv", "OSError")), label="fault at")
    at_sweep_csv = fault is not None and fault[0] == "sweep.csv"
    argv = [*_CHEAP_SWEEP, "--values", ",".join(values), "--seed", f"1..{n_seeds}",
            "--jobs", jobs]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        root, ref = Path(tmp, "out"), Path(tmp, "ref")
        for d in dirs:
            if state[d] != "absent":
                (root / d).mkdir(parents=True)
            if state[d] in ("earlier", "stale"):
                for name in ("summary.csv", "trace_newton_1.csv"):
                    (root / d / name).write_bytes(b"earlier\n")
            if state[d] == "stale":
                (root / d / "trace_newton_9.csv").write_bytes(b"stale\n")
        if earlier_sweep:
            root.mkdir(exist_ok=True)
            (root / "sweep.csv").write_bytes(b"earlier\n")
        if blocked:  # in place of an earlier file, if one is there
            (root / blocked).unlink(missing_ok=True)
            (root / blocked).mkdir(parents=True)
        root.mkdir(exist_ok=True)
        before = _tree(root)
        pool = _inline_pool(mp)
        mp.setattr(outputs, "MAX_JOBS", max_jobs)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main([*argv, "--out-dir", str(ref)]) == 0
        reference = _tree(ref)
        for log in (pool.requested, pool.returned, pool.shutdowns):
            log.clear()

        real, summarized = metrics.summarize, []

        def summarize(*args, **kwargs):
            summarized.append(runs[len(summarized)])
            if fault and summarized[-1] == fault[0]:
                raise _FAULTS[fault[1]]()
            return real(*args, **kwargs)

        real_preamble = outputs.write_csv_preamble

        def preamble(fh, *args):
            real_preamble(fh, *args)
            if at_sweep_csv and Path(fh.name).name == "sweep.csv.partial":
                raise _FAULTS[fault[1]]()

        mp.setattr(metrics, "summarize", summarize)
        mp.setattr(outputs, "write_csv_preamble", preamble)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main([*argv, "--out-dir", str(root)])
            except KeyboardInterrupt:  # main reports errors, not interrupts
                rc = None
        after = _tree(root)

    out, err = out.getvalue().splitlines(), err.getvalue()
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert "Traceback" not in err
    if blocked:  # refused before any run: nothing made, run or changed
        assert (rc, errors) == (2, [f"error: cannot write {root / blocked}: it is not a "
                                    "regular file"])
        assert (after, summarized, out, pool.requested) == (before, [], [], [])
        return
    # the directories before the failing one are committed, each the bytes
    # of a run that did not fail beside the files it did not write; the
    # failing one and every later one are left as they were: no staged
    # file, and a directory the sweep made is gone again. A failed
    # sweep.csv write keeps every directory and an earlier sweep.csv
    kept = dirs.index(fault[0][0]) if fault and not at_sweep_csv else len(dirs)
    assert after == {**before, **{path: data for path, data in reference.items()
                                  if path.split("/")[0] in dirs[:kept] or not fault}}
    assert rc == (0 if not fault else None if fault[1] == "KeyboardInterrupt" else 2)
    if rc == 2:
        assert errors == [f"error: {_FAULTS[fault[1]]()}"]
    else:
        assert errors == []
    # a committed directory's stale trace is kept and named in one warning
    assert [line for line in err.splitlines() if "also holds" in line] == [
        f"warning: {root / d} also holds trace files this run did not write: trace_newton_9.csv"
        for d in dirs[:kept] if state[d] == "stale"]
    assert sum(line.startswith("wrote ") for line in out) == kept + (rc == 0)
    # past MAX_JOBS seeds in all, a job is a run of consecutive seeds of one
    # directory; the jobs cap the workers, and a failure drops the queued
    # jobs and waits for the running ones
    size = math.ceil(len(dirs) * n_seeds / max_jobs)
    groups = [list(range(1, n_seeds + 1))[i:i + size] for _ in dirs
              for i in range(0, n_seeds, size)]
    pooled = jobs == "2" and len(groups) > 1
    assert (pool.requested, pool.shutdowns) == (([2], [(True, True)]) if pooled else ([], []))
    if pooled and not fault:
        assert [[row["seed"] for row in rows[::2]] for rows in pool.returned] == groups


_SMALL_RUN = ("run", "--topology", "line:3", "--duration", "300", "--boot-window", "60")
_VALIDATE_SMALL = ("validate-analysis", "--oracle-runs", "200", "--oracle-steps", "20",
                   "--tail", "5", "--mu-grid", "1.0")


@pytest.mark.parametrize("argv,earlier,in_the_way", [
    # a rerun at another mu, where a trace of the earlier run went
    ((*_SMALL_RUN, "--seed", "1..2", "--mu", "0.5"), (*_SMALL_RUN, "--seed", "1..2"),
     "trace_newton_2.csv"),
    ((*_SMALL_RUN,), (), "trace_newton_1.csv.partial"),
    (_VALIDATE_SMALL, (), "analysis.csv"),
    (_VALIDATE_SMALL, (), "analysis.csv.partial"),
], ids=["run-trace", "run-partial", "validate-analysis", "validate-analysis-partial"])
def test_a_directory_in_the_way_exits_two(tmp_path: Path, capsys, monkeypatch, argv, earlier,
                                          in_the_way):
    # refused before any run or oracle, with one line, and nothing changes
    if earlier:
        assert cli.main([*earlier, "--out-dir", str(tmp_path)]) == 0
        (tmp_path / in_the_way).unlink()
    (tmp_path / in_the_way).mkdir()
    before = _tree(tmp_path)
    ran = []
    for module, name in ((outputs, "record_schedule"), (analysis, "pairwise_oracle")):
        monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: ran.append(name))
    capsys.readouterr()
    assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: cannot write {tmp_path / in_the_way}: it is not a regular file\n")
    assert (_tree(tmp_path), ran) == (before, [])


def test_a_failed_analysis_csv_write_keeps_the_earlier_file(tmp_path: Path, capsys,
                                                           monkeypatch):
    # a full disk midway through the table: the earlier analysis.csv stays
    # byte for byte, and no analysis.csv.partial is left
    assert cli.main([*_VALIDATE_SMALL, "--out-dir", str(tmp_path)]) == 0
    before = _tree(tmp_path)
    real = outputs.write_csv_preamble

    def full_disk(fh, *args):
        real(fh, *args)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(outputs, "write_csv_preamble", full_disk)
    capsys.readouterr()
    assert cli.main([*_VALIDATE_SMALL, "--seed", "2", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert _tree(tmp_path) == before


# ---------------------------------------------------------------------------
# every `run` setting: inside its range it runs or is refused, outside it is
# refused. The library owns the ranges of the settings it takes, and the CLI
# only the integer minimums, so the table of ranges is this file's own.

_RUN_SETTINGS = [s for s in cli.SETTINGS if "run" in s.commands]
_RANGES = {
    "beacon_period_s": "positive", "nominal_hz": "positive", "max_drift_hz": "nonnegative",
    "delay_std_s": "nonnegative", "mu": "positive", "e_max_ticks": "positive",
    "gather_wait_s": "nonnegative", "drift_resample_interval_s": "positive",
    "duration_s": "positive", "sample_interval_s": "positive", "boot_window_s": "nonnegative",
    "threshold_ticks": "positive", "window": "at least 1", "jobs": "at least 1",
}
_IN_RANGE = {
    "positive": lambda v: 0 < v < math.inf,
    "nonnegative": lambda v: 0 <= v < math.inf,
    "at least 1": lambda v: v >= 1,
}


def _up_to(limit: float) -> st.SearchStrategy:
    """Nonnegative floats below ``limit``, and now and then ``limit``
    itself, which the run refuses (a drift bound, gather wait or boot
    window that large)."""
    below = st.floats(0.0, limit, exclude_max=True)
    return st.tuples(below, st.integers(1, 8)).map(lambda v: v[0] if v[1] > 1 else limit)


@st.composite
def _run_settings_in_range(draw) -> dict:
    """A value of every `run` setting inside its range, on a short horizon
    and a small network: line:2 to line:6, or a star (a topology dict)
    whose gateway is its hub or a leaf."""
    duration = draw(st.floats(1.0, 400.0))
    beacon = draw(st.floats(duration / 30, 2 * duration))
    nominal = draw(st.sampled_from([1.0, 1e6]) | st.floats(1e-3, 1e12))
    protocols = draw(st.permutations([p.value for p in Protocol]))
    leaves = draw(st.integers(1, 5))
    star = {"nodes": list(range(1, leaves + 2)),
            "edges": [[1, j] for j in range(2, leaves + 2)],
            "gateway": draw(st.sampled_from([1, 2]))}
    return {
        "seed": str(draw(st.integers(0, 2**32))),  # one seed: no worker pool
        "beacon_period_s": beacon,
        "nominal_hz": nominal,
        "max_drift_hz": draw(_up_to(nominal)),
        "delay_std_s": draw(st.sampled_from([0.0, 1e-5]) | st.floats(0.0, 1e3)),
        "protocol": ",".join(protocols[:draw(st.integers(1, 3))]),
        "topology": draw(st.builds("line:{}".format, st.integers(2, 6)) | st.just(star)),
        "mu": draw(st.none() | st.floats(1e-300, 1e300)),
        "e_max_ticks": draw(st.just(6000.0) | st.floats(1e-300, 1e300)),
        "gather_wait_s": draw(_up_to(beacon)),
        "drift_resample_interval_s": draw(st.floats(duration / 20, 1e6)),
        "duration_s": duration,
        "sample_interval_s": draw(st.floats(duration / 40, 2 * duration)),
        "boot_window_s": draw(_up_to(duration)),
        "threshold_ticks": draw(st.floats(1e-300, 1e300)),
        "window": draw(st.integers(1, 50)),
        "quantize_ticks": draw(st.booleans()),
        "jobs": draw(st.integers(1, 8)),
    }


def _main(argv: list[str], out: Path) -> tuple[int, list[str]]:
    """cli.main's exit code and its stderr lines other than warnings;
    neither exit leaves a staged file behind."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main([*argv, "--out-dir", str(out)])
    assert not list(out.parent.rglob("*.partial"))
    return rc, [line for line in err.getvalue().splitlines()
                if not line.startswith("warning:")]


@settings(max_examples=40, deadline=None)
@given(_run_settings_in_range())
def test_every_in_range_setting_runs_or_is_refused(values):
    assert set(values) == {s.key for s in _RUN_SETTINGS}
    argv = ["run"]
    for s in _RUN_SETTINGS:
        value = values[s.key]
        if s.key in _RANGES and value is not None:
            assert _IN_RANGE[_RANGES[s.key]](value), s.key
        if s.type is bool:
            argv += [f"--{s.flag}"] if value else []
        elif value is not None:
            argv.append(f"--{s.flag}={value}")
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(values["topology"], dict):
            star = Path(tmp, "star.json")
            star.write_text(json.dumps(values["topology"]))
            argv[argv.index(f"--topology={values['topology']}")] = f"--topology={star}"
        rc, lines = _main(argv, Path(tmp, "out"))
    assert (rc, len(lines)) in ((0, 0), (2, 1)), lines
    assert rc == 0 or lines[0].startswith("error: ")


def _just_outside(key: str) -> st.SearchStrategy:
    if _RANGES[key] == "at least 1":
        return st.integers(-2, 0)
    edge = st.sampled_from([math.inf, -math.inf, math.nan, -5e-324])
    if _RANGES[key] == "positive":
        return edge | st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 0.0)
    return edge | st.floats(-1.0, -5e-324)  # "nonnegative"


def _refused_alone(argv: list[str], s: cli.Setting) -> None:
    """``argv`` exits 2 with one stderr line that names ``s`` by its key and
    flag, and creates no output directory."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        rc, lines = _main(argv, out)
        assert not out.exists()
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith(f"error: {s.key} (--{s.flag}) must "), lines


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_setting_just_outside_its_range_is_refused(data):
    s = data.draw(st.sampled_from([s for s in _RUN_SETTINGS if s.key in _RANGES]),
                  label="setting")
    value = data.draw(_just_outside(s.key), label="value")
    protocol = data.draw(st.sampled_from([p.value for p in Protocol]), label="protocol")
    _refused_alone(["run", "--topology", "line:2", "--duration", "60", "--boot-window", "0",
                    "--protocol", protocol, f"--{s.flag}={value}"], s)


# oracle sizes outside their range beside --oracle-runs 2 --oracle-steps 2
# --tail 1, where two runs count as a slice's runs
_ORACLE_SIZES_OUTSIDE = {
    "oracle_runs": st.integers(-2, 1) | st.integers(analysis.MAX_ORACLE_RUNS + 1, 10**13),
    "oracle_steps": st.integers(-2, 0) | st.integers(
        analysis.MAX_ORACLE_RUN_STEPS // analysis._CHUNK + 1, 10**13),
    "tail": st.integers(-2, 0) | st.integers(2, 10**13),  # at or above --oracle-steps
}
_VALIDATE_KEYS = ("beacon_period_s", "nominal_hz", "max_drift_hz", "delay_std_s",
                  *_ORACLE_SIZES_OUTSIDE)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_VALIDATE_KEYS).flatmap(lambda key: st.tuples(
    st.just(key), _ORACLE_SIZES_OUTSIDE[key] if key in _ORACLE_SIZES_OUTSIDE
    else _just_outside(key))))
@example(("tail", 2))
@example(("oracle_runs", analysis.MAX_ORACLE_RUNS + 1))
def test_every_validate_setting_just_outside_its_range_is_refused(drawn):
    # MomentParams refuses the model's settings, and validate_grid the oracle
    # sizes, before any oracle runs
    key, value = drawn
    [s] = [s for s in cli.SETTINGS if s.key == key]
    _refused_alone(["validate-analysis", "--mu-grid", "1.0", "--oracle-runs", "2",
                    "--oracle-steps", "2", "--tail", "1", f"--{s.flag}={value}"], s)


def test_a_sweep_value_outside_its_range_is_refused_before_any_run():
    _refused_alone(["sweep", "--param", "beacon-period", "--values", "30,-5",
                    "--topology", "line:2", "--duration", "60", "--boot-window", "0"],
                   cli.SWEEPS["beacon-period"])


# ---------------------------------------------------------------------------
# refusals: every row of tests/refusals.jsonl through cli.main, with the
# checks tools/check_entry_point.py makes through the installed command

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_entry_point.py"
_spec = importlib.util.spec_from_file_location("check_entry_point", _TOOL)
check_entry_point = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_entry_point)
_REFUSALS = check_entry_point.refusals()

# cli.main on each row in one child that caps its address space at 1 GiB
# and each row at 20 s, so that a plan built before it is counted fails fast
# with MemoryError, never exhausting the machine: 10^9 seeds take 40 GB as a
# list, a sweep of 300 values x 10^5 seeds once took more than 1 GiB, the
# readings of line:2000 at 0.01 s 14.9 GiB and line:10^7's node tuples more
# than 1 GiB, and 10^8 drift segments per node ran for hours. The child
# watches the passes, the oracle and the output directory to tell the stage
# at which each row was refused; a `before` row's passes and oracle raise.
_REFUSE = """\
import contextlib, io, json, os, resource, signal, sys, traceback, warnings
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from wsnsync import analysis, cli, outputs, simulation
warnings.simplefilter("error")

def timeout(*args):
    raise TimeoutError("the row ran past 20 s")

def watch(module, name, real):
    def call(*args, **kwargs):
        seen.add(name)
        if stage == "before" and name != "make_dir":
            raise AssertionError(f"{name} ran before the settings were checked")
        return real(*args, **kwargs)
    setattr(module, name, call)

signal.signal(signal.SIGALRM, timeout)
for module, name in [(outputs, "record_schedule"), (simulation, "_event_pass"),
                     (analysis, "pairwise_oracle"), (outputs, "make_dir")]:
    watch(module, name, getattr(module, name))
results = []
for n, row in enumerate(json.load(sys.stdin)):
    out, stdout, stderr = os.path.join(sys.argv[1], str(n)), io.StringIO(), io.StringIO()
    stage, seen = row["stage"], set()
    signal.alarm(20)
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main([*row["argv"], "--out-dir", out])
        except BaseException:
            rc = None
            traceback.print_exc()
    signal.alarm(0)
    reached = "midway" if "make_dir" in seen else "after-kernel" if seen else "before"
    results.append([rc, stdout.getvalue(), stderr.getvalue(), os.path.exists(out), reached])
json.dump(results, sys.stdout)
"""


@pytest.fixture(scope="module")
def refused(tmp_path_factory) -> list[list[str]]:
    """Each row's faults, in table order; a row's warnings are errors."""
    proc = subprocess.run(
        [sys.executable, "-c", _REFUSE, str(tmp_path_factory.mktemp("refused"))],
        input=json.dumps(_REFUSALS), env=_src_env(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    faults = []
    for row, (*result, reached) in zip(_REFUSALS, json.loads(proc.stdout)):
        found = check_entry_point.faults(row, *result)
        faults.append(found + [f"refused {reached}"] * (reached != row["stage"]))
    return faults


def _table_test(cases: dict[str, list[int]]):
    """A test of the rows of ``cases``, each case a list of row indices:
    one unparametrized test for the one case "", else one per case id."""
    def check(refused, rows):
        argvs = [" ".join(_REFUSALS[i]["argv"]) for i in rows]
        assert dict(zip(argvs, (refused[i] for i in rows))) == dict.fromkeys(argvs, [])

    if list(cases) == [""]:
        return lambda refused: check(refused, cases[""])
    return pytest.mark.parametrize("rows", list(cases.values()), ids=list(cases))(check)


# each row runs under the test case its "test" names, by default
# test_refused[<its argv>]; the rows of one case run in one test
_CASES: dict[str, dict[str, list[int]]] = {}
for _i, _row in enumerate(_REFUSALS):
    _name, _, _case = _row.get("test", f"test_refused[{' '.join(_row['argv'])}]").partition("[")
    _CASES.setdefault(_name, {}).setdefault(_case.removesuffix("]"), []).append(_i)
globals().update({name: _table_test(cases) for name, cases in _CASES.items()})


# ---------------------------------------------------------------------------
# validate-analysis command


def test_validate_analysis_writes_csv(tmp_path: Path, capsys):
    args = ["validate-analysis", "--out-dir", str(tmp_path),
            "--mu-grid", "1.0,2.2", "--oracle-runs", "2000",
            "--oracle-steps", "80", "--tail", "20"]
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert "variant" in out and "disagrees" in out
    lines = (tmp_path / "analysis.csv").read_text().splitlines()
    assert lines[1] == ",".join(cli.ANALYSIS_COLUMNS)
    ok_row = lines[2].split(",")
    assert float(ok_row[0]) == 1.0
    assert float(ok_row[7]) < 0.1  # rel_err on the default parameter set
    divergent = lines[3].split(",")
    assert float(divergent[0]) == 2.2
    assert divergent[5] == divergent[6] == divergent[7] == ""


def test_validate_analysis_uses_worst_case_drift_default(tmp_path: Path):
    args = ["validate-analysis", "--out-dir", str(tmp_path),
            "--mu-grid", "1.0", "--oracle-runs", "500",
            "--oracle-steps", "40", "--tail", "10"]
    assert cli.main(args) == 0
    cfg = _read_config_header(tmp_path / "analysis.csv")
    assert cfg["f_max"] == 100.0


def test_validate_analysis_gate_failure_exits_nonzero(tmp_path: Path,
                                                      monkeypatch, capsys):
    monkeypatch.setattr(analysis, "final_step_sigma",
                        lambda *a, **k: 9.9)
    args = ["validate-analysis", "--out-dir", str(tmp_path),
            "--mu-grid", "1.0", "--oracle-runs", "500",
            "--oracle-steps", "40", "--tail", "10"]
    assert cli.main(args) == 1
    assert "FAILED" in capsys.readouterr().err


def test_validate_analysis_labels_marginal_step_sizes(tmp_path: Path, monkeypatch,
                                                     capsys):
    # at |1 - mu| = 1 the mean recursion neither converges nor diverges
    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran for a non-convergent step size")

    monkeypatch.setattr(analysis, "pairwise_oracle", no_oracle)
    args = ["validate-analysis", "--out-dir", str(tmp_path), "--mu-grid", "0,2,2.2"]
    assert cli.main(args) == 0
    notes = [line.split("  ")[-1] for line in capsys.readouterr().out.splitlines()[1:4]]
    assert notes == ["marginal by design (|1 - mu| = 1)"] * 2 + ["divergent by design"]


def test_validate_analysis_models_at_the_moment_params_defaults():
    cfg = cli._resolve(cli.build_parser().parse_args(["validate-analysis"]))
    model = analysis.MomentParams()
    assert (cfg["beacon_period_s"], cfg["nominal_hz"], cfg["max_drift_hz"]) == (
        model.beacon_period_s, model.nominal_hz, model.max_drift_hz)
    # the delay std squares to one ulp above MomentParams' 2e-10; the
    # command's models, and so analysis.csv, rest on that value
    assert analysis.MomentParams.from_delay_std(cfg["delay_std_s"]).delay_diff_var == (
        2.0000000000000003e-10)
    assert model.delay_diff_var == 2e-10


def test_validate_analysis_reports_a_variant_without_a_finite_prediction(tmp_path: Path,
                                                                       capsys):
    # without drift, the variant that drops the unit constant has no finite
    # variance at mu 1.0; the table says so and the check still passes
    args = ["validate-analysis", "--out-dir", str(tmp_path), "--max-drift-hz", "0",
            "--oracle-runs", "500", "--oracle-steps", "40", "--tail", "10"]
    assert cli.main(args) == 0
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    row = next(k for k, line in enumerate(lines) if line.split()[:1] == ["1.0"])
    assert "variant dropped_unit_constant: no finite prediction" in lines[row + 1:row + 3]


_POOL_ARGS = ["validate-analysis", "--mu-grid", "0.25,0.5,2.2,1.0,1.5",
              "--oracle-runs", "300", "--oracle-steps", "30", "--tail", "10",
              "--out-dir", "out"]


def test_validate_analysis_reports_concurrent_oracles_in_grid_order(
        tmp_path: Path, monkeypatch, capsys):
    # earlier step sizes sleep longer, so with a worker each the kernels
    # finish in reverse grid order
    real_oracle = analysis.pairwise_oracle
    naps = {0.25: 0.15, 0.5: 0.1, 1.0: 0.05, 1.5: 0.0}
    finished = []

    def slow_oracle(p, **kwargs):
        time.sleep(naps[p.step_size])
        trace = real_oracle(p, **kwargs)
        finished.append(p.step_size)
        return trace

    monkeypatch.setattr(analysis, "pairwise_oracle", slow_oracle)
    outputs = []
    for cpus in (4, 1, None):
        monkeypatch.setattr(analysis.os, "cpu_count", lambda cpus=cpus: cpus)
        finished.clear()
        (tmp_path / f"cpus_{cpus}").mkdir()
        monkeypatch.chdir(tmp_path / f"cpus_{cpus}")
        assert cli.main(_POOL_ARGS) == 0
        outputs.append((capsys.readouterr().out, Path("out/analysis.csv").read_bytes()))
        if cpus == 4:
            assert finished == [1.5, 1.0, 0.5, 0.25]
    assert outputs[0] == outputs[1] == outputs[2]
    rows = [line.split()[0] for line in outputs[0][0].splitlines()[1:-1]]
    assert [mu for mu in rows if mu != "variant"] == ["0.25", "0.5", "2.2", "1.0", "1.5"]


def test_validate_analysis_oracle_failure_cancels_queued_kernels(
        tmp_path: Path, monkeypatch, capsys):
    real_oracle = analysis.pairwise_oracle
    started = []

    def failing_oracle(p, **kwargs):
        started.append(p.step_size)
        if p.step_size == 0.25:
            raise ValueError("oracle failed")
        time.sleep(0.2)  # the main thread cancels the queued kernels meanwhile
        return real_oracle(p, **kwargs)

    monkeypatch.setattr(analysis, "pairwise_oracle", failing_oracle)
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 1)
    monkeypatch.chdir(tmp_path)
    assert cli.main(_POOL_ARGS) == 2
    assert capsys.readouterr().err == "error: oracle failed\n"
    assert started in ([0.25], [0.25, 0.5])  # 1.0 and 1.5 never start
    assert not (tmp_path / "out" / "analysis.csv").exists()


def test_validate_analysis_oracle_failure_leaves_no_out_dir(tmp_path: Path, monkeypatch,
                                                            capsys):
    def failing_oracle(*args, **kwargs):
        raise ValueError("oracle failed")

    monkeypatch.setattr(analysis, "pairwise_oracle", failing_oracle)
    out = tmp_path / "new"
    assert cli.main(["validate-analysis", "--mu-grid", "0.5,2.2", "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: oracle failed\n")  # no partial table
    assert not out.exists()


def test_validate_analysis_starts_no_pool_without_a_convergent_step_size(
        tmp_path: Path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started with no oracle to run")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    # without an oracle nothing divides by a standard error, so the noiseless
    # model runs too
    for extra in (["--mu-grid", "0,2,2.2"], ["--mu-grid", "2.2", "--max-drift-hz", "0",
                                              "--delay-std", "0"]):
        out = tmp_path / str(len(extra))
        assert cli.main(["validate-analysis", "--out-dir", str(out), *extra]) == 0
        assert (out / "analysis.csv").exists()


# ---------------------------------------------------------------------------
# sweep command


def test_sweep_over_nodes(tmp_path: Path):
    args = ["sweep", "--param", "nodes", "--values", "2,3",
            "--out-dir", str(tmp_path), "--duration", "300",
            "--boot-window", "60", "--seed", "1"]
    assert cli.main(args) == 0
    assert (tmp_path / "nodes_2" / "summary.csv").exists()
    assert (tmp_path / "nodes_3" / "summary.csv").exists()
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1].startswith("param,value,protocol,")
    assert len(lines) == 4
    assert lines[2].startswith("nodes,2,newton,1,")


def test_sweep_rejects_unknown_param(tmp_path: Path, capsys):
    args = ["sweep", "--param", "voltage", "--values", "1",
            "--out-dir", str(tmp_path)]
    assert cli.main(args) == 2
    assert "unknown sweep parameter" in capsys.readouterr().err


def test_sweep_rejects_bad_values(tmp_path: Path):
    args = ["sweep", "--param", "mu", "--values", "a,b",
            "--out-dir", str(tmp_path)]
    assert cli.main(args) == 2
    args = ["sweep", "--param", "delay-std", "--values", "nan",
            "--out-dir", str(tmp_path)]
    assert cli.main(args) == 2
    # repeated values, after parsing, exit before any run
    for param, values in (("mu", "1.0,1.0"), ("nodes", "3,03"), ("nodes", "3,1")):
        args = ["sweep", "--param", param, "--values", values,
                "--out-dir", str(tmp_path), "--duration", "300", "--boot-window", "60"]
        assert cli.main(args) == 2, values
    assert not list(tmp_path.rglob("*.csv"))


def test_sweep_rejects_the_setting_it_sweeps(tmp_path: Path, capsys):
    # `--param nodes` sets the topology of every value to line:N, so a
    # topology given by flag or config file would be dropped unseen
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"topology": "line:5"}))
    out = tmp_path / "out"
    for given in (["--topology", "line:4"], ["--config", str(config)]):
        args = ["sweep", "--param", "nodes", "--values", "3", "--out-dir", str(out),
                "--duration", "300", "--boot-window", "60", *given]
        assert cli.main(args) == 2, given
        err = capsys.readouterr().err
        assert "--param nodes" in err and "topology (--topology)" in err
    args = ["sweep", "--param", "mu", "--values", "0.5", "--mu", "0.3",
            "--out-dir", str(out)]
    assert cli.main(args) == 2
    assert "mu (--mu)" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_checks_every_schedule_before_any_run(tmp_path: Path, capsys):
    # 1e-4 s beacons over 300 s exceed the per-run schedule budget; the
    # 30 s value before it must not run either
    args = ["sweep", "--param", "beacon-period", "--values", "30,1e-4",
            "--gather-wait", "0", "--out-dir", str(tmp_path),
            "--topology", "line:3", "--duration", "300", "--boot-window", "60"]
    assert cli.main(args) == 2
    assert "beacon_period_s" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    args = ["sweep", "--param", "mu", "--values", "0.5,1.0", "--out-dir", str(tmp_path),
            "--topology", "line:3", "--duration", "300", "--boot-window", "300"]
    assert cli.main(args) == 2
    assert "boot_window_s" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


_FAST_SWEEP = ("sweep", "--param", "mu", "--topology", "line:3", "--duration", "300",
               "--boot-window", "60")


@pytest.mark.parametrize("args,blocked", [
    (("run", "--topology", "line:3", "--duration", "300", "--boot-window", "60"), ""),
    ((*_FAST_SWEEP, "--values", "0.5"), ""),
    ((*_FAST_SWEEP, "--values", "0.5,1.0"), "mu_1.0"),
    (("validate-analysis", "--mu-grid", "2.2"), ""),
])
def test_uncreatable_out_dir_exits_two(tmp_path: Path, capsys, args, blocked):
    # a file where the output directory, or a sweep value's, would go
    out = tmp_path / "out"
    if blocked:
        out.mkdir()
    in_the_way = out / blocked
    in_the_way.write_text("not a directory\n")
    assert cli.main([*args, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {in_the_way}: ")
    assert in_the_way.read_text() == "not a directory\n"
    if blocked:  # every value's directory is made before any run; mu_0.5's goes again
        assert list(out.iterdir()) == [in_the_way]


# ---------------------------------------------------------------------------
# byte pins for outputs that the benchmark's golden hashes do not cover


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_outputs_match_pinned_bytes(tmp_path: Path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # stdout names the relative out dirs
    monkeypatch.delenv("WSNSYNC_OUT_DIR", raising=False)
    fast = ["--topology", "line:3", "--duration", "300", "--boot-window", "60"]
    assert cli.main(["sweep", "--param", "mu", "--values", "0.5,1.0",
                     "--protocol", "newton,avgpisync", *fast, "--seed", "1..2",
                     "--out-dir", "out"]) == 0
    sweep_out = capsys.readouterr().out
    assert cli.main(["run", "--protocol", "newton,grades,avgpisync", *fast,
                     "--seed", "1", "--out-dir", "out2"]) == 0
    run_out = capsys.readouterr().out
    assert cli.main(["validate-analysis", "--mu-grid", "1.0,2.2",
                     "--oracle-runs", "2000", "--oracle-steps", "80",
                     "--tail", "20", "--out-dir", "out3"]) == 0
    validate_out = capsys.readouterr().out
    # even-count medians and empty (never converged) columns
    assert _sha((tmp_path / "out" / "sweep.csv").read_bytes()) == (
        "a1e6e78e0f9f159d7bf581872011e9db7c337495aa21c4a8e756b62060514087"
    )
    per_value = {
        "mu_0.5/summary.csv":
            "6cfc0223dd92805139c9ef728f1584430f0386a6b80f500ff9cad18a709c6124",
        "mu_1.0/summary.csv":
            "a608c5a36fa7107251e70a2c323ee16edc845cd34a86cb2128dffdc8f7ac2809",
        "mu_0.5/trace_newton_1.csv":
            "235fe096fb79450cc59224b5fa04c2ba13f3cd8496e8c7550a69bb7d7cccdf04",
    }
    for name, digest in per_value.items():
        assert _sha((tmp_path / "out" / name).read_bytes()) == digest, name
    assert _sha(sweep_out.encode()) == (
        "890b879d739e8aeba8c39db78b3acba178bb446e47beb9f503cd19cd15a344ed"
    )
    assert _sha(run_out.encode()) == (
        "5722dc45635da847a86536dc2bcbd7e824753d2bc58f6e0d2ec72badb46d1812"
    )
    assert _sha(validate_out.encode()) == (
        "e480d35a64c683f75c36c0a2ee3854f9ce4a4e38449a9059c143980f3c2a2344"
    )


def test_nonconvergent_moment_matches_pinned_bytes(tmp_path: Path, monkeypatch, capsys):
    # at mu = 1.99 and this drift bound the mean recursion converges but the
    # second moment does not: empty variance cells and no variant lines
    monkeypatch.chdir(tmp_path)  # stdout names the relative out dir
    assert cli.main(["validate-analysis", "--nominal-hz", "1000", "--max-drift-hz", "500",
                     "--mu-grid", "1.99,1.0", "--oracle-runs", "2000",
                     "--oracle-steps", "60", "--tail", "20", "--out-dir", "out"]) == 0
    out = capsys.readouterr().out
    assert "moment nonconvergent" in out
    assert _sha(out.encode()) == (
        "91139a1bb4025ecd9985695a1bb81d1f833248dbf16e0b68658659a13945f546"
    )
    assert _sha((tmp_path / "out" / "analysis.csv").read_bytes()) == (
        "bd5200fc5d02dfc9592b390361e734ec0d54ba83d22b0aaced707a2725519c8d"
    )


def test_rare_paths_match_pinned_bytes(tmp_path: Path, monkeypatch, capsys):
    # drift segments shorter than the run, quantized ticks, zero delay and
    # all three protocols: paths the benchmark's golden workloads never take
    monkeypatch.chdir(tmp_path)  # stdout names the relative out dir
    assert cli.main(["run", "--protocol", "newton,grades,avgpisync",
                     "--topology", "line:4", "--duration", "2000",
                     "--boot-window", "60", "--drift-resample-interval", "250",
                     "--quantize-ticks", "--delay-std", "0", "--seed", "1",
                     "--out-dir", "out"]) == 0
    pins = {
        "summary.csv": "531c3d2b966f0fd0f80471322b43caaf27f93a630153b3c11bf23d4ec1473db4",
        "trace_newton_1.csv":
            "343107c1d0df5c54d89c1046440090f458ba1ce3e91ef3dd634c353799e3bb66",
        "trace_grades_1.csv":
            "cd6929416f45d18cdd2f3f9cbbcc4503e852a74a0864f10c6701bf62e786a512",
        "trace_avgpisync_1.csv":
            "dadf86caa26fc9f9b03fe5e0087d463618678be0b48cfacda2aabbeffc14c309",
    }
    for name, digest in pins.items():
        assert _sha((tmp_path / "out" / name).read_bytes()) == digest, name
    assert _sha(capsys.readouterr().out.encode()) == (
        "5bbc6bd71438e95f83b795d518025644529658dac58ef6f174cdddc8dffe4d8c"
    )


# Runs where the event pass drops deliveries on arrival in every way it can:
# acks after their round's deadline (2 s delay std against a 0.5 s gather
# wait), requests that race the receiver's first deadline, every event of a
# round at one instant (no boot window, delay or gather wait, quantized
# ticks), and a gather wait just short of the beacon period.
_DROP_PINS = {
    "late-acks": (
        ["--protocol", "newton,grades,avgpisync", "--topology", "line:8",
         "--delay-std", "2", "--gather-wait", "0.5", "--duration", "3000"],
        {"summary.csv": "82f44a1f3bde66f5ab78eefab13bf20c0356022d504f7d7507fb9c26dd1a4d8d",
         "trace_newton_1.csv":
             "a96d84facb8434b5f0edcaad5fc38130b17a23156068e93b9777f21a58ac8d0e",
         "trace_grades_1.csv":
             "aa4d96ff143cd2308b60e7e2ed73d419b0906e8e164576d1cf39f2acb625f529",
         "trace_avgpisync_1.csv":
             "cc933503ad0f633d595a0e1a13dfef31e73dbb1463d437bf0dcec08f42f28b3e",
         "stdout": "d422c2b4f701d3a377a4e1bb9fcf96adefbf31a03d82ef6c5f70bf01d0da853f"},
    ),
    "zero-wait": (
        ["--topology", "line:6", "--gather-wait", "0", "--boot-window", "0",
         "--delay-std", "0", "--quantize-ticks", "--duration", "1500"],
        {"summary.csv": "da1f9b25f7f956b271f3dba5ff63e0abfbb1cda90aec2afc8294123e26650389",
         "trace_newton_1.csv":
             "27106e7a933b3798bf9d2b9c44ca13e4fa9b63f238cbc38bba0bbb6b38d1ed1a",
         "stdout": "de39239cf5c692cbed261b6152e598f60fea6dbc978e43239c9bba0c534831c5"},
    ),
    "long-wait": (
        ["--topology", "line:12", "--gather-wait", "29.5", "--duration", "3000"],
        {"summary.csv": "9148d1895276c54d6b50a29a586f42cf996172326faf8209c55bf370ce8a16c2",
         "trace_newton_1.csv":
             "833847e6e30ce2ef7f043fe6f561671d67e6c9428654edd18391f11c9d23297b",
         "stdout": "2db54e82d73f145b637c479b7bc1821cb00474894eeee05e3bbf7da4b94f1a4c"},
    ),
}


@pytest.mark.parametrize("name", sorted(_DROP_PINS))
def test_dropped_deliveries_match_pinned_bytes(tmp_path: Path, monkeypatch, capsys, name):
    args, pins = _DROP_PINS[name]
    monkeypatch.chdir(tmp_path)  # stdout names the relative out dir
    assert cli.main(["run", *args, "--seed", "1", "--out-dir", "out"]) == 0
    written = {p.name: _sha(p.read_bytes()) for p in (tmp_path / "out").iterdir()}
    assert {**written, "stdout": _sha(capsys.readouterr().out.encode())} == pins


# The runs of `run` with these flags, through the library: compare-line16's
# seeds, a line:64 run where valid time has not reached most nodes (so most
# rounds have no acks), and the edge cases of _DROP_PINS.
_ROUND_RUNS = {
    "compare-line16": ["--protocol", "newton,grades,avgpisync", "--topology", "line:16",
                       "--seed", "1..2"],
    "line64-empty": ["--topology", "line:64", "--duration", "900", "--seed", "1"],
    **{name: [*args, "--seed", "1"] for name, (args, _) in _DROP_PINS.items()},
}
# Per trace: sha256 of round_columns.tobytes(), then its rounds, rounds
# without acks, guard skips (acks but no rate installed) and acks; recorded
# when each protocol still kept five floats for every round.
_ROUND_PINS = {
    "compare-line16": {
        "newton_1": (
            "4be330a502e118f3bf16d248a842f8c703e0ec479b0553a1ac0cc11400ae66d3",
            6069, 124, 15, 11484),
        "grades_1": (
            "9930a2a9a2371b654dc6507ab621508c00104b985cda30005249d306c711dc06",
            6069, 124, 15, 11484),
        "avgpisync_1": (
            "e09ff47664ea249c65522dd1da75c189cd08f83bb2696342a29d1b24506dc967",
            6069, 124, 15, 11484),
        "newton_2": (
            "dfe62967fbe2d2db7c6da5c206de01b4f3be12d241e8be6dc3faf6d2b46984ba",
            6055, 138, 15, 11430),
        "grades_2": (
            "facc123aa2da2f3ddb468e9a0ae2ec5475f42dfc7c9a6d38d173cf9c26147273",
            6055, 138, 15, 11430),
        "avgpisync_2": (
            "3fb5fcfc8ed53d4585c184d4a6ad910348ac5ddbf5c7f1af25b28f03a272d5a5",
            6055, 138, 15, 11430),
    },
    "late-acks": {
        "newton_1": (
            "8379240c15323a52b1e41c879983e85474fa3af787177241acdbd597fd588356",
            673, 337, 222, 401),
        "grades_1": (
            "d33a733287b33586f64b2522518295c9f3dd182baa6a2e8cce9c242ba8b60a69",
            673, 337, 217, 401),
        "avgpisync_1": (
            "ff6704fe5c82dc65f4956fa5ff72418e1e6b21177999644ffa6d8a1cb41a1c0c",
            673, 337, 217, 401),
    },
    "line64-empty": {
        "newton_1": (
            "aba3cab6911e51e0ed0a72a8f1a7df368506c22a376e4849ce1c614b238940f7",
            1575, 1124, 40, 861),
    },
    "long-wait": {
        "newton_1": (
            "3e57a6a06de80716880e65c9046f70ecd8803b65074c974bf3a06b6cd555c797",
            1051, 131, 285, 1735),
    },
    "zero-wait": {
        "newton_1": (
            "eaa1cd36ebd5777e0ec9c90eebc8009a70f54cc6f70346a8b05ce8225ebda6fa",
            255, 0, 5, 455),
    },
}


@pytest.mark.parametrize("name", sorted(_ROUND_RUNS))
def test_round_columns_match_pinned_bytes(name):
    (sim_kwargs, params_seq, *_), resolved = cli._plan(cli._resolve(
        cli.build_parser().parse_args(["run", *_ROUND_RUNS[name]])))
    seen = {}
    for seed in resolved["seeds"]:
        schedule = simulation.record_schedule(params_seq=params_seq, seed=seed, **sim_kwargs)
        for params in params_seq:
            cols = simulation.run_simulation(sim_kwargs["topology"], params,
                                             schedule=schedule).round_columns
            rates, acks = cols[3::5], cols[4::5]
            seen[f"{params.kind.value}_{seed}"] = (
                _sha(cols.tobytes()), len(acks), acks.count(0.0),
                sum(1 for rate, n in zip(rates, acks) if n and rate != rate), int(sum(acks)))
    assert seen == _ROUND_PINS[name]
