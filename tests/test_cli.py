"""Command line interface: parsing, precedence, outputs, determinism."""
from __future__ import annotations

import concurrent.futures
import hashlib
import json
import weakref
from pathlib import Path

import pytest

from wsnsync import cli


def _run_args(out: Path, *extra: str) -> list[str]:
    # a fast configuration shared by most CLI tests
    return [
        "run", "--out-dir", str(out), "--topology", "line:3",
        "--duration", "300", "--boot-window", "60", "--seed", "1",
        *extra,
    ]


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


def test_parse_seed_spec_errors():
    with pytest.raises(cli.ConfigError):
        cli._parse_seeds("6..3")
    with pytest.raises(cli.ConfigError):
        cli._parse_seeds("x")


def test_parse_topology_line_and_errors(tmp_path: Path):
    topo = cli._parse_topology("line:5")
    assert topo.node_ids == (1, 2, 3, 4, 5)
    with pytest.raises(cli.ConfigError):
        cli._parse_topology("line:1")
    with pytest.raises(cli.ConfigError):
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
    assert lines[1] == ",".join(cli.SUMMARY_COLUMNS)
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


def test_validate_analysis_rejects_empty_seed_list(tmp_path: Path, capsys):
    args = ["validate-analysis", "--out-dir", str(tmp_path), "--seed", ",",
            "--oracle-runs", "200", "--oracle-steps", "40", "--tail", "10"]
    assert cli.main(args) == 2
    assert "empty seed list" in capsys.readouterr().err
    assert not (tmp_path / "analysis.csv").exists()


def test_validate_analysis_rejects_more_than_one_seed(tmp_path: Path, capsys):
    args = ["validate-analysis", "--out-dir", str(tmp_path), "--seed", "5..9",
            "--oracle-runs", "200", "--oracle-steps", "40", "--tail", "10"]
    assert cli.main(args) == 2
    assert "validate-analysis takes one seed" in capsys.readouterr().err
    assert not (tmp_path / "analysis.csv").exists()


def test_jobs_capped_by_run_count(tmp_path: Path, monkeypatch):
    requested: list[int] = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    args = _run_args(tmp_path, "--protocol", "newton,grades", "--jobs", "64")
    assert cli.main(args) == 0
    assert requested == [2]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert cli.main(args) == 0
    assert requested == [2]  # one core: runs in-process, no pool


def test_out_of_bound_step_size_warns(tmp_path: Path, capsys):
    assert cli.main(_run_args(tmp_path, "--mu", "2.5")) == 0
    assert "outside the convergence bound" in capsys.readouterr().err


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


def test_rerun_is_byte_identical(tmp_path: Path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(_run_args(d1, "--protocol", "newton,avgpisync")) == 0
    assert cli.main(_run_args(d2, "--protocol", "newton,avgpisync")) == 0
    for name in ("trace_newton_1.csv", "trace_avgpisync_1.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    assert (d1 / "summary.csv").read_bytes() == (d2 / "summary.csv").read_bytes()


def test_runs_stream_one_trace_at_a_time(tmp_path: Path, monkeypatch):
    # each trace is written and released before the next run starts
    real = cli.run_simulation
    made: list[tuple[weakref.ref, Path]] = []

    def tracked(*args, **kwargs):
        for ref, path in made:
            assert ref() is None
            assert path.exists()
        trace = real(*args, **kwargs)
        name = f"trace_{trace.config['protocol']}_{trace.config['seed']}.csv"
        made.append((weakref.ref(trace), tmp_path / name))
        return trace

    monkeypatch.setattr(cli, "run_simulation", tracked)
    args = _run_args(tmp_path, "--protocol", "newton,grades", "--seed", "1..2")
    assert cli.main(args) == 0
    assert len(made) == 4
    assert made[-1][0]() is None


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


def test_multiple_protocols_and_seeds(tmp_path: Path):
    args = _run_args(tmp_path, "--protocol", "newton,grades", "--seed",
                     "1..2")
    assert cli.main(args) == 0
    rows = (tmp_path / "summary.csv").read_text().splitlines()[2:]
    assert len(rows) == 4
    assert (tmp_path / "trace_grades_2.csv").exists()


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
    monkeypatch.setattr(cli.analysis, "final_step_sigma",
                        lambda *a, **k: 9.9)
    args = ["validate-analysis", "--out-dir", str(tmp_path),
            "--mu-grid", "1.0", "--oracle-runs", "500",
            "--oracle-steps", "40", "--tail", "10"]
    assert cli.main(args) == 1
    assert "FAILED" in capsys.readouterr().err


def test_validate_analysis_rejects_bad_tail(tmp_path: Path, monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before the arguments were checked")

    monkeypatch.setattr(cli.analysis, "pairwise_oracle", no_oracle)
    base = ["validate-analysis", "--out-dir", str(tmp_path)]
    for extra in (
        ["--oracle-steps", "50", "--tail", "50"],
        ["--tail", "0"],
        ["--mu-grid", "2.2", "--oracle-runs", "0"],
        ["--mu-grid", "2.2", "--oracle-steps", "0", "--tail", "-3"],
    ):
        assert cli.main([*base, *extra]) == 2, extra
    assert not (tmp_path / "analysis.csv").exists()


def test_validate_analysis_rejects_repeated_mu(tmp_path: Path, monkeypatch, capsys):
    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before the arguments were checked")

    monkeypatch.setattr(cli.analysis, "pairwise_oracle", no_oracle)
    args = ["validate-analysis", "--out-dir", str(tmp_path), "--mu-grid", "0.5,1.0,1"]
    assert cli.main(args) == 2
    assert "duplicate --mu-grid entry: 1.0" in capsys.readouterr().err
    assert not (tmp_path / "analysis.csv").exists()


def test_validate_analysis_labels_marginal_step_sizes(tmp_path: Path, monkeypatch,
                                                     capsys):
    # at |1 - mu| = 1 the mean recursion neither converges nor diverges
    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran for a non-convergent step size")

    monkeypatch.setattr(cli.analysis, "pairwise_oracle", no_oracle)
    args = ["validate-analysis", "--out-dir", str(tmp_path), "--mu-grid", "0,2,2.2"]
    assert cli.main(args) == 0
    notes = [line.split("  ")[-1] for line in capsys.readouterr().out.splitlines()[1:4]]
    assert notes == ["marginal by design (|1 - mu| = 1)"] * 2 + ["divergent by design"]


def test_validate_analysis_rejects_drift_at_or_above_nominal(tmp_path: Path,
                                                            monkeypatch, capsys):
    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before the arguments were checked")

    monkeypatch.setattr(cli.analysis, "pairwise_oracle", no_oracle)
    args = ["validate-analysis", "--out-dir", str(tmp_path), "--nominal-hz", "50"]
    assert cli.main(args) == 2
    assert "max_drift_hz" in capsys.readouterr().err
    assert not (tmp_path / "analysis.csv").exists()


def test_validate_analysis_rejects_non_finite_inputs(tmp_path: Path):
    base = ["validate-analysis", "--out-dir", str(tmp_path),
            "--oracle-runs", "200", "--oracle-steps", "40", "--tail", "10"]
    assert cli.main([*base, "--mu-grid", "1.0,nan"]) == 2
    assert cli.main([*base, "--mu-grid", "inf"]) == 2
    assert cli.main([*base, "--initial-rate-offset", "nan"]) == 2
    assert cli.main([*base, "--delay-std", "inf"]) == 2
    assert not (tmp_path / "analysis.csv").exists()


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
