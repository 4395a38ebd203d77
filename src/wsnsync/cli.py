"""Command line front end.

Subcommands:
  run                simulate one or more (protocol, seed) pairs and write
                     per-run trace CSVs plus a summary CSV
  sweep              repeat `run` over a grid of one parameter and aggregate
  validate-analysis  check the closed-form predictions against the Monte
                     Carlo oracle and write analysis.csv

Every setting is one row of SETTINGS: its flag, config key, type, default,
range and help. Precedence: command line flag, then JSON config file
(--config), then the command's default. Output files embed the fully resolved
configuration as a `# config = {...}` comment header and contain no
timestamps, so identical invocations produce byte-identical files. The
default output directory comes from $WSNSYNC_OUT_DIR, falling back to ./out.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import json
import math
import os
import statistics
import sys
from pathlib import Path

from . import analysis, metrics
from .clocks import OscillatorParams
from .protocols import Protocol, ProtocolParams, default_step_size, step_size_bound
from .simulation import (
    DelayModel, Topology, build_line_topology, check_schedule, run_simulation,
)

_RUN = ("run", "sweep")
_ALL = ("run", "sweep", "validate-analysis")
_VALIDATE = ("validate-analysis",)
RANGES = {
    "positive": lambda v: v > 0,
    "nonnegative": lambda v: v >= 0,
    "at least 1": lambda v: v >= 1,
}
_TYPE_NAMES = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}


@dataclasses.dataclass(frozen=True)
class Setting:
    """One setting: config key (also the argparse dest), flag, type (float,
    int, bool or str), default, allowed range (a RANGES key), help text,
    the commands that take it and its `sweep --param` name."""

    key: str
    flag: str
    type: type
    default: object
    check: str | None
    help: str
    commands: tuple[str, ...] = _RUN
    sweep: str | None = None
    config: bool = True  # settable from a --config file
    command_defaults: dict = dataclasses.field(default_factory=dict)

    def default_for(self, command: str):
        return self.command_defaults.get(command, self.default)


SETTINGS = (
    Setting("seed", "seed", str, "1", None,
            "seed spec: N, N,M,... or A..B (validate-analysis takes one seed)", _ALL),
    Setting("beacon_period_s", "beacon-period", float, 30.0, "positive",
            "seconds between sync rounds", _ALL, "beacon-period"),
    Setting("nominal_hz", "nominal-hz", float, 1e6, "positive",
            "nominal oscillator frequency in Hz", _ALL),
    # The closed-form model's canonical parameter set uses the worst-case
    # drift bound; the experiment default models deployed crystals.
    Setting("max_drift_hz", "max-drift-hz", float, 25.0, "nonnegative",
            "oscillator drift bound in Hz", _ALL, "max-drift",
            command_defaults={"validate-analysis": 100.0}),
    Setting("delay_std_s", "delay-std", float, 1e-5, "nonnegative",
            "message delay standard deviation, seconds", _ALL, "delay-std"),
    Setting("protocol", "protocol", str, "newton", None,
            "comma list: newton,grades,avgpisync"),
    # `sweep --param nodes` sets the topology to line:N
    Setting("topology", "topology", str, "line:16", None,
            "line:N or JSON topology file", sweep="nodes"),
    Setting("mu", "mu", float, None, "positive",
            "step size for all protocols; unset, each protocol uses its own", sweep="mu"),
    Setting("e_max_ticks", "e-max-ticks", float, 6000.0, "positive",
            "rate-update guard threshold in ticks"),
    Setting("gather_wait_s", "gather-wait", float, 1.0, "nonnegative",
            "seconds between requests and averaging"),
    Setting("drift_resample_interval_s", "drift-resample-interval", float, 3600.0,
            "positive", "constant-drift segment length, seconds"),
    Setting("duration_s", "duration", float, 12240.0, "positive", "simulated seconds"),
    Setting("sample_interval_s", "sample-interval", float, 10.0, "positive",
            "trace sampling period, seconds"),
    Setting("boot_window_s", "boot-window", float, 300.0, "nonnegative",
            "nodes boot uniformly in [0, window) seconds"),
    Setting("threshold_ticks", "threshold-ticks", float, 1000.0, "positive",
            "convergence threshold in ticks"),
    Setting("window", "window", int, 5, "at least 1", "consecutive samples below threshold"),
    Setting("quantize_ticks", "quantize-ticks", bool, False, None,
            "floor hardware tick readings to integers"),
    Setting("jobs", "jobs", int, 1, "at least 1", "parallel workers"),
    Setting("mu_grid", "mu-grid", str, "0.25,0.5,1.0,1.5,2.2", None,
            "comma list of step sizes; 2.2 diverges by design", _VALIDATE, config=False),
    Setting("oracle_runs", "oracle-runs", int, 20000, "at least 1",
            "Monte Carlo runs per step size", _VALIDATE, config=False),
    Setting("oracle_steps", "oracle-steps", int, 300, "at least 1",
            "rounds per oracle run", _VALIDATE, config=False),
    Setting("tail", "tail", int, 100, "at least 1",
            "steady-state averaging window in rounds, below oracle-steps",
            _VALIDATE, config=False),
    Setting("initial_rate_offset", "initial-rate-offset", float, 0.05, None,
            "relative initial rate error fed to the oracle", _VALIDATE, config=False),
)
CONFIG_KEYS = frozenset(s.key for s in SETTINGS if s.config)
SWEEPS = {s.sweep: s for s in SETTINGS if s.sweep}

SUMMARY_COLUMNS = (
    "protocol", "seed", *(f.name for f in dataclasses.fields(metrics.TraceSummary))
)
SWEEP_COLUMNS = (
    "param",
    "value",
    "protocol",
    "n_runs",
    "n_converged",
    "median_convergence_time_s",
    "median_steady_state_max_global_err_s",
)
ANALYSIS_COLUMNS = (
    "mu",
    "B",
    "f_hat",
    "f_max",
    "sigma_beta",
    "predicted_var",
    "empirical_var",
    "rel_err",
)


class ConfigError(ValueError):
    pass


def _check_distinct(what: str, items: list) -> None:
    """ConfigError if ``items`` is empty or repeats an entry."""
    if not items:
        raise ConfigError(f"empty {what} list")
    repeated = sorted({str(x) for x in items if items.count(x) > 1})
    if repeated:
        raise ConfigError(f"duplicate {what}: {', '.join(repeated)}")


def _parse_seeds(spec: str) -> list[int]:
    """'7' | '1,2,5' | '1..20' (inclusive range); nonempty, no repeats."""
    spec = str(spec).strip()
    if ".." in spec:
        lo, _, hi = spec.partition("..")
        try:
            a, b = int(lo), int(hi)
        except ValueError:
            raise ConfigError(f"bad seed range {spec!r}")
        if b < a:
            raise ConfigError(f"empty seed range {spec!r}")
        return list(range(a, b + 1))
    try:
        seeds = [int(s) for s in spec.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"bad seed list {spec!r}")
    _check_distinct("seed", seeds)
    return seeds


def _parse_topology(spec: str) -> Topology:
    spec = str(spec).strip()
    if spec.startswith("line:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad topology {spec!r}")
        if n < 2:
            raise ConfigError("line topology needs at least 2 nodes")
        return build_line_topology(n)
    path = Path(spec)
    if not path.is_file():
        raise ConfigError(f"topology {spec!r} is neither line:N nor a file")
    try:
        data = json.loads(path.read_text())
        return Topology(
            tuple(data["nodes"]),
            tuple(tuple(e) for e in data["edges"]),
            data["gateway"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad topology file {spec!r}: {exc}")


def _parse(s: Setting, value):
    """``value`` as setting ``s``: of its type (a JSON integer is a float too),
    finite and in range, else ConfigError naming the setting."""
    if value is None and s.default is None:
        return None
    name = f"{s.key} (--{s.flag})"
    # exact types, since bool is an int subclass
    if type(value) is not s.type and not (s.type is float and type(value) is int):
        raise ConfigError(f"{name} must be {_TYPE_NAMES[s.type]}, got {json.dumps(value)}")
    value = s.type(value)
    if s.type is float and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    if s.check and not RANGES[s.check](value):
        raise ConfigError(f"{name} must be {s.check}, got {value}")
    return value


def _resolve(args: argparse.Namespace, swept: Setting | None = None) -> dict:
    """Every config key and every setting of ``args.command``: its flag, else
    its --config file entry, else the command's default. ConfigError if the
    ``swept`` setting, which a sweep sets per value, is given too."""
    loaded = {}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(loaded) - CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config file keys: {', '.join(unknown)}")
    if swept and (getattr(args, swept.key) is not None or swept.key in loaded):
        raise ConfigError(f"sweep --param {swept.sweep} sets {swept.key} "
                          f"(--{swept.flag}) per value; do not give it too")
    cfg = {}
    for s in SETTINGS:
        if s.config or args.command in s.commands:
            value = getattr(args, s.key, None)
            if value is None:
                value = loaded.get(s.key, s.default_for(args.command))
            cfg[s.key] = _parse(s, value)
    return cfg


def _protocol_params(cfg: dict, kind: Protocol) -> ProtocolParams:
    b, f, mu = cfg["beacon_period_s"], cfg["nominal_hz"], cfg["mu"]
    return ProtocolParams(
        kind=kind,
        step_size=mu if mu is not None else default_step_size(kind, b, f),
        beacon_period_s=b,
        nominal_hz=f,
        max_error_s=cfg["e_max_ticks"] / f,
        gather_wait_s=cfg["gather_wait_s"],
    )


def _run_one(job: tuple[dict, ProtocolParams, int]):
    sim_kwargs, params, seed = job
    return run_simulation(params=params, seed=seed, **sim_kwargs)


def _csv_field(value) -> str:
    """Empty for None, shortest round-trip repr for floats, str otherwise."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # float() drops numpy's repr wrapper
    return str(value)


def _write_csv(path: Path, config: dict, columns: tuple[str, ...], rows: list[dict]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("# config = " + json.dumps(config, sort_keys=True) + "\n")
        fh.write(",".join(columns) + "\n")
        for r in rows:
            fh.write(",".join(_csv_field(r[c]) for c in columns) + "\n")


def _cell(value, spec: str, scale: float = 1.0) -> str:
    """Table cell: '-' for a missing value, else value * scale formatted by spec."""
    return "-" if value is None else format(value * scale, spec)


def _out_dir(args: argparse.Namespace) -> Path:
    out = getattr(args, "out_dir", None) or os.environ.get("WSNSYNC_OUT_DIR") or "out"
    p = Path(out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _plan(cfg: dict) -> tuple[list[tuple[dict, ProtocolParams, int]], dict]:
    """The (simulation kwargs, protocol params, seed) job of every run that
    ``cfg`` asks for, and the summary header that records them."""
    protocols = [Protocol.parse(p) for p in cfg["protocol"].split(",")]
    _check_distinct("protocol", [p.value for p in protocols])
    seeds = _parse_seeds(cfg["seed"])
    params = {p: _protocol_params(cfg, p) for p in protocols}
    check_schedule(cfg["duration_s"], cfg["sample_interval_s"], cfg["beacon_period_s"],
                   cfg["boot_window_s"])
    sim_kwargs = {
        "topology": _parse_topology(cfg["topology"]),
        "osc_params": OscillatorParams(
            nominal_hz=cfg["nominal_hz"],
            max_drift_hz=cfg["max_drift_hz"],
            resample_interval_s=cfg["drift_resample_interval_s"],
            quantize_ticks=cfg["quantize_ticks"],
        ),
        "delay_model": DelayModel(std_s=cfg["delay_std_s"]),
        "duration_s": cfg["duration_s"],
        "sample_interval_s": cfg["sample_interval_s"],
        "boot_window_s": cfg["boot_window_s"],
    }
    for p in protocols:
        if not params[p].within_bound():
            lo, hi = step_size_bound(p, params[p].beacon_period_s, params[p].nominal_hz)
            print(f"warning: {p.value} step size {params[p].step_size} is outside "
                  f"the convergence bound ({lo}, {hi})", file=sys.stderr)
    resolved = {**cfg, "protocols": [p.value for p in protocols], "seeds": seeds,
                "per_protocol_step_size": {p.value: params[p].step_size for p in protocols}}
    return [(sim_kwargs, params[p], s) for p in protocols for s in seeds], resolved


def _run_jobs(jobs: list, resolved: dict, out: Path) -> list[dict]:
    """Run the planned jobs; write their traces and summary.csv to ``out``,
    print the summary table and return its rows.

    Traces are taken one at a time, in job order: each is written,
    summarized and dropped before the next is taken.
    """
    workers = min(resolved["jobs"], len(jobs), os.cpu_count() or 1)
    threshold_s = resolved["threshold_ticks"] / resolved["nominal_hz"]
    rows: list[dict] = []
    with contextlib.ExitStack() as stack:
        traces = map(_run_one, jobs)
        if workers > 1:
            pool = stack.enter_context(
                concurrent.futures.ProcessPoolExecutor(max_workers=workers))
            traces = pool.map(_run_one, jobs)
        for trace in traces:
            protocol, seed = trace.config["protocol"], trace.config["seed"]
            with open(out / f"trace_{protocol}_{seed}.csv", "w", newline="\n") as fh:
                trace.write_csv(fh)  # embeds its own resolved-config header
            summ = metrics.summarize(
                trace.sample_times_s,
                trace.logical_s,
                threshold_s,
                resolved["window"],
                start_after=trace.boot_complete_time,
            )
            del trace  # before the next run starts
            rows.append({"protocol": protocol, "seed": seed, **dataclasses.asdict(summ)})
    _write_csv(out / "summary.csv", resolved, SUMMARY_COLUMNS, rows)

    print(f"{'protocol':<12}{'seed':>6}{'mu':>14}{'conv_time_s':>14}"
          f"{'steady_err_us':>15}{'peak_err_us':>14}")
    for r in rows:
        mu = resolved["per_protocol_step_size"][r["protocol"]]
        conv = _cell(r["convergence_time_s"], ".1f")
        med = _cell(r["steady_state_max_global_err_s"], ".1f", 1e6)
        peak = _cell(r["peak_err_after_convergence_s"], ".1f", 1e6)
        print(f"{r['protocol']:<12}{r['seed']:>6}{mu:>14.3g}{conv:>14}{med:>15}{peak:>14}")
    print(f"wrote {len(rows)} trace file(s) and summary.csv to {out}")
    return rows


def cmd_run(args: argparse.Namespace) -> int:
    jobs, resolved = _plan(_resolve(args))
    _run_jobs(jobs, resolved, _out_dir(args))
    return 0


def cmd_validate_analysis(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    b, f = cfg["beacon_period_s"], cfg["nominal_hz"]
    fmax, sigma_b = cfg["max_drift_hz"], cfg["delay_std_s"]
    OscillatorParams(nominal_hz=f, max_drift_hz=fmax)  # run's drift rule
    try:
        grid = [float(m) for m in cfg["mu_grid"].split(",")]
    except ValueError:
        raise ConfigError(f"bad --mu-grid {cfg['mu_grid']!r}")
    if not all(math.isfinite(m) for m in grid):
        raise ConfigError("--mu-grid must be finite")
    _check_distinct("--mu-grid entry", grid)
    rate_offset = cfg["initial_rate_offset"]
    n_runs, n_steps, tail = cfg["oracle_runs"], cfg["oracle_steps"], cfg["tail"]
    if tail >= n_steps:
        raise ConfigError("--tail must be smaller than --oracle-steps")
    seeds = _parse_seeds(cfg["seed"])
    if len(seeds) != 1:
        raise ConfigError(f"validate-analysis takes one seed, got {cfg['seed']!r}")
    base_seed = seeds[0]
    initial_rate = (1.0 + rate_offset) / f
    out = _out_dir(args)

    rows = []
    failed = False
    for idx, mu in enumerate(grid):
        p = analysis.MomentParams.from_delay_std(
            sigma_b, beacon_period_s=b, nominal_hz=f, max_drift_hz=fmax, step_size=mu,
        )
        model = analysis.MeanStateModel(b, f, mu)
        row = {
            "mu": mu, "B": b, "f_hat": f, "f_max": fmax, "sigma_beta": sigma_b,
            "predicted_var": None, "empirical_var": None, "rel_err": None,
            "note": "", "worst_sigma": None, "final_sigma": None,
        }
        if not analysis.is_mean_convergent(model):
            row["note"] = ("marginal by design (|1 - mu| = 1)" if abs(1.0 - mu) == 1.0
                           else "divergent by design")
            rows.append(row)
            continue
        trace = analysis.pairwise_oracle(
            p, seed=base_seed + 7919 * idx, n_steps=n_steps, n_runs=n_runs,
            initial_rate=initial_rate,
        )
        # Pass/fail gates on the final-round ensemble means (one
        # two-component comparison, so 4 sigma is a clean threshold);
        # the max over every round is reported for context but would
        # false-alarm a few percent of the time at the same threshold.
        gate = analysis.final_step_sigma(trace, model, (0.0, initial_rate))
        row["worst_sigma"] = analysis.mean_agreement_max_sigma(
            trace, model, (0.0, initial_rate)
        )
        row["final_sigma"] = gate
        if gate > 4.0:
            row["note"] = "MEAN CHECK FAILED"
            failed = True
        ss = analysis.steady_state_stats(trace, tail)
        try:
            row["predicted_var"] = analysis.asymptotic_error_variance(p)
            row["empirical_var"] = ss["mean_e2"]
            row["rel_err"] = abs(row["predicted_var"] - row["empirical_var"]) / row[
                "empirical_var"
            ]
        except analysis.NonconvergentMomentError:
            row["note"] = (row["note"] + "; " if row["note"] else "") + "moment nonconvergent"
        row["_variants"] = analysis.variant_moment_predictions(p)
        rows.append(row)

    resolved = {
        "B": b, "f_hat": f, "f_max": fmax, "sigma_beta": sigma_b,
        "mu_grid": grid, "oracle_runs": n_runs, "oracle_steps": n_steps,
        "tail": tail, "seed": base_seed,
        "initial_rate_offset": rate_offset,
    }
    _write_csv(out / "analysis.csv", resolved, ANALYSIS_COLUMNS, rows)

    print(f"{'mu':>6}{'final sigma':>13}{'max sigma':>11}{'predicted_var':>16}"
          f"{'empirical_var':>16}{'rel_err':>10}  note")
    for r in rows:
        fs = _cell(r["final_sigma"], ".2f")
        ws = _cell(r["worst_sigma"], ".2f")
        pv = _cell(r["predicted_var"], ".4e")
        ev = _cell(r["empirical_var"], ".4e")
        re_ = _cell(r["rel_err"], ".2%")
        print(f"{r['mu']:>6}{fs:>13}{ws:>11}{pv:>16}{ev:>16}{re_:>10}  {r['note']}")
        variants = r.get("_variants")
        if variants and r["empirical_var"]:
            for name, pred in variants.items():
                v = pred["var_e"]
                if v != v:  # NaN: no finite fixed point
                    print(f"       variant {name}: no finite prediction")
                else:
                    dis = abs(v - r["empirical_var"]) / r["empirical_var"]
                    print(
                        f"       variant {name}: var {v:.4e} "
                        f"disagrees with oracle by {dis:.0%}"
                    )
    print(f"wrote analysis.csv to {out}")
    if failed:
        print("mean-recursion check FAILED (> 4 standard errors)", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    param = args.param
    if param not in SWEEPS:
        choices = ", ".join(sorted(SWEEPS))
        raise ConfigError(f"unknown sweep parameter {param!r}; choose from {choices}")
    setting = SWEEPS[param]
    cfg = _resolve(args, setting)
    raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
    try:
        values = [int(v) if param == "nodes" else setting.type(v) for v in raw_values]
    except ValueError:
        raise ConfigError(f"bad --values {args.values!r}")
    _check_distinct("sweep value", values)
    # one resolved config per value, each checked before any run
    plans = [
        _plan({**cfg, setting.key: _parse(setting, f"line:{v}" if param == "nodes" else v)})
        for v in values
    ]
    out = _out_dir(args)

    agg_rows = []
    for raw, value, (jobs, resolved) in zip(raw_values, values, plans):
        sub_dir = out / f"{param.replace('-', '_')}_{raw}"
        sub_dir.mkdir(parents=True, exist_ok=True)
        rows = _run_jobs(jobs, resolved, sub_dir)
        for proto in sorted({r["protocol"] for r in rows}):
            runs = [r for r in rows if r["protocol"] == proto]
            conv = [c for r in runs if (c := r["convergence_time_s"]) is not None]
            err = [e for r in runs if (e := r["steady_state_max_global_err_s"]) is not None]
            agg_rows.append({
                "param": param, "value": value, "protocol": proto,
                "n_runs": len(runs), "n_converged": len(conv),
                "median_convergence_time_s": statistics.median(conv) if conv else None,
                "median_steady_state_max_global_err_s": statistics.median(err) if err else None,
            })

    resolved = {**cfg, "sweep_param": param, "sweep_values": values}
    _write_csv(out / "sweep.csv", resolved, SWEEP_COLUMNS, agg_rows)
    print(f"{'value':>10}{'protocol':>12}{'conv_time_s':>14}{'steady_err_us':>15}")
    for r in agg_rows:
        conv = _cell(r["median_convergence_time_s"], ".1f")
        err = _cell(r["median_steady_state_max_global_err_s"], ".1f", 1e6)
        print(f"{r['value']!r:>10}{r['protocol']:>12}{conv:>14}{err:>15}")
    print(f"wrote sweep.csv to {out}")
    return 0


def _shown(value) -> str:
    """A default as --help shows it."""
    if value is None or isinstance(value, bool):
        return {None: "unset", False: "off", True: "on"}[value]
    return format(value, "g") if isinstance(value, float) else str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsnsync",
        description="Clock synchronization protocols: simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "run": (cmd_run, "simulate protocol runs"),
        "sweep": (cmd_sweep, "run over a grid of one parameter"),
        "validate-analysis": (
            cmd_validate_analysis, "compare closed forms against the Monte Carlo oracle",
        ),
    }
    for command, (func, summary) in commands.items():
        p = sub.add_parser(command, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON file of setting overrides, keyed like "
                                        "the output headers; values need the setting's type")
        p.add_argument("--out-dir", help="output directory ($WSNSYNC_OUT_DIR, ./out)")
        for s in SETTINGS:
            if command not in s.commands:
                continue
            kind = ({"action": "store_const", "const": True} if s.type is bool
                    else {"type": s.type})
            p.add_argument(f"--{s.flag}", dest=s.key, **kind,
                           help=f"{s.help} (default {_shown(s.default_for(command))})")
        if command == "sweep":
            p.add_argument("--param", required=True, help=" | ".join(SWEEPS))
            p.add_argument("--values", required=True, help="comma list of distinct values")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
