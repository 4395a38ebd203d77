"""Command line front end.

Subcommands:
  run                simulate one or more (protocol, seed) pairs and write
                     per-run trace CSVs plus a summary CSV
  sweep              repeat `run` over a grid of one parameter and aggregate
  validate-analysis  run analysis.validate_grid (the closed forms against the
                     Monte Carlo oracle), print its rows, write analysis.csv

Every setting is one row of SETTINGS: its config key, type, default,
minimum and help; its flag is the key without a trailing "_s", with "-"
for "_". A default that the library declares too (ProtocolParams,
run_config, metrics.summarize) is read from it; the others are declared
here alone. The library owns the range of every setting it takes, and its
refusal of one starts "<name> must"; main alone names the setting's flag
in it. Precedence: command line flag, then JSON config file
(--config), then the command's default. Output files embed the fully
resolved configuration as a `# config = {...}` comment header and contain
no timestamps, so identical invocations produce byte-identical files. The
default output directory comes from $WSNSYNC_OUT_DIR, falling back to
./out.

`run` and `sweep` hand their planned output directories to
outputs.run_and_commit, the output transaction, and print each
directory's table once it is committed; sweep.csv and analysis.csv go
through outputs.write_table, each refused before any run or oracle where
a path in the way would stop its write. analysis is imported where it is
used, and outputs imports concurrent.futures only when a pool starts, so
importing this module, or running `run` with one worker, loads neither.
"""
from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import os
import sys
from pathlib import Path

from . import metrics, outputs
from .protocols import (
    WORST_CASE_DRIFT_HZ, Protocol, ProtocolParams, step_size_bound, ticks_per_round,
)
from .simulation import Topology, build_line_topology, run_config

_RUN = ("run", "sweep")
_ALL = ("run", "sweep", "validate-analysis")
_VALIDATE = ("validate-analysis",)
_TYPE_NAMES = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}
# Seeds per invocation, over all of a sweep's values. summary.csv's header
# lists every seed (0.69 MB at 10^5), and the cheapest run (line:2 over 1 s)
# takes about 1.1 ms a seed, so 10^5 is about two minutes of the cheapest
# runs; a list of 10^9 would take 40 GB.
MAX_SEEDS = 10**5


def _default(func, name: str):
    """The default that ``func`` declares for its parameter ``name``."""
    return inspect.signature(func).parameters[name].default


@dataclasses.dataclass(frozen=True)
class Setting:
    """One setting: config key (also the argparse dest), type (float, int,
    bool or str), default, minimum (an integer setting that only the CLI
    checks), help text, the commands that take it, its `sweep --param` name
    and the name the library's refusals give it where that differs from the
    key. A --config file may set exactly the settings that `run` takes."""

    key: str
    type: type
    default: object
    minimum: int | None
    help: str
    commands: tuple[str, ...] = _RUN
    sweep: str | None = None
    command_defaults: dict = dataclasses.field(default_factory=dict)
    alias: str | None = None

    @property
    def flag(self) -> str:
        """The key without a trailing "_s", "_" read as "-"."""
        return self.key.removesuffix("_s").replace("_", "-")

    def default_for(self, command: str):
        return self.command_defaults.get(command, self.default)


SETTINGS = (
    Setting("seed", str, "1", None,
            "seed spec: N, N,M,... or A..B (validate-analysis takes one seed)", _ALL),
    Setting("beacon_period_s", float, ProtocolParams.beacon_period_s, None,
            "seconds between sync rounds", _ALL, "beacon-period"),
    Setting("nominal_hz", float, ProtocolParams.nominal_hz, None,
            "nominal oscillator frequency in Hz", _ALL),
    # The closed-form model's canonical parameter set uses the worst-case
    # drift bound; the experiment default models deployed crystals.
    Setting("max_drift_hz", float, 25.0, None, "oscillator drift bound in Hz", _ALL, "max-drift",
            command_defaults={"validate-analysis": WORST_CASE_DRIFT_HZ}),
    Setting("delay_std_s", float, _default(run_config, "delay_std_s"),
            None, "message delay standard deviation, seconds", _ALL, "delay-std", alias="std_s"),
    Setting("protocol", str, "newton", None, "comma list: newton,grades,avgpisync"),
    # `sweep --param nodes` sets the topology to line:N
    Setting("topology", str, "line:16", None, "line:N or JSON topology file", sweep="nodes"),
    Setting("mu", float, None, None,
            "step size for all protocols; unset, each protocol uses its own", sweep="mu",
            alias="step_size"),
    Setting("e_max_ticks", float, ProtocolParams.max_error_s * ProtocolParams.nominal_hz, None,
            "rate-update guard threshold in ticks"),
    Setting("gather_wait_s", float, ProtocolParams.gather_wait_s,
            None, "seconds between requests and averaging"),
    Setting("drift_resample_interval_s", float, 3600.0,
            None, "constant-drift segment length, seconds", alias="resample_interval_s"),
    Setting("duration_s", float, _default(run_config, "duration_s"), None, "simulated seconds"),
    Setting("sample_interval_s", float, _default(run_config, "sample_interval_s"), None,
            "trace sampling period, seconds"),
    Setting("boot_window_s", float, _default(run_config, "boot_window_s"),
            None, "nodes boot uniformly in [0, window) seconds"),
    Setting("threshold_ticks", float, 1000.0, None, "convergence threshold in ticks"),
    Setting("window", int, _default(metrics.summarize, "window"), 1,
            "consecutive samples below threshold"),
    Setting("quantize_ticks", bool, _default(run_config, "quantize_ticks"),
            None, "floor hardware tick readings to integers"),
    Setting("jobs", int, 1, 1, "parallel workers"),
    Setting("mu_grid", str, "0.25,0.5,1.0,1.5,2.2", None,
            "comma list of step sizes; 2.2 diverges by design", _VALIDATE, alias="step_size"),
    Setting("oracle_runs", int, 20000, None, "Monte Carlo runs per step size", _VALIDATE,
            alias="n_runs"),
    Setting("oracle_steps", int, 300, None, "rounds per oracle run", _VALIDATE, alias="n_steps"),
    Setting("tail", int, 100, None,
            "steady-state averaging window in rounds, below oracle-steps", _VALIDATE),
    Setting("initial_rate_offset", float, 0.05, None,
            "relative initial rate error fed to the oracle", _VALIDATE),
)
CONFIG_KEYS = frozenset(s.key for s in SETTINGS if "run" in s.commands)
SWEEPS = {s.sweep: s for s in SETTINGS if s.sweep}

SWEEP_COLUMNS = ("param", "value", "protocol", "n_runs", "n_converged",
                 "median_convergence_time_s", "median_steady_state_max_global_err_s")
ANALYSIS_COLUMNS = ("mu", "B", "f_hat", "f_max", "sigma_beta", "predicted_var",
                    "empirical_var", "rel_err")


def _parse_list(flag: str, what: str, spec: str, convert) -> dict:
    """Comma list ``spec`` as {converted entry: its text}, in order, skipping
    empty entries. ValueError naming ``flag`` (and ``what``, one entry) if
    none is left, ``convert`` raises ValueError, or two entries are equal."""
    values: dict = {}
    try:
        for text in (e.strip() for e in str(spec).split(",")):
            if text:
                value = convert(text)
                if value in values:
                    raise ValueError(f"duplicate {what}: {values[value]}")
                values[value] = text
        if not values:
            raise ValueError(f"empty {what} list")
    except ValueError as exc:
        raise ValueError(f"{flag} {spec!r}: {exc}")
    return values


def _parse_seeds(spec: str) -> list[int]:
    """'7' | '1,2,5' | '1..20' (inclusive range); nonempty, at most
    MAX_SEEDS, nonnegative, no repeats. A range is counted before it is built."""
    spec = str(spec).strip()
    if ".." not in spec:
        seeds = list(_parse_list("--seed", "seed", spec, int))
    else:
        lo, _, hi = spec.partition("..")
        try:
            seeds = range(int(lo), int(hi) + 1)
        except ValueError as exc:
            raise ValueError(f"--seed {spec!r}: {exc}")
    if not seeds:
        raise ValueError(f"--seed {spec!r}: empty seed range")
    # not len(): a range's length past sys.maxsize raises OverflowError
    count = seeds[-1] - seeds[0] + 1 if isinstance(seeds, range) else len(seeds)
    if count > MAX_SEEDS:
        raise ValueError(f"--seed {spec!r}: {count} seeds exceed the limit of {MAX_SEEDS}")
    if min(seeds) < 0:
        raise ValueError(f"--seed {spec!r}: seeds must be nonnegative")
    return list(seeds)


def _parse_topology(spec: str) -> Topology:
    """line:N, or a JSON file in Topology.to_config's format."""
    spec = str(spec).strip()
    try:
        if spec.startswith("line:"):
            return build_line_topology(int(spec[len("line:"):]))
        return Topology.from_config(json.loads(Path(spec).read_text()))
    except (OSError, ValueError) as exc:
        raise ValueError(f"bad topology {spec!r}: {exc}")


def _parse(s: Setting, value):
    """``value`` as setting ``s``: of its type (a JSON integer is a float too),
    finite and at least its minimum, else ValueError naming the setting."""
    if value is None and s.default is None:
        return None
    # exact types, since bool is an int subclass
    if type(value) is not s.type and not (s.type is float and type(value) is int):
        raise ValueError(f"{s.key} must be {_TYPE_NAMES[s.type]}, got {json.dumps(value)}")
    value = s.type(value)
    if s.type is float and not math.isfinite(value):
        raise ValueError(f"{s.key} must be finite, got {value}")
    if s.minimum is not None and value < s.minimum:
        raise ValueError(f"{s.key} must be at least {s.minimum}, got {value}")
    return value


def _resolve(args: argparse.Namespace, swept: Setting | None = None) -> dict:
    """Every config key and every setting of ``args.command``: its flag, else
    its --config file entry, else the command's default. ValueError if the
    ``swept`` setting, which a sweep sets per value, is given too."""
    loaded = {}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(loaded) - CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config file keys: {', '.join(unknown)}")
    if swept and (getattr(args, swept.key) is not None or swept.key in loaded):
        raise ValueError(f"sweep --param {swept.sweep} sets {swept.key} "
                          f"(--{swept.flag}) per value; do not give it too")
    cfg = {}
    for s in SETTINGS:
        if s.key in CONFIG_KEYS or args.command in s.commands:
            value = getattr(args, s.key, None)
            if value is None:
                value = loaded.get(s.key, s.default_for(args.command))
            cfg[s.key] = _parse(s, value)
    return cfg


def _cell(value, spec: str, scale: float = 1.0) -> str:
    """Table cell: '-' for a missing value, else value * scale formatted by spec."""
    return "-" if value is None else format(value * scale, spec)


def _out_dir(args: argparse.Namespace) -> Path:
    return Path(getattr(args, "out_dir", None) or os.environ.get("WSNSYNC_OUT_DIR") or "out")


def _plan(cfg: dict) -> tuple[tuple, dict]:
    """The run ``cfg`` asks for, as (simulation kwargs, protocol params,
    threshold in seconds, window), checked by run_config, and the summary
    header that records it, whose "seeds" are the seeds to run it at."""
    b, f = cfg["beacon_period_s"], cfg["nominal_hz"]
    ticks_per_round(b, f)  # refuses B and f before f divides below
    seconds = {key: cfg[key] / f for key in ("threshold_ticks", "e_max_ticks")}
    for key, s in seconds.items():
        if not 0 < s < math.inf:  # ticks that convert to 0 s or to inf
            raise ValueError(f"{key} must be finite and positive in seconds, "
                              f"got {cfg[key]} ticks / {f} Hz = {s} s")
    protocols = list(_parse_list("--protocol", "protocol", cfg["protocol"], Protocol.parse))
    seeds = _parse_seeds(cfg["seed"])
    # an unset mu (None) is each protocol's own default step
    params = {p: ProtocolParams(p, cfg["mu"], b, f, seconds["e_max_ticks"], cfg["gather_wait_s"])
              for p in protocols}
    # run_config's settings under their config keys; the seeds run per job
    sim_kwargs = {key: cfg[key] for key in inspect.signature(run_config).parameters
                  if key in cfg and key != "seed"}
    sim_kwargs["topology"] = _parse_topology(cfg["topology"])
    for p in protocols:
        run_config(params=params[p], **sim_kwargs)
        lo, hi = step_size_bound(p, b, f)
        if not lo < params[p].step_size < hi:
            print(f"warning: {p.value} step size {params[p].step_size} is outside "
                  f"the convergence bound ({lo}, {hi})", file=sys.stderr)
    resolved = {**cfg, "protocols": [p.value for p in protocols], "seeds": seeds,
                "per_protocol_step_size": {p.value: params[p].step_size for p in protocols}}
    return (sim_kwargs, list(params.values()), seconds["threshold_ticks"], cfg["window"]), resolved


def _show_runs(out: Path, rows: list[dict], resolved: dict) -> None:
    """Print the table of a committed directory's runs."""
    print(f"{'protocol':<12}{'seed':>6}{'mu':>14}{'conv_time_s':>14}"
          f"{'steady_err_us':>15}{'peak_err_us':>14}")
    for r in rows:
        mu = resolved["per_protocol_step_size"][r["protocol"]]
        conv = _cell(r["convergence_time_s"], ".1f")
        med = _cell(r["steady_state_max_global_err_s"], ".1f", 1e6)
        peak = _cell(r["peak_err_after_convergence_s"], ".1f", 1e6)
        print(f"{r['protocol']:<12}{r['seed']:>6}{mu:>14.3g}{conv:>14}{med:>15}{peak:>14}")
    print(f"wrote {len(rows)} trace file(s) and summary.csv to {out}")


def cmd_run(args: argparse.Namespace) -> int:
    run, resolved = _plan(_resolve(args))
    outputs.run_and_commit([(_out_dir(args), run, resolved)], resolved["jobs"], _show_runs)
    return 0


def cmd_validate_analysis(args: argparse.Namespace) -> int:
    from . import analysis

    cfg = _resolve(args)
    b, f = cfg["beacon_period_s"], cfg["nominal_hz"]
    fmax, sigma_b = cfg["max_drift_hz"], cfg["delay_std_s"]
    grid = list(_parse_list("--mu-grid", "--mu-grid entry", cfg["mu_grid"], float))
    seeds = _parse_seeds(cfg["seed"])
    if len(seeds) != 1:
        raise ValueError(f"seed must be one seed for validate-analysis, got {cfg['seed']!r}")
    outputs.refuse_non_files([_out_dir(args) / "analysis.csv"])  # before any oracle runs
    rows = analysis.validate_grid(
        [analysis.MomentParams.from_delay_std(sigma_b, beacon_period_s=b, nominal_hz=f,
                                              max_drift_hz=fmax, step_size=mu) for mu in grid],
        seed=seeds[0], n_runs=cfg["oracle_runs"], n_steps=cfg["oracle_steps"],
        tail=cfg["tail"], initial_rate_offset=cfg["initial_rate_offset"])
    out = outputs.make_dir(_out_dir(args))

    print(f"{'mu':>6}{'final sigma':>13}{'max sigma':>11}{'predicted_var':>16}"
          f"{'empirical_var':>16}{'rel_err':>10}  note")
    for r in rows:
        print(f"{r['mu']:>6}{_cell(r['final_sigma'], '.2f'):>13}"
              f"{_cell(r['worst_sigma'], '.2f'):>11}{_cell(r['predicted_var'], '.4e'):>16}"
              f"{_cell(r['empirical_var'], '.4e'):>16}{_cell(r['rel_err'], '.2%'):>10}"
              f"  {r['note']}")
        for name, pred in r["variants"].items():
            v = pred["var_e"]
            if v != v:  # NaN: no finite fixed point
                print(f"       variant {name}: no finite prediction")
            else:
                print(f"       variant {name}: var {v:.4e} disagrees with oracle by "
                      f"{pred['rel_err']:.0%}")

    constants = {"B": b, "f_hat": f, "f_max": fmax, "sigma_beta": sigma_b}
    resolved = {**constants, "mu_grid": grid, "oracle_runs": cfg["oracle_runs"],
                "oracle_steps": cfg["oracle_steps"], "tail": cfg["tail"], "seed": seeds[0],
                "initial_rate_offset": cfg["initial_rate_offset"]}
    outputs.write_table([out / "analysis.csv"], resolved, ANALYSIS_COLUMNS,
                        [{**r, **constants} for r in rows])
    print(f"wrote analysis.csv to {out}")
    if any(r["failed"] for r in rows):
        print(f"mean-recursion check FAILED (> {analysis.MEAN_GATE_SIGMA:g} standard errors)",
              file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    param = args.param
    if param not in SWEEPS:
        choices = ", ".join(sorted(SWEEPS))
        raise ValueError(f"unknown sweep parameter {param!r}; choose from {choices}")
    setting = SWEEPS[param]
    cfg = _resolve(args, setting)
    values = _parse_list("--values", "sweep value", args.values,
                         int if param == "nodes" else setting.type)
    count = len(values) * len(_parse_seeds(cfg["seed"]))
    if count > MAX_SEEDS:  # before any value is planned
        raise ValueError(f"--seed {cfg['seed']!r} x {len(values)} values: {count} seeds "
                          f"exceed the limit of {MAX_SEEDS}")
    # one resolved config per value, each checked before any run
    out = _out_dir(args)
    plans = []
    for v, raw in values.items():
        swept = _parse(setting, f"line:{v}" if param == "nodes" else v)
        plans.append((out / f"{param.replace('-', '_')}_{raw}",
                      *_plan({**cfg, setting.key: swept})))
    outputs.make_dir(out)
    outputs.refuse_non_files([out / "sweep.csv"])
    results = outputs.run_and_commit(plans, cfg["jobs"], _show_runs)

    agg_rows = []
    for value, rows in zip(values, results):
        for proto in sorted({r["protocol"] for r in rows}):
            runs = [r for r in rows if r["protocol"] == proto]
            conv = [c for r in runs if (c := r["convergence_time_s"]) is not None]
            err = [e for r in runs if (e := r["steady_state_max_global_err_s"]) is not None]
            agg_rows.append({
                "param": param, "value": value, "protocol": proto,
                "n_runs": len(runs), "n_converged": len(conv),
                "median_convergence_time_s": metrics.median(conv) if conv else None,
                "median_steady_state_max_global_err_s": metrics.median(err) if err else None,
            })

    resolved = {**cfg, "sweep_param": param, "sweep_values": list(values)}
    outputs.write_table([out / "sweep.csv"], resolved, SWEEP_COLUMNS, agg_rows)
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
    except (OSError, ValueError) as exc:
        # "<name> must ...": the key or alias of a setting of this command
        # becomes "key (--flag)"
        name, _, rule = str(exc).partition(" must ")
        flagged = {n: f"{s.key} (--{s.flag}) must {rule}" for s in SETTINGS
                   if args.command in s.commands for n in (s.key, s.alias)}
        print(f"error: {flagged.get(name, exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
