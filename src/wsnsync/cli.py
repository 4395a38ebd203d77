"""Command line front end.

Subcommands:
  run                simulate one or more (protocol, seed) pairs and write
                     per-run trace CSVs plus a summary CSV
  sweep              repeat `run` over a grid of one parameter and aggregate
  validate-analysis  check the closed-form predictions against the Monte
                     Carlo oracle and write analysis.csv

Precedence for every setting: command line flag, then JSON config file
(--config), then built-in defaults. Output files embed the fully resolved
configuration as a `# config = {...}` comment header and contain no
timestamps, so identical invocations produce byte-identical files. The
default output directory comes from $WSNSYNC_OUT_DIR, falling back to ./out.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, metrics
from .clocks import OscillatorParams
from .protocols import Protocol, ProtocolParams, default_step_size, step_size_bound
from .simulation import DelayModel, Topology, build_line_topology, run_simulation

DEFAULTS: dict = {
    "protocol": "newton",
    "seed": "1",
    "topology": "line:16",
    "beacon_period_s": 30.0,
    "nominal_hz": 1e6,
    "max_drift_hz": 25.0,
    "drift_resample_interval_s": 3600.0,
    "delay_std_s": 1e-5,
    "e_max_ticks": 6000.0,
    "gather_wait_s": 1.0,
    "mu": None,
    "duration_s": 12240.0,
    "sample_interval_s": 10.0,
    "boot_window_s": 300.0,
    "threshold_ticks": 1000.0,
    "window": 5,
    "quantize_ticks": False,
    "jobs": 1,
}
# Settings that must be finite floats (mu may also be None).
FLOAT_KEYS = ("mu", *(k for k, v in DEFAULTS.items() if isinstance(v, float)))

SUMMARY_COLUMNS = (
    "protocol",
    "seed",
    "convergence_time_s",
    "steady_state_max_global_err_s",
    "peak_err_after_convergence_s",
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


def _resolve(args: argparse.Namespace, command_defaults: dict | None = None) -> dict:
    cfg = dict(DEFAULTS)
    if command_defaults:
        cfg.update(command_defaults)
    if getattr(args, "config", None):
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}")
        unknown = sorted(set(loaded) - set(DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown config file keys: {', '.join(unknown)}")
        cfg.update(loaded)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key in FLOAT_KEYS:
        if cfg[key] is not None and not math.isfinite(float(cfg[key])):
            raise ConfigError(f"{key} must be finite, got {cfg[key]}")
    for key in (
        "beacon_period_s", "nominal_hz", "drift_resample_interval_s",
        "duration_s", "sample_interval_s", "e_max_ticks", "threshold_ticks",
    ):
        if not float(cfg[key]) > 0:
            raise ConfigError(f"{key} must be positive, got {cfg[key]}")
    if float(cfg["max_drift_hz"]) < 0 or float(cfg["delay_std_s"]) < 0:
        raise ConfigError("max_drift_hz and delay_std_s must be nonnegative")
    if int(cfg["window"]) < 1:
        raise ConfigError("window must be >= 1")
    if int(cfg["jobs"]) < 1:
        raise ConfigError("jobs must be >= 1")
    return cfg


def _protocol_params(cfg: dict, kind: Protocol) -> ProtocolParams:
    b = float(cfg["beacon_period_s"])
    f = float(cfg["nominal_hz"])
    mu = cfg["mu"]
    step = float(mu) if mu is not None else default_step_size(kind, b, f)
    return ProtocolParams(
        kind=kind,
        step_size=step,
        beacon_period_s=b,
        nominal_hz=f,
        max_error_s=float(cfg["e_max_ticks"]) / f,
        gather_wait_s=float(cfg["gather_wait_s"]),
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


def cmd_run(args: argparse.Namespace, out_dir: Path | None = None) -> tuple[int, list[dict]]:
    cfg = _resolve(args)
    protocols = [Protocol.parse(p) for p in str(cfg["protocol"]).split(",")]
    _check_distinct("protocol", [p.value for p in protocols])
    seeds = _parse_seeds(cfg["seed"])
    params = {p: _protocol_params(cfg, p) for p in protocols}
    sim_kwargs = {
        "topology": _parse_topology(cfg["topology"]),
        "osc_params": OscillatorParams(
            nominal_hz=float(cfg["nominal_hz"]),
            max_drift_hz=float(cfg["max_drift_hz"]),
            resample_interval_s=float(cfg["drift_resample_interval_s"]),
            quantize_ticks=bool(cfg["quantize_ticks"]),
        ),
        "delay_model": DelayModel(std_s=float(cfg["delay_std_s"])),
        "duration_s": float(cfg["duration_s"]),
        "sample_interval_s": float(cfg["sample_interval_s"]),
        "boot_window_s": float(cfg["boot_window_s"]),
    }
    out = out_dir if out_dir is not None else _out_dir(args)

    resolved = dict(cfg)
    resolved["protocols"] = [p.value for p in protocols]
    resolved["seeds"] = seeds
    resolved["per_protocol_step_size"] = {p.value: params[p].step_size for p in protocols}

    for p in protocols:
        if not params[p].within_bound():
            lo, hi = step_size_bound(p, params[p].beacon_period_s, params[p].nominal_hz)
            print(
                f"warning: {p.value} step size {params[p].step_size} is outside "
                f"the convergence bound ({lo}, {hi})",
                file=sys.stderr,
            )

    jobs = [(sim_kwargs, params[p], s) for p in protocols for s in seeds]
    workers = min(int(cfg["jobs"]), len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(_run_one, jobs))
    else:
        traces = [_run_one(j) for j in jobs]

    threshold_s = float(cfg["threshold_ticks"]) / float(cfg["nominal_hz"])
    rows: list[dict] = []
    for (_, run_params, seed), trace in zip(jobs, traces):
        protocol = run_params.kind.value
        with open(out / f"trace_{protocol}_{seed}.csv", "w", newline="\n") as fh:
            trace.write_csv(fh)  # embeds its own resolved-config header
        summ = metrics.summarize(
            trace.frames,
            threshold_s,
            int(cfg["window"]),
            start_after=trace.boot_complete_time,
        )
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
    return 0, rows


def cmd_validate_analysis(args: argparse.Namespace) -> int:
    # The closed-form model's canonical parameter set uses the worst-case
    # drift bound; the experiment default (25 Hz) models deployed crystals.
    cfg = _resolve(args, command_defaults={"max_drift_hz": 100.0})
    out = _out_dir(args)
    b = float(cfg["beacon_period_s"])
    f = float(cfg["nominal_hz"])
    fmax = float(cfg["max_drift_hz"])
    sigma_b = float(cfg["delay_std_s"])
    try:
        grid = [float(m) for m in str(args.mu_grid).split(",")]
    except ValueError:
        raise ConfigError(f"bad --mu-grid {args.mu_grid!r}")
    rate_offset = float(args.initial_rate_offset)
    if not all(math.isfinite(v) for v in (*grid, rate_offset)):
        raise ConfigError("--mu-grid and --initial-rate-offset must be finite")
    n_runs = int(args.oracle_runs)
    n_steps = int(args.oracle_steps)
    tail = int(args.tail)
    if tail >= n_steps:
        raise ConfigError("--tail must be smaller than --oracle-steps")
    seeds = _parse_seeds(cfg["seed"])
    base_seed = seeds[0]
    initial_rate = (1.0 + rate_offset) / f

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
            row["note"] = "divergent by design"
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
    cfg = _resolve(args)
    out = _out_dir(args)
    param = args.param
    field = {
        "nodes": None,
        "mu": "mu",
        "delay-std": "delay_std_s",
        "max-drift": "max_drift_hz",
        "beacon-period": "beacon_period_s",
    }
    if param not in field:
        raise ConfigError(
            f"unknown sweep parameter {param!r}; choose from {', '.join(sorted(field))}"
        )
    try:
        values = [v.strip() for v in str(args.values).split(",") if v.strip()]
        parsed = [int(v) if param == "nodes" else float(v) for v in values]
    except ValueError:
        raise ConfigError(f"bad --values {args.values!r}")
    if not parsed:
        raise ConfigError("--values is empty")

    agg_rows = []
    for raw, value in zip(values, parsed):
        sub = argparse.Namespace(**vars(args))
        if param == "nodes":
            sub.topology = f"line:{value}"
        else:
            setattr(sub, field[param], value)
        sub_dir = out / f"{param.replace('-', '_')}_{raw}"
        sub_dir.mkdir(parents=True, exist_ok=True)
        _, rows = cmd_run(sub, out_dir=sub_dir)
        by_proto: dict[str, list[dict]] = {}
        for r in rows:
            by_proto.setdefault(r["protocol"], []).append(r)
        for proto in sorted(by_proto):
            runs = by_proto[proto]
            conv = [c for r in runs if (c := r["convergence_time_s"]) is not None]
            err = [e for r in runs if (e := r["steady_state_max_global_err_s"]) is not None]
            agg_rows.append(
                {
                    "param": param,
                    "value": value,
                    "protocol": proto,
                    "n_runs": len(runs),
                    "n_converged": len(conv),
                    "median_convergence_time_s": metrics._median(conv) if conv else None,
                    "median_steady_state_max_global_err_s": (
                        metrics._median(err) if err else None
                    ),
                }
            )

    resolved = dict(cfg)
    resolved["sweep_param"] = param
    resolved["sweep_values"] = parsed
    _write_csv(out / "sweep.csv", resolved, SWEEP_COLUMNS, agg_rows)
    print(f"{'value':>10}{'protocol':>12}{'conv_time_s':>14}{'steady_err_us':>15}")
    for r in agg_rows:
        conv = _cell(r["median_convergence_time_s"], ".1f")
        err = _cell(r["median_steady_state_max_global_err_s"], ".1f", 1e6)
        print(f"{r['value']!r:>10}{r['protocol']:>12}{conv:>14}{err:>15}")
    print(f"wrote sweep.csv to {out}")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with default overrides")
    sub.add_argument("--out-dir", help="output directory ($WSNSYNC_OUT_DIR, ./out)")
    sub.add_argument("--seed", help="seed spec: N, N,M,... or A..B (default 1)")
    sub.add_argument("--beacon-period", dest="beacon_period_s", type=float,
                     help="seconds between sync rounds (default 30)")
    sub.add_argument("--nominal-hz", dest="nominal_hz", type=float,
                     help="nominal oscillator frequency (default 1e6)")
    sub.add_argument("--max-drift-hz", dest="max_drift_hz", type=float,
                     help="oscillator drift bound in Hz (default 25)")
    sub.add_argument("--delay-std", dest="delay_std_s", type=float,
                     help="message delay standard deviation, seconds (default 1e-5)")


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    """Flags of `run`, which `sweep` accepts as well."""
    _add_common(sub)
    sub.add_argument("--protocol", help="comma list: newton,grades,avgpisync")
    sub.add_argument("--topology", help="line:N or JSON topology file")
    sub.add_argument("--mu", type=float,
                     help="step size for all protocols (default: per protocol)")
    sub.add_argument("--e-max-ticks", dest="e_max_ticks", type=float,
                     help="rate-update guard threshold in ticks (default 6000)")
    sub.add_argument("--gather-wait", dest="gather_wait_s", type=float,
                     help="seconds between requests and averaging (default 1)")
    sub.add_argument("--drift-resample-interval", dest="drift_resample_interval_s",
                     type=float, help="constant-drift segment length (default 3600)")
    sub.add_argument("--duration", dest="duration_s", type=float,
                     help="simulated seconds (default 12240)")
    sub.add_argument("--sample-interval", dest="sample_interval_s", type=float,
                     help="trace sampling period (default 10)")
    sub.add_argument("--boot-window", dest="boot_window_s", type=float,
                     help="nodes boot uniformly in [0, window) (default 300)")
    sub.add_argument("--threshold-ticks", dest="threshold_ticks", type=float,
                     help="convergence threshold in ticks (default 1000)")
    sub.add_argument("--window", type=int,
                     help="consecutive samples below threshold (default 5)")
    sub.add_argument("--quantize-ticks", dest="quantize_ticks",
                     action="store_const", const=True,
                     help="floor hardware tick readings to integers")
    sub.add_argument("--jobs", type=int, help="parallel workers (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsnsync",
        description="Clock synchronization protocols: simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate protocol runs")
    _add_run_flags(run_p)
    run_p.set_defaults(func=lambda a: cmd_run(a)[0])

    sweep_p = sub.add_parser("sweep", help="run over a grid of one parameter")
    _add_run_flags(sweep_p)
    sweep_p.add_argument("--param", required=True,
                         help="nodes | mu | delay-std | max-drift | beacon-period")
    sweep_p.add_argument("--values", required=True, help="comma list of values")
    sweep_p.set_defaults(func=cmd_sweep)

    val_p = sub.add_parser(
        "validate-analysis",
        help="compare closed forms against the Monte Carlo oracle",
    )
    _add_common(val_p)
    val_p.add_argument("--mu-grid", default="0.25,0.5,1.0,1.5,2.2",
                       help="comma list of step sizes (2.2 diverges by design)")
    val_p.add_argument("--oracle-runs", default=20000, type=int)
    val_p.add_argument("--oracle-steps", default=300, type=int)
    val_p.add_argument("--tail", default=100, type=int,
                       help="steady-state averaging window, in rounds")
    val_p.add_argument("--initial-rate-offset", default=0.05, type=float,
                       help="relative initial rate error fed to the oracle")
    val_p.set_defaults(func=cmd_validate_analysis)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
