"""The output transaction of `run` and `sweep`, and the one writer of table files.

``run_and_commit`` takes the planned output directories, each with its run
and resolved config (cli._plan), and names each directory's files once: a
trace_<protocol>_<seed>.csv per run, seed by seed, then summary.csv. That
one list drives the whole transaction:

- before any run, a listed path or its ``.partial`` name that exists and
  is not a regular file is refused, and then every directory is made;
- a job stages its seeds' traces under their ``.partial`` names;
- once every job of a directory has returned, in plan order, its
  summary.csv is staged, every staged file is renamed into place, and the
  directory's trace_*.csv files that are not on its list are named in a
  warning and kept;
- on any failure or interrupt, every ``.partial`` name on the list of a
  directory not yet committed is unlinked, and such a directory is removed
  if this call made it and it is empty.

``write_table`` stages summary.csv, and writes sweep.csv and analysis.csv
the same way: under the ``.partial`` name, renamed into place once whole,
so a failed write leaves an earlier table as it was and no ``.partial``
name behind. Their callers refuse a path in the way (``refuse_non_files``)
before any run or oracle.

concurrent.futures is imported only when a pool starts.
"""
from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import sys
from pathlib import Path

from . import metrics
from .simulation import record_schedule, run_simulation, write_csv_preamble

SUMMARY_COLUMNS = (
    "protocol", "seed", *(f.name for f in dataclasses.fields(metrics.TraceSummary))
)
# About how many jobs a job list holds. pool.map submits every job at once,
# and the main process holds a future and a work item per job, about 2 KB,
# until its rows are taken. Up to this many seeds a job is one seed; beyond
# it, a run of consecutive seeds of one directory, so that the futures stop
# growing with the seeds, a failure waits for at most one run per other
# worker, and a failing run never takes an earlier directory's rows with it.
MAX_JOBS = 1000


def _csv_field(value) -> str:
    """Empty for None, shortest round-trip repr for floats, str otherwise."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # float() drops numpy's repr wrapper
    return str(value)


def write_table(paths: list[Path], cfg: dict, columns: tuple[str, ...], rows: list[dict]) -> None:
    """Write the table file ``paths[-1]`` (summary.csv, sweep.csv or
    analysis.csv), with ``cfg`` as its config header, under its ``.partial``
    name, then rename the ``.partial`` name of every path into place, in
    order. On any failure the table's ``.partial`` name is unlinked, so an
    earlier table stays as it was."""
    try:
        with open(_staged(paths[-1]), "w", newline="\n") as fh:
            write_csv_preamble(fh, cfg, columns)
            for r in rows:
                fh.write(",".join(_csv_field(r[c]) for c in columns) + "\n")
        for path in paths:
            _staged(path).replace(path)
    except BaseException:
        _staged(paths[-1]).unlink(missing_ok=True)
        raise


def make_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {path}: {exc}")
    return path


def refuse_non_files(paths) -> None:
    """ValueError naming the first of ``paths``, each followed by its
    ``.partial`` name, that exists and is not a regular file, such as a
    directory, which no write or rename can replace."""
    for path in paths:
        for p in (path, _staged(path)):
            if p.exists() and not p.is_file():
                raise ValueError(f"cannot write {p}: it is not a regular file")


def _staged(path: Path) -> Path:
    """Where ``path`` is written until every run of its directory has succeeded."""
    return path.with_name(path.name + ".partial")


def _seed_job(job: tuple) -> list[dict]:
    """Run one directory's run at consecutive seeds end to end, each seed
    with its planned trace paths, one per protocol; stage each trace and
    return only the summary rows, one per protocol, seed by seed; in
    process or in a worker.

    A seed's protocols share one event pass (record_schedule), which
    returns their traces; each is written and summarized in turn.
    """
    (sim_kwargs, params_seq, threshold_s, window), seeds = job
    rows = []
    for seed, paths in seeds:
        schedule = record_schedule(params_seq=params_seq, seed=seed, **sim_kwargs)
        for params, path in zip(params_seq, paths):
            trace = run_simulation(sim_kwargs["topology"], params, schedule=schedule)
            with open(_staged(path), "w", newline="\n") as fh:
                trace.write_csv(fh)  # embeds its own resolved-config header
            summ = metrics.summarize(trace.sample_times_s, trace.logical_s, threshold_s, window,
                                     start_after=trace.boot_complete_time)
            rows.append({"protocol": params.kind.value, "seed": seed, **dataclasses.asdict(summ)})
    return rows


def run_and_commit(plans: list[tuple[Path, tuple, dict]], workers: int,
                   committed) -> list[list[dict]]:
    """Run every planned (output directory, run, resolved config) as one
    job list and commit the directories in order, as the module docstring
    says; call ``committed(directory, rows, resolved)`` after each commit,
    and return each directory's summary rows, protocol by protocol, then
    seed by seed.

    A job runs one seed; past MAX_JOBS seeds in all, it runs up to
    ceil(seeds / MAX_JOBS) consecutive seeds of one directory. With more
    than one worker, one pool of at most ``workers`` runs the whole list,
    and each worker sends back only summary rows; the jobs cap the workers,
    so a one-job list starts no pool. On any failure the queued jobs are
    dropped and the running ones waited for before the cleanup.
    """
    size = math.ceil(sum(len(resolved["seeds"]) for *_, resolved in plans) / MAX_JOBS)
    dirs = []
    for out, run, resolved in plans:
        seeds = [(s, [out / f"trace_{p}_{s}.csv" for p in resolved["protocols"]])
                 for s in resolved["seeds"]]
        paths = [*(path for _, seed_paths in seeds for path in seed_paths), out / "summary.csv"]
        dirs.append((out, paths, [(run, seeds[i:i + size]) for i in range(0, len(seeds), size)],
                     resolved))
    refuse_non_files(p for _, paths, *_ in dirs for p in paths)
    todo = [job for _, _, dir_jobs, _ in dirs for job in dir_jobs]
    workers = min(workers, len(todo), os.cpu_count() or 1)
    created = [out for out, *_ in dirs if not out.exists()]
    made: list[Path] = []
    results: list[list[dict]] = []
    try:
        with contextlib.ExitStack() as stack:
            for out, *_ in dirs:
                made.append(make_dir(out))
            job_rows = map(_seed_job, todo)
            if workers > 1:
                import concurrent.futures

                pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
                # on a failure too, before the cleanup below: queued jobs are
                # dropped, and running ones finish writing their staged files
                stack.callback(pool.shutdown, cancel_futures=True)
                job_rows = pool.map(_seed_job, todo)
            for out, paths, dir_jobs, resolved in dirs:
                rows = [row for _ in dir_jobs for row in next(job_rows)]
                # stable: within a protocol, the rows stay in seed order
                rows.sort(key=lambda r: resolved["protocols"].index(r["protocol"]))
                write_table(paths, resolved, SUMMARY_COLUMNS, rows)
                results.append(rows)
                stale = sorted(p.name for p in set(out.glob("trace_*.csv")).difference(paths))
                if stale:  # left in place: never delete what this run did not write
                    print(f"warning: {out} also holds trace files this run did not write: "
                          f"{', '.join(stale)}", file=sys.stderr)
                committed(out, rows, resolved)
        return results
    except BaseException:  # interrupts too: leave no staged file behind
        for out, paths, *_ in dirs[len(results):len(made)]:
            for path in paths:
                _staged(path).unlink(missing_ok=True)
            if out in created:
                with contextlib.suppress(OSError):  # only an empty directory goes
                    out.rmdir()
        raise
