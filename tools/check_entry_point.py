"""Check the `wsnsync` command as README's examples use it: help, runs,
sweeps, byte-identical reruns across --jobs, failed runs that leave no
partial output, a directory in the way of a rerun's trace or of
analysis.csv, and every refusal of tests/refusals.jsonl.

    python3 tools/check_entry_point.py                    # the installed script
    PYTHONPATH=src WSNSYNC="python3 -m wsnsync.cli" python3 tools/check_entry_point.py

$WSNSYNC is the command, split as a shell splits it (default `wsnsync`).
Every step runs, each in its own temporary directory; the script prints
one line per step and exits 1 if any failed. Standard library only.
"""
from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

COMMAND = shlex.split(os.environ.get("WSNSYNC", "wsnsync"))
# absolute, so that PYTHONPATH=src holds in a step's own working directory too
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p)}
TABLE = Path(__file__).resolve().parents[1] / "tests" / "refusals.jsonl"
STEPS = []


class Failed(Exception):
    pass


def refusals() -> list[dict]:
    """The rows of TABLE, a JSON object a line: the "argv"; the exact
    "stderr", or null; the "stage" at which the command refuses it, "before"
    any pass, oracle or output directory, "after-kernel" (after a pass or an
    oracle, before the output directory) or "midway" (its --out-dir made,
    then removed); and, where the tier-1 test case that runs the row is not
    test_refused[<argv>], that case's name as "test"."""
    return [json.loads(line) for line in TABLE.read_text().splitlines()]


def faults(row: dict, rc: int | None, stdout: str, stderr: str, left: bool) -> list[str]:
    """What a refused row did wrong: it must exit 2, leave no --out-dir,
    print nothing to stdout, one `error: ` line and no traceback to stderr,
    and exactly the row's stderr where it gives one."""
    found = []
    if rc != 2:
        found.append(f"exit {rc}")
    if left:
        found.append("left its --out-dir")
    if stdout:
        found.append("printed to stdout")
    if sum(line.startswith("error: ") for line in stderr.splitlines()) != 1:
        found.append("not one error line")
    if "Traceback" in stderr:
        found.append("a traceback")
    if row["stderr"] is not None and stderr != row["stderr"] + "\n":
        found.append(f"stderr {stderr!r}")
    return found


def wsnsync(*args: str, cwd: Path | None = None, rc: int = 0) -> subprocess.CompletedProcess:
    """The command on ``args``, which must exit ``rc``."""
    proc = subprocess.run([*COMMAND, *args], cwd=cwd, env=ENV, capture_output=True, text=True)
    if proc.returncode != rc:
        raise Failed(f"{' '.join(args)} exited {proc.returncode}, not {rc}: {proc.stderr}")
    return proc


def files(root: Path) -> dict[str, bytes]:
    """Each file under ``root`` by its relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def same_but_headers(one: Path, two: Path) -> None:
    """The same files with the same bytes, bar the first line of each
    non-trace CSV, whose resolved config records --jobs."""
    a, b = files(one), files(two)
    if list(a) != list(b):
        raise Failed(f"{one} holds {list(a)}, {two} {list(b)}")
    for name in a:
        if name.rpartition("/")[2].startswith("trace_"):
            differ = a[name] != b[name]
        else:
            differ = a[name].split(b"\n", 1)[1] != b[name].split(b"\n", 1)[1]
        if differ:
            raise Failed(f"{name} differs between {one} and {two}")


def step(fn):
    STEPS.append(fn)
    return fn


for _command in ("run", "sweep", "validate-analysis"):
    _help = step(lambda tmp, command=_command: wsnsync(command, "--help"))
    _help.__name__ = f"{_command} --help"


@step
def a_run(tmp: Path) -> None:
    # the default 300 s boot window must end before the run does
    wsnsync("run", "--topology", "line:3", "--duration", "300", "--boot-window", "60",
            "--out-dir", str(tmp / "out"))


@step
def a_sweep(tmp: Path) -> None:
    # per-value runs and the aggregated medians
    wsnsync("sweep", "--param", "mu", "--values", "0.5,1.0", "--topology", "line:3",
            "--duration", "300", "--boot-window", "60", "--out-dir", str(tmp / "out"))


@step
def validate_analysis_twice(tmp: Path) -> None:
    # the step sizes' oracles run on threads, and stdout and analysis.csv
    # must come out the same bytes each time. 65000 runs span two blocks and
    # seven slices of the kernel, the last of each short
    outputs = []
    for run in "ab":
        (tmp / run).mkdir()
        proc = wsnsync("validate-analysis", "--oracle-runs", "65000", "--oracle-steps", "40",
                       "--tail", "20", "--out-dir", "out", cwd=tmp / run)
        outputs.append((proc.stdout, (tmp / run / "out" / "analysis.csv").read_bytes()))
    if outputs[0] != outputs[1]:
        raise Failed("two runs wrote different stdout or analysis.csv")


@step
def same_bytes(tmp: Path) -> None:
    # a seed is one job: its protocols share one event pass, and its traces
    # are written where the job runs, in process or in a worker; with --jobs
    # 2 and three seeds, one worker takes two seeds, past 1,000 seeds
    # (outputs.MAX_JOBS) a job runs several, here three of 2,500 cheap ones, and
    # with one seed --jobs 4 is capped at one worker, in process
    for seeds, jobs, flags in (
        ("1..3", ("1", "2"), ()),
        ("1..2500", ("1", "2"), ("--topology", "line:2", "--duration", "1", "--boot-window", "0",
                                 "--sample-interval", "1")),
        ("1", ("1", "4"), ()),
    ):
        for j in jobs:
            wsnsync("run", "--protocol", "newton,grades,avgpisync", "--topology", "line:8",
                    "--seed", seeds, "--duration", "3000", "--boot-window", "60", "--jobs", j,
                    *flags, "--out-dir", str(tmp / f"{seeds}-{j}"))
        same_but_headers(*(tmp / f"{seeds}-{j}" for j in jobs))


@step
def a_read_within_the_boot_tick(tmp: Path) -> None:
    # with no boot window, delay or gather wait, a node's first quantized
    # reading falls within its boot tick, below its unquantized initial
    # count, and must still run
    wsnsync("run", "--topology", "line:3", "--quantize-ticks", "--boot-window", "0",
            "--delay-std", "0", "--gather-wait", "0", "--duration", "150",
            "--out-dir", str(tmp / "out"))


@step
def same_sweep(tmp: Path) -> None:
    # a sweep's values share one job list, so with one seed per value the
    # two workers take a value each
    for seeds in ("1..2", "1"):
        for j in ("1", "2"):
            wsnsync("sweep", "--param", "mu", "--values", "0.5,1.0", "--topology", "line:4",
                    "--seed", seeds, "--duration", "600", "--boot-window", "60", "--jobs", j,
                    "--out-dir", str(tmp / f"{seeds}-{j}"))
        same_but_headers(tmp / f"{seeds}-1", tmp / f"{seeds}-2")


# grades at mu 1 leaves float range by 600 s at seed 1, so mu 1 fails at
# its second seed while the other worker runs seeds under --jobs 2
_FAILING_SWEEP = ("sweep", "--param", "mu", "--protocol", "grades", "--e-max-ticks", "1e300",
                  "--topology", "line:3", "--boot-window", "60", "--duration", "600",
                  "--seed", "2,1", "--jobs", "2")


@step
def a_failed_sweep_keeps_the_earlier_value(tmp: Path) -> None:
    wsnsync(*_FAILING_SWEEP, "--values", "0.5,1", "--out-dir", str(tmp / "out"), rc=2)
    kept = sorted(p.relative_to(tmp / "out").as_posix() for p in (tmp / "out").rglob("*"))
    if kept != ["mu_0.5", "mu_0.5/summary.csv", "mu_0.5/trace_grades_1.csv",
                "mu_0.5/trace_grades_2.csv"]:
        raise Failed(f"the failed sweep left {kept}")


@step
def a_sweep_failing_first_keeps_nothing(tmp: Path) -> None:
    # the files that workers staged for the later value go too, and so does
    # every value directory
    wsnsync(*_FAILING_SWEEP, "--values", "1,0.5", "--out-dir", str(tmp / "out"), rc=2)
    if not (tmp / "out").is_dir() or list((tmp / "out").iterdir()):
        raise Failed("the failed sweep's --out-dir is missing or not empty")


@step
def a_failed_rerun_keeps_the_earlier_files(tmp: Path) -> None:
    run = ("run", "--protocol", "newton,grades", "--topology", "line:3", "--boot-window", "60",
           "--out-dir", str(tmp))
    wsnsync(*run)
    before = files(tmp)
    wsnsync(*run, "--mu", "1", "--e-max-ticks", "1e300", rc=2)
    if not before or files(tmp) != before:
        raise Failed("the failed rerun changed the earlier run's files")


@step
def a_directory_in_the_way_is_refused_before_any_run(tmp: Path) -> None:
    # a directory where a rerun's trace goes, or where analysis.csv goes:
    # refused before any run or oracle, with one error line and nothing on
    # stdout (validate-analysis prints its table only after the oracles),
    # and the earlier files stay as they were
    run = ("run", "--topology", "line:3", "--duration", "300", "--boot-window", "60",
           "--seed", "1..2", "--out-dir", str(tmp / "run"))
    wsnsync(*run)
    (tmp / "analysis").mkdir()
    for in_the_way, argv in ((tmp / "run" / "trace_newton_2.csv", (*run, "--mu", "0.5")),
                             (tmp / "analysis" / "analysis.csv",
                              ("validate-analysis", "--out-dir", str(tmp / "analysis")))):
        in_the_way.unlink(missing_ok=True)
        in_the_way.mkdir()
        before = files(tmp)
        proc = wsnsync(*argv, rc=2)
        err = proc.stderr
        if sum(line.startswith("error: ") for line in err.splitlines()) != 1 or "Traceback" in err:
            raise Failed(f"{argv[0]}: not one error line: {err!r}")
        if proc.stdout:
            raise Failed(f"{argv[0]}: printed to stdout: {proc.stdout!r}")
        if files(tmp) != before or not in_the_way.is_dir():
            raise Failed(f"{argv[0]}: the refused command changed the out-dir")


@step
def a_rerun_names_a_stale_trace(tmp: Path) -> None:
    # a rerun with fewer seeds names the earlier run's extra trace in a
    # warning and leaves that file in place
    run = ("run", "--topology", "line:3", "--duration", "300", "--boot-window", "60",
           "--out-dir", str(tmp))
    wsnsync(*run, "--seed", "1..3")
    err = wsnsync(*run, "--seed", "1..2").stderr
    if not re.search(r"^warning: .*trace_newton_3\.csv", err, re.M):
        raise Failed(f"no warning names trace_newton_3.csv: {err!r}")
    if not (tmp / "trace_newton_3.csv").is_file():
        raise Failed("trace_newton_3.csv went")


@step
def every_refusal(tmp: Path) -> None:
    # each row within 20 s; faults() says what a refusal must do
    failed = 0
    for n, row in enumerate(refusals()):
        out = tmp / str(n)
        try:
            proc = subprocess.run([*COMMAND, *row["argv"], "--out-dir", str(out)], env=ENV,
                                  capture_output=True, text=True, timeout=20)
            found = faults(row, proc.returncode, proc.stdout, proc.stderr, out.exists())
        except subprocess.TimeoutExpired:
            found = ["ran past 20 s"]
        if found:
            failed += 1
            print(f"  refused {shlex.join(row['argv'])}: {'; '.join(found)}")
    if failed:
        raise Failed(f"{failed} rows")


def main() -> int:
    failed = 0
    for fn in STEPS:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                fn(Path(tmp))
                print(f"ok      {fn.__name__}")
            except Failed as exc:
                failed += 1
                print(f"FAILED  {fn.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
