"""Run one wsnsync CLI invocation in this fresh interpreter and report on it.

    python3 child.py RESULT_JSON MODE [CLI ARGS...]

MODE is `setup` (import `wsnsync.cli`, parse the arguments, stop), `run`
(then call `wsnsync.cli.main`) or `trace` (the same with the tracer
installed). RESULT_JSON receives the monotonic time at which the CLI was
imported and the arguments parsed, the exit code, peak resident memory and,
when traced, the tracer's report. The exit code is the CLI's.
"""
from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    result_path, mode, *argv = sys.argv[1:]
    import wsnsync.cli as cli

    cli.build_parser().parse_args(argv)
    ready = time.perf_counter()
    import platform

    import numpy

    result = {
        "ready": ready,
        "module": cli.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rc": 0,
    }
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import tracer as tracing

            tracer = tracing.install()
        result["rc"] = cli.main(argv)
        if tracer is not None:
            result["trace"] = tracer.report()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
