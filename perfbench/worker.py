"""Run one circenum CLI query in this fresh interpreter.

    python3 perfbench/worker.py TRACE_PATH -- ARGV...

TRACE_PATH is "-" for an untraced query.  Prints one JSON object: the
monotonic time at which the CLI was ready (interpreter up, circenum imported,
parser built), the seconds spent in ``circenum.cli.main(ARGV)``, its exit
code, its captured standard output, the process's peak resident set and,
when traced, the span summary.  Imports only what the interpreter needs
before circenum, so that the ready time is the CLI's own.
"""

import contextlib
import gc
import io
import json
import os
import sys
import time
import traceback


def peak_rss_kb() -> int:
    """This process's peak resident set since exec.  getrusage's ru_maxrss
    would also count the parent's resident set at the time of the fork."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    trace_path = sys.argv[1]
    argv = sys.argv[sys.argv.index("--") + 1:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from circenum import cli
    cli._build_parser()
    ready = time.monotonic()

    tracer = None
    if trace_path != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()   # rebinds cli.main to its traced wrapper

    out = io.StringIO()
    error = None
    gc.collect()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            code = None
            error = traceback.format_exc()
        secs = time.perf_counter() - start

    record = {"ready": ready, "secs": secs, "code": code, "error": error,
              "out": out.getvalue(),
              "rss_kb": peak_rss_kb()}
    if tracer is not None:
        record["trace"] = tracer.summary()
        tracer.dump(trace_path)
    json.dump(record, sys.stdout)


if __name__ == "__main__":
    main()
