"""One run of the ``nichols`` CLI in a fresh process, with set-up timed.

Usage: python3 child.py TIMING_FILE MODE [TRACE_FILE] -- CLI_ARGS...

MODE is ``full`` (run the command), ``setup`` (parse the scenario and build
its modules, then skip the task) or ``trace`` (run the command with the
tracer installed and write its spans to TRACE_FILE).  The timing file gets
the clock reading when the imports were done, the seconds spent in
``cli.load_scenario`` and ``cli.build_blocks``, the scalar backend and the
peak resident set size.  The parent, which started this process, adds the
interpreter start-up to the set-up time and measures the exit.
"""

import json
import resource
import sys
import time

from nichols import cli, cyclotomic

t_ready = time.perf_counter()


def main(argv):
    timing_path, mode = argv[0], argv[1]
    rest = argv[2:]
    trace_path = None
    if mode == "trace":
        trace_path, rest = rest[0], rest[1:]
    if rest[:1] != ["--"]:
        raise SystemExit("usage: child.py TIMING MODE [TRACE] -- CLI_ARGS")
    cli_args = rest[1:]

    parts = [0.0]

    def timed(fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                parts[0] += time.perf_counter() - t0
        return wrapper

    tracer = None
    if mode == "trace":
        import nichols
        import tracer as tracing
        tracer = tracing.install(nichols)
    cli.load_scenario = timed(cli.load_scenario)
    cli.build_blocks = timed(cli.build_blocks)
    if mode == "setup":
        for task in cli.TASKS:
            setattr(cli, f"run_{task}", lambda *args, **kwargs: {})
        cli.run_checks = lambda *args, **kwargs: []

    t_start = time.perf_counter()
    rc = cli.main(cli_args)
    t_done = time.perf_counter()
    sys.stdout.flush()
    record = {
        "t_ready": t_ready,
        "setup_parts_s": parts[0],
        "main_s": t_done - t_start,
        "rc": rc,
        "backend": "fractions" if cyclotomic.mpq is cyclotomic.Fraction
        else "gmpy2",
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        t_dump = time.perf_counter()
        tracer.dump(trace_path, {"cli_args": cli_args})
        record["dump_s"] = time.perf_counter() - t_dump
    with open(timing_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
