"""Run one casimirspec CLI op in this fresh interpreter and report on it.

Usage: python3 child.py '<json spec>'

The spec names the CLI arguments, the source tree under test, the address
space cap in bytes and whether to trace.  The CLI's own stdout is
captured and hashed after the timed region.  The last line of this
process's stdout is one JSON report: the monotonic time at which
``import casimirspec.cli`` plus ``build_parser()`` finished, the
``cli.run`` time, the peak RSS, the times of three runs of a calibration
loop after the op, the exit code, the output digest, and (when traced)
the layer report.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def calibrate() -> float:
    """Seconds for a fixed loop that runs no casimirspec code.

    It measures how fast this machine runs Python and moves memory right
    now, so that the parent can convert the op's time to reference seconds.
    The Fraction, dict, tuple and JSON work tracks the exact-arithmetic ops;
    the array pass tracks the memory-bound ones (the Hopf scan, the large
    product boxes).
    """
    from fractions import Fraction

    import numpy

    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 6000):
        total += Fraction(1, i % 97 + 1) * i
    groups = {}
    for i in range(40000):
        groups.setdefault((i * 7919) % 10007, []).append((i, i * i))
    pairs = [(a, b) for values in groups.values() for a, b in zip(values, values[1:])]
    json.dumps(pairs[:20000])
    array = numpy.arange(3_000_000, dtype=numpy.int64)
    int((array * array == array).sum())
    return time.perf_counter() - start


def main() -> None:
    spec = json.loads(sys.argv[1])
    resource.setrlimit(resource.RLIMIT_AS, (spec["mem_cap"], spec["mem_cap"]))

    import casimirspec
    from casimirspec import cli, su2f

    cli.build_parser()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    src = os.path.realpath(spec["src"])
    if os.path.commonpath([src, os.path.realpath(casimirspec.__file__)]) != src:
        raise RuntimeError(f"casimirspec imported from {casimirspec.__file__}, not {src}")
    fixed_space = su2f.fixed_space
    if fixed_space.cache_info().currsize != 0:
        raise RuntimeError("su2f.fixed_space cache is not cold")

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(" ".join(spec["argv"]))
        tracer.install()

    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        try:
            code = cli.run(spec["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    run_s = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calib_s = [calibrate() for _ in range(3)]  # after the op: it raises the peak RSS

    output = captured.getvalue().encode()
    report = {
        "ready": ready,
        "run_s": run_s,
        "calib_s": calib_s,
        "exit": code,
        "sha256": hashlib.sha256(output).hexdigest(),
        "maxrss_kb": maxrss_kb,
    }
    if tracer is not None:
        info = fixed_space.cache_info()
        tracer.counters["su2f.fixed_space.hits"] = info.hits
        tracer.counters["su2f.fixed_space.misses"] = info.misses
        tracer.counters["cli.output_bytes"] = len(output)
        report["layers"] = tracer.report()
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
