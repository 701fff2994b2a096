"""Cold-process benchmark of the casimirspec command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload search-dense --seed 1 --seconds 40 --trace 0

Every op is one ``casimirspec.cli.run([..., "--json"])`` call in a fresh
child interpreter (``child.py``), one child at a time, so each op pays what
a CLI user pays: the import and a cold ``su2f.fixed_space`` cache.  A pass
runs every op of the workload once; passes repeat until the next one would
overrun ``--seconds``.  Each op's exit code and output digest are checked
against ``pins.json`` after the child ends; a mismatch, crash, timeout or
memory-cap hit is a failed op.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each a
median over passes.  ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics of the traced passes plus the tracing
overhead; the spans are written to ``perfbench/out/`` when the run ends.
Human-readable lines come first; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import statistics
import string
import subprocess
import sys
import time
from pathlib import Path

from tracer import add_report, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
OUT_DIR = BENCH_DIR / "out"

OP_TIMEOUT_S = 60  # the slowest op takes about 5 s today
RUN_LIMIT_S = 165  # a run must exit within 180 s, whatever the ops do
MEM_CAP_BYTES = 2 * 2**30  # address space per child; hopf --bound 120 needs 0.75 GB
HASH_SEED = "0"
# Every reported time is in reference seconds: an op's measured seconds times
# REFERENCE_CALIB_S over the median time of the calibration loop that its
# child ran three times right after the op (child.calibrate).  The speed of
# the shared 2-vCPU x86-64 VM this was tuned on drifts by up to 2x over
# minutes; the loop runs no casimirspec code and tracks that drift.  0.1 s
# is the loop's typical time there.
REFERENCE_CALIB_S = 0.1
SIZES = ("full", "tiny")  # index into each op's "bound" pair

# subcommand -> its share of wall_s, printed on the workloads it runs in.
# None is in the JSON result: only product runs in every workload, and a
# single dense product op per pass is too noisy here to gate.
SUBCOMMAND_METRICS = {
    "collide": "collide_s",
    "product": "product_s",
    "hopf": "hopf_s",
    "su2f": "su2f_s",
    "simplicity": "simplicity_s",
}


def now() -> float:
    """CLOCK_MONOTONIC, the clock the child reports its ready time in."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_json(path: Path):
    with open(path) as handle:
        return json.load(handle)


def load_workloads() -> dict:
    return load_json(BENCH_DIR / "workloads.json")


def load_pins() -> dict:
    return load_json(BENCH_DIR / "pins.json")


def _argv(op: dict, size: str, values: dict) -> list:
    bound = op["bound"][SIZES.index(size)] if "bound" in op else None
    return op["cmd"].format(bound=bound, **values).split() + ["--json"]


def workload_ops(name: str, workload: dict, seed: int, size: str = "full") -> list:
    """The argv of every op in one pass; the seed picks the pool values."""
    rng = random.Random(f"{name}/{seed}")
    values = {key: rng.choice(pool) for key, pool in sorted(workload["pools"].items())}
    return [_argv(op, size, values) for op in workload["ops"]]


def pool_ops(workload: dict, size: str) -> list:
    """The argv of every op for every value of the pools it uses."""
    seen = {}
    for op in workload["ops"]:
        keys = sorted({
            field.split("[")[0]
            for _, field, _, _ in string.Formatter().parse(op["cmd"])
            if field and field != "bound"
        })
        pools = [workload["pools"][key] for key in keys]
        for combo in itertools.product(*pools):
            argv = _argv(op, size, dict(zip(keys, combo)))
            seen[" ".join(argv)] = argv
    return list(seen.values())


def child_env(hash_seed: str = HASH_SEED) -> dict:
    """Hermetic child environment: the tree under test, one thread, no workers."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith(("PYTHON", "CASIMIRSPEC_"))
    }
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED=hash_seed,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
    )
    return env


def run_op(argv: list, trace: bool, timeout: float, env: dict) -> dict:
    """Run one op in a fresh child; the report carries "error" on failure."""
    spec = {"argv": argv, "trace": trace, "src": str(SRC), "mem_cap": MEM_CAP_BYTES}
    spawned = now()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timeout after {timeout:.0f} s", "run_s": now() - spawned}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        reason = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"child exit {proc.returncode}: {reason}", "run_s": now() - spawned}
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - spawned
    return report


def check_op(key: str, report: dict, pins: dict):
    """Why the op failed, or None when exit code and digest match the pin."""
    if "error" in report:
        return report["error"]
    pin = pins.get(key)
    if pin is None:
        return "no pinned digest"
    if report["exit"] != pin["exit"]:
        return f"exit {report['exit']}, pinned {pin['exit']}"
    if report["sha256"] != pin["sha256"]:
        return f"output digest {report['sha256'][:12]}, pinned {pin['sha256'][:12]}"
    return None


class Session:
    """One benchmark run: its deadline, pins and failure counts."""

    def __init__(self, pins: dict):
        self.pins = pins
        self.env = child_env()
        self.deadline = now() + RUN_LIMIT_S
        self.attempted = 0
        self.failures = []

    def run_pass(self, ops: list, trace: bool) -> list:
        results = []
        for argv in ops:
            key = " ".join(argv)
            remaining = self.deadline - now()
            if remaining < 1:
                report = {"error": "run time limit reached", "run_s": 0.0}
            else:
                report = run_op(argv, trace, min(OP_TIMEOUT_S, remaining), self.env)
            report["argv"] = argv
            self.attempted += 1
            error = check_op(key, report, self.pins)
            if error:
                self.failures.append(f"{key}: {error}")
            results.append(report)
        return results


def reference_scale(report: dict) -> float:
    """Factor from this op's seconds to reference seconds (see REFERENCE_CALIB_S)."""
    calib = report.get("calib_s")
    return REFERENCE_CALIB_S / statistics.median(calib) if calib else 1.0


def raw_scale(report: dict) -> float:
    return 1.0


def _seconds(results: list, scale, subcommand: str = None) -> float:
    return sum(r["run_s"] * scale(r) for r in results
               if subcommand is None or r["argv"][0] == subcommand)


def _setup_percentile(samples: list):
    """(p, value) of the highest whole percentile with ten samples beyond it, or None."""
    n = len(samples)
    if n < 20:
        return None
    pct = (100 * (n - 10)) // n
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def end_to_end(passes: list, scale) -> dict:
    """End-to-end values of the untraced passes, each a median over passes;
    setup_s is the median over every op."""
    setups = [r["setup_s"] * scale(r) for p in passes for r in p if "setup_s" in r]
    values = {
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "wall_s": statistics.median(_seconds(p, scale) for p in passes),
        "peak_rss_mb": statistics.median(
            max(r.get("maxrss_kb", 0) for r in p) / 1024 for p in passes),
    }
    present = {r["argv"][0] for r in passes[0]}
    for subcommand, metric in SUBCOMMAND_METRICS.items():
        if subcommand in present:
            values[metric] = statistics.median(_seconds(p, scale, subcommand) for p in passes)
    pct = _setup_percentile(setups)
    if pct is not None:
        values[f"setup_p{pct[0]}_s"] = pct[1]
    return values, len(setups)


def traced_metrics(traced: list, untraced: list) -> dict:
    per_pass = []
    for results in traced:
        total = {}
        for report in results:
            if "layers" in report:
                add_report(total, report["layers"], reference_scale(report))
        per_pass.append(layer_metrics(total))
    values = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    values["trace.overhead_s"] = (
        statistics.median(_seconds(p, reference_scale) for p in traced)
        - statistics.median(_seconds(p, reference_scale) for p in untraced)
    )
    return values


def write_trace(name: str, seed: int, traced: list) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    spans = []
    bindings = {}
    for index, results in enumerate(traced):
        for report in results:
            layers = report.get("layers")
            if layers:
                spans.extend(dict(span, pass_index=index) for span in layers["spans"])
                bindings = layers["bindings"]
    with open(path, "w") as handle:
        json.dump({"workload": name, "seed": seed, "bindings": bindings, "spans": spans}, handle)
    return path


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "full", pins: dict = None) -> tuple:
    """Run the workload; return (JSON result, human-readable lines)."""
    bench = load_json(ROOT / "BENCHMARK.json")
    ops = workload_ops(name, load_workloads()[name], seed, size)
    session = Session(load_pins() if pins is None else pins)
    untraced, traced = [], []
    start = now()
    while True:
        round_start = now()
        untraced.append(session.run_pass(ops, False))
        if trace:
            traced.append(session.run_pass(ops, True))
        finished = now()
        if finished - start + (finished - round_start) > seconds or finished > session.deadline:
            break

    failed = len(session.failures)
    lines = [f"workload {name}, seed {seed}, size {size}: {len(untraced)} untraced and "
             f"{len(traced)} traced passes of {len(ops)} ops",
             "  times are reference seconds; raw seconds in parentheses"]
    lines += [f"  op: {' '.join(argv)}" for argv in ops]
    e2e, setup_count = end_to_end(untraced, reference_scale)
    raw, _ = end_to_end(untraced, raw_scale)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for key, value in e2e.items():
        n = setup_count if key.startswith("setup") else len(untraced)
        unit = units.get(key, "s")
        note = f"  (raw {raw[key]:.6g} s)" if unit == "s" else ""
        lines.append(f"  {key:48s} {value:14.6g} {unit:6s} n={n}{note}")
    lines.append(f"  {'fail_ratio':48s} {failed / session.attempted:14.6g} {'ratio':6s} "
                 f"n={session.attempted}")
    if trace:
        declared = bench["per_layer"]
        values = traced_metrics(traced, untraced)
        lines.append(f"  spans written to {write_trace(name, seed, traced).relative_to(ROOT)}")
    else:
        declared = bench["end_to_end"]
        values = e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    if trace:
        lines += [f"  {key:48s} {m['value']:14.6g} {m['unit']:6s} n={len(traced)}"
                  for key, m in metrics.items()]
    lines += [f"  FAILED {failure}" for failure in session.failures]
    result = {
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def preflight() -> str:
    """Why the tree cannot be benchmarked, or an empty string."""
    if not (SRC / "casimirspec" / "cli.py").is_file():
        return f"no casimirspec sources under {SRC}"
    proc = subprocess.run(
        [sys.executable, "-c", "import casimirspec.cli"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return "cannot import casimirspec.cli: " + proc.stderr.strip()[-300:]
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(load_workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny bounds for the benchmark's self-tests")
    args = parser.parse_args(argv)
    problem = preflight()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
