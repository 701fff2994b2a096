"""Record the exit code and output digest of every op in every seed pool.

Usage (from the repository root): python3 perfbench/pin.py

Runs each op of ``workloads.json``, at both sizes and for every pool
value, under two PYTHONHASHSEED values and rewrites ``pins.json``.  An op
whose exit code or digest differs between the two runs aborts the script:
its output is not deterministic and cannot be pinned.
"""

from __future__ import annotations

import json
import sys

from run import BENCH_DIR, OP_TIMEOUT_S, SIZES, child_env, load_workloads, pool_ops, run_op

HASH_SEEDS = ("0", "1")


def main() -> int:
    pins = {}
    for name, workload in load_workloads().items():
        for size in SIZES:
            for argv in pool_ops(workload, size):
                key = " ".join(argv)
                seen = []
                for hash_seed in HASH_SEEDS:
                    report = run_op(argv, False, OP_TIMEOUT_S, child_env(hash_seed))
                    if "error" in report:
                        print(f"{key}: {report['error']}", file=sys.stderr)
                        return 1
                    seen.append((report["exit"], report["sha256"]))
                if seen[0] != seen[1]:
                    print(f"{key}: output depends on PYTHONHASHSEED: {seen}", file=sys.stderr)
                    return 1
                pins[key] = {"exit": seen[0][0], "sha256": seen[0][1],
                             "hash_seeds": list(HASH_SEEDS)}
                print(f"{name:14s} {size:4s} exit {seen[0][0]} {seen[0][1][:12]}  {key}")
    with open(BENCH_DIR / "pins.json", "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
