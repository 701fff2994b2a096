"""Self-tests of the benchmark, at the tiny op sizes.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = run.load_workloads()
SEED = 3


def _run_cli(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def _printed(lines, name, unit) -> bool:
    return any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_pass_prints_every_metric_with_its_unit(workload):
    lines, result = _run_cli(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
        assert _printed(lines, metric["name"], metric["unit"])
    subcommands = {op["cmd"].split()[0] for op in WORKLOADS[workload]["ops"]}
    for subcommand, name in run.SUBCOMMAND_METRICS.items():
        assert _printed(lines, name, "s") == (subcommand in subcommands)
    assert _printed(lines, "fail_ratio", "ratio")


@pytest.mark.parametrize("field,value,reason", [
    ("sha256", "0" * 64, "output digest"),
    ("exit", 7, "exit"),
])
def test_wrong_pin_is_a_failed_op(field, value, reason):
    ops = run.workload_ops("certify", WORKLOADS["certify"], SEED, "tiny")
    key = " ".join(ops[1])
    pins = run.load_pins()
    pins[key] = dict(pins[key], **{field: value})
    result, lines = run.measure("certify", SEED, 0, False, "tiny", pins=pins)
    assert result["attempted"] == len(ops)
    assert result["failed"] == 1 and not result["correct"]
    assert any(line.startswith(f"  FAILED {key}: {reason}") for line in lines)


def test_timeout_and_memory_cap_fail_the_op(monkeypatch):
    env = run.child_env()
    report = run.run_op(["su2f", "--kmax", "120", "--json"], False, 0.5, env)
    assert report["error"].startswith("timeout")
    monkeypatch.setattr(run, "MEM_CAP_BYTES", 300 * 2**20)
    report = run.run_op(["hopf", "--n", "2", "--bound", "120", "--json"], False, 60, env)
    assert "MemoryError" in report["error"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload):
    lines, result = _run_cli(workload, 1)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for name in WORKLOADS[workload]["layers"]:
        assert result["metrics"][name]["value"] > 0, name
    trace = json.loads((run.OUT_DIR / f"trace-{workload}-seed{SEED}.json").read_text())
    # separate module bindings of one function must all be wrapped
    assert trace["bindings"]["spectrum.eigenvalue"] >= 3
    assert trace["bindings"]["exactalg.char_poly"] >= 2
    assert trace["bindings"]["exactalg.resultant_from_roots"] >= 2
    roots = [span for span in trace["spans"] if span["parent"] is None]
    assert roots and all(span["name"] == "cli.run" for span in roots)
    assert {"id", "name", "start", "end", "parent", "op"} <= set(trace["spans"][0])


def test_pins_cover_every_pool_op_under_two_hash_seeds():
    pins = run.load_pins()
    for workload in WORKLOADS.values():
        for size in run.SIZES:
            for argv in run.pool_ops(workload, size):
                pin = pins[" ".join(argv)]
                assert len(set(pin["hash_seeds"])) == 2


def test_seed_picks_pool_values_only():
    for name, workload in WORKLOADS.items():
        first = run.workload_ops(name, workload, 0)
        assert first == run.workload_ops(name, workload, 0)
        pool_keys = {" ".join(argv) for argv in run.pool_ops(workload, "full")}
        for seed in range(1, 12):
            ops = run.workload_ops(name, workload, seed)
            assert [argv[0] for argv in ops] == [argv[0] for argv in first]
            assert all(" ".join(argv) in pool_keys for argv in ops)
            assert "--workers" not in sum(ops, [])
