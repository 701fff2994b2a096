"""Benchmark ops, replayed in-process against their pinned digests.

``perfbench/pins.json`` pins the exit code and the SHA-256 of the stdout
of every benchmark op.  Each op of each workload pool runs here at the
tiny size through ``cli.run``, so a changed byte of CLI output fails in
the library tests and not only in the benchmark.  The eight full-size
``simplicity ... --metric`` ops run too (a few seconds in all), so the
metric verdicts are also checked at the sizes the benchmark times.  So
do the full-size ``su2f`` op, which runs every line of the SU(2)/F
fixed-space path, and the full-size ``product`` op, which pins the
beta = (1, 61) certificate and its hyperplane count.  Every full-size
``search-dense`` op runs as well (under a second in all), so the
collision output written from the pair arrays is checked byte for byte
at the sizes the benchmark times.  The benchmark's modules are imported
read-only, as its own self-tests do.

Two ``su2f --kmax 480`` ops are not in the benchmark; their exit code,
SHA-256 and collision count are pinned here as literals, recorded from
the dense-projector implementation, so the sparse SU(2)/F path is
checked at a size where the two differ in cost.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

from casimirspec.cli import run  # noqa: E402

PINS = bench.load_pins()
OPS = [
    argv
    for workload in bench.load_workloads().values()
    for argv in bench.pool_ops(workload, "tiny")
]

FULL_METRIC_OPS = [
    argv
    for workload in bench.load_workloads().values()
    for argv in bench.pool_ops(workload, "full")
    if argv[0] == "simplicity" and "--metric" in argv
]

FULL_DENSE_OPS = bench.pool_ops(bench.load_workloads()["search-dense"], "full")

FULL_SU2F_OPS = [
    argv
    for argv in bench.pool_ops(bench.load_workloads()["certify"], "full")
    if argv[0] == "su2f"
]

FULL_PRODUCT_OPS = [
    argv
    for argv in bench.pool_ops(bench.load_workloads()["certify"], "full")
    if argv[0] == "product"
]


SU2F_480_PINS = [
    (
        ["su2f", "--kmax", "480", "--json"],
        0,
        "876b59e82f70adf16912f4762963bc9c13de976e4269c0af33b82164460ff6f6",
        0,
    ),
    (
        ["su2f", "--kmax", "480", "--metric", "1,2", "--json"],
        1,
        "4c08a6114f16e4d0167f8d1526e7f010905f9c9afc9616e8c53d5a6e672ca87a",
        1403,
    ),
]


def run_op(argv):
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = run(argv)
    return code, captured.getvalue()


def assert_matches_pin(argv):
    pin = PINS[" ".join(argv)]
    code, out = run_op(argv)
    assert code == pin["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == pin["sha256"]


def test_every_workload_has_tiny_ops():
    for workload in bench.load_workloads().values():
        assert bench.pool_ops(workload, "tiny")


def test_full_metric_ops_are_found():
    assert len(FULL_METRIC_OPS) == 8


def test_full_dense_ops_are_found():
    assert len(FULL_DENSE_OPS) == 6
    assert {argv[0] for argv in FULL_DENSE_OPS} == {"collide", "product"}


@pytest.mark.parametrize("argv", OPS, ids=[" ".join(argv) for argv in OPS])
def test_tiny_op_matches_its_pin(argv):
    assert_matches_pin(argv)


@pytest.mark.parametrize(
    "argv", FULL_METRIC_OPS, ids=[" ".join(argv) for argv in FULL_METRIC_OPS]
)
def test_full_metric_op_matches_its_pin(argv):
    assert_matches_pin(argv)


@pytest.mark.parametrize(
    "argv", FULL_DENSE_OPS, ids=[" ".join(argv) for argv in FULL_DENSE_OPS]
)
def test_full_dense_op_matches_its_pin(argv):
    assert_matches_pin(argv)


def test_full_su2f_op_matches_its_pin():
    assert FULL_SU2F_OPS == [["su2f", "--kmax", "120", "--json"]]
    assert_matches_pin(FULL_SU2F_OPS[0])


def test_full_product_op_matches_its_pin():
    assert FULL_PRODUCT_OPS == [["product", "--factors", "S2,S2", "--bound", "30", "--json"]]
    assert_matches_pin(FULL_PRODUCT_OPS[0])


@pytest.mark.parametrize(
    "argv,exit_code,sha256,collisions",
    SU2F_480_PINS,
    ids=[" ".join(pin[0]) for pin in SU2F_480_PINS],
)
def test_su2f_kmax_480_matches_literal_pin(argv, exit_code, sha256, collisions):
    code, out = run_op(argv)
    assert code == exit_code
    assert len(json.loads(out)["metric_collisions"]) == collisions
    assert hashlib.sha256(out.encode()).hexdigest() == sha256
