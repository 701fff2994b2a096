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
checked at a size where the two differ in cost.  Two ``su2f --kmax 2400``
ops are pinned the same way, recorded from the implementation that
reduced one primitive basis vector per invariant line, so the gaps read
off the projector's diagonal are checked where that reduction was
real work.

Four ``simplicity`` ops are pinned the same way, recorded from the
condition engines that multiplied out every resultant, at sizes where the
factor-by-factor engines are far cheaper.

``witness --json`` is pinned the same way, recorded from the ``Fraction``
Gauss-Jordan root data: ``AI`` at r = 60, and every label of rank >= 3
at its representative parameters.

Two three-factor ``product`` certificates are pinned the same way,
recorded from the search that ran ``check_beta`` once per candidate and
the hyperplane walk over Python tuples, at sizes where the batched
search and the packed keys do the work.
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


SU2F_PINS = [
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
    # recorded from the primitive tau-orbit basis vectors
    (
        ["su2f", "--kmax", "2400", "--json"],
        0,
        "3c55aad56ecec70a5f7131d5a7181b5ccfb3e7493cc26b0f69f7ac739480f6e6",
        0,
    ),
    (
        ["su2f", "--kmax", "2400", "--metric", "1,2", "--json"],
        1,
        "74c8ee62e0031ccbedbc200a83920c90165ed9d4021c93574ad20134df8468b1",
        55538,
    ),
]

# recorded from the condition engines that multiplied out every resultant
SIMPLICITY_PINS = [
    (["simplicity", "--family", "hopf", "--n", "2", "--bound", "40", "--metric", "2,5",
      "--json"], 1, "7db1bf5502580121158eb5c9fa0b97d30bd27d4a7b292288ef4a4cceece89706"),
    (["simplicity", "--family", "su2f", "--bound", "60", "--metric", "2,5", "--json"], 0,
     "8eb4b4f22aabb4f133b22dca54855142331267271a48b5c32583531d6d71f5f9"),
    (["simplicity", "--family", "su2f", "--bound", "80", "--metric", "1,2", "--json"], 1,
     "dc72c0c939c2c75dc4864ad81408cd62aac121fddfe4b30f0eca13aad65b75d2"),
    (["simplicity", "--family", "hopf", "--n", "3", "--bound", "30", "--json"], 0,
     "869cb677629cd052f2a3058d2232123f3712e4ceab1c55c18395150f0d3ff027"),
    (["simplicity", "--family", "hopf", "--n", "2", "--bound", "200", "--metric", "2,5",
      "--json"], 1, "715715c4c7f991b1cdea39acdc002721c5f5287f961f828070a4323bd71d31b5"),
    (["simplicity", "--family", "su2f", "--bound", "120", "--metric", "2,5", "--json"], 1,
     "78ab48228c0c0e956e9e5c5ebda7788ed37ef4ceba75f0a44231b0cb5978589a"),
    (["simplicity", "--family", "hopf", "--n", "4", "--bound", "60", "--metric", "3,5",
      "--mode", "complex", "--json"], 1,
     "13f7ec7115edb8b7d4704d753fa84c8d7a9d08189b36b55afa817300dab5df59"),
    (["simplicity", "--family", "su2f", "--bound", "100", "--json"], 0,
     "d4ce1d32ce3c7a8e73defc4a1f4e14de2d9b5aa9a1240f0cb447065878b01827"),
]

# the two rank-500 digests were recorded from the dense inverse Cartan matrix
WITNESS_PINS = [
    (["witness", "--label", "AI", "--r", "500", "--json"], 0,
     "b7e1dd9ab1bbf8cb8984f657eb9efd955efbe2f0d2e1ede10c7a2250d94b20df"),
    (["witness", "--label", "DI3", "--ell", "500", "--json"], 0,
     "813ab3830043097c72535d16231b847384d5d76e296021de18579cd42b4d1af0"),
    (["witness", "--label", "AI", "--r", "60", "--json"], 0,
     "3026a20d77acfd520bfeb4f9a5079fc814aa664b6980f93ca22677a122a78cfd"),
    (["witness", "--label", "AI", "--r", "5", "--json"], 0,
     "1e634cb777749e90101bd0e37702cfb0eccb341b2e88fd402307d01f1a3dee91"),
    (["witness", "--label", "AII", "--r", "7", "--json"], 0,
     "bce39bf8fa138afea898bb92544adf72917e5a2ceb5471934ba964e7e361ac7b"),
    (["witness", "--label", "AIII2", "--ell", "3", "--json"], 0,
     "3ce1e0f7b595eaefc46515fd9495ae74857b5d6ef7d9de2eb5248ac62b1750c0"),
    (["witness", "--label", "CI", "--ell", "3", "--json"], 0,
     "8c8ed998778ae6a629a87c6905498c47a1f4a26cf3c1017c93abb8ed493d3476"),
    (["witness", "--label", "DI1", "--ell", "3", "--json"], 0,
     "e5001121fda962677b084c85b8c8d55c076d0640902c7480aea684251abdeffd"),
    (["witness", "--label", "DI2", "--r", "5", "--ell", "3", "--json"], 0,
     "432eeb4377df04a5d2d9016105ab61208581c048834d5ea7420c3be2c9e3bda6"),
    (["witness", "--label", "DI3", "--ell", "4", "--json"], 0,
     "e54a428241f63580834208399b083e3b344c1c9b08feb2f2b1b41a2ac60c905d"),
    (["witness", "--label", "DIII1", "--ell", "3", "--json"], 0,
     "4a828711ba90603a1b0f1373765389a2d2e483a244c2f41acf49071972cc314e"),
    (["witness", "--label", "DIII2", "--ell", "3", "--json"], 0,
     "de66ad025be43f97bb0d65d0e5fb68988e6cb5da5324ee7eaf1f9302208a0d29"),
    (["witness", "--label", "EI", "--json"], 0,
     "f73cfa98219e709f5c9d12850676999c29064ac476f0999220f15f0620631d60"),
    (["witness", "--label", "EII", "--json"], 0,
     "98e7dc85bbf0185f8a1cbb18331bd3a79c156f16b28272137d895c7fd0231ef6"),
    (["witness", "--label", "EV", "--json"], 0,
     "0994320299a0cb734cede0d6f2e04e242b7d40cd76388aa872b927af975773a5"),
    (["witness", "--label", "EVI", "--json"], 0,
     "28a551d393b120df08ea69f8222999d309d3f05cdcfa689f1d7ca0a2265fe133"),
    (["witness", "--label", "EVII", "--json"], 0,
     "bfbbe457ba387dbe31b7d3ddeba3a61caec9f899a940347f0ed3e18d35dc7a93"),
    (["witness", "--label", "EVIII", "--json"], 0,
     "3b25a28775e05c911a25178ba0dfb544342caf73cf24564becc2b756a794cb3a"),
    (["witness", "--label", "EIX", "--json"], 0,
     "fc37b555841b05d09e3f427d426ad8a963e735407f8808189f98f894a734a263"),
    (["witness", "--label", "FI", "--json"], 0,
     "49573cd4b26ce327930a3072ae84b6ae50fbe4c7ba7df46a850fcc99ca89833c"),
]


# recorded from the per-candidate search: beta, candidates tried, hyperplanes
PRODUCT_PINS = [
    (["product", "--factors", "S2,S2,S2", "--bound", "6", "--json"],
     "8f089c006b0c5ef2b7b8405f9fd6b5cc147409cc6b962aeceb9c6aae22cdb6f8",
     ["31", "79", "97"], 16209, 19920),
    (["product", "--factors", "S2,S2,S2", "--bound", "8", "--json"],
     "e8c2ec1abc39d7fbe39cb7ed202a8da6e33c897b6beca191caf80435183596d5",
     ["179", "191", "229"], 129185, 93888),
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
    SU2F_PINS,
    ids=[" ".join(pin[0]) for pin in SU2F_PINS],
)
def test_su2f_matches_literal_pin(argv, exit_code, sha256, collisions):
    code, out = run_op(argv)
    assert code == exit_code
    assert len(json.loads(out)["metric_collisions"]) == collisions
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "argv,exit_code,sha256",
    SIMPLICITY_PINS,
    ids=[" ".join(pin[0]) for pin in SIMPLICITY_PINS],
)
def test_simplicity_matches_literal_pin(argv, exit_code, sha256):
    code, out = run_op(argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "argv,exit_code,sha256",
    WITNESS_PINS,
    ids=[" ".join(pin[0]) for pin in WITNESS_PINS],
)
def test_witness_matches_literal_pin(argv, exit_code, sha256):
    code, out = run_op(argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "argv,sha256,beta,tried,hyperplanes",
    PRODUCT_PINS,
    ids=[" ".join(pin[0]) for pin in PRODUCT_PINS],
)
def test_product_matches_literal_pin(argv, sha256, beta, tried, hyperplanes):
    code, out = run_op(argv)
    assert code == 0
    payload = json.loads(out)
    assert (payload["beta"], payload["candidates_tried"], payload["hyperplanes"]) == (
        beta, tried, hyperplanes
    )
    assert hashlib.sha256(out.encode()).hexdigest() == sha256
