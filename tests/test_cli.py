import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import casimirspec
from casimirspec import bundles, cli, products, spectrum, su2f
from casimirspec.cli import EXIT_CERT_FAILED, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, run
from casimirspec.spectrum import MAX_BOX_ROWS
from casimirspec.symmdata import LABELS, MAX_RANK, restricted_datum

SCHEMA = json.loads(
    (pathlib.Path(__file__).parent.parent / "docs" / "cli-schema.json").read_text()
)


def validate(command, payload):
    schema = dict(SCHEMA["commands"][command])
    schema["$defs"] = SCHEMA["$defs"]
    jsonschema.validate(payload, schema)


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTableDelta:
    def test_single_label_json(self, capsys):
        code, out, _ = run_capture(capsys, ["table-delta", "--label", "EIII", "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["two_delta_bar"] == ["5", "6"]

    def test_all_rows(self, capsys):
        code, out, _ = run_capture(capsys, ["table-delta", "--json"])
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert len(rows) == 24
        labels = [row["label"] for row in rows]
        assert "AI" in labels and "G" in labels

    def test_csv(self, capsys):
        code, out, _ = run_capture(capsys, ["table-delta", "--csv"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "label,params,restricted_type,two_delta_bar"
        assert len(lines) == 25

    def test_parameterized_label(self, capsys):
        code, out, _ = run_capture(
            capsys, ["table-delta", "--label", "BI", "--r", "4", "--ell", "2", "--json"]
        )
        assert code == EXIT_OK
        assert json.loads(out)["two_delta_bar"] == ["1", "5"]

    @pytest.mark.parametrize("flag", ["--r", "--ell", "--rank"])
    def test_parameter_on_fixed_label_is_usage_error(self, capsys, flag):
        code, _, err = run_capture(capsys, ["table-delta", "--label", "EIII", flag, "3"])
        assert code == EXIT_USAGE
        assert "takes no parameters" in err

    def test_ai_ell_must_equal_r(self, capsys):
        argv = ["table-delta", "--label", "AI", "--r", "3", "--ell", "2"]
        assert run_capture(capsys, argv)[0] == EXIT_USAGE

    def test_ai_reads_ell_as_r(self):
        assert restricted_datum("AI", ell=3) == restricted_datum("AI", r=3)


class TestWitness:
    def test_ai_rank3(self, capsys):
        code, out, _ = run_capture(
            capsys, ["witness", "--label", "AI", "--rank", "3", "--json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["v"] == [3, 0, 3]
        assert payload["w"] == [0, 3, 2]
        assert payload["eigenvalue"] == "108"

    def test_out_of_scope_exits_one(self, capsys):
        code, out, _ = run_capture(
            capsys, ["witness", "--label", "BI", "--r", "3", "--ell", "2", "--json"]
        )
        assert code == EXIT_CERT_FAILED
        assert "error" in json.loads(out)


class TestHopf:
    def test_scan_json(self, capsys):
        code, out, _ = run_capture(capsys, ["hopf", "--n", "2", "--bound", "8", "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["non_swap_collisions"] == 0
        assert payload["agreement_mismatches"] == 0

    def test_deterministic_output(self, capsys):
        _, first, _ = run_capture(capsys, ["hopf", "--n", "3", "--bound", "6", "--json"])
        _, second, _ = run_capture(capsys, ["hopf", "--n", "3", "--bound", "6", "--json"])
        assert first == second

    def test_huge_n(self, capsys):
        code, out, err = run_capture(
            capsys, ["hopf", "--n", "10000000000", "--bound", "5", "--json"]
        )
        assert code == EXIT_OK, err
        payload = json.loads(out)
        assert payload["n"] == 10**10
        assert payload["agreement_pairs_checked"] == 36**2
        assert payload["agreement_mismatches"] == 0
        assert payload["swap_theorem_holds"] is True


class TestSu2f:
    def test_certificate(self, capsys):
        code, out, _ = run_capture(capsys, ["su2f", "--kmax", "12", "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["certified"] is True

    def test_round_metric_fails(self, capsys):
        code, out, _ = run_capture(
            capsys, ["su2f", "--kmax", "12", "--metric", "1,1", "--json"]
        )
        assert code == EXIT_CERT_FAILED
        assert json.loads(out)["metric_collisions"]

    def test_rational_metric(self, capsys):
        code, out, _ = run_capture(
            capsys, ["su2f", "--kmax", "12", "--metric", "1/2,1", "--json"]
        )
        assert code == EXIT_OK


class TestProduct:
    def test_certificate(self, capsys):
        code, out, _ = run_capture(
            capsys, ["product", "--factors", "S2,S2", "--bound", "10", "--json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["beta"] == ["1", "61"] or len(payload["beta"]) == 2

    def test_hyperplane_walk_ending_on_a_chunk_with_no_mixed_sign_row(self, capsys):
        # a block's last chunk holds only rows whose later entries are all >= 0
        code, out, _ = run_capture(
            capsys, ["product", "--factors", "S2,CP2", "--bound", "37", "--json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert (payload["beta"], payload["hyperplanes"]) == (["1", "71"], 200164)

    def test_symmetric_beta_rejected(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["product", "--factors", "S2,S2", "--bound", "10",
             "--beta", "1,1", "--json"],
        )
        assert code == EXIT_CERT_FAILED
        collisions = json.loads(out)["collisions"]
        assert {"array_a": [1, 2], "array_b": [2, 1], "value": "16"} in collisions


class TestTextOutput:
    """Table-mode stdout of ``collide`` and ``product --beta``, byte for byte."""

    LITERAL = [
        (
            ["collide", "AI", "--r", "2", "--bound", "2", "--include-duals"],
            EXIT_OK,
            "(0, 1) ~ (1, 0)  eigenvalue 20/3  [dual pair]\n"
            "(0, 2) ~ (2, 0)  eigenvalue 56/3  [dual pair]\n"
            "(1, 2) ~ (2, 1)  eigenvalue 92/3  [dual pair]\n",
        ),
        (
            ["collide", "AI", "--r", "1", "--bound", "5"],
            EXIT_OK,
            "no collisions in the box\n",
        ),
        (
            ["product", "--factors", "S2,S2", "--bound", "2", "--beta", "1,1"],
            EXIT_CERT_FAILED,
            "(0, 1) ~ (1, 0) at 4\n(0, 2) ~ (2, 0) at 12\n(1, 2) ~ (2, 1) at 16\n",
        ),
        (
            ["product", "--factors", "S2,S2", "--bound", "3", "--beta", "1,61"],
            EXIT_OK,
            "no collisions: beta is certified on this box\n",
        ),
    ]

    # longer outputs, pinned by line count and SHA-256
    DIGESTS = [
        (
            # 24 dual pairs and 8 other collisions
            ["collide", "AI", "--r", "3", "--bound", "3", "--include-duals"],
            EXIT_OK,
            32,
            "0ef2f410662182c0c67814659896db69f7345c481359df5ee743c9a5463a06be",
        ),
        (
            ["product", "--factors", "S2,S2,S2", "--bound", "2", "--beta", "1,1,2"],
            EXIT_CERT_FAILED,
            22,
            "d8da2dd8594891fe9112c7c25430b5299a3457ad78552f044982bffb6c14d05d",
        ),
    ]

    @pytest.mark.parametrize("argv, exit_code, expected", LITERAL)
    def test_literal(self, capsys, argv, exit_code, expected):
        code, out, _ = run_capture(capsys, argv)
        assert code == exit_code
        assert out == expected

    @pytest.mark.parametrize("argv, exit_code, line_count, digest", DIGESTS)
    def test_digest(self, capsys, argv, exit_code, line_count, digest):
        code, out, _ = run_capture(capsys, argv)
        assert code == exit_code
        assert len(out.splitlines()) == line_count
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSimplicity:
    def test_su2f_family(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["simplicity", "--family", "su2f", "--bound", "12",
             "--metric", "1,2", "--json"],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["condition_a"] == []
        assert payload["metric_report"]["ok"] is True

    def test_hopf_complex_mode(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["simplicity", "--family", "hopf", "--bound", "3", "--n", "2",
             "--metric", "1,2", "--mode", "complex", "--json"],
        )
        assert code == EXIT_CERT_FAILED
        assert json.loads(out)["metric_report"]["type_violations"]

    @pytest.mark.parametrize(
        "argv, same_as",
        [
            (["simplicity", "--family", "hopf", "--n", "2", "--bound", "4", "--json"],
             ["simplicity", "--family", "hopf", "--bound", "4", "--json"]),
            (["simplicity", "--family", "hopf", "--bound", "4", "--metric", "2,5",
              "--mode", "real"],
             ["simplicity", "--family", "hopf", "--bound", "4", "--metric", "2,5"]),
        ],
        ids=["n", "mode"],
    )
    def test_defaults(self, capsys, argv, same_as):
        # the Hopf fibration parameter defaults to 2, the mode at a metric to real
        assert run_capture(capsys, argv) == run_capture(capsys, same_as)


class TestJsonSchemas:
    CASES = [
        ("table-delta", ["table-delta", "--label", "EIII", "--json"]),
        ("table-delta", ["table-delta", "--json"]),
        ("rank2-catalog", ["rank2-catalog", "--json"]),
        ("collide", ["collide", "--label", "AIII2", "--ell", "2",
                     "--bound", "4", "--json"]),
        ("witness", ["witness", "--label", "CI", "--ell", "3", "--json"]),
        ("hopf", ["hopf", "--n", "2", "--bound", "5", "--json"]),
        ("su2f", ["su2f", "--kmax", "8", "--json"]),
        ("product-certificate", ["product", "--factors", "S2,S3",
                                 "--bound", "6", "--json"]),
        ("product-check", ["product", "--factors", "S2,S2", "--bound", "6",
                           "--beta", "1,2", "--json"]),
        ("simplicity", ["simplicity", "--family", "su2f", "--bound", "8",
                        "--metric", "1,2", "--json"]),
        pytest.param("simplicity", ["simplicity", "--family", "su2f", "--bound", "24",
                                    "--metric", "1,1", "--json"], id="simplicity-su2f-real"),
        pytest.param("simplicity", ["simplicity", "--family", "su2f", "--bound", "24",
                                    "--metric", "1,1", "--mode", "complex", "--json"],
                     id="simplicity-su2f-complex"),
        pytest.param("simplicity", ["simplicity", "--family", "hopf", "--n", "3", "--bound",
                                    "40", "--metric", "2,5", "--json"], id="simplicity-hopf-real"),
        pytest.param("simplicity", ["simplicity", "--family", "hopf", "--bound", "40",
                                    "--metric", "1/2,5/3", "--mode", "complex", "--json"],
                     id="simplicity-hopf-complex"),
    ]

    @pytest.mark.parametrize("command,argv", CASES, ids=lambda x: str(x)[:40])
    def test_output_validates(self, capsys, command, argv):
        code = run(argv)
        out = capsys.readouterr().out
        assert code in (EXIT_OK, EXIT_CERT_FAILED)
        validate(command, json.loads(out))

    def test_simplicity_list_items(self, capsys):
        # the shipped families pass conditions (a)-(c), so the item shapes
        # are checked on edited copies of a real payload
        run(["simplicity", "--family", "hopf", "--bound", "3", "--metric", "1,2",
             "--mode", "complex", "--json"])
        payload = json.loads(capsys.readouterr().out)
        report = payload["metric_report"]
        assert report["multiplicity_violations"] == [] and report["type_violations"]
        good = {
            "condition_a": [["H(0,1)", "H(0,2)"]], "condition_b": ["H(0,1)"],
            "condition_c": ["H(0,1)"],
        }
        validate("simplicity", dict(payload, **good))
        report["multiplicity_violations"] = [["H(0,1)", 2]]
        validate("simplicity", payload)
        bad = [
            ("condition_a", ["H(0,1)", "H(0,2)"]), ("condition_a", [["H(0,1)"]]),
            ("condition_b", [["H(0,1)"]]), ("condition_c", [1]), ("entries", 0),
        ]
        for key, value in bad:
            with pytest.raises(jsonschema.ValidationError):
                validate("simplicity", dict(payload, **{key: value}))
        for key, value in [
            ("shared_eigenvalues", [["H(0,1)", "H(0,2)", "H(0,3)"]]),
            ("multiplicity_violations", [["H(0,1)", "2"]]),
            ("multiplicity_violations", [["H(0,1)", 2, 3]]),
            ("type_violations", [["H(0,1)"]]),
        ]:
            with pytest.raises(jsonschema.ValidationError):
                validate("simplicity", dict(payload, metric_report=dict(report, **{key: value})))


class TestUsageErrors:
    def test_missing_label(self):
        with pytest.raises(SystemExit) as exc:
            run(["collide", "--bound", "3"])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["hopf", "--n", "2", "--bound", "3", "--frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_bad_parameters(self, capsys):
        code, _, err = run_capture(
            capsys, ["collide", "--label", "AIII1", "--r", "3", "--ell", "2",
                     "--bound", "3"]
        )
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize(
        "fault",
        [AssertionError("check"), RuntimeError("unreachable"),
         ArithmeticError("irrational"), ZeroDivisionError("zero"),
         OverflowError("wide"), MemoryError()],
    )
    def test_internal_fault_exit_code(self, capsys, monkeypatch, fault):
        def broken(n, bound):
            raise fault

        monkeypatch.setattr(bundles, "hopf_swap_theorem_scan", broken)
        code, out, err = run_capture(capsys, ["hopf", "--n", "2", "--bound", "3"])
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert type(fault).__name__ in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table-delta", "EIII", "--label", "AI", "--r", "3"],
             "LABEL EIII conflicts with --label AI"),
            (["collide", "EIII", "--label", "AI", "--bound", "2"],
             "LABEL EIII conflicts with --label AI"),
            (["witness", "--label", "AI", "--ell", "2", "--rank", "3"],
             "--ell 2 conflicts with --rank 3"),
            (["table-delta", "--label", "CI", "--ell", "3", "--rank", "4"],
             "--ell 3 conflicts with --rank 4"),
            (["su2f", "--kmax", "12", "--metric", "1,,2"], "empty field in '1,,2'"),
            (["su2f", "--kmax", "12", "--metric", ""], "empty field in ''"),
            (["product", "--factors", "S2,S2", "--bound", "3", "--beta", "1,2,"],
             "empty field in '1,2,'"),
            (["product", "--factors", "S2,,S2", "--bound", "3"], "empty field in 'S2,,S2'"),
            (["product", "--factors", "S2, ", "--bound", "3", "--beta", "1,2"],
             "empty field in 'S2, '"),
            # a factor string cannot carry a catalog label's parameters
            (["product", "--factors", "AI,S2", "--bound", "3", "--beta", "1,2"],
             "unknown rank-one factor 'AI'"),
            (["simplicity", "--family", "hopf", "--bound", "3", "--metric", " ,2,5"],
             "empty field in ' ,2,5'"),
            (["simplicity", "--family", "su2f", "--n", "7", "--bound", "12"],
             "--n applies only to --family hopf"),
            (["simplicity", "--family", "su2f", "--n", "2", "--bound", "12", "--metric", "1,2"],
             "--n applies only to --family hopf"),
            (["simplicity", "--family", "su2f", "--bound", "12", "--mode", "complex"],
             "--mode applies only with --metric"),
            (["simplicity", "--family", "hopf", "--bound", "3", "--mode", "real"],
             "--mode applies only with --metric"),
            (["table-delta", "--csv", "--json"], "--csv conflicts with --json"),
            (["rank2-catalog", "--csv", "--json"], "--csv conflicts with --json"),
        ],
    )
    def test_conflicting_duplicate_inputs(self, capsys, argv, message):
        code, out, err = run_capture(capsys, argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, same_as",
        [
            (["table-delta", "EIII", "--label", "EIII", "--json"],
             ["table-delta", "EIII", "--json"]),
            (["witness", "--label", "CI", "--ell", "3", "--rank", "3", "--json"],
             ["witness", "--label", "CI", "--ell", "3", "--json"]),
        ],
    )
    def test_equal_duplicate_inputs_are_accepted(self, capsys, argv, same_as):
        assert run_capture(capsys, argv) == run_capture(capsys, same_as)

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["su2f", "--kmax", "4", "--metric", "1/0,1"],
            ["product", "--factors", "S2,S2", "--bound", "3", "--beta", "1,1/0"],
            ["simplicity", "--family", "hopf", "--n", "2", "--bound", "3",
             "--metric", "1/0,1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_zero_denominator(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: zero denominator")


def _argv(*parts):
    """Concatenate strategies that each draw a list of arguments."""
    return st.tuples(*parts).map(lambda drawn: [arg for part in drawn for arg in part])


def _flag(name, values):
    return values.map(lambda value: [name, value])


def _optional(name, values):
    return st.one_of(st.just([]), _flag(name, values))


_INTS = st.integers(-3, 6).map(str)
# a rank-8 box at bound 6 holds 7**8 weights; bound 2 keeps every label fast
_COLLIDE_BOUNDS = st.integers(-3, 2).map(str)
_RATIONALS = st.lists(
    st.sampled_from(["1/0", "abc", "0", "-1", "1", "2", "1/2", "3/7", ""]),
    max_size=3,
).map(",".join)
# ranks past symmdata.MAX_RANK, up to values no tuple or index could hold
_HUGE_RANKS = st.one_of(st.integers(MAX_RANK + 1, 10**6), st.integers(10**6, 10**40))
# AII has rank (r - 1) / 2, so a parameter just past MAX_RANK builds a slow
# rank-2500 datum; the fuzz draws parameters far beyond the cap instead
_PARAMS = st.one_of(_INTS, st.integers(10**6, 10**40).map(str))
_SPACE = (
    st.lists(st.sampled_from(LABELS + ("XX", "A1", "S2")), max_size=1),
    _optional("--r", _PARAMS),
    _optional("--ell", _PARAMS),
    _optional("--rank", _PARAMS),
)
# catalog parameters giving restricted rank n, for each parametric label
RANK_PARAMS = {
    "AI": lambda n: {"r": n},
    "AII": lambda n: {"r": 2 * n + 1},
    "AIII1": lambda n: {"r": 2 * n, "ell": n},
    "AIII2": lambda n: {"ell": n},
    "BI": lambda n: {"r": n, "ell": n},
    "CI": lambda n: {"ell": n},
    "CII1": lambda n: {"r": 2 * n + 1, "ell": n},
    "CII2": lambda n: {"ell": n},
    "DI1": lambda n: {"ell": n},
    "DI2": lambda n: {"r": n + 2, "ell": n},
    "DI3": lambda n: {"ell": n},
    "DIII1": lambda n: {"ell": n},
    "DIII2": lambda n: {"ell": n},
}
# three factors at bound 6 take seconds to certify; two stay fast
_FACTORS = st.lists(
    st.sampled_from(["S2", "S3", "CP2", "HP2", "OP2", "S1", "OP3", "XX", "AI", ""]),
    max_size=2,
).map(",".join)
_JSON = st.sampled_from([[], ["--json"]])
# family bounds far past the builders' caps
_BOUNDS = st.one_of(_INTS, st.integers(10**6, 10**40).map(str))
_TABLE_FORMAT = st.sampled_from([[], ["--json"], ["--csv"], ["--csv", "--json"]])

COMMAND_LINES = st.one_of(
    _argv(st.just(["table-delta"]), *_SPACE, _TABLE_FORMAT),
    _argv(st.just(["rank2-catalog"]), _TABLE_FORMAT),
    _argv(st.just(["collide"]), *_SPACE, _flag("--bound", _COLLIDE_BOUNDS),
          st.sampled_from([[], ["--include-duals"]]), _JSON),
    _argv(st.just(["witness"]), *_SPACE, _JSON),
    _argv(st.just(["hopf"]), _flag("--n", _INTS), _flag("--bound", _INTS), _JSON),
    _argv(st.just(["su2f"]), _flag("--kmax", _BOUNDS),
          _optional("--metric", _RATIONALS), _JSON),
    _argv(st.just(["product"]), _flag("--factors", _FACTORS),
          _flag("--bound", _INTS), _optional("--beta", _RATIONALS), _JSON),
    _argv(st.just(["simplicity"]),
          _flag("--family", st.sampled_from(["su2f", "hopf", "xx"])),
          _flag("--bound", _BOUNDS), _optional("--n", _INTS),
          _optional("--metric", _RATIONALS),
          _optional("--mode", st.sampled_from(["real", "complex", "xx"])), _JSON),
)


def run_traced(argv):
    """Exit code, stderr and traced peak allocation of one in-process run."""
    err = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, err.getvalue(), peak


class TestExitCodeFuzz:
    @settings(max_examples=300, deadline=None)
    @given(COMMAND_LINES)
    def test_only_documented_exit_codes(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = run(argv)
            except SystemExit as exc:
                assert exc.code == EXIT_USAGE
                return
        assert code in (EXIT_OK, EXIT_CERT_FAILED, EXIT_USAGE, EXIT_INTERNAL)

    @pytest.mark.parametrize("family", ["hopf", "su2f"])
    def test_negative_bound_is_refused_before_the_family(self, family):
        code, err, peak = run_traced(["simplicity", "--family", family, "--bound", "-1"])
        assert code == EXIT_USAGE
        assert err == "error: bound must be >= 0\n"
        assert peak < 1 << 20

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([
            (["simplicity", "--family", "hopf", "--bound"], "degree",
             bundles.MAX_FAMILY_DEGREE),
            (["simplicity", "--family", "su2f", "--bound"], "kmax", su2f.MAX_FAMILY_KMAX),
            (["su2f", "--kmax"], "kmax", su2f.MAX_KMAX),
        ]),
        st.one_of(st.integers(1, 10**6), st.integers(10**6, 10**40)),
        st.sampled_from([[], ["--metric", "1,2"]]),
    )
    def test_huge_bound_is_refused_without_allocating(self, case, excess, metric):
        prefix, name, limit = case
        argv = prefix + [str(limit + excess)] + metric
        code, err, peak = run_traced(argv)
        assert code == EXIT_USAGE
        assert err == (
            f"error: {name} {limit + excess} exceeds the maximum of {limit}\n"
        )
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "argv, box",
        [
            (["collide", "AI", "--r", "12", "--bound", "5"], "6^12"),
            (["collide", "AI", "--r", "40", "--bound", "3"], "4^40"),
            # refused before the datum's Gram matrix is solved for
            (["collide", "AI", "--r", "100", "--bound", "1"], "2^100"),
            # refused from the catalog row's rank, before any Cartan data is built
            (["collide", "AI", "--r", "5000", "--bound", "1"], "2^5000"),
            (["hopf", "--n", "2", "--bound", "100000"], "100001^2"),
            (["product", "--factors", ",".join(["S2"] * 8), "--bound", "30",
              "--beta", "1,2,3,5,7,11,13,17"], "31^8"),
            # refused before any factor's bound + 1 eigenvalues are built
            (["product", "--factors", "S2,S2", "--bound", "10000000", "--beta", "1,3"],
             "10000001^2"),
            (["product", "--factors", "S2,S2", "--bound", "10000000"], "10000001^2"),
        ],
    )
    def test_huge_box_is_refused_without_allocating(self, argv, box):
        code, err, peak = run_traced(argv)
        assert code == EXIT_USAGE
        assert err == (
            f"error: box of {box} weights exceeds the maximum of {MAX_BOX_ROWS}\n"
        )
        assert peak < 1 << 20

    @pytest.mark.parametrize("bound", ["0", "-5"])
    def test_collide_bound_below_one_is_refused_as_such(self, bound):
        # the box check that runs before the datum reads a negative bound's box as empty
        code, err, _ = run_traced(["collide", "AI", "--r", "12", "--bound", bound])
        assert (code, err) == (EXIT_USAGE, "error: bound must be >= 1\n")

    def test_large_difference_grid_is_refused(self):
        # 269^3 collision-hyperplane differences; the box has only 21^3 rows
        code, err, peak = run_traced(["product", "--factors", "S2,S2,S2", "--bound", "20"])
        assert code == EXIT_USAGE
        assert err == (
            "error: difference grid of at least 19465109 vectors exceeds the maximum of "
            f"{products.MAX_DIFFERENCE_GRID}\n"
        )
        assert peak < 1 << 20

    def test_long_candidate_search_is_refused(self, monkeypatch):
        # beta (1, 11) is candidate 26 on the 25-row box of S2 x S2 at bound 4
        monkeypatch.setattr(products, "MAX_SEARCH_ENTRIES", 25 * 25)
        code, err, _ = run_traced(["product", "--factors", "S2,S2", "--bound", "4"])
        assert code == EXIT_USAGE
        assert err == (
            "error: no collision-free beta among the first 25 candidates; more on a box "
            "of 25 rows exceed the maximum of 625 sorted values\n"
        )

    def test_many_pairs_are_refused_before_the_pair_arrays(self, monkeypatch):
        # 1,764,105 equal pairs on 41^3 rows; each pair index array would be 14 MB
        monkeypatch.setattr(spectrum, "MAX_PAIRS", 1000)
        argv = ["product", "--factors", "S2,S2,S2", "--bound", "40", "--beta", "1,1,1"]
        code, err, peak = run_traced(argv)
        assert code == EXIT_USAGE
        assert err == "error: 1764105 equal-value pairs exceed the maximum of 1000\n"
        assert peak < 1764105 * 8

    @pytest.mark.parametrize("label", sorted(RANK_PARAMS))
    def test_rank_params_give_that_rank(self, label):
        for rank in (3, 4, 5, 6):
            assert restricted_datum(label, **RANK_PARAMS[label](rank)).rank == rank

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["witness", "table-delta", "collide"]),
        st.sampled_from(sorted(RANK_PARAMS)),
        _HUGE_RANKS,
    )
    def test_huge_rank_is_refused_without_allocating(self, command, label, rank):
        argv = [command, "--label", label]
        for name, value in RANK_PARAMS[label](rank).items():
            argv += [f"--{name}", str(value)]
        if command == "collide":
            argv += ["--bound", "2"]
        code, err, peak = run_traced(argv)
        assert code == EXIT_USAGE
        assert err == (
            f"error: restricted rank {rank} exceeds the maximum of {MAX_RANK}\n"
        )
        assert peak < 1 << 20


def test_closed_stdout_is_exit_3():
    # 137 kB of JSON: the writer meets the closed pipe after the reader left
    src = pathlib.Path(casimirspec.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["product", "--factors", "S2,S2", "--bound", "30", "--beta", "1,1", "--json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "casimirspec.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == EXIT_INTERNAL
    assert err == "error: stdout was closed before the output was written\n"


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_one_process_runs_like_fresh_ones(capsys, monkeypatch):
    # the cached parser keeps no state from one run to the next
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    src = pathlib.Path(casimirspec.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    collide = ["collide", "AI", "--r", "2", "--bound", "4"]
    missing_bound = ["collide", "AI", "--r", "2"]
    for argv, expected in (
        (collide, EXIT_OK), (["table-delta", "--json"], EXIT_OK),
        (missing_bound, EXIT_USAGE), (collide, EXIT_OK),
    ):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "casimirspec.cli", *argv],
            capture_output=True, env=env, timeout=60,
        )
        assert (code, captured.out.encode(), captured.err.encode()) == (
            fresh.returncode, fresh.stdout, fresh.stderr,
        )
        assert code == expected
