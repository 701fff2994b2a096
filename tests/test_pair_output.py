"""Collision output written from the pair arrays, against ``json.dumps``.

``collide``, ``product --beta`` and ``su2f --metric`` print their pairs
straight from the arrays of a ``CollisionPairs``.  The oracle here is the
output the CLI used to build: ``json.dumps(payload, sort_keys=True,
indent=2)`` over one dict (``su2f``: one list) per record, and one
f-string line per record in table mode, with the records rebuilt by
``pairref``.  The array contract every pair lister keeps is checked here
too.
"""

import contextlib
import io
import json
import tracemalloc
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairref
from specref import weight_box

from casimirspec import cli, exactalg, products, spectrum, su2f
from casimirspec.exactalg import rational_to_str
from casimirspec.products import check_beta, factor_spectrum
from casimirspec.spectrum import enumerate_collisions, equal_value_pairs
from casimirspec.symmdata import restricted_datum, table_rows

INT64_LIMIT = 2**63


# a chunk size that leaves the last block one record long
LAST_ONE = "one record short"


def run_op(argv, chunk=cli.PAIR_CHUNK, count=None):
    """``cli.run(argv)``'s exit code and stdout, written ``chunk`` records at a time.

    ``LAST_ONE`` stands for ``count - 1`` records, or 1 for a single record.
    """
    if chunk == LAST_ONE:
        chunk = max(count - 1, 1)
    captured = io.StringIO()
    with mock.patch.object(cli, "PAIR_CHUNK", chunk), contextlib.redirect_stdout(captured):
        code = cli.run(argv)
    return code, captured.getvalue()


def dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def report_json(rep):
    return {
        "weight_a": list(rep.weight_a),
        "weight_b": list(rep.weight_b),
        "eigenvalue": rational_to_str(rep.eigenvalue),
        "dual_related": rep.dual_related,
    }


def report_line(rep):
    return (
        f"{rep.weight_a} ~ {rep.weight_b}  eigenvalue {rational_to_str(rep.eigenvalue)}"
        + ("  [dual pair]" if rep.dual_related else "")
    )


def witness_json(w):
    return {
        "array_a": list(w.array_a),
        "array_b": list(w.array_b),
        "value": rational_to_str(w.value),
    }


def witness_line(w):
    return f"{w.array_a} ~ {w.array_b} at {rational_to_str(w.value)}"


def lines(text_lines):
    return "".join(line + "\n" for line in text_lines)


# -- collide ------------------------------------------------------------------


# every catalog row at its table parameters, plus rank one, whose box has no pairs
SPACES = [(d.descriptor.label, dict(d.descriptor.params)) for d in table_rows()]
SPACES.append(("AI", {"r": 1}))


def largest_bound(rank, box=1500):
    return max(b for b in range(1, box) if (b + 1) ** rank <= box)


def collide_argv(label, params, bound, include_duals):
    argv = ["collide", label, "--bound", str(bound)]
    for name, value in sorted(params.items()):
        argv += [f"--{name}", str(value)]
    return argv + (["--include-duals"] if include_duals else [])


def collide_case(label, params, bound, include_duals, chunk):
    datum = restricted_datum(label, **params)
    reports = pairref.reports(
        enumerate_collisions(datum, bound, exclude_dual_pairs=not include_duals)
    )
    argv = collide_argv(label, params, bound, include_duals)
    payload = {
        "label": label,
        "bound": bound,
        "include_duals": include_duals,
        "collisions": [report_json(rep) for rep in reports],
    }
    count = len(reports)
    assert run_op(argv + ["--json"], chunk, count) == (cli.EXIT_OK, dumps(payload))
    table = [report_line(rep) for rep in reports] or ["no collisions in the box"]
    assert run_op(argv, chunk, count) == (cli.EXIT_OK, lines(table))


@settings(max_examples=80, deadline=None)
@given(
    space=st.sampled_from(SPACES),
    data=st.data(),
    include_duals=st.booleans(),
    chunk=st.sampled_from([1, 2, 7, LAST_ONE, cli.PAIR_CHUNK]),
)
def test_collide_matches_dumps_and_lines(space, data, include_duals, chunk):
    label, params = space
    largest = largest_bound(restricted_datum(label, **params).rank)
    bound = data.draw(st.integers(1, largest), label="bound")
    collide_case(label, params, bound, include_duals, chunk)


@pytest.mark.parametrize("include_duals", [False, True])
def test_collide_empty_box(include_duals):
    # rank one never collides; EIV's bound-2 box has only dual pairs
    assert not enumerate_collisions(restricted_datum("AI", r=1), largest_bound(1))
    pairs = enumerate_collisions(restricted_datum("EIV"), 2)
    assert pairs and all(pairs.dual)
    collide_case("AI", {"r": 1}, largest_bound(1), include_duals, 1)
    collide_case("EIV", {}, 2, include_duals, 1)


# -- product --beta -----------------------------------------------------------


FACTOR_LABELS = ["S2", "S3", "S5", "CP2", "CP3", "HP2", "OP2"]
BOUNDS = {1: 40, 2: 12, 3: 5}
positive_rationals = st.fractions(min_value=Fraction(1, 20), max_value=20)


def product_case(labels, bound, beta, chunk):
    argv = [
        "product", "--factors", ",".join(labels), "--bound", str(bound),
        "--beta", ",".join(rational_to_str(b) for b in beta),
    ]
    factors = [factor_spectrum(label, bound) for label in labels]
    witnesses = pairref.witnesses(check_beta(factors, beta, bound))
    payload = {
        "factors": labels,
        "bound": bound,
        "beta": [rational_to_str(b) for b in beta],
        "collisions": [witness_json(w) for w in witnesses],
    }
    code = cli.EXIT_CERT_FAILED if witnesses else cli.EXIT_OK
    count = len(witnesses)
    assert run_op(argv + ["--json"], chunk, count) == (code, dumps(payload))
    table = [witness_line(w) for w in witnesses] or [
        "no collisions: beta is certified on this box"
    ]
    assert run_op(argv, chunk, count) == (code, lines(table))


@settings(max_examples=80, deadline=None)
@given(
    labels=st.lists(st.sampled_from(FACTOR_LABELS), min_size=1, max_size=3),
    data=st.data(),
    chunk=st.sampled_from([1, 3, LAST_ONE, cli.PAIR_CHUNK]),
)
def test_product_beta_matches_dumps_and_lines(labels, data, chunk):
    bound = data.draw(st.integers(1, BOUNDS[len(labels)]), label="bound")
    beta = data.draw(
        st.lists(positive_rationals, min_size=len(labels), max_size=len(labels))
        | st.just([Fraction(1)] * len(labels)),
        label="beta",
    )
    product_case(labels, bound, beta, chunk)


@pytest.mark.parametrize(
    "labels,bound,beta,collide",
    [
        (["S2", "S2"], 30, [1, 61], False),  # the certified beta: no pairs
        (["S2"], 40, [3], False),  # one factor never collides
        (["S2", "S2", "S2"], 6, [1, 1, 1], True),
        # each table fits int64, their sums do not: the object-dtype path
        (["S2", "S2"], 5, [INT64_LIMIT // 60] * 2, True),
        # a table passes 2**63 and the values are not integers
        (["S2", "CP2"], 5, [INT64_LIMIT, Fraction(INT64_LIMIT, 7)], True),
    ],
)
def test_product_beta_edge_boxes(labels, bound, beta, collide):
    pairs = check_beta([factor_spectrum(label, bound) for label in labels], beta, bound)
    assert bool(pairs) is collide
    if max(beta) >= INT64_LIMIT // 60:
        assert pairs.values.dtype == object
    product_case(labels, bound, [Fraction(b) for b in beta], 2)


# -- su2f --metric ----------------------------------------------------------------


def su2f_case(kmax, metric, chunk):
    argv = ["su2f", "--kmax", str(kmax)]
    if metric is not None:
        argv += ["--metric", ",".join(rational_to_str(x) for x in metric)]
    report = su2f.simplicity_certificate(kmax, sample_metric=metric)
    pairs = report.metric_collisions
    collisions = [
        [list(a), list(b), rational_to_str(value)]
        for a, b, value in (pairref.records(pairs) if pairs is not None else [])
    ]
    payload = {**report.to_json(), "metric_collisions": collisions}
    code = cli.EXIT_OK if report.certified else cli.EXIT_CERT_FAILED
    assert run_op(argv + ["--json"], chunk, len(collisions)) == (code, dumps(payload))
    table = [
        f"kmax = {kmax}",
        f"within-k forms distinct: {report.within_k_distinct}",
        f"cross-k injective: {report.cross_k_injective}",
    ]
    if metric is not None:
        table.append(
            f"metric ({rational_to_str(metric[0])}, {rational_to_str(metric[1])}): "
            f"{len(collisions)} collisions"
        )
    table.append(f"certified: {report.certified}")
    assert run_op(argv, chunk, len(collisions)) == (code, lines(table))
    return collisions


metrics = st.none() | st.tuples(st.integers(1, 6), st.integers(1, 6)).map(
    lambda m: tuple(map(Fraction, m))
) | st.tuples(positive_rationals, positive_rationals)


@settings(max_examples=60, deadline=None)
@given(
    kmax=st.integers(2, 300),
    metric=metrics,
    chunk=st.sampled_from([1, 2, 7, LAST_ONE, cli.PAIR_CHUNK]),
)
def test_su2f_matches_dumps_and_lines(kmax, metric, chunk):
    su2f_case(kmax, metric, chunk)


@pytest.mark.parametrize(
    "kmax,metric,collide",
    [
        (60, (Fraction(1), Fraction(2)), True),
        (200, (Fraction(1, 3), Fraction(5, 7)), True),
        (120, (Fraction(2), Fraction(17)), False),  # a certified metric: no pairs
        (60, None, False),
    ],
)
@pytest.mark.parametrize("chunk", [1, 2, 7, LAST_ONE, cli.PAIR_CHUNK])
def test_su2f_edge_runs(kmax, metric, collide, chunk):
    assert bool(su2f_case(kmax, metric, chunk)) is collide


@pytest.mark.parametrize("chunk", [LAST_ONE, cli.PAIR_CHUNK])
def test_lists_of_several_blocks(chunk):
    # thousands of records, so the default block size writes several blocks
    collide_case("EVIII", {}, 2, False, chunk)  # 14,717 pairs, rank-8 rows
    product_case(["S2"] * 3, 10, [Fraction(1)] * 3, chunk)  # 8,664 pairs
    assert len(su2f_case(1200, (Fraction(1), Fraction(2)), chunk)) == 11643


# -- the array contract -----------------------------------------------------------


def collide_scan(datum, include_duals):
    bound = largest_bound(datum.rank, 400)
    pairs = enumerate_collisions(datum, bound, exclude_dual_pairs=not include_duals)
    box = weight_box(datum.rank, bound).tolist()
    return pairs, box, [spectrum.eigenvalue(datum, row) for row in box], datum


def product_scan(labels, bound, beta):
    factors = [factor_spectrum(label, bound) for label in labels]
    return check_beta(factors, beta, bound), *product_reference(factors, beta, bound), None


def product_reference(factors, beta, bound):
    """The full box of index arrays and each array's weighted eigenvalue."""
    box = weight_box(len(factors), bound).tolist()
    values = [
        sum(Fraction(b) * f.table[m] for b, f, m in zip(beta, factors, row)) for row in box
    ]
    return box, values


def su2f_scan(kmax, a, b):
    lines = [[k, gap * gap] for k in range(0, kmax + 1, 2) for gap in su2f.fixed_space(k)]
    values = [(b * (k * (k + 2) + d2) - a * d2) / 8 for k, d2 in lines]
    return su2f.collisions_at_metric(su2f.invariant_lines(kmax), a, b), lines, values, None


def reference_records(rows, values, datum, include_duals, by_value):
    """``pairref.records`` of every equal pair of the full rows, in the scan's order.

    Pairs run by (first, second) row, or by value first when ``by_value``;
    with a ``datum`` each record ends in its dual flag, and dual pairs are
    dropped unless ``include_duals``.
    """
    groups = {}
    for index, value in enumerate(values):
        groups.setdefault(value, []).append(index)
    pairs = sorted(
        (value if by_value else 0, i, j, value)
        for value, members in groups.items()
        for i, j in combinations(members, 2)
    )
    records = []
    for _, i, j, value in pairs:
        a, b = tuple(rows[i]), tuple(rows[j])
        if datum is None:
            records.append((a, b, value))
        elif include_duals or spectrum.dual_weight(datum, a) != b:
            records.append((a, b, value, spectrum.dual_weight(datum, a) == b))
    return records


PRODUCT_LISTERS = [
    pytest.param(product_scan, (["S2"], 40, [1]), id="product-S2"),
    pytest.param(product_scan, (["S2", "S2"], 12, [1, 1]), id="product-S2,S2"),
    pytest.param(product_scan, (["S2", "CP2"], 12, [1, 1]), id="product-S2,CP2"),
    pytest.param(product_scan, (["S2", "S2", "S2"], 6, [1, 1, 1]), id="product-S2x3"),
    pytest.param(product_scan, (["S2", "CP2", "OP2"], 5, [1, Fraction(2, 3), Fraction(5, 7)]),
                 id="product-S2,CP2,OP2"),
    # the sums pass 2**63: the object-dtype path
    pytest.param(product_scan, (["S2", "S2"], 5, [INT64_LIMIT // 60] * 2), id="product-object"),
]


PAIR_LISTERS = [
    *(
        pytest.param(collide_scan, (datum, include_duals),
                     id=f"collide-{datum.descriptor.label}-{'duals' if include_duals else 'nodual'}")
        for datum in table_rows()
        for include_duals in (False, True)
    ),
    *PRODUCT_LISTERS,
    pytest.param(su2f_scan, (60, Fraction(1), Fraction(1)), id="su2f-round"),
    pytest.param(su2f_scan, (60, Fraction(3), Fraction(1)), id="su2f-3,1"),
    pytest.param(su2f_scan, (60, Fraction(1, 3), Fraction(5, 7)), id="su2f-1/3,5/7"),
    pytest.param(su2f_scan, (24, Fraction(INT64_LIMIT, 3), Fraction(INT64_LIMIT, 3)),
                 id="su2f-object"),
]


@pytest.mark.parametrize("scan,args", PAIR_LISTERS)
def test_pair_arrays_keep_the_contract(scan, args):
    pairs, rows, values, datum = scan(*args)
    kept, first, second = pairs.rows, pairs.first, pairs.second
    assert kept.dtype == np.int64 and kept.shape == (len(kept), len(rows[0]))
    assert pairs.values.ndim == 1 and len(pairs.values) == len(kept)
    assert type(pairs.denom) is int and pairs.denom >= 1
    assert first.dtype == second.dtype == np.int32
    assert len(first) == len(second) == len(pairs)
    assert (0 <= first).all() and (first < second).all() and (second < len(kept)).all()
    # the kept rows are rows of the full box or table, strictly ascending in
    # its order, each with its own value, and every one is used
    position = {tuple(row): i for i, row in enumerate(rows)}
    places = [position[tuple(row)] for row in kept.tolist()]
    assert all(p < q for p, q in zip(places, places[1:]))
    # ... which is ascending lexicographic order, the order row_strings is fast on
    assert all(p < q for p, q in zip(kept.tolist(), kept.tolist()[1:]))
    assert [Fraction(v, pairs.denom) for v in pairs.values.tolist()] == [values[p] for p in places]
    assert set(first.tolist()) | set(second.tolist()) == set(range(len(kept)))
    # the expanded pairs are the full reference's: box scans list them by
    # (first, second), su2f by value and then (first, second)
    include_duals = datum is None or args[1]
    expected = reference_records(rows, values, datum, include_duals, scan is su2f_scan)
    assert pairref.records(pairs) == expected
    if datum is None:
        assert pairs.dual is None
    else:
        assert pairs.dual.dtype == bool


def test_pair_indices_fit_int32():
    # a box scan keeps at most MAX_BOX_ROWS rows; V_k has at most k/2 + 1
    # invariant lines, one per tau-orbit {l, k - l}; the kernel counts its
    # pair slots in int32 too
    assert spectrum.MAX_BOX_ROWS < 2**31 and spectrum.MAX_PAIRS < 2**31
    assert sum(k // 2 + 1 for k in range(0, su2f.MAX_KMAX + 1, 2)) < 2**31


def traced_peak(scan):
    """What ``scan()`` returns, and the peak of what it allocated."""
    tracemalloc.start()
    try:
        result = scan()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize(
    "labels,bound,beta",
    [
        (["S2", "S2"], 511, (1, 1000003)),
        (["S2", "CP2", "OP2"], 63, (1, 1009, 1000033)),
        (["S2", "S2", "S2"], 63, (1, 1009, 1000033)),
    ],
    ids=["S2,S2", "S2,CP2,OP2", "S2x3"],
)
def test_check_beta_builds_no_box(monkeypatch, labels, bound, beta):
    # with the block test off, the kernel holds 2^18 box values and the
    # neighbour mask, 9 bytes a row; a box of int64 index arrays would add 8
    # a factor.  The block test certifies these boxes holding far less
    # (tests/test_scan_kernel.py)
    monkeypatch.setattr(products, "block_verdict", lambda weights, tables, dtype: None)
    factors = [factor_spectrum(label, bound) for label in labels]
    pairs, peak = traced_peak(lambda: check_beta(factors, beta, bound))
    assert not pairs
    assert peak < 10 * 2**18


def test_collision_free_check_beta_holds_one_value_array():
    # check_beta certifies this box by blocks and builds none of it; the
    # kernel, handed the same 1001^2 build, sorts it in place beside the
    # neighbour mask: 9 bytes a row, where a sorted copy would add 8
    factors = [factor_spectrum("S2", 1000)] * 2
    tables = [f.table for f in factors]
    (first, second, values), peak = traced_peak(
        lambda: equal_value_pairs(lambda: products.box_values([[1, 1000003]], tables, np.int64)[0])
    )
    assert len(first) == len(second) == len(values) == 0
    assert peak < 1.2 * 8 * 1001**2


def test_collision_free_enumerate_collisions_holds_one_value_array():
    # 2^22 values built in chunks of positions, sorted in place, and the
    # neighbour mask; with a box of weights, a sorted copy of the values and
    # a dual row for every weight the scan peaked at 32 bytes a row
    size = 2**22
    pairs, peak = traced_peak(lambda: enumerate_collisions(restricted_datum("AI", r=1), size - 1))
    assert not pairs and len(pairs.rows) == len(pairs.values) == 0
    assert peak < 10 * size


class Discard:
    """A stdout that drops the text written to it."""

    def write(self, text):
        return len(text)


def test_pair_writer_memory():
    # 86,213 pairs over 55,029 rows and 17,190 values: 2.6 MB (10^6 bytes)
    # with prefix and tail tables changed in place; whole row strings took
    # 8.8 MB, and 2^15-record blocks 16.0 MB
    pairs = check_beta([factor_spectrum("S2", 40)] * 3, (1, 2, 61))
    assert len(pairs) == 86213
    payload = {"factors": ["S2"] * 3, "bound": 40, "beta": ["1", "2", "61"]}
    record = {"array_a": "a", "array_b": "b", "value": "value"}
    with contextlib.redirect_stdout(Discard()):
        _, peak = traced_peak(lambda: cli._emit_pairs(payload, True, pairs, "collisions", record))
    assert peak < 3.2 * 10**6
    # SU(2)/F's (k, d^2) rows, d^2 far past the row count: 11,643 pairs over
    # 18,762 rows, 1.4 MB; whole row strings took 3.2 MB
    pairs = su2f.collisions_at_metric(su2f.invariant_lines(1200), 1, 2)
    assert (len(pairs), len(pairs.rows)) == (11643, 18762)
    with contextlib.redirect_stdout(Discard()):
        _, peak = traced_peak(
            lambda: cli._emit_pairs({}, True, pairs, "metric_collisions", ["a", "b", "value"])
        )
    assert peak < 1.8 * 10**6


# -- the string tables ------------------------------------------------------------


denominators = st.one_of(st.integers(1, 50), st.integers(1, 2**70))


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.integers(-(2**63) + 1, 2**63 - 1), min_size=1, max_size=30),
    denom=denominators,
    as_object=st.booleans(),
)
def test_value_strings_match_rational_to_str(values, denom, as_object):
    array = np.array(values, object if as_object else np.int64)
    expected = [rational_to_str(Fraction(v, denom)) for v in values]
    assert spectrum.value_strings(array, denom).tolist() == expected


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.integers(-(2**80), 2**80), min_size=1, max_size=30),
    denom=denominators,
)
def test_value_strings_past_int64(values, denom):
    values.append(INT64_LIMIT)
    expected = [rational_to_str(Fraction(v, denom)) for v in values]
    assert spectrum.value_strings(np.array(values, object), denom).tolist() == expected


@pytest.mark.parametrize("chunk", [1, 7, 10**6])
@pytest.mark.parametrize("denom", [1, 12, 2**70])
def test_value_strings_by_blocks(monkeypatch, chunk, denom):
    # at 7 values a block, the first block's values are multiples of 12, so at
    # denominator 12 it takes no suffix while the blocks after it do
    values = [12 * i for i in range(7)] + list(range(-20, 20)) + [2**62, INT64_LIMIT - 1]
    monkeypatch.setattr(spectrum, "BUILD_CHUNK", chunk)
    expected = [rational_to_str(Fraction(v, denom)) for v in values]
    assert spectrum.value_strings(np.array(values, np.int64), denom).tolist() == expected
    assert spectrum.value_strings(np.zeros(0, np.int64), denom).tolist() == []


box_rows = st.sampled_from([1, 3, 8]).flatmap(
    lambda rank: st.lists(
        st.lists(st.integers(0, 3000), min_size=rank, max_size=rank), min_size=1, max_size=20
    )
)


def written_rows(rows, opening, comma, closing):
    """Each row's text from ``spectrum.row_strings``: its prefix, then its tail."""
    prefixes, prefix_of, tails, tail_of = spectrum.row_strings(rows, opening, comma, closing)
    assert prefix_of.dtype == tail_of.dtype == np.int32
    assert prefix_of.shape == tail_of.shape == (len(rows),)
    return [prefixes[p] + tails[t] for p, t in zip(prefix_of.tolist(), tail_of.tolist())]


@settings(max_examples=150, deadline=None)
@given(rows=box_rows, depth=st.integers(0, 4))
def test_row_strings_match_json_dumps(rows, depth):
    # json.dumps(..., indent=2) writes a list nested ``depth`` levels deep so
    outer = "\n" + "  " * depth
    inner = outer + "  "
    rendered = written_rows(np.array(rows, np.int64), "[" + inner, "," + inner, outer + "]")
    expected = [json.dumps(row, indent=2).replace("\n", outer) for row in rows]
    assert rendered == expected


# distinct rows in ascending lexicographic order, as every scan hands them
# to the writer: box rows over few or many coordinates ...
sorted_box_rows = st.tuples(st.sampled_from([1, 3, 8]), st.sampled_from([2, 3000])).flatmap(
    lambda shape: st.sets(
        st.tuples(*[st.integers(0, shape[1])] * shape[0]), min_size=1, max_size=40
    ).map(sorted)
)
# ... and SU(2)/F's (k, d^2) tables: even k ascending and, within k, even
# gaps d <= k ascending, ending at su2f.MAX_KMAX's widest line, so d^2
# runs far past the number of rows
su2f_tables = st.lists(
    st.integers(0, su2f.MAX_KMAX // 2 - 1).flatmap(
        lambda half: st.tuples(
            st.just(2 * half), st.sets(st.integers(0, half), min_size=1, max_size=6)
        )
    ),
    min_size=1, max_size=8, unique_by=lambda entry: entry[0],
).map(
    lambda entries: sorted([k, 4 * h * h] for k, halves in entries for h in halves)
    + [[su2f.MAX_KMAX, su2f.MAX_KMAX**2]]
)


@settings(max_examples=150, deadline=None)
@given(rows=sorted_box_rows | su2f_tables, depth=st.integers(0, 4))
def test_row_strings_in_scan_order(rows, depth):
    array = np.array(rows, np.int64)
    assert all(a < b for a, b in zip(rows, rows[1:]))
    outer = "\n" + "  " * depth
    inner = outer + "  "
    rendered = written_rows(array, "[" + inner, "," + inner, outer + "]")
    assert rendered == [json.dumps(row, indent=2).replace("\n", outer) for row in rows]
    closing = ",)" if len(rows[0]) == 1 else ")"
    rendered = written_rows(array, "(", ", ", closing)
    assert rendered == [str(tuple(row)) for row in rows]
    # each distinct prefix and each distinct last coordinate is written once
    prefixes, _, tails, _ = spectrum.row_strings(array, "(", ", ", closing)
    assert len(prefixes) == len({tuple(row[:-1]) for row in rows})
    assert len(tails) == len({row[-1] for row in rows})


@settings(max_examples=150, deadline=None)
@given(rows=box_rows)
def test_row_strings_match_tuples(rows):
    closing = ",)" if len(rows[0]) == 1 else ")"
    rendered = written_rows(np.array(rows, np.int64), "(", ", ", closing)
    assert rendered == [str(tuple(row)) for row in rows]


@pytest.mark.parametrize("rank", range(1, 9))
def test_row_strings_on_random_rows(rank):
    # unsorted rows over few coordinates, so prefixes repeat at every level,
    # and whole rows repeated
    rng = np.random.default_rng(rank)
    rows = rng.integers(0, [4, 12, 1001][rank % 3], (300, rank))
    rows = rows[rng.integers(0, len(rows), 600)]
    for depth in range(5):
        outer = "\n" + "  " * depth
        inner = outer + "  "
        rendered = written_rows(rows, "[" + inner, "," + inner, outer + "]")
        expected = [json.dumps(row, indent=2).replace("\n", outer) for row in rows.tolist()]
        assert rendered == expected
    closing = ",)" if rank == 1 else ")"
    rendered = written_rows(rows, "(", ", ", closing)
    assert rendered == [str(tuple(row)) for row in rows.tolist()]


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(0, 2**62), min_size=2, max_size=2), min_size=1, max_size=20
    ),
    depth=st.integers(0, 4),
)
def test_row_strings_past_the_cell_count(rows, depth):
    # SU(2)/F's (k, d^2) rows: d^2 reaches 51,840,000 at su2f.MAX_KMAX, far
    # past the number of cells, and up to int64's range
    rows.append([su2f.MAX_KMAX, su2f.MAX_KMAX**2])
    array = np.array(rows, np.int64)
    assert array.max() >= array.size
    outer = "\n" + "  " * depth
    inner = outer + "  "
    rendered = written_rows(array, "[" + inner, "," + inner, outer + "]")
    assert rendered == [json.dumps(row, indent=2).replace("\n", outer) for row in rows]
    rendered = written_rows(array, "(", ", ", ")")
    assert rendered == [str(tuple(row)) for row in rows]


def test_product_beta_denominator_past_int64():
    # the box values fit int64, their common denominator does not
    beta = [Fraction(1, 2**66), Fraction(3, 2**66)]
    pairs = check_beta([factor_spectrum("S2", 3)] * 2, beta)
    assert pairs and pairs.values.dtype == np.int64 and pairs.denom >= INT64_LIMIT
    product_case(["S2", "S2"], 3, beta, 2)


def refuse(*args):
    raise AssertionError("a Fraction was built")


# each op's box values are int64; each writes pairs, two with dual flags
INT64_OPS = [
    ["collide", "AI", "--r", "3", "--bound", "6"],
    ["collide", "AI", "--r", "3", "--bound", "4", "--include-duals"],
    ["collide", "EVI", "--bound", "3"],
    ["product", "--factors", "S2,CP2,S2", "--bound", "5", "--beta", "1,2/3,5/7"],
]


@pytest.mark.parametrize("argv", INT64_OPS)
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_int64_output_builds_no_fraction(monkeypatch, argv, mode):
    expected = run_op(argv + mode, 5)
    assert expected[1].count("\n") > 20
    emit_pairs = cli._emit_pairs

    def refusing_emit_pairs(payload, as_json, pairs, *args):
        # the scans before the writer may use Fraction; the writer may not
        assert pairs.values.dtype == np.int64
        with mock.patch.object(spectrum, "Fraction", refuse), \
                mock.patch.object(exactalg, "rational_to_str", refuse), \
                mock.patch.object(spectrum, "rational_to_str", refuse):
            emit_pairs(payload, as_json, pairs, *args)

    monkeypatch.setattr(cli, "_emit_pairs", refusing_emit_pairs)
    assert run_op(argv + mode, 5) == expected


# -- the pair cap -----------------------------------------------------------------


def run_op_with_stderr(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


# collision-rich boxes, and the pairs ``equal_value_pairs`` lists on each
CAPPED_OPS = [
    (["collide", "AI", "--r", "3", "--bound", "6"],
     lambda: enumerate_collisions(restricted_datum("AI", r=3), 6, exclude_dual_pairs=False)),
    # every pair is a dual pair: all are listed, then dropped
    (["collide", "EIV", "--bound", "20"],
     lambda: enumerate_collisions(restricted_datum("EIV"), 20, exclude_dual_pairs=False)),
    (["product", "--factors", "S2,S2,S2", "--bound", "8", "--beta", "1,1,1"],
     lambda: check_beta([factor_spectrum("S2", 8)] * 3, (1, 1, 1))),
]


@pytest.mark.parametrize("argv,scan", CAPPED_OPS)
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_pairs_past_the_cap_are_refused(monkeypatch, argv, scan, mode):
    count = len(scan())
    assert count > 100
    expected = run_op_with_stderr(argv + mode)
    monkeypatch.setattr(spectrum, "MAX_PAIRS", count - 1)
    assert run_op_with_stderr(argv + mode) == (
        cli.EXIT_USAGE, "",
        f"error: {count} equal-value pairs exceed the maximum of {count - 1}\n",
    )
    monkeypatch.setattr(spectrum, "MAX_PAIRS", count)
    assert run_op_with_stderr(argv + mode) == expected
