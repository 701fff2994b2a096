"""The exact integer scan kernel against the Fraction loops it replaced.

The ``reference_*`` functions below are the per-weight ``Fraction``
loops the kernel replaced, kept as the oracle: group by exact value in a
dict, then list every pair.
"""

import json
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimirspec import products, spectrum, su2f
from casimirspec.cli import run
from casimirspec.exactalg import rational_to_str
from casimirspec.products import (
    FactorSpectrum, all_distinct, block_verdict, check_beta, factor_spectrum,
)
from casimirspec.spectrum import (
    dual_weight,
    enumerate_collisions,
    equal_value_pairs,
    exact_dtype,
    eigenvalue,
)
from casimirspec.symmdata import cross_datum, table_rows
import pairref
import specref
from pairref import CollisionReport, CollisionWitness

INT64_LIMIT = 2**63


# -- the reference loops ---------------------------------------------------


def reference_box(shape):
    """Index arrays with entry i in [0, shape[i]], lexicographic."""
    current = [0] * len(shape)
    while True:
        yield tuple(current)
        i = len(shape) - 1
        while i >= 0 and current[i] == shape[i]:
            current[i] = 0
            i -= 1
        if i < 0:
            return
        current[i] += 1


def reference_pairs(groups):
    """(value, first, second) for every pair inside a group, in insertion order."""
    for value, members in groups.items():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                yield value, members[i], members[j]


def reference_enumerate_collisions(datum, bound, exclude_dual_pairs=False):
    groups = {}
    for weight in reference_box((bound,) * datum.rank):
        groups.setdefault(eigenvalue(datum, weight), []).append(weight)
    reports = []
    for value, wa, wb in reference_pairs(groups):
        dual = dual_weight(datum, wa) == wb
        if exclude_dual_pairs and dual:
            continue
        reports.append(CollisionReport(wa, wb, Fraction(value), dual))
    reports.sort(key=lambda rep: (rep.weight_a, rep.weight_b))
    return reports


def reference_check_beta(factors, beta, bound=None):
    if bound is None:
        bound = min(f.bound for f in factors)
    beta = [Fraction(x) for x in beta]
    tables = [[b * v for v in f.table[: bound + 1]] for b, f in zip(beta, factors)]
    groups = {}
    for array in reference_box((bound,) * len(factors)):
        value = sum(tables[i][array[i]] for i in range(len(factors)))
        groups.setdefault(value, []).append(array)
    witnesses = [
        CollisionWitness(a, b, Fraction(value)) for value, a, b in reference_pairs(groups)
    ]
    witnesses.sort(key=lambda w: (w.array_a, w.array_b))
    return witnesses


def reference_collisions_at_metric(kmax, a, b):
    groups = {}
    for k in range(0, kmax + 1, 2):
        for a8, b8 in specref.form_keys(k):
            value = a * Fraction(a8, 8) + b * Fraction(b8, 8)
            groups.setdefault(value, []).append((k, -a8))
    return [
        (ka, kb, value)
        for value, ka, kb in reference_pairs(dict(sorted(groups.items())))
    ]


# -- the kernel --------------------------------------------------------------


def dict_pairs(values):
    groups = {}
    for index, value in enumerate(values):
        groups.setdefault(value, []).append(index)
    return sorted((first, second) for _, first, second in reference_pairs(groups))


def kernel(values, dtype=None):
    """``equal_value_pairs`` on a builder that returns a fresh copy of ``values``."""
    return equal_value_pairs(lambda: np.array(values, dtype))


def as_pairs(pairs):
    first, second, _ = pairs
    return list(zip(first.tolist(), second.tolist()))


class TestEqualValuePairs:
    def test_pairs_sort_by_first_then_second(self):
        values = np.array([5, -1, 5, 7, -1, 5, 0], dtype=np.int64)
        assert as_pairs(kernel(values)) == [(0, 2), (0, 5), (1, 4), (2, 5)]

    def test_no_pairs(self):
        assert as_pairs(kernel([], np.int64)) == []
        assert as_pairs(kernel([3, 1, 2], np.int64)) == []

    @pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
    def test_returns_index_arrays(self, dtype):
        first, second, values = kernel([2, 1, 2, 2], dtype)
        assert first.dtype == second.dtype == np.int32
        # a repeat hands back the input-order build
        assert values.dtype == dtype and values.tolist() == [2, 1, 2, 2]

    def test_box_scans_build_again_only_when_a_value_repeats(self, monkeypatch):
        calls, kernels = [], []

        def spy(build):
            def counted():
                calls.append(build)
                return build()
            kernels.append(build)
            return equal_value_pairs(counted)

        monkeypatch.setattr(spectrum, "equal_value_pairs", spy)
        monkeypatch.setattr(products, "equal_value_pairs", spy)
        assert not enumerate_collisions(cross_datum("S2"), 50)
        # the beta search's winner on S2^3 at bound 8: no gap of the heaviest
        # factor's table exceeds the others' span, so the kernel decides
        assert not check_beta([factor_spectrum("S2", 8)] * 3, (179, 191, 229))
        assert len(calls) == 2
        assert enumerate_collisions(ROWS[0], 3)
        assert check_beta([factor_spectrum("S2", 6)] * 2, (1, 1))
        assert len(calls) == 6 and len(kernels) == 4
        # a box the block test certifies never reaches the kernel
        assert not check_beta([factor_spectrum("S2", 30)] * 2, (1, 1000003))
        assert len(calls) == 6 and len(kernels) == 4

    def test_values_straddling_int64_are_exact(self):
        # neighbours of +-2**63 that int64 would wrap or merge
        values = [
            INT64_LIMIT - 1, INT64_LIMIT, INT64_LIMIT + 1, -INT64_LIMIT,
            INT64_LIMIT, -INT64_LIMIT - 1, INT64_LIMIT - 1, 2**64, -INT64_LIMIT - 1, 0,
        ]
        pairs = as_pairs(kernel(values, object))
        assert pairs == dict_pairs(values)
        assert pairs == [(0, 6), (1, 4), (5, 8)]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-5, 5) | st.integers(-(2**70), 2**70), max_size=40))
    def test_matches_dict_pairs(self, values):
        dtype = exact_dtype(max(map(abs, values), default=0))
        assert as_pairs(kernel(values, dtype)) == dict_pairs(values)

    @pytest.mark.parametrize("size", [0, 1, 2, 2**16])
    @pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
    def test_all_distinct_values_return_empty_int32_arrays(self, size, dtype):
        values = np.random.default_rng(size).permutation(size) * 3 - size
        if dtype is object:
            # past 2**63 on both sides, where int64 would wrap
            values = np.array([v * INT64_LIMIT + v for v in values.tolist()], object)
        first, second, kept = kernel(values, values.dtype)
        for index in first, second:
            assert index.dtype == np.int32 and index.shape == (0,)
        assert kept.dtype == values.dtype and kept.shape == (0,)

    def test_collision_free_scan_allocates_only_the_neighbour_mask(self):
        size = 2**20
        values = np.random.default_rng(0).permutation(size).astype(np.int64) * 7
        tracemalloc.start()
        try:
            # the build is the caller's array, sorted in place
            first, second, _ = equal_value_pairs(lambda: values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(first) == len(second) == 0
        # one byte a row; a sorted copy would add 8
        assert peak < 1.1 * size

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("high", [7, 2000], ids=["long-runs", "short-runs"])
    @pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
    def test_interleaved_runs_match_dict_pairs(self, seed, high, dtype):
        # the runs' members interleave in input order, so the blocks of
        # consecutive first indices come from different runs of the value sort
        drawn = np.random.default_rng(seed).integers(0, high, 3000).tolist()
        # values near +-2**63 in int64, and past them as Python ints
        half = high // 2
        scale = INT64_LIMIT // (half + 1) if dtype is np.int64 else INT64_LIMIT
        values = [(v - half) * scale + v for v in drawn]
        pairs = as_pairs(kernel(values, dtype))
        assert pairs == dict_pairs(values)

    def test_many_pair_scan_holds_two_pair_arrays(self):
        values = check_beta([factor_spectrum("S2", 30)] * 3, (1, 1, 1)).values
        tracemalloc.start()
        try:
            first, second, _ = equal_value_pairs(values.copy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(first) == len(second) == 578127
        # two int32 pair-length index arrays at a time, 8 bytes a pair; a
        # kernel that sorts the pairs holds about 57
        assert peak < 12 * len(first) + 64 * len(values)

    def test_dtype_switches_exactly_at_the_bound(self):
        assert exact_dtype(INT64_LIMIT - 1) is np.int64
        assert exact_dtype(INT64_LIMIT) is object


# -- differential tests against the reference loops ---------------------------


ROWS = table_rows()


@pytest.mark.parametrize("datum", ROWS, ids=[d.descriptor.label for d in ROWS])
@settings(max_examples=4, deadline=None)
@given(data=st.data(), exclude=st.booleans())
def test_enumerate_collisions_matches_reference(datum, data, exclude):
    largest = max(b for b in range(1, 2000) if (b + 1) ** datum.rank <= 2000)
    bound = data.draw(st.integers(1, largest), label="bound")
    assert pairref.reports(enumerate_collisions(datum, bound, exclude)) == (
        reference_enumerate_collisions(datum, bound, exclude)
    )


FACTOR_LABELS = (
    [f"S{d}" for d in range(2, 9)]
    + [f"CP{n}" for n in range(1, 5)]
    + [f"HP{n}" for n in range(1, 4)]
    + ["OP2"]
)
positive_rationals = st.fractions(min_value=Fraction(1, 50), max_value=50)


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(st.sampled_from(FACTOR_LABELS), min_size=1, max_size=3),
    data=st.data(),
)
def test_check_beta_matches_reference(labels, data):
    bound = data.draw(st.integers(1, {1: 40, 2: 20, 3: 6}[len(labels)]), label="bound")
    beta = data.draw(
        st.lists(positive_rationals, min_size=len(labels), max_size=len(labels)),
        label="beta",
    )
    factors = [factor_spectrum(label, bound) for label in labels]
    assert pairref.witnesses(check_beta(factors, beta, bound)) == reference_check_beta(factors, beta, bound)


def scaled_factors(bound):
    """7 S2 and 6 CP2: the spectra S2/3 and 2CP2/7 at their common denominator 21."""
    s2, cp2 = factor_spectrum("S2", bound), factor_spectrum("CP2", bound)
    return [
        FactorSpectrum("7S2", tuple(7 * v for v in s2.table)),
        FactorSpectrum("6CP2", tuple(6 * v for v in cp2.table)),
    ]


@pytest.mark.parametrize(
    "factors,beta,dtype",
    [
        ([factor_spectrum("S2", 12), factor_spectrum("CP2", 12)],
         (Fraction(1, 3), Fraction(2, 7)), np.int64),
        ([factor_spectrum("S2", 12)] * 2, (Fraction(1, 3), Fraction(2, 3)), np.int64),
        (scaled_factors(12), (1, 1), np.int64),
        (scaled_factors(12), (Fraction(3, 5), Fraction(7, 4)), np.int64),
        (scaled_factors(12), (Fraction(6, 7), Fraction(1, 3)), np.int64),
        # the lcm of beta's denominators alone puts the sums past 2**63
        ([factor_spectrum("S2", 4)] * 3,
         (Fraction(1, 3), Fraction(1, 3), Fraction(1, 2**62 + 1)), np.dtype(object)),
    ],
    ids=["S2,CP2-1/3,2/7", "S2,S2-1/3,2/3", "scaled-1,1", "scaled-3/5,7/4", "scaled-6/7,1/3",
         "object-by-denominators"],
)
def test_check_beta_with_fractional_weights_matches_reference(factors, beta, dtype):
    pairs = check_beta(factors, beta)
    assert pairs.values.dtype == dtype
    assert pairref.witnesses(pairs) == reference_check_beta(factors, beta)


# -- the block test against the kernel -----------------------------------------


def kernel_check_beta(factors, beta, bound=None):
    """``check_beta`` with the block test switched off: the kernel decides every box."""
    with mock.patch.object(products, "block_verdict", lambda weights, tables, dtype: None):
        return check_beta(factors, beta, bound)


def block_check_beta(factors, beta, bound=None):
    """``check_beta``, and the block test's verdict on its box."""
    verdicts = []

    def recorded(weights, tables, dtype):
        verdicts.append(block_verdict(weights, tables, dtype))
        return verdicts[-1]

    with mock.patch.object(products, "block_verdict", recorded):
        pairs = check_beta(factors, beta, bound)
    # the inner boxes are decided by calls of their own; the whole box's returns last
    return pairs, verdicts[-1]


def assert_same_pairs(pairs, expected):
    assert pairs.rows.dtype == expected.rows.dtype and pairs.rows.shape == expected.rows.shape
    assert pairs.rows.tolist() == expected.rows.tolist()
    for name in ("first", "second", "values"):
        found, wanted = getattr(pairs, name), getattr(expected, name)
        assert found.dtype == wanted.dtype and found.tolist() == wanted.tolist()
    assert pairs.denom == expected.denom and pairs.dual is expected.dual is None


BLOCK_FACTORS = ["S2", "CP2", "HP2", "OP2", "7S2", "6CP2"]


def block_factors(labels, bound):
    scaled = dict(zip(["7S2", "6CP2"], scaled_factors(bound)))
    return [scaled.get(label) or factor_spectrum(label, bound) for label in labels]


# small weights collide, far-apart ones cut, and past 2**63 the box takes Python ints
block_weights = (
    st.integers(1, 5)
    | st.integers(1, 10**9)
    | st.builds(Fraction, st.integers(1, 10**9), st.integers(1, 1000))
    | st.integers(INT64_LIMIT, 2**70)
)


@settings(max_examples=150, deadline=None)
@given(
    labels=st.lists(st.sampled_from(BLOCK_FACTORS), min_size=1, max_size=3),
    bound=st.integers(1, 13),
    weights=st.lists(block_weights, min_size=3, max_size=3),
)
@example(labels=["S2", "S2"], bound=1, weights=[1, 1, 1])  # gap = span: no cut
@example(labels=["S2", "S2", "S2"], bound=6, weights=[1, 1, 10**6])
def test_block_verdict_matches_kernel(labels, bound, weights):
    beta = weights[: len(labels)]
    factors = block_factors(labels, bound)
    expected = kernel_check_beta(factors, beta, bound)
    pairs, verdict = block_check_beta(factors, beta, bound)
    assert verdict in (None, not expected)
    assert_same_pairs(pairs, expected)


@pytest.mark.parametrize(
    "labels,bound,beta,verdict",
    [
        # the gaps of 4 equal the other factor's span: no cut, and (0, 1) ~ (1, 0)
        (["S2", "S2"], 1, (1, 1), None),
        (["S2", "S2", "S2"], 40, (1, 2, 61), None),
        # every gap cut, at every level: no array is built
        (["S2", "S2"], 13, (1, 1000003), True),
        (["S2", "S2", "S2"], 13, (1, 1000003, 1000000000039), True),
        (["S2", "CP2", "OP2"], 13, (1, 1009, 1000033), True),
        (["S2", "S2"], 13, (1, 2**64), True),
        # blocks 0-3 form one cluster, where 30 * 4 + 24 = 144 + 0
        (["S2", "S2"], 13, (1, 30), False),
        # one cut leaves 13 of the 14 blocks in one cluster: nothing is sorted
        (["S2", "S2"], 13, (1, Fraction(15, 2)), None),
        # the inner box over the lighter factors collides, in every block
        (["S2", "S2", "S2"], 6, (1, 1, 10**6), False),
        (["7S2", "6CP2", "S2"], 6, (1, 1, 10**6), False),
    ],
)
def test_block_verdict_cases(labels, bound, beta, verdict):
    factors = block_factors(labels, bound)
    expected = kernel_check_beta(factors, beta, bound)
    pairs, found = block_check_beta(factors, beta, bound)
    assert found is verdict
    assert verdict is None or verdict is not bool(expected)
    assert_same_pairs(pairs, expected)


def test_colliding_core_with_a_separated_top_factor():
    factors = [factor_spectrum("S2", 6)] * 3
    pairs, verdict = block_check_beta(factors, (1, 1, 10**6))
    assert verdict is False and len(pairs) > 0
    assert_same_pairs(pairs, kernel_check_beta(factors, (1, 1, 10**6)))
    assert pairref.witnesses(pairs) == reference_check_beta(factors, (1, 1, 10**6))


def test_nearly_separated_beta_sorts_five_blocks(monkeypatch):
    sorted_sizes = []

    def spy(values):
        sorted_sizes.append(len(values))
        return all_distinct(values)

    monkeypatch.setattr(products, "all_distinct", spy)
    assert not check_beta([factor_spectrum("S2", 2895)] * 2, (1, 1000003))
    # one cluster of 5 blocks of 2,896 values; the other blocks are cut apart
    assert sorted_sizes == [5 * 2896]


def test_block_certified_box_allocates_no_box_length_array():
    factors = [factor_spectrum("S2", 1000)] * 2
    tracemalloc.start()
    try:
        pairs = check_beta(factors, (1, 1000003))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not pairs
    # the sorted offsets of each level, Python ints: about 0.25 bytes a box
    # row, where a neighbour mask alone is 1 and the box of values 8
    assert peak < 0.5 * 1001**2


def test_check_beta_collision_rich_box():
    factors = [factor_spectrum("S2", 6)] * 3
    expected = reference_check_beta(factors, (1, 1, 1))
    assert len(expected) > 100
    assert pairref.witnesses(check_beta(factors, (1, 1, 1))) == expected


def test_check_beta_rejects_bound_beyond_spectrum():
    with pytest.raises(ValueError):
        check_beta([factor_spectrum("S2", 3)], (1,), 4)


def test_collision_hyperplanes_rejects_bound_beyond_spectrum():
    with pytest.raises(ValueError, match="bound exceeds a factor's spectrum"):
        products.collision_hyperplanes([factor_spectrum("S2", 3)] * 2, 4)


@settings(max_examples=40, deadline=None)
@given(
    kmax=st.integers(2, 60),
    a=positive_rationals,
    b=positive_rationals,
)
@example(kmax=60, a=Fraction(1), b=Fraction(1))
@example(kmax=24, a=Fraction(2), b=Fraction(2))
def test_collisions_at_metric_matches_reference(kmax, a, b):
    assert pairref.records(su2f.collisions_at_metric(su2f.invariant_lines(kmax), a, b)) == (
        reference_collisions_at_metric(kmax, a, b)
    )


# -- the int64 boundary -------------------------------------------------------


def cli_output(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "beta",
    [
        "1,9223372036854775807",  # one table passes 2**63
        f"{INT64_LIMIT // 60},{INT64_LIMIT // 60}",  # each table fits, the sums do not
    ],
)
def test_product_beyond_int64_matches_reference(capsys, beta):
    argv = ["product", "--factors", "S2,S2", "--bound", "5", "--beta", beta, "--json"]
    witnesses = reference_check_beta([factor_spectrum("S2", 5)] * 2, beta.split(","))
    payload = {
        "factors": ["S2", "S2"],
        "bound": 5,
        "beta": beta.split(","),
        "collisions": [
            {"array_a": list(w.array_a), "array_b": list(w.array_b),
             "value": rational_to_str(w.value)}
            for w in witnesses
        ],
    }
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert cli_output(capsys, argv) == (1 if witnesses else 0, expected)


def spy_dtypes(monkeypatch, module):
    seen = []

    def spy(build):
        def recorded():
            values = build()
            seen.append(values.dtype)
            return values
        return equal_value_pairs(recorded)

    monkeypatch.setattr(module, "equal_value_pairs", spy)
    return seen


@pytest.mark.parametrize("top,dtype", [(2**62 - 1, np.int64), (2**62, np.dtype(object))])
def test_check_beta_magnitude_bound_is_inclusive(monkeypatch, top, dtype):
    # the largest sum is 2**62 + top: 2**63 - 1 still takes int64, 2**63 does not
    factors = [FactorSpectrum("A", (0, 1, 2**62)), FactorSpectrum("B", (0, 2, top))]
    seen = spy_dtypes(monkeypatch, products)
    found = pairref.witnesses(check_beta(factors, (1, 1)))
    assert found and found == reference_check_beta(factors, (1, 1))
    # a repeat builds twice, at one dtype
    assert seen == [dtype, dtype]


def test_su2f_large_metric_takes_object_side(monkeypatch):
    seen = spy_dtypes(monkeypatch, su2f)
    a, b = Fraction(INT64_LIMIT, 3), Fraction(INT64_LIMIT, 5)
    pairs = su2f.collisions_at_metric(su2f.invariant_lines(12), a, b)
    assert pairref.records(pairs) == reference_collisions_at_metric(12, a, b)
    assert seen and set(seen) == {np.dtype(object)}


def test_enumerate_collisions_takes_int64_on_catalog_boxes(monkeypatch):
    seen = spy_dtypes(monkeypatch, spectrum)
    assert enumerate_collisions(ROWS[0], 3)
    assert seen == [np.int64, np.int64]


# the builders' Python-int path, forced at sizes the reference loops reach


@pytest.mark.parametrize("datum", ROWS, ids=[d.descriptor.label for d in ROWS])
@pytest.mark.parametrize("exclude", [False, True], ids=["duals", "no-duals"])
def test_enumerate_collisions_object_path_matches_reference(monkeypatch, datum, exclude):
    monkeypatch.setattr(spectrum, "exact_dtype", lambda magnitude: object)
    bound = max(b for b in range(1, 300) if (b + 1) ** datum.rank <= 300)
    pairs = enumerate_collisions(datum, bound, exclude)
    assert pairs.values.dtype == object
    assert pairref.reports(pairs) == reference_enumerate_collisions(datum, bound, exclude)


@pytest.mark.parametrize(
    "labels,bound,beta",
    [
        (["S2", "S2", "S2"], 6, (1, 1, 1)),
        (["S2", "CP2"], 12, (Fraction(1, 3), Fraction(2, 7))),
        (["S2", "CP2", "OP2"], 5, (1, 1009, 1000033)),  # collision-free
    ],
    ids=["S2x3", "S2,CP2", "S2,CP2,OP2-free"],
)
def test_check_beta_object_path_matches_reference(monkeypatch, labels, bound, beta):
    monkeypatch.setattr(products, "exact_dtype", lambda magnitude: object)
    factors = [factor_spectrum(label, bound) for label in labels]
    pairs = check_beta(factors, beta)
    assert pairs.values.dtype == object
    assert pairref.witnesses(pairs) == reference_check_beta(factors, beta)
