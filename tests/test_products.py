from fractions import Fraction
from itertools import islice, product
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairref
from specref import rank_one_catalog, weight_box

from casimirspec import products
from casimirspec.products import (
    FactorSpectrum,
    candidate_tuples,
    check_beta,
    collision_hyperplanes,
    factor_spectrum,
    first_free_candidate,
    generic_beta_certificate,
    prime_sequence,
)
from casimirspec.rootsys import CartanData
from casimirspec.spectrum import eigenvalue
from casimirspec.symmdata import RestrictedDatum, cross_datum, restricted_datum


def reference_collision_hyperplanes(factors, bound):
    """The pair loop over box arrays that collision_hyperplanes replaced."""
    values = [
        tuple(f.table[m] for m, f in zip(array, factors))
        for array in weight_box(len(factors), bound).tolist()
    ]
    normals = set()
    for i, vi in enumerate(values):
        for vj in values[i + 1:]:
            diff = tuple(x - y for x, y in zip(vi, vj))
            if any(x > 0 for x in diff) and any(x < 0 for x in diff):
                content = gcd(*diff)
                primitive = tuple(x // content for x in diff)
                normals.add(primitive)
                normals.add(tuple(-x for x in primitive))
    return [list(normal) for normal in sorted(normals)]


def reference_candidate_tuples(length):
    """The level enumeration that filtered every tuple of a level's cube."""
    seq = []
    gen = prime_sequence()
    level = 0
    while True:
        while len(seq) <= level:
            seq.append(next(gen))
        for indices in product(range(level + 1), repeat=length):
            if max(indices) == level:
                yield tuple(seq[i] for i in indices)
        level += 1


def reference_generic_beta(factors, bound):
    """The per-candidate loop the batched search replaced: (beta, tried)."""
    for tried, candidate in enumerate(reference_candidate_tuples(len(factors)), 1):
        if not check_beta(factors, candidate, bound):
            return candidate, tried


HYPERPLANE_LABELS = ["S2", "S3", "S4", "S5", "CP2", "CP3", "HP2", "OP2"]


def scaled_factors(bound):
    """7 S2 and 6 CP2: the spectra S2/3 and 2CP2/7 at their common denominator 21.

    A uniform scale of the spectra moves no collision, normal or beta
    winner, so these stand for the rational factors t / D.
    """
    s2, cp2 = factor_spectrum("S2", bound), factor_spectrum("CP2", bound)
    return [
        FactorSpectrum("7S2", tuple(7 * v for v in s2.table)),
        FactorSpectrum("6CP2", tuple(6 * v for v in cp2.table)),
    ]


def rational_datum():
    """CP2 with a rational norm and half-sum: its eigenvalues are not integers."""
    datum = cross_datum("CP2")
    c = datum.cartan
    rational = CartanData(c.system, c.cartan, (Fraction(2, 3),), c.doubled)
    return RestrictedDatum(datum.descriptor, rational, (Fraction(5, 7),))


# cross_datum aliases of every family and the rank-one catalog data
FACTOR_SPECTRUM_CASES = [
    *(f"S{d}" for d in (2, 3, 4, 5, 7, 16)),
    *(f"CP{n}" for n in (1, 2, 3, 5)),
    *(f"HP{n}" for n in (1, 2, 3, 4)),
    "OP2",
    "FII",
    *(pytest.param(d, id=f"catalog-{d.descriptor.label}") for d in rank_one_catalog()),
]


class TestFactorSpectrum:
    def test_two_sphere(self):
        spec = factor_spectrum("S2", 5)
        assert spec.table == (0, 4, 12, 24, 40, 60)  # 2 m (m + 1)

    def test_monotone_to_large_bound(self):
        spec = factor_spectrum("OP2", 300)
        values = spec.table
        assert all(values[i] < values[i + 1] for i in range(len(values) - 1))

    def test_rejects_higher_rank(self):
        with pytest.raises(ValueError):
            factor_spectrum(restricted_datum("BI", r=3, ell=2), 5)

    @pytest.mark.parametrize("factor", FACTOR_SPECTRUM_CASES)
    def test_matches_per_index_eigenvalues(self, factor):
        datum = cross_datum(factor) if isinstance(factor, str) else factor
        expected = tuple(eigenvalue(datum, (m,)) for m in range(301))
        assert factor_spectrum(factor, 300).table == expected

    def test_refuses_non_integral_spectrum(self):
        datum = rational_datum()
        assert eigenvalue(datum, (1,)).denominator != 1
        with pytest.raises(ValueError, match="non-integral spectrum"):
            factor_spectrum(datum, 5)


class TestHyperplanes:
    def test_two_spheres_contains_diagonal(self):
        factors = [factor_spectrum("S2", 8)] * 2
        normals = collision_hyperplanes(factors, 8).tolist()
        # lambda(1,2) - lambda(2,1) = (-8, 8), primitive (-1, 1)
        assert [-1, 1] in normals and [1, -1] in normals

    def test_single_factor_empty(self):
        factors = [factor_spectrum("S2", 10)]
        assert len(collision_hyperplanes(factors, 10)) == 0

    def test_only_mixed_sign_directions(self):
        factors = [factor_spectrum("S2", 6), factor_spectrum("CP2", 6)]
        for normal in collision_hyperplanes(factors, 6).tolist():
            assert any(x > 0 for x in normal) and any(x < 0 for x in normal)

    @settings(max_examples=40, deadline=None)
    @given(
        labels=st.lists(st.sampled_from(HYPERPLANE_LABELS), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_matches_reference_pair_loop(self, labels, data):
        bound = data.draw(st.integers(1, {1: 40, 2: 16, 3: 5}[len(labels)]), label="bound")
        factors = [factor_spectrum(label, bound) for label in labels]
        assert collision_hyperplanes(factors, bound).tolist() == reference_collision_hyperplanes(
            factors, bound
        )

    def test_matches_reference_pair_loop_two_spheres_bound30(self):
        factors = [factor_spectrum("S2", 30)] * 2
        normals = collision_hyperplanes(factors, 30)
        assert len(normals) == 67234
        assert normals.tolist() == reference_collision_hyperplanes(factors, 30)

    def test_matches_reference_pair_loop_on_scaled_spectra(self):
        # the first table runs past the bound
        factors = [scaled_factors(12)[0], scaled_factors(6)[1]]
        normals = collision_hyperplanes(factors, 6).tolist()
        assert normals == reference_collision_hyperplanes(factors, 6)
        # lambda(1, 0) - lambda(0, 1) = (28, -72) = 4 * (7, -18)
        assert [7, -18] in normals and [-7, 18] in normals

    @pytest.mark.parametrize(
        "labels,bound",
        [
            ("7S2,6CP2", 9),
            ("7S2,6CP2,S2", 5),
            ("S2,S2,S2", 6),
            ("6CP2,S3,7S2", 4),
            ("7S2,6CP2,S2,OP2", 2),
            ("S3,S3,S3,S3", 2),
        ],
    )
    # a chunk of 1 row enumerates every block row by row; chunks of 7 and 100
    # rows split blocks between leading rows and a broadcast trailing grid.
    # The int64-keys limit lies between 2M + 1 and (2M + 1)^n: the keys take
    # int64 while the normals stay int32
    @pytest.mark.parametrize(
        "path,chunk",
        [("int32", products.HYPERPLANE_CHUNK), ("int32", 100), ("int32", 7), ("int32", 1),
         ("int64-keys", products.HYPERPLANE_CHUNK), ("int64-keys", 7), ("int64-keys", 1),
         ("python-int", products.HYPERPLANE_CHUNK)],
    )
    def test_walk_matches_reference_on_two_to_four_factors(
        self, monkeypatch, labels, bound, path, chunk
    ):
        scaled = dict(zip(["7S2", "6CP2"], scaled_factors(bound)))
        factors = [scaled.get(label) or factor_spectrum(label, bound) for label in labels.split(",")]
        base = 2 * max(max(f.table[: bound + 1]) - min(f.table[: bound + 1]) for f in factors) + 1
        limit = {"int32": products.INT32_LIMIT, "int64-keys": base + 1, "python-int": 1}[path]
        wide = object if path == "python-int" else np.int64
        monkeypatch.setattr(products, "HYPERPLANE_CHUNK", chunk)
        monkeypatch.setattr(products, "INT32_LIMIT", limit)
        asked = []
        monkeypatch.setattr(products, "exact_dtype", lambda magnitude: asked.append(wide) or wide)
        normals = collision_hyperplanes(factors, bound)
        # the keys, below (2M + 1)^n, and the normals, below 2M + 1, leave int32 at the limit
        assert len(asked) == (base ** len(factors) >= limit) + (base >= limit)
        assert normals.dtype == (np.int32 if base < limit else wide)
        normals = normals.tolist()
        assert normals == reference_collision_hyperplanes(factors, bound)
        # the walk takes one sign per normal: a normal is there with its negation
        assert normals == [[-x for x in normal] for normal in reversed(normals)]
        # rows with d_1 = 0 (and d_1 = d_2 = 0 at n = 4) mix signs in their other entries
        for zeros in range(1, len(factors) - 1):
            assert any(normal[:zeros] == [0] * zeros and normal[zeros] > 0 for normal in normals)


class TestCheckBeta:
    def test_symmetric_beta_rejected_with_witness(self):
        factors = [factor_spectrum("S2", 30)] * 2
        witnesses = pairref.witnesses(check_beta(factors, (1, 1), 30))
        keys = {(w.array_a, w.array_b) for w in witnesses}
        assert ((1, 2), (2, 1)) in keys
        sixteen = next(
            w for w in witnesses if (w.array_a, w.array_b) == ((1, 2), (2, 1))
        )
        assert sixteen.value == 16

    def test_beta_validation(self):
        factors = [factor_spectrum("S2", 5)] * 2
        with pytest.raises(ValueError):
            check_beta(factors, (1,), 5)
        with pytest.raises(ValueError):
            check_beta(factors, (1, 0), 5)


class TestCandidateSequence:
    def test_prime_sequence_head(self):
        assert list(islice(prime_sequence(), 8)) == [1, 2, 3, 5, 7, 11, 13, 17]

    def test_prime_sequence_matches_a_sieve(self):
        # the 9,999th prime is 104,723
        limit = 104_724
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for p in range(2, int(limit**0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
        primes = [n for n in range(limit) if sieve[n]]
        assert len(primes) == 9_999
        assert list(islice(prime_sequence(), 10_000)) == [1] + primes

    def test_level_order(self):
        head = list(islice(candidate_tuples(2), 9))
        assert head == [
            (1, 1),
            (1, 2), (2, 1), (2, 2),
            (1, 3), (2, 3), (3, 1), (3, 2), (3, 3),
        ]

    def test_single_entry(self):
        assert list(islice(candidate_tuples(1), 4)) == [(1,), (2,), (3,), (5,)]

    @pytest.mark.parametrize("length,count", [(1, 60), (2, 3000), (3, 20000), (4, 20000)])
    def test_matches_level_filter(self, length, count):
        assert list(islice(candidate_tuples(length), count)) == list(
            islice(reference_candidate_tuples(length), count)
        )


class TestCertificate:
    def test_two_spheres_bound30(self):
        factors = [factor_spectrum("S2", 30)] * 2
        cert = generic_beta_certificate(factors, 30)
        assert cert.beta == (1, 61)
        assert cert.distinct_values == 31 * 31
        assert not check_beta(factors, cert.beta, 30)

    def test_scaling_preserves_certificate(self):
        factors = [factor_spectrum("S2", 12)] * 2
        cert = generic_beta_certificate(factors, 12)
        scaled = tuple(Fraction(3, 7) * b for b in cert.beta)
        assert not check_beta(factors, scaled, 12)

    def test_single_factor_immediate(self):
        factors = [factor_spectrum("HP2", 25)]
        cert = generic_beta_certificate(factors, 25)
        assert cert.beta == (1,)
        assert cert.candidates_tried == 1
        assert cert.hyperplanes == 0

    def test_mixed_factors(self):
        factors = [factor_spectrum("S2", 10), factor_spectrum("S3", 10)]
        cert = generic_beta_certificate(factors, 10)
        assert not check_beta(factors, cert.beta, 10)

    def test_consistency_with_rank_one_collision_scan(self):
        # per-factor injectivity is the same statement as an empty
        # rank-one collision scan
        from casimirspec.spectrum import enumerate_collisions

        for alias in ("S2", "CP2", "OP2"):
            datum = cross_datum(alias)
            assert not enumerate_collisions(datum, 500)
            factor_spectrum(alias, 500)  # asserts strict monotonicity


class TestBatchedSearch:
    """The batched search against the per-candidate check_beta loop."""

    @settings(max_examples=40, deadline=None)
    @given(
        labels=st.lists(st.sampled_from(HYPERPLANE_LABELS), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_matches_per_candidate_oracle(self, labels, data):
        bound = data.draw(st.integers(1, {1: 12, 2: 8, 3: 3}[len(labels)]), label="bound")
        factors = [factor_spectrum(label, bound) for label in labels]
        cert = generic_beta_certificate(factors, bound)
        assert (cert.beta, cert.candidates_tried) == reference_generic_beta(factors, bound)

    @pytest.mark.parametrize("bound", [1, 3, 6])
    def test_matches_oracle_on_scaled_spectra(self, bound):
        factors = scaled_factors(bound)
        cert = generic_beta_certificate(factors, bound)
        assert (cert.beta, cert.candidates_tried) == reference_generic_beta(factors, bound)
        assert cert.hyperplanes == len(reference_collision_hyperplanes(factors, bound))

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    @pytest.mark.parametrize(
        "labels,bound", [("S2,S2", 4), ("S2,S2", 5), ("S4,S4", 2), ("S2,S2,S2", 2), ("S2", 3)]
    )
    def test_batch_sizes(self, monkeypatch, rows, labels, bound):
        # batches of at most `rows` candidates put winners first, last and
        # in the middle of a batch, and after several full batches
        factors = [factor_spectrum(label, bound) for label in labels.split(",")]
        monkeypatch.setattr(products, "BATCH_ENTRIES", rows * (bound + 1) ** len(factors))
        cert = generic_beta_certificate(factors, bound)
        assert (cert.beta, cert.candidates_tried) == reference_generic_beta(factors, bound)

    def test_first_free_candidate_positions(self):
        factors = [factor_spectrum("S2", 4)] * 2
        tables = [f.table for f in factors]
        # (1, 1) and (1, 2) collide at bound 4, (1, 11) does not
        assert first_free_candidate(tables, [(1, 11), (1, 1)]) == 0
        assert first_free_candidate(tables, [(1, 1), (1, 2), (1, 11)]) == 2
        assert first_free_candidate(tables, [(1, 1), (1, 2)]) == -1

    @pytest.mark.parametrize("int32_limit", [1, products.INT32_LIMIT])
    @pytest.mark.parametrize("labels,bound", [("S2,S2", 6), ("S2,CP2,OP2", 3)])
    def test_int32_and_int64_batches_agree(self, monkeypatch, int32_limit, labels, bound):
        # limit 1 builds every batch in int64; these boxes are int32 otherwise
        factors = [factor_spectrum(label, bound) for label in labels.split(",")]
        expected = reference_generic_beta(factors, bound)
        monkeypatch.setattr(products, "INT32_LIMIT", int32_limit)
        cert = generic_beta_certificate(factors, bound)
        assert (cert.beta, cert.candidates_tried) == expected

    def test_int32_limit_keeps_batches_exact(self, monkeypatch):
        # max(c) * sum_i max |t_i| is 2**31 - 1 for the first batch and 2**32 + 1
        # for the second, whose 2**32 wraps to 0 in int32
        narrow = [np.array([0, 2**31 - 2]), np.array([0, 1])]
        wide = [np.array([0, 2**32]), np.array([0, 1])]
        assert first_free_candidate(narrow, [(1, 1)]) == 0
        assert first_free_candidate(wide, [(1, 1)]) == 0
        monkeypatch.setattr(products, "INT32_LIMIT", 2**63)
        assert first_free_candidate(wide, [(1, 1)]) == -1

    @pytest.mark.parametrize("limit", [1, 300])
    def test_python_int_fallback(self, monkeypatch, limit):
        # with no int32 batch, the five batches bound their sums by 80, 160,
        # 240, 400 and 880: limit 1 builds every batch on object arrays, 300
        # keeps the first three in int64
        factors = [factor_spectrum("S2", 4)] * 2
        expected = reference_generic_beta(factors, 4)
        monkeypatch.setattr(products, "INT32_LIMIT", 1)
        asked = {}

        def forced(magnitude):
            asked[magnitude] = object if magnitude >= limit else np.int64
            return asked[magnitude]

        monkeypatch.setattr(products, "exact_dtype", forced)
        cert = generic_beta_certificate(factors, 4)
        assert (cert.beta, cert.candidates_tried) == expected
        assert cert.hyperplanes == 106
        batches = [asked[widest] for widest in (80, 160, 240, 400, 880)]
        assert batches == ([object] * 5 if limit == 1 else [np.int64] * 3 + [object] * 2)

    @pytest.mark.parametrize(
        "labels,bound", [("S2,S2", 12), ("S2,CP2,OP2", 3), ("S3,S3,S3,S3", 1)]
    )
    def test_hyperplanes_python_int_fallback(self, monkeypatch, labels, bound):
        factors = [factor_spectrum(label, bound) for label in labels.split(",")]
        expected = collision_hyperplanes(factors, bound)
        monkeypatch.setattr(products, "INT32_LIMIT", 1)
        monkeypatch.setattr(products, "exact_dtype", lambda magnitude: object)
        normals = collision_hyperplanes(factors, bound)
        assert normals.dtype == object
        assert normals.tolist() == expected.tolist()
        assert normals.tolist() == reference_collision_hyperplanes(factors, bound)

    def test_hyperplanes_at_the_packing_bound(self, monkeypatch):
        # every key of S2, S2 at bound 3 is below (2M + 1)^n = 49**2, the walk's
        # bound, and every normal entry below 2M + 1 = 49 before the shift
        factors = [factor_spectrum("S2", 3)] * 2
        expected = reference_collision_hyperplanes(factors, 3)
        asked = []

        def forced(magnitude):
            asked.append(magnitude)
            return object

        monkeypatch.setattr(products, "INT32_LIMIT", 1)
        monkeypatch.setattr(products, "exact_dtype", forced)
        normals = collision_hyperplanes(factors, 3)
        assert normals.dtype == object
        assert normals.tolist() == expected
        assert asked == [49**2, 49]

    @pytest.mark.parametrize("top", [2**62 + 5, 2**64])
    def test_huge_spectra_take_python_ints(self, top):
        # (2M + 1)^2 passes 2**63, and with 2**64 the normals themselves do
        factors = [FactorSpectrum("A", (0, 1, 2**62)), FactorSpectrum("B", (0, 2, top))]
        normals = collision_hyperplanes(factors)
        assert normals.dtype == object
        assert normals.tolist() == reference_collision_hyperplanes(factors, 2)
        cert = generic_beta_certificate(factors)
        assert (cert.beta, cert.candidates_tried) == reference_generic_beta(factors, 2)
        assert cert.hyperplanes == len(normals)

    def test_boundary_check_failure_raises(self, monkeypatch):
        # a search that stopped one candidate early is caught by check_beta
        factors = [factor_spectrum("S2", 4)] * 2
        monkeypatch.setattr(products, "first_free_candidate", lambda tables, batch: 0)
        with pytest.raises(AssertionError):
            generic_beta_certificate(factors, 4)

    def test_search_cap_refuses(self, monkeypatch):
        factors = [factor_spectrum("S2", 4)] * 2
        monkeypatch.setattr(products, "MAX_SEARCH_ENTRIES", 25 * 25)
        with pytest.raises(ValueError, match="first 25 candidates"):
            generic_beta_certificate(factors, 4)
        # the winner is candidate 26: a cap of 26 candidates still finds it
        monkeypatch.setattr(products, "MAX_SEARCH_ENTRIES", 26 * 25)
        assert generic_beta_certificate(factors, 4).candidates_tried == 26

    def test_difference_grid_cap_refuses(self, monkeypatch):
        factors = [factor_spectrum("S2", 4)] * 2
        monkeypatch.setattr(products, "MAX_DIFFERENCE_GRID", 80)

        class Unread(tuple):
            """A table whose entries cannot be read: only its length is known."""

            def __getitem__(self, index):
                raise AssertionError("a table was read")

        # |D_i| >= 2 * 4 + 1 = 9, so 9 * 9 is refused before any table is read,
        # so before any difference set is built
        unread = [FactorSpectrum(f.label, Unread(f.table)) for f in factors]
        with pytest.raises(ValueError, match="at least 81 vectors exceeds the maximum of 80"):
            collision_hyperplanes(unread, 4)
        # |D_i| = 19 for S2 at bound 4
        monkeypatch.setattr(products, "MAX_DIFFERENCE_GRID", 19 * 19 - 1)
        with pytest.raises(ValueError, match="at least 361 vectors"):
            collision_hyperplanes(factors, 4)
        monkeypatch.setattr(products, "MAX_DIFFERENCE_GRID", 19 * 19)
        assert len(collision_hyperplanes(factors, 4)) == 106
