from fractions import Fraction
from itertools import islice
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimirspec.products import (
    FactorSpectrum,
    candidate_tuples,
    check_beta,
    collision_hyperplanes,
    factor_spectrum,
    generic_beta_certificate,
    prime_sequence,
)
from casimirspec.spectrum import weight_box
from casimirspec.symmdata import restricted_datum


def reference_collision_hyperplanes(factors, bound):
    """The pair loop over box arrays that collision_hyperplanes replaced."""
    denom = lcm(*(v.denominator for f in factors for v in f.eigenvalues))
    values = [
        tuple(int(f.eigenvalues[m] * denom) for m, f in zip(array, factors))
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
    return sorted(normals)


HYPERPLANE_LABELS = ["S2", "S3", "S4", "S5", "CP2", "CP3", "HP2", "OP2"]


class TestFactorSpectrum:
    def test_two_sphere(self):
        spec = factor_spectrum("S2", 5)
        assert spec.eigenvalues == (0, 4, 12, 24, 40, 60)  # 2 m (m + 1)

    def test_monotone_to_large_bound(self):
        spec = factor_spectrum("OP2", 300)
        values = spec.eigenvalues
        assert all(values[i] < values[i + 1] for i in range(len(values) - 1))

    def test_rejects_higher_rank(self):
        with pytest.raises(ValueError):
            factor_spectrum(restricted_datum("BI", r=3, ell=2), 5)

    def test_lambda_array(self):
        from casimirspec.products import lambda_array

        factors = [factor_spectrum("S2", 5), factor_spectrum("CP2", 5)]
        values = lambda_array(factors, (1, 2))
        assert values == (factors[0].eigenvalues[1], factors[1].eigenvalues[2])
        with pytest.raises(ValueError):
            lambda_array(factors, (1,))


class TestHyperplanes:
    def test_two_spheres_contains_diagonal(self):
        factors = [factor_spectrum("S2", 8)] * 2
        normals = collision_hyperplanes(factors, 8)
        # lambda(1,2) - lambda(2,1) = (-8, 8), primitive (-1, 1)
        assert (-1, 1) in normals and (1, -1) in normals

    def test_single_factor_empty(self):
        factors = [factor_spectrum("S2", 10)]
        assert collision_hyperplanes(factors, 10) == []

    def test_only_mixed_sign_directions(self):
        factors = [factor_spectrum("S2", 6), factor_spectrum("CP2", 6)]
        for normal in collision_hyperplanes(factors, 6):
            assert any(x > 0 for x in normal) and any(x < 0 for x in normal)

    @settings(max_examples=40, deadline=None)
    @given(
        labels=st.lists(st.sampled_from(HYPERPLANE_LABELS), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_matches_reference_pair_loop(self, labels, data):
        bound = data.draw(st.integers(1, {1: 40, 2: 16, 3: 5}[len(labels)]), label="bound")
        factors = [factor_spectrum(label, bound) for label in labels]
        assert collision_hyperplanes(factors, bound) == reference_collision_hyperplanes(
            factors, bound
        )

    def test_matches_reference_pair_loop_two_spheres_bound30(self):
        factors = [factor_spectrum("S2", 30)] * 2
        normals = collision_hyperplanes(factors, 30)
        assert len(normals) == 67234
        assert normals == reference_collision_hyperplanes(factors, 30)

    def test_matches_reference_pair_loop_on_rational_spectra(self):
        # every shipped spectrum is integral; these scaled copies are not,
        # and the first table runs past the bound
        s2, cp2 = factor_spectrum("S2", 12), factor_spectrum("CP2", 6)
        factors = [
            FactorSpectrum("S2/3", s2.datum, tuple(v / 3 for v in s2.eigenvalues)),
            FactorSpectrum("2CP2/7", cp2.datum, tuple(v * 2 / 7 for v in cp2.eigenvalues)),
        ]
        normals = collision_hyperplanes(factors, 6)
        assert normals == reference_collision_hyperplanes(factors, 6)
        # lambda(1, 0) - lambda(0, 1) = (4/3, -24/7) = (4/21) * (7, -18)
        assert (7, -18) in normals and (-7, 18) in normals


class TestCheckBeta:
    def test_symmetric_beta_rejected_with_witness(self):
        factors = [factor_spectrum("S2", 30)] * 2
        witnesses = check_beta(factors, (1, 1), 30)
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

    def test_level_order(self):
        head = list(islice(candidate_tuples(2), 9))
        assert head == [
            (1, 1),
            (1, 2), (2, 1), (2, 2),
            (1, 3), (2, 3), (3, 1), (3, 2), (3, 3),
        ]

    def test_single_entry(self):
        assert list(islice(candidate_tuples(1), 4)) == [(1,), (2,), (3,), (5,)]


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
        from casimirspec.symmdata import cross_datum

        for alias in ("S2", "CP2", "OP2"):
            datum = cross_datum(alias)
            assert enumerate_collisions(datum, 500) == []
            factor_spectrum(alias, 500)  # asserts strict monotonicity
