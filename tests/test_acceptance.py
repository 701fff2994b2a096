"""Acceptance gate: one test per criterion, exact tolerances, stated budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion with its runtime.  Exact arithmetic means every equality
below is literal.
"""

import random
import time
from fractions import Fraction

from polyref import coefficients_at, first_derivative, poly_at, poly_derivative, shares_root
import pairref
import specref

from casimirspec import bundles, products, spectrum, su2f
from casimirspec.exactalg import MultiPoly, char_poly, resultant
from casimirspec.rootsys import cartan_data, gram_matrix, parse_type
from casimirspec.spectrum import eigenvalue
from casimirspec.symmdata import restricted_datum


def _report(number, name, started, limit):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s (limit {limit}s)")
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


def test_criterion_1_half_sum_catalog():
    started = time.time()
    expected = {
        ("AI", (("r", 5),)): (1, 1, 1, 1, 1),
        ("AII", (("r", 7),)): (4, 4, 4),
        ("AIII1", (("r", 6), ("ell", 2))): (2, 4),
        ("AIII2", (("ell", 3),)): (2, 2, 1),
        ("BI", (("r", 4), ("ell", 2))): (1, 5),
        ("CI", (("ell", 3),)): (1, 1, 1),
        ("CII1", (("r", 6), ("ell", 2))): (4, 7),
        ("CII2", (("ell", 2),)): (4, 3),
        ("DI1", (("ell", 3),)): (1, 1, 2),
        ("DI2", (("r", 5), ("ell", 3))): (1, 1, 4),
        ("DI3", (("ell", 4),)): (1, 1, 1, 1),
        ("DIII1", (("ell", 3),)): (4, 4, 1),
        ("DIII2", (("ell", 3),)): (4, 4, 3),
        ("EI", ()): (1, 1, 1, 1, 1, 1),
        ("EII", ()): (2, 1, 2, 1),
        ("EIII", ()): (5, 6),
        ("EIV", ()): (8, 8),
        ("EV", ()): (1, 1, 1, 1, 1, 1, 1),
        ("EVI", ()): (1, 1, 4, 4),
        ("EVII", ()): (8, 8, 1),
        ("EVIII", ()): (1, 1, 1, 1, 1, 1, 1, 1),
        ("EIX", ()): (1, 1, 8, 8),
        ("FI", ()): (1, 1, 1, 1),
        ("G", ()): (1, 1),
    }
    for (label, params), value in expected.items():
        datum = restricted_datum(label, **dict(params))
        assert datum.two_delta_bar == tuple(Fraction(v) for v in value), label
    _report(1, "half-sum catalog reproduction", started, 1)


def test_criterion_2_gram_matrices():
    started = time.time()
    F = Fraction
    assert gram_matrix(cartan_data(parse_type("B2"))) == (
        (F(2), F(2)), (F(2), F(4)),
    )
    assert gram_matrix(cartan_data(parse_type("C2"))) == (
        (F(4), F(2)), (F(2), F(2)),
    )
    _report(2, "rank-two Gram matrices", started, 1)


def test_criterion_3_rank_two_catalog():
    started = time.time()
    xy = ("x", "y")
    xyr = ("x", "y", "r")
    displayed = {
        # each entry: the closed-form eigenvalue polynomial, verbatim
        "AIII1": MultiPoly(xyr, {
            (1, 0, 1): 2, (2, 0, 0): 4, (0, 1, 1): 2, (1, 1, 0): 4,
            (0, 2, 0): 2, (1, 0, 0): 4,
        }),
        "AIII2": MultiPoly(xy, {
            (2, 0): 4, (1, 1): 4, (0, 2): 2, (1, 0): 10, (0, 1): 6,
        }),
        "BI": MultiPoly(xyr, {
            (1, 0, 1): 4, (2, 0, 0): 2, (0, 1, 1): 8, (1, 1, 0): 4,
            (0, 2, 0): 4, (1, 0, 0): -4, (0, 1, 0): -10,
        }),
        "CII1": MultiPoly(xyr, {
            (1, 0, 1): 4, (2, 0, 0): 2, (0, 1, 1): 8, (1, 1, 0): 4,
            (0, 2, 0): 4, (1, 0, 0): -2, (0, 1, 0): -12,
        }),
        "CII2": MultiPoly(xy, {
            (2, 0): 2, (1, 1): 4, (0, 2): 4, (1, 0): 14, (0, 1): 20,
        }),
        "DI1": MultiPoly(xy, {
            (2, 0): 2, (1, 1): 4, (0, 2): 4, (1, 0): 6, (0, 1): 10,
        }),
        "DI2": MultiPoly(xyr, {
            (1, 0, 1): 4, (2, 0, 0): 2, (0, 1, 1): 8, (1, 1, 0): 4,
            (0, 2, 0): 4, (1, 0, 0): -6, (0, 1, 0): -14,
        }),
        "DIII1": MultiPoly(xy, {
            (2, 0): 2, (1, 1): 4, (0, 2): 4, (1, 0): 10, (0, 1): 12,
        }),
        # 2(2x + y + 11)x + 2(x + y + 7)y, expanded
        "DIII2": MultiPoly(xy, {
            (2, 0): 4, (1, 1): 4, (0, 2): 2, (1, 0): 22, (0, 1): 14,
        }),
        "EIII": MultiPoly(xy, {
            (2, 0): 2, (1, 1): 4, (0, 2): 4, (1, 0): 22, (0, 1): 34,
        }),
    }
    catalog = {case.label: case for case in spectrum.rank2_catalog()}
    assert len(catalog) == 10
    for label, expected in displayed.items():
        assert catalog[label].polynomial == expected, label
    for case in catalog.values():
        for pair in case.pairs:
            assert spectrum.verify_rank2_pair(case, pair), (
                case.label, pair.description,
            )
    # pinned collision values
    aiii2 = catalog["AIII2"].polynomial
    for point in (((2, 0)), ((0, 3))):
        assert poly_at(aiii2, {"x": point[0], "y": point[1]}) == 36
    bi = specref.polynomial_at(catalog["BI"], 3)
    assert poly_at(bi, {"x": 6, "y": 0}) == 120
    assert poly_at(bi, {"x": 0, "y": 4}) == 120
    _report(3, "rank-two catalog identities", started, 1)


def test_criterion_4_reflection_witnesses():
    started = time.time()
    data = [
        ("AI", {"r": 3}), ("AI", {"r": 4}), ("AI", {"r": 5}), ("AI", {"r": 6}),
        ("BI", {"r": 5, "ell": 3}), ("CI", {"ell": 3}),
        ("DIII1", {"ell": 3}), ("DIII2", {"ell": 3}),
        ("EI", {}), ("FI", {}),
    ]
    for label, params in data:
        datum = restricted_datum(label, **params)
        witness = spectrum.reflection_witness(datum)
        v, w = witness.weight_v, witness.weight_w
        assert v != w and all(c >= 0 for c in v) and all(c >= 0 for c in w)
        assert eigenvalue(datum, v) == eigenvalue(datum, w)
        assert spectrum.dual_weight(datum, v) != w
        fixed = specref.reflect(datum, witness.alpha, datum.two_delta_bar)
        assert tuple(fixed) == tuple(Fraction(x) for x in datum.two_delta_bar)
    pinned = spectrum.reflection_witness(restricted_datum("AI", r=3))
    assert pinned.weight_v == (3, 0, 3)
    assert pinned.weight_w == (0, 3, 2)
    assert pinned.eigenvalue == 108
    _report(4, "reflection witnesses", started, 5)


def test_criterion_5_rank_one_emptiness():
    started = time.time()
    data = specref.rank_one_catalog()
    assert {str(d.descriptor.restricted_type) for d in data} == {"A1", "BC1"}
    for datum in data:
        assert not spectrum.enumerate_collisions(datum, 10_000)
    _report(5, "rank-one collision emptiness", started, 10)


def test_criterion_6_hopf_swap_theorem():
    started = time.time()
    total_checked = 0
    for n in (2, 3, 4):
        report = bundles.hopf_swap_theorem_scan(n, 40)
        assert report.non_swap_pairs == (), n
        assert report.swap_pairs == report.collision_pairs, n
        assert report.agreement_mismatches == 0, n
        total_checked += report.agreement_pairs_checked
    assert total_checked == 3 * (41 * 41) ** 2
    _report(6, "Hopf swap theorem, n in {2,3,4}, bound 40", started, 60)


def test_criterion_7_su2f():
    started = time.time()
    kmax = 60
    for k in range(kmax + 1):
        space = su2f.fixed_space(k)
        if k % 2 == 1:
            assert space == (), k
        assert len(space) == specref.predicted_dimension(k), k
    report = su2f.simplicity_certificate(kmax)
    assert report.within_k_distinct and report.cross_k_injective
    metric = specref.find_simple_metric(kmax)
    assert metric[0] != metric[1]
    lines = su2f.invariant_lines(kmax)
    assert not su2f.collisions_at_metric(lines, *metric)
    round_point = su2f.collisions_at_metric(lines, Fraction(1), Fraction(1))
    assert len(round_point) >= 1
    _report(7, "SU(2)/F certificate up to k = 60", started, 30)


def test_criterion_8_products():
    started = time.time()
    factors = [products.factor_spectrum("S2", 30)] * 2
    rejected = pairref.witnesses(products.check_beta(factors, (1, 1), 30))
    keys = {(w.array_a, w.array_b) for w in rejected}
    assert ((1, 2), (2, 1)) in keys
    certificate = products.generic_beta_certificate(factors, 30)
    assert certificate.beta[0] != certificate.beta[1]
    assert not products.check_beta(factors, certificate.beta, 30)
    assert certificate.distinct_values == 31 * 31
    single = products.generic_beta_certificate(
        [products.factor_spectrum("CP2", 30)], 30
    )
    assert single.beta == (1,) and single.candidates_tried == 1
    _report(8, "weighted-product certificates", started, 30)


def test_criterion_9_oracle_equivalence():
    started = time.time()

    # independent rank-two eigenvalue oracle from explicit root vectors
    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1]

    realizations = {
        "B2": ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(1))),
        "C2": ((Fraction(1), Fraction(1)), (Fraction(-1), Fraction(0))),
    }

    def dual_basis(b1, b2):
        def solve(c1, c2):
            det = b1[0] * b2[1] - b1[1] * b2[0]
            return ((c1 * b2[1] - c2 * b1[1]) / det, (b1[0] * c2 - b2[0] * c1) / det)

        return solve(dot(b1, b1), Fraction(0)), solve(Fraction(0), dot(b2, b2))

    rank2 = [
        ("AIII1", {"r": 6, "ell": 2}), ("AIII2", {"ell": 2}),
        ("BI", {"r": 4, "ell": 2}), ("CII1", {"r": 6, "ell": 2}),
        ("CII2", {"ell": 2}), ("DI1", {"ell": 2}), ("DI2", {"r": 4, "ell": 2}),
        ("DIII1", {"ell": 2}), ("DIII2", {"ell": 2}), ("EIII", {}),
    ]
    for label, params in rank2:
        datum = restricted_datum(label, **params)
        b1, b2 = realizations[str(datum.descriptor.restricted_type)]
        m1, m2 = dual_basis(b1, b2)
        s1, s2 = datum.two_delta_bar
        shift_vec = (s1 * m1[0] + s2 * m2[0], s1 * m1[1] + s2 * m2[1])
        for x in range(21):
            for y in range(21):
                rho = (x * m1[0] + y * m2[0], x * m1[1] + y * m2[1])
                oracle = dot(rho, rho) + dot(shift_vec, rho)
                assert eigenvalue(datum, (x, y)) == oracle, label

    # resultant verdicts versus pointwise gcd brute force
    rng = random.Random(17)
    for family in (
        su2f.su2f_representation_family(12),
        bundles.hopf_representation_family(2, 4),
    ):
        names = family[0].casimir.variables
        points = [
            {n: Fraction(rng.randint(1, 60), rng.randint(1, 12)) for n in names}
            for _ in range(20)
        ]
        ordered = sorted(family, key=lambda e: e.id)[:6]
        for i in range(len(ordered)):
            p = char_poly(ordered[i].casimir)
            if p.degree >= 2:
                res_pp = resultant(p, first_derivative(p))
                for point in points:
                    at = coefficients_at(p, point)
                    assert (poly_at(res_pp, point) == 0) == shares_root(
                        at, poly_derivative(at)
                    )
            for j in range(i + 1, len(ordered)):
                q = char_poly(ordered[j].casimir)
                res = resultant(p, q)
                for point in points:
                    assert (poly_at(res, point) == 0) == shares_root(
                        coefficients_at(p, point), coefficients_at(q, point)
                    )
    _report(9, "oracle equivalence", started, 10)
