import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyref import (
    coefficients_at,
    first_derivative,
    poly_derivative,
    poly_gcd,
    reference_profile,
    shares_root,
)

from casimirspec import simplicity
from casimirspec.bundles import hopf_representation_family
from casimirspec.exactalg import (
    MultiPoly,
    ParametricMatrix,
    char_poly,
    derivative,
    resultant,
    resultant_from_roots,
)
from casimirspec.simplicity import (
    RepresentationEntry,
    condition_a,
    condition_b,
    condition_c,
    evaluate_at_metric,
    validate_family,
)
from casimirspec.su2f import su2f_representation_family

AB = ("a", "b")


def poly(terms):
    return MultiPoly(AB, terms)


def entry(id_, diag, type_class="real", dual_id=None):
    return RepresentationEntry(
        id=id_,
        type_class=type_class,
        dual_id=dual_id if dual_id is not None else id_,
        casimir=ParametricMatrix(diag),
    )


A = MultiPoly.variable(AB, "a")
B = MultiPoly.variable(AB, "b")


class TestConditionA:
    def test_distinct_linear_forms_pass(self):
        family = [entry("V", [A + B]), entry("W", [B * 2])]
        assert condition_a(family) == []

    def test_identical_forms_flagged(self):
        family = [entry("V", [A + B]), entry("W", [A + B])]
        assert condition_a(family) == [("V", "W")]

    def test_dual_pairs_exempt(self):
        v = entry("V", [A + B], type_class="complex", dual_id="W")
        w = entry("W", [A + B], type_class="complex", dual_id="V")
        assert condition_a([v, w]) == []

    def test_hopf_truncation_clean(self):
        family = hopf_representation_family(2, 4)
        assert condition_a(family) == []

    def test_su2f_clean(self):
        family = su2f_representation_family(12)
        assert condition_a(family) == []

    def test_symmetric_and_deterministic(self):
        family = [entry("V", [A + B]), entry("W", [A + B]), entry("X", [A])]
        forward = condition_a(family)
        backward = condition_a(list(reversed(family)))
        assert forward == backward == [("V", "W")]
        assert forward == sorted(forward)

    def test_scalar_family_never_triggers_b_or_c(self):
        # families of one-dimensional fixed spaces satisfy both derivative
        # conditions automatically
        family = hopf_representation_family(2, 5)
        assert all(e.casimir.dimension == 1 for e in family)
        assert condition_b(family) == []
        assert condition_c(family) == []


class TestConditionB:
    def test_scalar_entries_exempt(self):
        assert condition_b([entry("V", [A + B])]) == []

    def test_forced_double_eigenvalue(self):
        family = [entry("V", [A, A])]
        assert condition_b(family) == ["V"]

    def test_su2f_k12_clean(self):
        family = su2f_representation_family(12)
        assert condition_b(family) == []


class TestConditionC:
    def test_small_entries_exempt(self):
        assert condition_c([entry("V", [A, A + B])]) == []

    def test_forced_triple_eigenvalue(self):
        family = [entry("V", [A, A, A])]
        assert condition_c(family) == ["V"]

    def test_vacuous_quaternionic_subfamily(self):
        family = su2f_representation_family(12)
        assert all(e.type_class == "real" for e in family)
        assert condition_c(family) == []


class TestFamilyValidation:
    def test_asymmetric_dual_rejected(self):
        v = RepresentationEntry("V", "complex", "W", ParametricMatrix([A]))
        w = RepresentationEntry("W", "complex", "X", ParametricMatrix([B]))
        with pytest.raises(ValueError):
            validate_family([v, w])

    def test_type_dual_consistency(self):
        with pytest.raises(ValueError):
            RepresentationEntry("V", "complex", "V", ParametricMatrix([A]))
        with pytest.raises(ValueError):
            RepresentationEntry("V", "real", "W", ParametricMatrix([A]))


# roots from a small pool, so that shared and repeated roots are frequent
ROOT_LISTS = st.lists(
    st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2), Fraction(7, 3)]),
    max_size=5,
)
SCALES = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)


def scaled_coefficients(roots, scale):
    """scale * prod (t - r) as a coefficient list, multiplied out by char_poly."""
    if not roots:
        return [Fraction(scale)]
    matrix = ParametricMatrix([MultiPoly.constant(AB, r) for r in roots])
    return [scale * c for c in coefficients_at(char_poly(matrix), {"a": 1, "b": 1})]


class TestReferenceOracle:
    """The coefficient-list oracle of tests/polyref.py on hand-made cases."""

    def test_gcd(self):
        # (t - 1)(t - 2) and 3(t - 2)(t - 3) share (t - 2)
        assert poly_gcd([2, -3, 1], [18, -15, 3]) == [-2, 1]
        assert shares_root([2, -3, 1], [6, -5, 1])
        assert not shares_root([2, -3, 1], [-3, 1])

    def test_profile(self):
        # (t - 1)^2 (t - 2), then (t - 1)^2 (t - 2)^2
        assert reference_profile([-2, 5, -4, 1]) == {1: 1, 2: 1}
        assert reference_profile([4, -12, 13, -6, 1]) == {2: 2}
        assert reference_profile([1]) == reference_profile([]) == {}

    def test_coefficients_at(self):
        p = char_poly(ParametricMatrix([A, B * 2]))
        # (t - 1/2)(t - 6) at a = 1/2, b = 3
        assert coefficients_at(p, {"a": Fraction(1, 2), "b": 3}) == [3, Fraction(-13, 2), 1]

    @settings(max_examples=200, deadline=None)
    @given(ROOT_LISTS, ROOT_LISTS, SCALES)
    def test_shares_root_matches_the_roots(self, roots, others, scale):
        a, b = scaled_coefficients(roots, scale), scaled_coefficients(others, 1)
        assert shares_root(a, b) == bool(set(roots) & set(others))
        assert shares_root(a, poly_derivative(a)) == (len(set(roots)) < len(roots))

    @settings(max_examples=200, deadline=None)
    @given(ROOT_LISTS, SCALES)
    def test_profile_matches_the_roots(self, roots, scale):
        expected = Counter(Counter(roots).values())
        assert reference_profile(scaled_coefficients(roots, scale)) == expected


class TestEvaluateAtMetric:
    def test_su2f_generic_point(self):
        family = su2f_representation_family(12)
        report = evaluate_at_metric(
            family, {"a": Fraction(1), "b": Fraction(2)}, mode="real"
        )
        assert report.ok

    def test_su2f_round_point_multiplicity(self):
        family = su2f_representation_family(12)
        report = evaluate_at_metric(
            family, {"a": Fraction(1), "b": Fraction(1)}, mode="real"
        )
        assert not report.ok
        assert report.multiplicity_violations  # repeated eigenvalues inside a V_k
        assert report.shared_eigenvalues == ()

    def test_hopf_complex_mode_type_failures(self):
        family = hopf_representation_family(2, 3)
        point = {"gamma1": Fraction(1), "gamma2": Fraction(2)}
        report = evaluate_at_metric(family, point, mode="complex")
        assert report.type_violations  # p != q weights are complex type
        real_report = evaluate_at_metric(family, point, mode="real")
        assert real_report.type_violations == ()

    def test_hopf_real_mode_passes_somewhere(self):
        from casimirspec.products import candidate_tuples

        family = hopf_representation_family(2, 3)
        for g1, g2 in candidate_tuples(2):
            if g1 == g2:
                continue
            point = {"gamma1": Fraction(g1), "gamma2": Fraction(g2)}
            report = evaluate_at_metric(family, point, mode="real")
            if report.ok:
                complex_report = evaluate_at_metric(family, point, mode="complex")
                assert not complex_report.ok
                return
        pytest.fail("no candidate metric separated the Hopf truncation")

    def test_positive_point_required(self):
        family = su2f_representation_family(8)
        with pytest.raises(ValueError):
            evaluate_at_metric(family, {"a": Fraction(0), "b": Fraction(1)})

    def test_quaternionic_multiplicity_rule(self):
        q = RepresentationEntry(
            "Q", "quaternionic", "Q",
            ParametricMatrix([A, A, B, B]),
        )
        good = evaluate_at_metric([q], {"a": Fraction(1), "b": Fraction(2)})
        assert good.ok
        bad = evaluate_at_metric([q], {"a": Fraction(1), "b": Fraction(1)})
        assert not bad.ok  # multiplicity four, not two

    # eigenvalues 2a - b and b, which coincide exactly when a = b
    PAIR = ParametricMatrix([A * 2 - B, B])

    def test_shares_a_value_across_entries(self):
        family = [
            RepresentationEntry("N", "real", "N", self.PAIR),
            entry("S", [A + B]),
            entry("T", [A * 3]),
        ]
        # (2, 1): N has 3 and 1, S has 3, T has 6
        report = evaluate_at_metric(family, {"a": Fraction(2), "b": Fraction(1)})
        assert report.shared_eigenvalues == (("N", "S"),)
        assert report.multiplicity_violations == ()
        # (1, 3): N has -1 and 3, S has 4, T has 3
        report = evaluate_at_metric(family, {"a": Fraction(1), "b": Fraction(3)})
        assert report.shared_eigenvalues == (("N", "T"),)
        # (1, 2): N has 0 and 2, S has 3, T has 3
        report = evaluate_at_metric(family, {"a": Fraction(1), "b": Fraction(2)})
        assert report.shared_eigenvalues == (("S", "T"),)
        assert report.multiplicity_violations == ()

    def test_own_eigenvalue_repeats(self):
        family = [RepresentationEntry("N", "real", "N", self.PAIR), entry("S", [A + B, B * 3])]
        # a = b: N has the double eigenvalue b
        for mode in ("real", "complex"):
            report = evaluate_at_metric(
                family, {"a": Fraction(5, 2), "b": Fraction(5, 2)}, mode=mode
            )
            assert report.multiplicity_violations == (("N", 2),)
            assert report.shared_eigenvalues == ()
        quaternionic = RepresentationEntry("N", "quaternionic", "N", self.PAIR)
        good = evaluate_at_metric([quaternionic], {"a": Fraction(1), "b": Fraction(1)})
        assert good.ok
        bad = evaluate_at_metric([quaternionic], {"a": Fraction(2), "b": Fraction(1)})
        assert bad.multiplicity_violations == (("N", 1),)

    def test_dual_exemption_covers_pairs(self):
        v = RepresentationEntry("V", "complex", "W", self.PAIR)
        w = RepresentationEntry("W", "complex", "V", ParametricMatrix([B, A * 2 - B]))
        point = {"a": Fraction(3), "b": Fraction(1)}
        assert evaluate_at_metric([v, w], point, mode="real").shared_eigenvalues == ()
        complex_report = evaluate_at_metric([v, w], point, mode="complex")
        assert complex_report.shared_eigenvalues == (("V", "W"),)
        assert complex_report.type_violations == ("V", "W")


def reference_spectra(ordered, point):
    """Shared eigenvalues and multiplicity profiles of `ordered` at a point, by gcds."""
    at = [coefficients_at(char_poly(e.casimir), point) for e in ordered]
    meets = {
        (i, j)
        for i in range(len(ordered))
        for j in range(i + 1, len(ordered))
        if shares_root(at[i], at[j])
    }
    return meets, {i: reference_profile(coeffs) for i, coeffs in enumerate(at)}


def reference_report(family, point, mode):
    """evaluate_at_metric with every pair and entry decided through gcds."""
    ordered = sorted(family, key=lambda e: e.id)
    names = family[0].casimir.variables
    meets, profiles = reference_spectra(ordered, point)
    shared = tuple(
        (ordered[i].id, ordered[j].id)
        for i, j in sorted(meets)
        if mode == "complex" or ordered[i].dual_id != ordered[j].id
    )
    multiplicity = []
    for i, e in enumerate(ordered):
        if mode == "complex" or e.type_class != "quaternionic":
            bad = [m for m in profiles[i] if m > 1]
        else:
            bad = [m for m in profiles[i] if m != 2]
        if bad:
            multiplicity.append((e.id, max(bad)))
    return simplicity.MetricReport(
        mode=mode,
        point=tuple(sorted((n, Fraction(point[n])) for n in names)),
        shared_eigenvalues=shared,
        multiplicity_violations=tuple(multiplicity),
        type_violations=tuple(
            e.id for e in ordered if mode == "complex" and e.type_class != "real"
        ),
    )


# diagonal entries from a small pool, so that equal values across entries
# and repeats within one entry are frequent at small integer points; A - B
# lets diag(A, A + B, A - B) force p''(A) = 0 with no repeated entry
FORMS = [A, B, A + B, A * 2, B * 2, A * 2 - B, A + B * 2, A - B]


@st.composite
def split_families(draw, max_entries=6, max_size=4):
    family = []
    for n in range(draw(st.integers(1, max_entries))):
        kind = draw(st.sampled_from(["real", "quaternionic", "complex"]))
        diag = draw(st.lists(st.sampled_from(FORMS), min_size=1, max_size=max_size))
        if kind == "quaternionic":
            diag = diag + diag if draw(st.booleans()) else diag
        if kind != "complex":
            family.append(entry(f"E{n}", diag, kind))
            continue
        dual_diag = diag if draw(st.booleans()) else draw(
            st.lists(st.sampled_from(FORMS), min_size=1, max_size=max_size)
        )
        family.append(entry(f"E{n}", diag, "complex", f"E{n}*"))
        family.append(entry(f"E{n}*", dual_diag, "complex", f"E{n}"))
    return family


SHIPPED = {
    "su2f": (su2f_representation_family(18), ("a", "b")),
    "hopf2": (hopf_representation_family(2, 4), ("gamma1", "gamma2")),
    "hopf3": (hopf_representation_family(3, 4), ("gamma1", "gamma2")),
}


class TestSplitPathAgainstGcdPath:
    """The by-value split path against gcds of the evaluated coefficient lists."""

    def _check(self, family, point):
        ordered = sorted(family, key=lambda e: e.id)
        values = {n: Fraction(v) for n, v in point.items()}
        by_value = simplicity._spectra_by_value(ordered, values)
        assert by_value == reference_spectra(ordered, values)
        for mode in ("real", "complex"):
            assert evaluate_at_metric(family, point, mode) == reference_report(
                family, point, mode
            )

    @settings(max_examples=60, deadline=None)
    @given(split_families(), st.integers(1, 4), st.integers(1, 4))
    def test_synthetic_families(self, family, a, b):
        self._check(family, {"a": a, "b": b})

    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from(sorted(SHIPPED)),
        st.fractions(min_value=Fraction(1, 3), max_value=6, max_denominator=3),
        st.fractions(min_value=Fraction(1, 3), max_value=6, max_denominator=3),
    )
    def test_shipped_families(self, name, x, y):
        family, names = SHIPPED[name]
        self._check(family, dict(zip(names, (x, y))))


class TestResultantOracleAgreement:
    """Identical-vanishing verdicts versus pointwise brute force.

    At each sampled positive rational point the evaluated resultant
    vanishes exactly when the two evaluated polynomials share a root
    (gcd of positive degree); characteristic polynomials are monic, so
    specialization commutes with the resultant.
    """

    def _points(self, names, count=20, seed=5):
        rng = random.Random(seed)
        return [
            {n: Fraction(rng.randint(1, 60), rng.randint(1, 12)) for n in names}
            for _ in range(count)
        ]

    @pytest.mark.parametrize(
        "family_builder",
        [
            lambda: su2f_representation_family(12),
            lambda: hopf_representation_family(2, 4),
        ],
        ids=["su2f", "hopf"],
    )
    def test_pairwise(self, family_builder):
        family = family_builder()
        names = family[0].casimir.variables
        points = self._points(names)
        ordered = sorted(family, key=lambda e: e.id)[:8]
        for i in range(len(ordered)):
            for j in range(i + 1, len(ordered)):
                p = char_poly(ordered[i].casimir)
                q = char_poly(ordered[j].casimir)
                res = resultant(p, q)
                for point in points:
                    vanished = res.evaluate(point) == 0
                    brute = shares_root(coefficients_at(p, point), coefficients_at(q, point))
                    assert vanished == brute

    def test_derivative_resultant(self):
        family = su2f_representation_family(12)
        entry_12 = next(e for e in family if e.id == "V12")
        p = char_poly(entry_12.casimir)
        res = resultant(p, first_derivative(p))
        assert not res.is_zero()
        for point in self._points(("a", "b")):
            at = coefficients_at(p, point)
            brute = shares_root(at, poly_derivative(at))
            assert (res.evaluate(point) == 0) == brute


# -- conditions (a)-(c) against the multiplied-out Sylvester resultant ----

# the Sylvester determinant of two degree-8 polynomials takes seconds, so
# the oracle draws fewer and smaller entries: (max_entries, max_size)
ORACLE_SIZES = (4, 3)
_SYLVESTER = {}  # (p, q) -> res(p, q) is zero; drawn families repeat pairs


def sylvester_vanishes(p, q):
    if (p, q) not in _SYLVESTER:
        _SYLVESTER[p, q] = resultant(p, q).is_zero()
    return _SYLVESTER[p, q]


def sylvester_condition_a(family):
    ordered = sorted(family, key=lambda e: e.id)
    return [
        (v.id, w.id)
        for i, v in enumerate(ordered)
        for w in ordered[i + 1:]
        if v.dual_id != w.id
        and sylvester_vanishes(char_poly(v.casimir), char_poly(w.casimir))
    ]


def sylvester_derivative_condition(family, order, exempt):
    take = {1: first_derivative, 2: derivative}[order]
    violations = []
    for e in sorted(family, key=lambda e: e.id):
        if e.type_class == exempt or e.casimir.dimension < order + 1:
            continue
        p = char_poly(e.casimir)
        if sylvester_vanishes(p, take(p)):
            violations.append(e.id)
    return violations


class TestConditionsAgainstSylvester:
    """Each condition against its resultant multiplied out in full."""

    def _check(self, family):
        assert condition_a(family) == sylvester_condition_a(family)
        assert condition_b(family) == sylvester_derivative_condition(
            family, 1, "quaternionic"
        )
        assert condition_c(family) == sylvester_derivative_condition(
            family, 2, "complex"
        )

    @settings(max_examples=40, deadline=None)
    @given(split_families(*ORACLE_SIZES))
    def test_split_families(self, family):
        self._check(family)

    @pytest.mark.parametrize(
        "diag", [[A, A + B, A - B], [A * 2, A + B, B * 2]], ids=["a+-b", "2a,a+b,2b"]
    )
    def test_c_without_a_repeated_entry(self, diag):
        family = [entry("V", diag), entry("Q", diag, "quaternionic")]
        self._check(family)
        assert condition_b(family) == []
        assert condition_c(family) == ["Q", "V"]

    def test_shipped_families(self):
        for family, _ in SHIPPED.values():
            self._check(family)


class TestFactorByFactor:
    """No condition multiplies two resultant factors of a diagonal entry."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"char_poly": 0, "derivative": 0, "roots": []}

        def counting_char_poly(matrix):
            calls["char_poly"] += 1
            return char_poly(matrix)

        def counting_derivative(p):
            calls["derivative"] += 1
            return derivative(p)

        def counting_from_roots(roots, q):
            calls["roots"].append(len(roots))
            return resultant_from_roots(roots, q)

        monkeypatch.setattr(simplicity, "char_poly", counting_char_poly)
        monkeypatch.setattr(simplicity, "derivative", counting_derivative)
        monkeypatch.setattr(simplicity, "resultant_from_roots", counting_from_roots)
        return calls

    NO_CALLS = {"char_poly": 0, "derivative": 0, "roots": []}

    def test_split_family_condition_a_takes_no_resultant(self, calls):
        family = su2f_representation_family(24) + [
            entry("P", [A, A + B, A - B]), entry("Q", [A + B, B])
        ]
        assert condition_a(family) == [("P", "Q")]
        assert calls == self.NO_CALLS

    def test_split_family_condition_b_is_a_repeat_test(self, calls):
        family = su2f_representation_family(24) + [
            entry("P", [A, A + B, A - B]), entry("R", [A + B, B, A + B])
        ]
        assert condition_b(family) == ["R"]
        assert calls == self.NO_CALLS

    def test_condition_c_passes_one_root(self, calls):
        family = su2f_representation_family(24) + [entry("P", [A, A + B, A - B])]
        assert condition_c(family) == ["P"]
        assert calls["char_poly"] > 0
        assert calls["roots"] and set(calls["roots"]) == {1}

    def test_each_characteristic_polynomial_once(self, calls):
        # condition (c) multiplies out p once per entry of dimension above two
        family = [
            entry("P", [A, A + B, A - B]), entry("Q", [A, B]), entry("R", [A, B, A * 2])
        ]
        assert condition_c(family) == ["P"]
        assert calls["char_poly"] == 2 and calls["derivative"] == 2
