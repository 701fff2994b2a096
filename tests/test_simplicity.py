import os
import pathlib
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitref
from polyref import (
    coefficients_at,
    first_derivative,
    poly_at,
    poly_derivative,
    poly_gcd,
    reference_profile,
    shares_root,
)
from splitref import RefEntry, split_family

from casimirspec import cli, exactalg, simplicity
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
    SplitFamily,
    condition_a,
    condition_b,
    condition_c,
    evaluate_at_metric,
)
from casimirspec.su2f import su2f_representation_family

AB = ("a", "b")


def poly(terms):
    return MultiPoly(AB, terms)


def entry(id_, diag, type_class="real", dual_id=None):
    return RefEntry(
        id=id_,
        type_class=type_class,
        dual_id=dual_id if dual_id is not None else id_,
        casimir=ParametricMatrix(diag),
    )


def table(*entries):
    return split_family(entries)


A = MultiPoly.variable(AB, "a")
B = MultiPoly.variable(AB, "b")


class TestConditionA:
    def test_distinct_linear_forms_pass(self):
        assert condition_a(table(entry("V", [A + B]), entry("W", [B * 2]))) == []

    def test_identical_forms_flagged(self):
        assert condition_a(table(entry("V", [A + B]), entry("W", [A + B]))) == [("V", "W")]

    def test_dual_pairs_exempt(self):
        v = entry("V", [A + B], type_class="complex", dual_id="W")
        w = entry("W", [A + B], type_class="complex", dual_id="V")
        assert condition_a(table(v, w)) == []

    def test_hopf_truncation_clean(self):
        family = hopf_representation_family(2, 4)
        assert condition_a(family) == []

    def test_su2f_clean(self):
        family = su2f_representation_family(12)
        assert condition_a(family) == []

    def test_symmetric_and_deterministic(self):
        family = [entry("V", [A + B]), entry("W", [A + B]), entry("X", [A])]
        forward = condition_a(split_family(family))
        backward = condition_a(split_family(list(reversed(family))))
        assert forward == backward == [("V", "W")]
        assert forward == sorted(forward)

    def test_scalar_family_never_triggers_b_or_c(self):
        # families of one-dimensional fixed spaces satisfy both derivative
        # conditions automatically
        family = hopf_representation_family(2, 5)
        assert all(len(e.casimir.entries) == 1 for e in family)
        assert condition_b(family) == []
        assert condition_c(family) == []


class TestConditionB:
    def test_scalar_entries_exempt(self):
        assert condition_b(table(entry("V", [A + B]))) == []

    def test_forced_double_eigenvalue(self):
        assert condition_b(table(entry("V", [A, A]))) == ["V"]

    def test_su2f_k12_clean(self):
        family = su2f_representation_family(12)
        assert condition_b(family) == []


class TestConditionC:
    def test_small_entries_exempt(self):
        assert condition_c(table(entry("V", [A, A + B]))) == []

    def test_forced_triple_eigenvalue(self):
        assert condition_c(table(entry("V", [A, A, A]))) == ["V"]

    def test_vacuous_quaternionic_subfamily(self):
        family = su2f_representation_family(12)
        assert all(e.type_class == "real" for e in family)
        assert condition_c(family) == []


class TestFamilyValidation:
    """The table refuses what the per-entry oracle refuses, as a ValueError."""

    def _refused(self, make, entries=None):
        with pytest.raises(ValueError):
            make()
        if entries is not None:
            with pytest.raises(ValueError):
                splitref.validate_family(entries())

    def test_asymmetric_dual_rejected(self):
        v = RefEntry("V", "complex", "W", ParametricMatrix([A]))
        w = RefEntry("W", "complex", "X", ParametricMatrix([B]))
        x = RefEntry("X", "complex", "V", ParametricMatrix([A + B]))
        self._refused(lambda: table(v, w, x), lambda: [v, w, x])
        # a dual outside the family has no index in it
        self._refused(lambda: table(v, w))

    def test_type_dual_consistency(self):
        self._refused(lambda: RefEntry("V", "complex", "V", ParametricMatrix([A])))
        self._refused(lambda: RefEntry("V", "real", "W", ParametricMatrix([A])))
        for types, duals in [([1], [0]), ([0, 0], [1, 0]), ([3], [0]), ([-1], [0])]:
            ids = ["V", "W"][:len(types)]
            keys = [[0, 1, 0]] * len(ids)
            self._refused(lambda: SplitFamily(AB, ids, types, duals, range(len(ids)), keys))

    def test_ids_distinct_and_ascending(self):
        self._refused(
            lambda: SplitFamily(AB, ["V", "V"], [0, 0], [0, 1], [0, 1], [[0, 1, 0], [0, 0, 1]]),
            lambda: [entry("V", [A]), entry("V", [B])],
        )
        self._refused(lambda: SplitFamily(AB, ["W", "V"], [0, 0], [0, 1], [0, 1], [[0, 1, 0]] * 2))
        self._refused(lambda: SplitFamily(AB, [], [], [], [], np.zeros((0, 3), int)), lambda: [])

    @pytest.mark.parametrize("rows, keys, denom", [
        ([1, 0], [[0, 1, 0]] * 2, 1),  # rows out of entry order
        ([0, 0], [[0, 1, 0]] * 2, 1),  # entry 1 has no row
        ([0, 1], [[1, 0]] * 2, 1),  # one key short
        ([0, 1], [[0, 1, 0]] * 2, 0),  # no denominator
    ])
    def test_row_layout(self, rows, keys, denom):
        self._refused(lambda: SplitFamily(AB, ["V", "W"], [0, 0], [0, 1], rows, keys, denom))

    def test_non_affine_forms_have_no_key(self):
        self._refused(lambda: table(entry("V", [A * B])))
        self._refused(lambda: table(entry("V", [A * A + B])))

    def test_views(self):
        family = table(
            entry("W", [A, B * 2]),
            entry("V", [A + 1], "complex", "X"),
            entry("X", [B], "complex", "V"),
        )
        assert len(family) == 3 and [e.id for e in family] == ["V", "W", "X"]
        assert [e.id for e in family[1:]] == ["W", "X"] and family[-1].id == "X"
        assert (family[0].type_class, family[0].dual_id) == ("complex", "X")
        assert family[1].casimir.entries == (A, B * 2)
        assert family[0].casimir.entries == (A + 1,)
        with pytest.raises(IndexError):
            family[3]


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
        q = table(entry("Q", [A, A, B, B], "quaternionic"))
        good = evaluate_at_metric(q, {"a": Fraction(1), "b": Fraction(2)})
        assert good.ok
        bad = evaluate_at_metric(q, {"a": Fraction(1), "b": Fraction(1)})
        assert not bad.ok  # multiplicity four, not two

    # eigenvalues 2a - b and b, which coincide exactly when a = b
    PAIR = ParametricMatrix([A * 2 - B, B])

    def test_shares_a_value_across_entries(self):
        family = table(
            RefEntry("N", "real", "N", self.PAIR),
            entry("S", [A + B]),
            entry("T", [A * 3]),
        )
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
        family = table(RefEntry("N", "real", "N", self.PAIR), entry("S", [A + B, B * 3]))
        # a = b: N has the double eigenvalue b
        for mode in ("real", "complex"):
            report = evaluate_at_metric(
                family, {"a": Fraction(5, 2), "b": Fraction(5, 2)}, mode=mode
            )
            assert report.multiplicity_violations == (("N", 2),)
            assert report.shared_eigenvalues == ()
        quaternionic = table(RefEntry("N", "quaternionic", "N", self.PAIR))
        good = evaluate_at_metric(quaternionic, {"a": Fraction(1), "b": Fraction(1)})
        assert good.ok
        bad = evaluate_at_metric(quaternionic, {"a": Fraction(2), "b": Fraction(1)})
        assert bad.multiplicity_violations == (("N", 1),)

    def test_dual_exemption_covers_pairs(self):
        v = RefEntry("V", "complex", "W", self.PAIR)
        w = RefEntry("W", "complex", "V", ParametricMatrix([B, A * 2 - B]))
        point = {"a": Fraction(3), "b": Fraction(1)}
        assert evaluate_at_metric(table(v, w), point, mode="real").shared_eigenvalues == ()
        complex_report = evaluate_at_metric(table(v, w), point, mode="complex")
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
        by_value = splitref.spectra_by_value(ordered, values)
        assert by_value == reference_spectra(ordered, values)
        keys = family if isinstance(family, SplitFamily) else split_family(family)
        for mode in ("real", "complex"):
            assert evaluate_at_metric(keys, point, mode) == reference_report(
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
                    vanished = poly_at(res, point) == 0
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
            assert (poly_at(res, point) == 0) == brute


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
        if e.type_class == exempt or len(e.casimir.entries) < order + 1:
            continue
        p = char_poly(e.casimir)
        if sylvester_vanishes(p, take(p)):
            violations.append(e.id)
    return violations


class TestConditionsAgainstSylvester:
    """Each condition against its resultant multiplied out in full."""

    def _check(self, family):
        keys = family if isinstance(family, SplitFamily) else split_family(family)
        assert condition_a(keys) == sylvester_condition_a(family)
        assert condition_b(keys) == sylvester_derivative_condition(
            family, 1, "quaternionic"
        )
        assert condition_c(keys) == sylvester_derivative_condition(
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
        assert condition_b(split_family(family)) == []
        assert condition_c(split_family(family)) == ["Q", "V"]

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
        family = split_family(list(su2f_representation_family(24)) + [
            entry("P", [A, A + B, A - B]), entry("Q", [A + B, B])
        ])
        assert condition_a(family) == [("P", "Q")]
        assert calls == self.NO_CALLS

    def test_split_family_condition_b_is_a_repeat_test(self, calls):
        family = split_family(list(su2f_representation_family(24)) + [
            entry("P", [A, A + B, A - B]), entry("R", [A + B, B, A + B])
        ])
        assert condition_b(family) == ["R"]
        assert calls == self.NO_CALLS

    def test_condition_c_passes_one_root(self, calls):
        family = split_family(
            list(su2f_representation_family(24)) + [entry("P", [A, A + B, A - B])]
        )
        assert condition_c(family) == ["P"]
        assert calls["char_poly"] > 0
        assert calls["roots"] and set(calls["roots"]) == {1}

    def test_each_characteristic_polynomial_once(self, calls):
        # condition (c) multiplies out p once per entry of dimension above two
        family = table(
            entry("P", [A, A + B, A - B]), entry("Q", [A, B]), entry("R", [A, B, A * 2])
        )
        assert condition_c(family) == ["P"]
        assert calls["char_poly"] == 2 and calls["derivative"] == 2


# -- the key table against the per-entry MultiPoly oracle ----------------

POINTS = [(1, 2), (2, 5), (3, 5), (1, 1), (Fraction(7, 3), Fraction(5, 2))]


def assert_same_layout(family, entries):
    """The table's entries, in id order, are the oracle's entries."""
    def layout(es):
        return [(e.id, e.type_class, e.dual_id, e.casimir.entries) for e in es]

    assert layout(family) == layout(sorted(entries, key=lambda e: e.id))


def assert_same_verdicts(family, entries, points=POINTS, with_c=True):
    """Conditions (a)-(c) and the metric reports of the table equal the oracle's."""
    assert condition_a(family) == splitref.condition_a(entries)
    assert condition_b(family) == splitref.condition_b(entries)
    if with_c:
        assert condition_c(family) == splitref.condition_c(entries)
    for point in points:
        point = dict(zip(family.params, map(Fraction, point)))
        for mode in ("real", "complex"):
            expected = splitref.evaluate_at_metric(entries, point, mode)
            assert evaluate_at_metric(family, point, mode) == expected


PLANTED = {
    "identical-forms": [entry("V", [A + B]), entry("W", [A + B]), entry("X", [A])],
    "dual-exemption": [
        entry("V", [A * 2 - B, B], "complex", "W"), entry("W", [B, A * 2 - B], "complex", "V"),
        entry("S", [A + B]),
    ],
    "a+-b": [entry("V", [A, A + B, A - B]), entry("Q", [A, A + B, A - B], "quaternionic")],
    "quaternionic-rule": [
        entry("Q", [A, A, B, B], "quaternionic"), entry("N", [A * 2 - B, B], "quaternionic"),
        entry("R", [A + B, B, A + B]),
    ],
    "affine": [entry("C", [A + 1, B + 2, A + B]), entry("D", [poly({(0, 0): Fraction(1, 3)})])],
}


class TestTableAgainstOracle:
    """Every verdict of the key table against the per-entry MultiPoly engines."""

    @pytest.mark.parametrize("bound", [0, 1, 6, 40])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hopf(self, n, bound):
        family, entries = hopf_representation_family(n, bound), splitref.hopf_entries(n, bound)
        assert_same_layout(family, entries)
        assert_same_verdicts(family, entries)

    @pytest.mark.parametrize("kmax", [0, 2, 13, 48])
    def test_su2f(self, kmax):
        family, entries = su2f_representation_family(kmax), splitref.su2f_entries(kmax)
        assert_same_layout(family, entries)
        assert_same_verdicts(family, entries)

    def test_su2f_120(self):
        # condition (c) runs the same root-by-root code on both sides, so the
        # identical matrices above 48 already decide it
        family, entries = su2f_representation_family(120), splitref.su2f_entries(120)
        assert_same_layout(family, entries)
        assert_same_verdicts(family, entries, with_c=False)

    @pytest.mark.parametrize("name", sorted(PLANTED))
    def test_planted(self, name):
        entries = PLANTED[name]
        assert_same_verdicts(split_family(entries), entries)

    @pytest.mark.parametrize("entries", [
        [entry("V", [A], "complex", "W"), entry("W", [B], "complex", "X"),
         entry("X", [A], "complex", "V")],
        [entry("V", [A]), entry("V", [B])],
        [],
    ], ids=["asymmetric-dual", "duplicate-id", "empty"])
    def test_validation_errors(self, entries):
        with pytest.raises(ValueError):
            splitref.validate_family(entries)
        with pytest.raises(ValueError):
            split_family(entries) if entries else SplitFamily(AB, [], [], [], [], [])

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_integer_keys(self, data):
        family, entries = data.draw(key_tables())
        assert_same_layout(family, entries)
        points = data.draw(st.lists(st.tuples(*[st.integers(1, 3)] * len(family.params)),
                                    min_size=1, max_size=3))
        assert_same_verdicts(family, entries, points)

    @pytest.mark.parametrize("scale", [1, 2**62, 2**80])
    def test_python_int_fallback(self, monkeypatch, scale):
        # keys at `scale`: from 2**62 on the stated bound picks Python ints
        # itself, and a patched dtype forces them at scale 1
        entries = [
            entry(e.id, [MultiPoly(AB, {t: c * scale for t, c in d.terms.items()})
                         for d in e.casimir.entries], e.type_class, e.dual_id)
            for e in PLANTED["quaternionic-rule"] + PLANTED["identical-forms"]
        ]
        family = split_family(entries)
        points = [(1, 1), (2, 1), (Fraction(5, 2), Fraction(5, 2))]
        assert_same_verdicts(family, entries, points)
        requested = []
        monkeypatch.setattr(simplicity, "exact_dtype", lambda m: requested.append(m) or object)
        assert_same_verdicts(family, entries, points)
        assert requested and (max(requested) >= 2**63) == (scale > 1)

    def test_hopf_python_ints(self, monkeypatch):
        family, entries = hopf_representation_family(3, 12), splitref.hopf_entries(3, 12)
        monkeypatch.setattr(simplicity, "exact_dtype", lambda magnitude: object)
        assert_same_verdicts(family, entries)

    def test_stated_bound_picks_the_dtype(self, monkeypatch):
        # sum_j (T_j + 1) |w_j| at the metric (1, 1) with one denominator: the keys
        # (0, T, 0) and (0, 0, T) give 2 (T + 1), just below and above 2**63
        seen = []
        real = simplicity.exact_dtype
        monkeypatch.setattr(simplicity, "exact_dtype", lambda m: seen.append(real(m)) or real(m))
        for top, dtype in [(2**62 - 2, np.int64), (2**62 - 1, object)]:
            keys = [[0, top, 0], [0, 0, top]]
            family = SplitFamily(AB, ["V", "W"], [0, 0], [0, 1], [0, 1], keys)
            report = evaluate_at_metric(family, {"a": 1, "b": 1})
            assert report.shared_eigenvalues == (("V", "W"),) and seen[-1] is dtype


@st.composite
def key_tables(draw):
    """A random split family as integer keys, and the same forms as oracle entries."""
    names = ("x", "y", "z")[:draw(st.integers(1, 3))]
    denom = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(TYPES), min_size=1, max_size=6))
    ids = sorted(f"E{i}" for i in range(len(kinds) + kinds.count("complex")))
    rng = iter(ids)
    entries = []
    for kind in kinds:
        own = next(rng)
        dual = next(rng) if kind == "complex" else own
        for name, partner in {own: dual, dual: own}.items():
            size = draw(st.integers(1, 4))
            keys = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(names) + 1,
                                          max_size=len(names) + 1),
                                 min_size=size, max_size=size))
            entries.append((name, kind, partner, keys))
    entries.sort()
    index = {name: i for i, (name, *_) in enumerate(entries)}
    family = SplitFamily(
        names, [e[0] for e in entries], [simplicity.TYPE_CLASSES.index(e[1]) for e in entries],
        [index[e[2]] for e in entries],
        [i for i, e in enumerate(entries) for _ in e[3]],
        [key for e in entries for key in e[3]],
        denom,
    )
    units = [tuple(int(i == j) for j in range(len(names))) for i in range(-1, len(names))]
    oracle = [
        RefEntry(name, kind, partner, ParametricMatrix([
            MultiPoly(names, {u: Fraction(c, denom) for u, c in zip(units, key)}) for key in keys
        ]))
        for name, kind, partner, keys in entries
    ]
    return family, oracle


TYPES = ("real", "complex", "quaternionic")


class TestHopfPathBuildsNoPolynomial:
    def test_cli_hopf_runs_on_the_table(self, monkeypatch, capsys):
        assert not hasattr(simplicity, "RepresentationEntry")

        def refuse(*args, **kwargs):
            raise AssertionError("the Hopf path built a polynomial object")

        for cls in (exactalg.MultiPoly, exactalg.ParametricMatrix):
            monkeypatch.setattr(cls, "__init__", refuse)
        monkeypatch.setattr(exactalg.MultiPoly, "_result", classmethod(refuse))
        for mode in ("real", "complex"):
            argv = ["simplicity", "--family", "hopf", "--n", "3", "--bound", "30",
                    "--metric", "2,5", "--mode", mode, "--json"]
            assert cli.run(argv) == (0 if mode == "real" else 1)
            out, err = capsys.readouterr()
            assert out and not err


def test_fresh_process_imports_no_numpy_ma():
    # np.unique with neither return_inverse nor return_counts imports numpy.ma,
    # about 35 ms in a fresh process: more than the Hopf conditions at bound 12
    src = pathlib.Path(simplicity.__file__).resolve().parents[1]
    script = (
        "import contextlib, io, sys\n"
        "from casimirspec import cli\n"
        "for family in ('hopf', 'su2f'):\n"
        "    for mode in ('real', 'complex'):\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            cli.run(['simplicity', '--family', family, '--bound', '12',\n"
        "                     '--metric', '2,5', '--mode', mode, '--json'])\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", script], env=env, timeout=60).returncode == 0
