import random
from fractions import Fraction

import pytest

from casimirspec.exactalg import MultiPoly
from casimirspec.spectrum import (
    MAX_BOX_ROWS,
    WitnessError,
    admissible_pairs,
    dual_weight,
    enumerate_collisions,
    eigenvalue,
    eigenvalue_polynomial,
    rank2_catalog,
    reflection_witness,
    require_box,
    verify_rank2_pair,
)
from casimirspec.symmdata import LABELS, _NODE_PERMS, _ROWS, restricted_datum
import pairref
from polyref import poly_at
from specref import pair_at, polynomial_at, polynomial_form, rank_one_catalog, reflect


class TestEigenvalue:
    def test_aiii2_values(self):
        datum = restricted_datum("AIII2", ell=2)
        assert eigenvalue(datum, (2, 0)) == 36
        assert eigenvalue(datum, (0, 3)) == 36
        assert eigenvalue(datum, (0, 0)) == 0

    def test_dimension_mismatch(self):
        datum = restricted_datum("AIII2", ell=2)
        with pytest.raises(ValueError):
            eigenvalue(datum, (1, 2, 3))

    def test_polynomial_form_matches_eigenvalue(self):
        rng = random.Random(11)
        for label, params in (("AI", {"r": 3}), ("BI", {"r": 4, "ell": 2})):
            datum = restricted_datum(label, **params)
            poly = polynomial_form(datum)
            for _ in range(25):
                w = tuple(rng.randint(0, 9) for _ in range(datum.rank))
                point = dict(zip(poly.variables, map(Fraction, w)))
                assert poly_at(poly, point) == eigenvalue(datum, w)

    def test_ai3_polynomial(self):
        datum = restricted_datum("AI", r=3)
        names = ("x1", "x2", "x3")
        expected = MultiPoly(
            names,
            {
                (2, 0, 0): 3, (0, 2, 0): 4, (0, 0, 2): 3,
                (1, 1, 0): 4, (1, 0, 1): 2, (0, 1, 1): 4,
                (1, 0, 0): 6, (0, 1, 0): 8, (0, 0, 1): 6,
            },
        )
        assert polynomial_form(datum) == expected


class TestDualWeight:
    def test_a3_reversal(self):
        datum = restricted_datum("AI", r=3)
        assert dual_weight(datum, (1, 0, 2)) == (2, 0, 1)
        assert dual_weight(datum, (3, 0, 3)) == (3, 0, 3)

    def test_b2_identity(self):
        datum = restricted_datum("BI", r=3, ell=2)
        assert dual_weight(datum, (4, 7)) == (4, 7)


class TestEnumerateCollisions:
    def test_aiii2_contains_catalog_pair(self):
        datum = restricted_datum("AIII2", ell=2)
        reports = pairref.reports(enumerate_collisions(datum, 5))
        hits = [
            rep for rep in reports
            if {rep.weight_a, rep.weight_b} == {(2, 0), (0, 3)}
        ]
        assert len(hits) == 1
        assert hits[0].eigenvalue == 36
        assert hits[0].dual_related is False

    def test_bi_r3(self):
        datum = restricted_datum("BI", r=3, ell=2)
        reports = pairref.reports(enumerate_collisions(datum, 7))
        hits = [
            rep for rep in reports
            if {rep.weight_a, rep.weight_b} == {(6, 0), (0, 4)}
        ]
        assert len(hits) == 1 and hits[0].eigenvalue == 120

    def test_rank_one_empty(self):
        for datum in rank_one_catalog():
            assert not enumerate_collisions(datum, 2000)

    def test_exclude_dual_pairs(self):
        datum = restricted_datum("AI", r=3)
        full = pairref.reports(enumerate_collisions(datum, 4, exclude_dual_pairs=False))
        kept = pairref.reports(enumerate_collisions(datum, 4, exclude_dual_pairs=True))
        dual = [rep for rep in full if rep.dual_related]
        assert dual  # reversal duals do collide for AI
        assert len(kept) == len(full) - len(dual)
        assert all(not rep.dual_related for rep in kept)

    def test_deterministic_order(self):
        datum = restricted_datum("AIII2", ell=2)
        first = pairref.reports(enumerate_collisions(datum, 6))
        second = pairref.reports(enumerate_collisions(datum, 6))
        assert first == second
        keys = [(rep.weight_a, rep.weight_b) for rep in first]
        assert keys == sorted(keys)


WITNESS_DATA = [
    ("AI", {"r": 3}),
    ("AI", {"r": 4}),
    ("AI", {"r": 5}),
    ("AI", {"r": 6}),
    ("AII", {"r": 7}),
    ("AIII1", {"r": 8, "ell": 3}),
    ("AIII2", {"ell": 4}),
    ("BI", {"r": 5, "ell": 3}),
    ("CI", {"ell": 3}),
    ("CII2", {"ell": 3}),
    ("DI2", {"r": 6, "ell": 3}),
    ("DI3", {"ell": 4}),
    ("DI3", {"ell": 5}),
    ("DIII1", {"ell": 3}),
    ("DIII2", {"ell": 3}),
    ("EI", {}),
    ("EII", {}),
    ("EV", {}),
    ("EVII", {}),
    ("EVIII", {}),
    ("FI", {}),
]


SWEEP_MAX_RANK = 40


def _witness_sweep():
    """Parameters of one datum per (restricted type, multiplicities, relabelling).

    Every label at r <= 40 and ell <= 20, plus the first parameter pair at
    the label's largest rank up to 40; {label: [(r, ell), ...]}.
    """
    values = [None] + list(range(1, 2 * SWEEP_MAX_RANK + 2))
    found, sweep = set(), {label: [] for label in LABELS}
    for label in LABELS:
        top = (0, None, None)
        for r in values:
            for ell in values[: SWEEP_MAX_RANK + 1]:
                try:
                    system, multiplicities, _ = _ROWS[label](r, ell)
                except ValueError:
                    continue
                if system.rank > SWEEP_MAX_RANK:
                    continue
                key = (system, tuple(map(tuple, multiplicities)), _NODE_PERMS.get(label))
                if system.rank > top[0]:
                    top = (system.rank, key, (r, ell))
                if (r or 0) <= SWEEP_MAX_RANK and (ell or 0) <= 20 and key not in found:
                    found.add(key)
                    sweep[label].append((r, ell))
        if top[1] not in found:
            found.add(top[1])
            sweep[label].append(top[2])
    return sweep


WITNESS_SWEEP = _witness_sweep()


class TestBoxCap:
    def test_cap_admits_exactly_max_box_rows(self):
        require_box(1, MAX_BOX_ROWS - 1)
        with pytest.raises(ValueError, match="exceeds the maximum"):
            require_box(1, MAX_BOX_ROWS)
        # the largest square box under the cap, and the next one
        require_box(2, 2895)
        with pytest.raises(ValueError, match="box of 2897\\^2 weights"):
            require_box(2, 2896)


class TestReflectionWitness:
    def test_ai_rank3_pinned(self):
        datum = restricted_datum("AI", r=3)
        witness = reflection_witness(datum)
        assert witness.weight_v == (3, 0, 3)
        assert witness.weight_w == (0, 3, 2)
        assert witness.eigenvalue == 108

    def test_component_checks_ai3(self):
        # the reflection sends M_1 to a vector with coefficient 0 along
        # M_1 and 1 along M_2
        datum = restricted_datum("AI", r=3)
        witness = reflection_witness(datum)
        image = reflect(datum, witness.alpha, (1, 0, 0))
        assert image[0] == 0 and image[1] == 1

    def test_fill_lower_bound_ai3(self):
        # threshold (c_13 - c_23) / (2 - c_12) = 1/3 for the third node, so
        # the minimal integer fill is 1; the Gram-side reflection of M_1
        # has coordinate -1/3 there
        datum = restricted_datum("AI", r=3)
        witness = reflection_witness(datum)
        assert witness.fill == (1,)
        c = datum.cartan.cartan
        threshold = Fraction(c[0][2] - c[1][2], 2 - c[0][1])
        assert threshold == Fraction(1, 3)
        assert reflect(datum, witness.alpha, (1, 0, 0))[2] == -threshold

    @pytest.mark.parametrize("label,params", WITNESS_DATA, ids=lambda x: str(x))
    def test_witness_validity(self, label, params):
        datum = restricted_datum(label, **params)
        witness = reflection_witness(datum)
        v, w = witness.weight_v, witness.weight_w
        assert v != w
        assert all(c >= 0 for c in v) and all(c >= 0 for c in w)
        assert eigenvalue(datum, v) == eigenvalue(datum, w) == witness.eigenvalue
        assert dual_weight(datum, v) != w
        # the reflection fixes the half-sum exactly
        fixed = reflect(datum, witness.alpha, datum.two_delta_bar)
        assert tuple(fixed) == tuple(Fraction(x) for x in datum.two_delta_bar)
        # and exchanges the distinguished pair of dual-basis vectors:
        # M_i goes to a vector with coefficient 0 along M_i, 1 along M_j
        i, j = witness.index_pair
        seed = tuple(1 if k == i else 0 for k in range(datum.rank))
        image = reflect(datum, witness.alpha, seed)
        assert image[i] == 0 and image[j] == 1
        # alpha is integer in the dual basis and orthogonal to nothing it
        # should not be: its coefficient pattern is +s at i, -s at j
        assert all(Fraction(a).denominator == 1 for a in witness.alpha)
        assert witness.alpha[i] > 0 and witness.alpha[j] == -witness.alpha[i]

    @pytest.mark.parametrize("label,params", WITNESS_DATA, ids=lambda x: str(x))
    def test_reflection_identity_random_weights(self, label, params):
        datum = restricted_datum(label, **params)
        witness = reflection_witness(datum)
        rng = random.Random(hash(label) & 0xFFFF)
        checked = 0
        for _ in range(100):
            v = tuple(rng.randint(0, 8) for _ in range(datum.rank))
            image = reflect(datum, witness.alpha, v)
            if all(c >= 0 for c in image):
                assert eigenvalue(datum, v) == eigenvalue(datum, image)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("label", LABELS)
    def test_witness_sweep(self, label):
        """The closed-form witness against the Gram-side reflection."""
        for r, ell in WITNESS_SWEEP[label]:
            datum = restricted_datum(label, r=r, ell=ell)
            try:
                witness = reflection_witness(datum)
            except WitnessError:
                assert datum.rank < 3 or not list(admissible_pairs(datum)), (r, ell)
                continue
            i, j = witness.index_pair
            cartan = datum.cartan.cartan
            half = [Fraction(a - b, 2) for a, b in zip(cartan[i], cartan[j])]
            scale = 1 if all(x.denominator == 1 for x in half) else 2
            assert witness.alpha == tuple(scale * x for x in half), (r, ell)
            shift = tuple(Fraction(x) for x in datum.two_delta_bar)
            assert reflect(datum, witness.alpha, shift) == shift, (r, ell)
            v, w, m = witness.weight_v, witness.weight_w, witness.multiplier
            seed = tuple(Fraction(c, m) for c in v)
            assert reflect(datum, witness.alpha, seed) == tuple(
                Fraction(c, m) for c in w
            ), (r, ell)
            assert v != w and dual_weight(datum, v) != w and min(w) >= 0, (r, ell)
            assert eigenvalue(datum, v) == eigenvalue(datum, w) == witness.eigenvalue

    def test_rank_two_rejected(self):
        with pytest.raises(WitnessError):
            reflection_witness(restricted_datum("BI", r=3, ell=2))

    def test_no_admissible_pair(self):
        # half-sum coefficients (2, 2, 1): the equal pair exists, but a
        # datum without one must refuse; EIII is rank two, use DIII2 rank
        # 4 whose coefficients (4, 4, 4, 3) do pair up -> build a fake
        datum = restricted_datum("AIII1", r=8, ell=3)  # (2, 2, 4)
        assert list(admissible_pairs(datum)) == [(0, 1)]


class TestRank2Catalog:
    def test_ten_cases(self):
        catalog = rank2_catalog()
        assert [case.label for case in catalog] == [
            "AIII1", "AIII2", "BI", "CII1", "CII2",
            "DI1", "DI2", "DIII1", "DIII2", "EIII",
        ]

    def test_all_pairs_verify(self):
        for case in rank2_catalog():
            for pair in case.pairs:
                assert verify_rank2_pair(case, pair), (case.label, pair.description)

    def test_polynomials_match_catalog_data(self):
        # the symbolic polynomial specialized at the row's parameters must
        # agree with the polynomial of the assembled datum
        checks = {
            "AIII2": ({"ell": 2}, None),
            "BI": ({"r": 4, "ell": 2}, 4),
            "CII2": ({"ell": 2}, None),
            "DI1": ({"ell": 2}, None),
            "DIII1": ({"ell": 2}, None),
            "DIII2": ({"ell": 2}, None),
            "EIII": ({}, None),
        }
        by_label = {case.label: case for case in rank2_catalog()}
        for label, (params, r) in checks.items():
            case = by_label[label]
            datum = restricted_datum(label, **params)
            assert polynomial_at(case, r) == polynomial_form(datum), label

    def test_pinned_values(self):
        by_label = {case.label: case for case in rank2_catalog()}
        cii2 = by_label["CII2"].polynomial
        point = {"x": Fraction(0), "y": Fraction(3)}
        assert poly_at(cii2, point) == 96
        point = {"x": Fraction(3), "y": Fraction(1)}
        assert poly_at(cii2, point) == 96
        eiii = by_label["EIII"].polynomial
        assert poly_at(eiii, {"x": Fraction(1), "y": Fraction(3)}) == 174
        assert poly_at(eiii, {"x": Fraction(4), "y": Fraction(1)}) == 174

    def test_parameterized_concrete_pairs(self):
        by_label = {case.label: case for case in rank2_catalog()}
        bi = by_label["BI"]
        r, wa, wb = pair_at(bi.pairs[0], 3)
        assert (r, wa, wb) == (3, (6, 0), (0, 4))
        poly = polynomial_at(bi, 3)
        va = poly_at(poly, {"x": Fraction(6), "y": Fraction(0)})
        vb = poly_at(poly, {"x": Fraction(0), "y": Fraction(4)})
        assert va == vb == 120
        aiii1 = by_label["AIII1"]
        r, wa, wb = pair_at(aiii1.pairs[0], 2)  # even branch, r = 4
        assert r == 4 and wa == (5, 0) and wb == (1, 6)


class TestExplicitCoordinateOracle:
    """Independent rank-two eigenvalue computation from explicit vectors.

    The simple roots are realized as concrete vectors in the rational
    plane with the right norms and inner product; the dual basis and the
    half-sum vector are solved for directly and the eigenvalue is a plain
    dot product.  No Gram matrix machinery is shared with the main path.
    """

    REALIZATIONS = {
        "B2": ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(1))),
        "C2": ((Fraction(1), Fraction(1)), (Fraction(-1), Fraction(0))),
    }

    @staticmethod
    def _dot(u, v):
        return u[0] * v[0] + u[1] * v[1]

    def _dual_basis(self, b1, b2):
        # solve (M_i, b_j) = delta_ij (b_j, b_j) by hand (2x2 systems)
        def solve(r1, r2, c1, c2):
            det = r1[0] * r2[1] - r1[1] * r2[0]
            return (
                (c1 * r2[1] - c2 * r1[1]) / det,
                (r1[0] * c2 - r2[0] * c1) / det,
            )

        m1 = solve(b1, b2, self._dot(b1, b1), Fraction(0))
        m2 = solve(b1, b2, Fraction(0), self._dot(b2, b2))
        return m1, m2

    def oracle(self, type_label, shift, x, y):
        b1, b2 = self.REALIZATIONS[type_label]
        m1, m2 = self._dual_basis(b1, b2)
        rho = (x * m1[0] + y * m2[0], x * m1[1] + y * m2[1])
        delta2 = (
            shift[0] * m1[0] + shift[1] * m2[0],
            shift[0] * m1[1] + shift[1] * m2[1],
        )
        return self._dot(rho, rho) + self._dot(delta2, rho)

    def test_realizations_match_cartan_data(self):
        from casimirspec.rootsys import cartan_data, parse_type

        for name, (b1, b2) in self.REALIZATIONS.items():
            data = cartan_data(parse_type(name))
            assert self._dot(b1, b1) == data.norms[0]
            assert self._dot(b2, b2) == data.norms[1]
            assert 2 * self._dot(b1, b2) / self._dot(b2, b2) == data.cartan[0][1]
            assert 2 * self._dot(b1, b2) / self._dot(b1, b1) == data.cartan[1][0]

    @pytest.mark.parametrize(
        "label,params",
        [
            ("AIII1", {"r": 6, "ell": 2}), ("AIII2", {"ell": 2}),
            ("BI", {"r": 4, "ell": 2}), ("CII1", {"r": 6, "ell": 2}),
            ("CII2", {"ell": 2}), ("DI1", {"ell": 2}),
            ("DI2", {"r": 4, "ell": 2}), ("DIII1", {"ell": 2}),
            ("DIII2", {"ell": 2}), ("EIII", {}),
        ],
        ids=lambda x: str(x),
    )
    def test_gram_form_equals_oracle(self, label, params):
        datum = restricted_datum(label, **params)
        type_label = str(datum.descriptor.restricted_type)
        shift = datum.two_delta_bar
        for x in range(21):
            for y in range(21):
                assert eigenvalue(datum, (x, y)) == self.oracle(
                    type_label, shift, Fraction(x), Fraction(y)
                )


class TestEigenvaluePolynomialHelper:
    def test_extra_parameter_variable(self):
        variables = ("x", "y", "r")
        shift = [
            MultiPoly.constant(variables, 1),
            MultiPoly.variable(variables, "r") * 2 - MultiPoly.constant(variables, 3),
        ]
        gram = ((Fraction(2), Fraction(2)), (Fraction(2), Fraction(4)))
        poly = eigenvalue_polynomial(gram, shift, variables, ("x", "y"))
        # at r = 3 this is the BI eigenvalue form
        datum = restricted_datum("BI", r=3, ell=2)
        spec = poly.substitute(
            {
                "x": MultiPoly.variable(("x", "y"), "x"),
                "y": MultiPoly.variable(("x", "y"), "y"),
                "r": MultiPoly.constant(("x", "y"), 3),
            }
        )
        assert spec == polynomial_form(datum)
