"""Cross-module consistency: catalog pairs, box scans, and witnesses."""

from fractions import Fraction

import pytest

from casimirspec.spectrum import (
    enumerate_collisions,
    eigenvalue,
    rank2_catalog,
    reflection_witness,
)
from casimirspec.rootsys import gram_matrix
from casimirspec.symmdata import restricted_datum
import pairref
from polyref import poly_at
from specref import pair_at, polynomial_at, polynomial_form

RANK2_INSTANCES = {
    "AIII1": [{"r": 4, "ell": 2}, {"r": 5, "ell": 2}, {"r": 7, "ell": 2}],
    "AIII2": [{"ell": 2}],
    "BI": [{"r": 3, "ell": 2}, {"r": 5, "ell": 2}],
    "CII1": [{"r": 5, "ell": 2}, {"r": 7, "ell": 2}],
    "CII2": [{"ell": 2}],
    "DI1": [{"ell": 2}],
    "DI2": [{"r": 4, "ell": 2}, {"r": 6, "ell": 2}],
    "DIII1": [{"ell": 2}],
    "DIII2": [{"ell": 2}],
    "EIII": [{}],
}


def catalog_pairs_for(case, r):
    pairs = []
    for spec_pair in case.pairs:
        if spec_pair.r_expr is None:
            pairs.append((spec_pair.weight_a, spec_pair.weight_b, None))
            continue
        # search the parameter giving this r, honoring the branch floor
        for s in range(spec_pair.min_param, spec_pair.min_param + 50):
            r_val, wa, wb = pair_at(spec_pair, s)
            if r_val == r:
                pairs.append((wa, wb, s))
                break
    return pairs


class TestBoxScanFindsCatalogPairs:
    @pytest.mark.parametrize(
        "label",
        sorted(RANK2_INSTANCES),
    )
    def test_catalog_pair_in_scan(self, label):
        case = next(c for c in rank2_catalog() if c.label == label)
        for params in RANK2_INSTANCES[label]:
            datum = restricted_datum(label, **params)
            r = dict(datum.descriptor.params).get("r")
            found_any = False
            for wa, wb, s in catalog_pairs_for(case, r):
                if s is None and case.parameterized:
                    continue
                if isinstance(wa[0], tuple):
                    continue
                if not case.parameterized:
                    point_a = tuple(int(poly_at(c, {"s": 0})) for c in wa)
                    point_b = tuple(int(poly_at(c, {"s": 0})) for c in wb)
                else:
                    point_a, point_b = wa, wb
                bound = max(point_a + point_b)
                reports = pairref.reports(
                    enumerate_collisions(datum, bound, exclude_dual_pairs=False)
                )
                keys = {
                    frozenset((rep.weight_a, rep.weight_b)) for rep in reports
                }
                assert frozenset((point_a, point_b)) in keys, (label, params)
                found_any = True
            assert found_any, (label, params)

    def test_datum_polynomial_consistency(self):
        # the catalog polynomial specialized at r equals the datum form
        for label, instances in RANK2_INSTANCES.items():
            case = next(c for c in rank2_catalog() if c.label == label)
            for params in instances:
                datum = restricted_datum(label, **params)
                r = dict(datum.descriptor.params).get("r") if case.parameterized else None
                assert polynomial_at(case, r) == polynomial_form(datum), (
                    label, params,
                )


class TestWitnessAgainstBoxScan:
    @pytest.mark.parametrize(
        "label,params",
        [("AI", {"r": 3}), ("CI", {"ell": 3}), ("BI", {"r": 5, "ell": 3})],
        ids=lambda x: str(x),
    )
    def test_witness_pair_is_in_scan(self, label, params):
        datum = restricted_datum(label, **params)
        witness = reflection_witness(datum)
        bound = max(witness.weight_v + witness.weight_w)
        reports = pairref.reports(enumerate_collisions(datum, bound, exclude_dual_pairs=True))
        keys = {frozenset((rep.weight_a, rep.weight_b)) for rep in reports}
        assert frozenset((witness.weight_v, witness.weight_w)) in keys


class TestRankTwoSpacesCollideSomewhere:
    def test_rank_two_scan_nonempty(self):
        # every rank-two instance above carries a collision in a small box
        for label, instances in RANK2_INSTANCES.items():
            for params in instances:
                datum = restricted_datum(label, **params)
                bound = 12
                reports = enumerate_collisions(datum, bound, exclude_dual_pairs=True)
                assert reports, (label, params)


class TestEigenvalueFormZero:
    def test_zero_weight_maps_to_zero(self):
        for label, instances in RANK2_INSTANCES.items():
            for params in instances:
                datum = restricted_datum(label, **params)
                assert eigenvalue(datum, (0,) * datum.rank) == 0


class TestSphericalConeSemantics:
    def test_negative_coordinates_never_enumerated(self):
        datum = restricted_datum("AIII2", ell=2)
        for rep in pairref.reports(enumerate_collisions(datum, 6)):
            assert all(c >= 0 for c in rep.weight_a + rep.weight_b)

    def test_eigenvalue_defined_on_rational_cone_points(self):
        datum = restricted_datum("AI", r=3)
        value = eigenvalue(datum, (Fraction(1, 2), Fraction(0), Fraction(3)))
        gram = gram_matrix(datum.cartan)
        assert value == Fraction(
            sum(
                a * g * b
                for a, row in zip((Fraction(1, 2), 0, 3), gram)
                for g, b in zip(row, (Fraction(1, 2), 0, 3))
            )
        ) + sum(
            s * g * b
            for s, row in zip(datum.two_delta_bar, gram)
            for g, b in zip(row, (Fraction(1, 2), 0, 3))
        )
