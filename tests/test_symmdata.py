from fractions import Fraction

import pytest

from casimirspec.symmdata import (
    REPRESENTATIVE_PARAMS,
    LABELS,
    cross_datum,
    delta_bar_coeffs,
    restricted_datum,
    table_rows,
)
from specref import rank_one_catalog

# the half-sum coefficient catalog at the representative parameters
EXPECTED_TWO_DELTA_BAR = {
    "AI": (1, 1, 1, 1, 1),            # r = 5
    "AII": (4, 4, 4),                 # r = 7
    "AIII1": (2, 4),                  # r = 6, ell = 2: (2, r - 2l + 2)
    "AIII2": (2, 2, 1),               # ell = 3
    "BI": (1, 5),                     # r = 4, ell = 2: (1, 2(r-l) + 1)
    "CI": (1, 1, 1),                  # ell = 3
    "CII1": (4, 7),                   # r = 6, ell = 2: (4, 2(r-2l) + 3)
    "CII2": (4, 3),                   # ell = 2
    "DI1": (1, 1, 2),                 # ell = 3
    "DI2": (1, 1, 4),                 # r = 5, ell = 3: (1, 1, 2(r-l))
    "DI3": (1, 1, 1, 1),              # ell = 4
    "DIII1": (4, 4, 1),               # ell = 3
    "DIII2": (4, 4, 3),               # ell = 3
    "EI": (1, 1, 1, 1, 1, 1),
    "EII": (2, 1, 2, 1),
    "EIII": (5, 6),
    "EIV": (8, 8),
    "EV": (1, 1, 1, 1, 1, 1, 1),
    "EVI": (1, 1, 4, 4),
    "EVII": (8, 8, 1),
    "EVIII": (1, 1, 1, 1, 1, 1, 1, 1),
    "EIX": (1, 1, 8, 8),
    "FI": (1, 1, 1, 1),
    "G": (1, 1),
}


class TestHalfSumCatalog:
    def test_all_rows(self):
        for datum in table_rows():
            label = datum.descriptor.label
            assert datum.two_delta_bar == tuple(
                Fraction(x) for x in EXPECTED_TWO_DELTA_BAR[label]
            ), label

    def test_derived_not_stored(self):
        # the vector must come from the multiplicities through the lemma
        for datum in table_rows():
            k = delta_bar_coeffs(datum.descriptor.multiplicities)
            assert tuple(2 * x for x in k) == datum.two_delta_bar

    def test_ai_any_rank(self):
        for r in (1, 2, 7):
            assert restricted_datum("AI", r=r).two_delta_bar == (Fraction(1),) * r

    def test_bi_example(self):
        assert restricted_datum("BI", r=4, ell=2).two_delta_bar == (1, 5)

    def test_eiii_example(self):
        assert restricted_datum("EIII").two_delta_bar == (5, 6)


class TestDeltaBarCoeffs:
    def test_no_doubling(self):
        assert delta_bar_coeffs([(1, 0)]) == (Fraction(1, 2),)
        assert delta_bar_coeffs([(8, 0)]) == (Fraction(4),)

    def test_doubling_branch(self):
        assert delta_bar_coeffs([(2, 1)]) == (Fraction(1),)
        assert delta_bar_coeffs([(8, 7)]) == (Fraction(11, 2),)

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            delta_bar_coeffs([(0, 1)])


class TestRankTwoTypes:
    # the restricted-type column of the rank-two listing
    EXPECTED = {
        "AIII1": "C2", "AIII2": "C2", "BI": "B2", "CII1": "B2",
        "CII2": "B2", "DI1": "B2", "DI2": "B2", "DIII1": "B2",
        "DIII2": "C2", "EIII": "B2",
    }
    PARAMS = {
        "AIII1": {"r": 4, "ell": 2}, "AIII2": {"ell": 2},
        "BI": {"r": 3, "ell": 2}, "CII1": {"r": 5, "ell": 2},
        "CII2": {"ell": 2}, "DI1": {"ell": 2}, "DI2": {"r": 4, "ell": 2},
        "DIII1": {"ell": 2}, "DIII2": {"ell": 2}, "EIII": {},
    }

    def test_types(self):
        for label, expected in self.EXPECTED.items():
            datum = restricted_datum(label, **self.PARAMS[label])
            assert str(datum.descriptor.restricted_type) == expected, label


class TestDualPermutation:
    def test_a3_reversal(self):
        datum = restricted_datum("AI", r=3)
        assert datum.descriptor.involution == (2, 1, 0)

    def test_b2_identity(self):
        datum = restricted_datum("BI", r=3, ell=2)
        assert datum.descriptor.involution == (0, 1)

    def test_bc1_identity(self):
        assert restricted_datum("FII").descriptor.involution == (0,)

    def test_d_parity(self):
        assert restricted_datum("DI3", ell=5).descriptor.involution == (0, 1, 2, 4, 3)
        assert restricted_datum("DI3", ell=4).descriptor.involution == (0, 1, 2, 3)

    def test_e6_flip(self):
        sigma = restricted_datum("EI").descriptor.involution
        assert sigma == (5, 1, 4, 3, 2, 0)

    def test_involutive(self):
        for datum in table_rows():
            sigma = datum.descriptor.involution
            assert all(sigma[sigma[i]] == i for i in range(len(sigma)))


class TestParameterRanges:
    def test_out_of_range(self):
        with pytest.raises(ValueError):
            restricted_datum("AIII1", r=3, ell=2)  # needs r >= 2*ell
        with pytest.raises(ValueError):
            restricted_datum("CII1", r=4, ell=2)  # needs r >= 2*ell + 1
        with pytest.raises(ValueError):
            restricted_datum("DI2", r=4, ell=3)  # needs r >= ell + 2
        with pytest.raises(ValueError):
            restricted_datum("AII", r=4)  # r must be odd
        with pytest.raises(ValueError):
            restricted_datum("DI3", ell=2)
        with pytest.raises(ValueError):
            restricted_datum("EI", r=2)
        with pytest.raises(ValueError):
            restricted_datum("nope")

    def test_every_label_has_a_valid_instance(self):
        for label in LABELS:
            if label == "FII":
                datum = restricted_datum("FII")
            else:
                datum = restricted_datum(label, **REPRESENTATIVE_PARAMS.get(label, {}))
            assert datum.rank >= 1


class TestRankOneData:
    def test_cross_aliases(self):
        assert cross_datum("S2").two_delta_bar == (1,)
        assert cross_datum("S5").two_delta_bar == (4,)
        assert cross_datum("CP3").two_delta_bar == (3,)   # (2(n-1) + 2)/2 = n
        assert cross_datum("HP2").two_delta_bar == (5,)   # 2(p-q) + 3
        assert cross_datum("OP2").two_delta_bar == (11,)
        assert cross_datum("CP1").two_delta_bar == (1,)   # CP1 = S2

    def test_catalog_rank_one(self):
        for datum in rank_one_catalog():
            assert datum.rank == 1
            assert datum.two_delta_bar[0] > 0

    def test_bad_alias(self):
        with pytest.raises(ValueError):
            cross_datum("T2")
        with pytest.raises(ValueError):
            cross_datum("S1")
        # a catalog label is not an alias, even for a rank-one datum
        for label in ("AI", "AII", "CI", "DI1", "AIII1"):
            with pytest.raises(ValueError, match="unknown rank-one factor"):
                cross_datum(label)
