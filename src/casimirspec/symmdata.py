"""Catalog of irreducible compact symmetric-space types.

Each catalog row maps a Cartan label (AI, AII, AIII, ..., G), possibly
with integer parameters (r, ell), to its restricted root data: restricted
type and rank, simple restricted-root multiplicities (m_gamma, m_2gamma)
per node, the coefficient vector of twice the restricted half-sum of
positive roots in the dual weight basis, and the duality involution.

Multiplicities are catalog input sourced from the standard classification
(Helgason, Differential Geometry, Lie Groups, and Symmetric Spaces,
Table VI); the coefficient vector is *derived* from them through the
half-sum lemma, which is what the test suite validates wholesale.

Sub-case conventions (the numbers in round brackets follow Helgason's
ordering of the rows):

* AIII(1): SU(p+q)/S(U(p)xU(q)) with p > q = ell, r = p + q - 1
* AIII(2): same with p = q = ell, r = 2 ell - 1
* CII(1):  Sp(p+q)/Sp(p)xSp(q) with p > q = ell, r = p + q
* CII(2):  same with p = q = ell, r = 2 ell
* DI(1):   SO(p+q)/SO(p)xSO(q), p + q = 2r, p = q + 2, ell = q = r - 1
* DI(2):   same with p > q + 2, ell = q <= r - 2
* DI(3):   same with p = q = ell = r
* DIII(1): SO(2n)/U(n) with n = 2 ell even
* DIII(2): SO(2n)/U(n) with n = 2 ell + 1 odd
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Sequence

from .exactalg import Record, rational_to_str
from .rootsys import (
    CartanData,
    RootSystemType,
    cartan_data,
    parse_type,
)

LABELS = (
    "AI", "AII", "AIII1", "AIII2", "BI", "CI", "CII1", "CII2",
    "DI1", "DI2", "DI3", "DIII1", "DIII2",
    "EI", "EII", "EIII", "EIV", "EV", "EVI", "EVII", "EVIII", "EIX",
    "FI", "FII", "G",
)

# Largest restricted rank a catalog row accepts.  The Cartan matrix is dense,
# and each forward elimination on it (one in cartan_data, one per eigenvalue)
# is O(rank^2): `witness --label AI --r 5000` takes 12-19 s and 613 MB on a
# 2-vCPU Intel Xeon VM whose speed drifts, rank 6000 about 26 s, near half of
# a 60 s budget.
MAX_RANK = 5000


class SymmetricSpaceDescriptor(Record):
    """One symmetric-space type at concrete parameter values."""

    label: str
    params: tuple  # sorted (name, value) pairs, e.g. (("ell", 2), ("r", 4))
    restricted_type: RootSystemType
    multiplicities: tuple  # per node: (m_gamma, m_2gamma)
    involution: tuple  # permutation, 0-based

    @property
    def rank(self) -> int:
        return len(self.multiplicities)


class RestrictedDatum(Record):
    """Everything the eigenvalue machinery needs about one space."""

    descriptor: SymmetricSpaceDescriptor
    cartan: CartanData
    two_delta_bar: tuple

    @property
    def rank(self) -> int:
        return self.descriptor.rank

    def to_json(self) -> dict:
        return {
            "label": self.descriptor.label,
            "params": {k: v for k, v in self.descriptor.params},
            "restricted_type": str(self.descriptor.restricted_type),
            "multiplicities": [list(m) for m in self.descriptor.multiplicities],
            "two_delta_bar": [rational_to_str(x) for x in self.two_delta_bar],
            "involution": [i + 1 for i in self.descriptor.involution],
        }


def delta_bar_coeffs(multiplicities: Sequence) -> tuple:
    """Coefficients k_i of the restricted half-sum in the dual weight basis.

    k_i = m_gamma/2 when the doubled root is absent, and
    (m_gamma + 2 m_2gamma)/4 when it is present.
    """
    coeffs = []
    for m_gamma, m_double in multiplicities:
        if m_gamma < 1:
            raise ValueError("simple restricted root multiplicity must be >= 1")
        if m_double == 0:
            coeffs.append(Fraction(m_gamma, 2))
        else:
            coeffs.append(Fraction(m_gamma + 2 * m_double, 4))
    return tuple(coeffs)


def _involution_for(system: RootSystemType) -> tuple:
    """Permutation sigma with dual(sum m_k M_k) = sum m_{sigma(k)} M_k.

    Order-reversing for type A, the last-two swap for type D of odd rank,
    the diagram flip for E6; the identity for every other type (B, C, BC,
    D of even rank, E7, E8, F4, G2 admit no diagram symmetry acting here).
    """
    rank = system.rank
    if system.family == "A" and rank > 1:
        return tuple(range(rank - 1, -1, -1))
    if system.family == "D" and rank % 2 == 1:
        perm = list(range(rank))
        perm[rank - 2], perm[rank - 1] = perm[rank - 1], perm[rank - 2]
        return tuple(perm)
    if system.family == "E6":
        return (5, 1, 4, 3, 2, 0)
    return tuple(range(rank))


def _permuted(data: CartanData, perm: Sequence[int]) -> CartanData:
    """Relabel the nodes of a Cartan datum by perm (new index -> old index)."""
    n = data.rank
    cartan = tuple(
        tuple(data.cartan[perm[i]][perm[j]] for j in range(n)) for i in range(n)
    )
    return CartanData(
        system=data.system,
        cartan=cartan,
        norms=tuple(data.norms[perm[i]] for i in range(n)),
        doubled=tuple(data.doubled[perm[i]] for i in range(n)),
    )


def _uniform(m: int, rank: int) -> tuple:
    _require(rank <= MAX_RANK, f"restricted rank {rank} exceeds the maximum of {MAX_RANK}")
    return ((m, 0),) * rank


def _tail(m: int, rank: int, last) -> tuple:
    return _uniform(m, rank)[:-1] + (tuple(last),)


def _require(condition: bool, message: str):
    if not condition:
        raise ValueError(message)


def _type_b(ell: int) -> RootSystemType:
    return RootSystemType("A", 1) if ell == 1 else RootSystemType("B", ell)


def _type_c(ell: int) -> RootSystemType:
    return RootSystemType("A", 1) if ell == 1 else RootSystemType("C", ell)


def _row_ai(r, ell):
    if r is None:
        r = ell  # r is the restricted rank
    _require(r is not None and r >= 1, "AI needs r >= 1")
    _require(ell is None or ell == r, "AI has ell = r")
    return RootSystemType("A", r), _uniform(1, r), {"r": r}


def _row_aii(r, ell):
    _require(r is not None and r >= 3 and r % 2 == 1, "AII needs odd r >= 3")
    rank = (r - 1) // 2
    _require(ell is None or ell == rank, "AII has ell = (r-1)/2")
    return RootSystemType("A", rank), _uniform(4, rank), {"r": r}


def _row_aiii1(r, ell):
    _require(r is not None and ell is not None and ell >= 1, "AIII(1) needs r and ell")
    _require(r >= 2 * ell, "AIII(1) needs r >= 2*ell (p > q)")
    system = RootSystemType("C", 2) if ell == 2 else RootSystemType("BC", ell)
    mult = _tail(2, ell, (2 * (r + 1 - 2 * ell), 1))
    return system, mult, {"r": r, "ell": ell}


def _row_aiii2(r, ell):
    _require(ell is not None and ell >= 2, "AIII(2) needs ell >= 2")
    _require(r is None or r == 2 * ell - 1, "AIII(2) has r = 2*ell - 1")
    system = RootSystemType("C", ell)
    return system, _tail(2, ell, (1, 0)), {"r": 2 * ell - 1, "ell": ell}


def _row_bi(r, ell):
    _require(r is not None and ell is not None, "BI needs r and ell")
    _require(1 <= ell <= r, "BI needs 1 <= ell <= r")
    return _type_b(ell), _tail(1, ell, (2 * (r - ell) + 1, 0)), {"r": r, "ell": ell}


def _row_ci(r, ell):
    _require(ell is not None and ell >= 1, "CI needs ell >= 1")
    _require(r is None or r == ell, "CI has r = ell")
    return _type_c(ell), _uniform(1, ell), {"ell": ell}


def _row_cii1(r, ell):
    _require(r is not None and ell is not None and ell >= 1, "CII(1) needs r and ell")
    _require(r >= 2 * ell + 1, "CII(1) needs r >= 2*ell + 1 (p > q)")
    system = RootSystemType("B", 2) if ell == 2 else RootSystemType("BC", ell)
    mult = _tail(4, ell, (4 * (r - 2 * ell), 3))
    return system, mult, {"r": r, "ell": ell}


def _row_cii2(r, ell):
    _require(ell is not None and ell >= 2, "CII(2) needs ell >= 2")
    _require(r is None or r == 2 * ell, "CII(2) has r = 2*ell")
    system = RootSystemType("B", 2) if ell == 2 else RootSystemType("C", ell)
    return system, _tail(4, ell, (3, 0)), {"r": 2 * ell, "ell": ell}


def _row_di1(r, ell):
    _require(ell is not None and ell >= 1, "DI(1) needs ell >= 1")
    _require(r is None or r == ell + 1, "DI(1) has r = ell + 1")
    return _type_b(ell), _tail(1, ell, (2, 0)), {"r": ell + 1, "ell": ell}


def _row_di2(r, ell):
    _require(r is not None and ell is not None and ell >= 1, "DI(2) needs r and ell")
    _require(r >= ell + 2, "DI(2) needs r >= ell + 2 (p > q + 2)")
    return _type_b(ell), _tail(1, ell, (2 * (r - ell), 0)), {"r": r, "ell": ell}


def _row_di3(r, ell):
    _require(ell is not None and ell >= 3, "DI(3) needs ell >= 3")
    _require(r is None or r == ell, "DI(3) has r = ell")
    return RootSystemType("D", ell), _uniform(1, ell), {"r": ell, "ell": ell}


def _row_diii1(r, ell):
    _require(ell is not None and ell >= 2, "DIII(1) needs ell >= 2")
    _require(r is None or r == 2 * ell, "DIII(1) has r = n = 2*ell")
    system = RootSystemType("B", 2) if ell == 2 else RootSystemType("C", ell)
    return system, _tail(4, ell, (1, 0)), {"r": 2 * ell, "ell": ell}


def _row_diii2(r, ell):
    _require(ell is not None and ell >= 1, "DIII(2) needs ell >= 1")
    _require(r is None or r == 2 * ell + 1, "DIII(2) has r = n = 2*ell + 1")
    system = RootSystemType("C", 2) if ell == 2 else RootSystemType("BC", ell)
    return system, _tail(4, ell, (4, 1)), {"r": 2 * ell + 1, "ell": ell}


def _fixed_row(system_text, multiplicities):
    def build(r, ell):
        _require(r is None and ell is None, "this label takes no parameters")
        return parse_type(system_text), tuple(multiplicities), {}

    return build


# each label's build: (r, ell) -> (restricted type, multiplicities, params)
_ROWS = {
    "AI": _row_ai,
    "AII": _row_aii,
    "AIII1": _row_aiii1,
    "AIII2": _row_aiii2,
    "BI": _row_bi,
    "CI": _row_ci,
    "CII1": _row_cii1,
    "CII2": _row_cii2,
    "DI1": _row_di1,
    "DI2": _row_di2,
    "DI3": _row_di3,
    "DIII1": _row_diii1,
    "DIII2": _row_diii2,
    "EI": _fixed_row("E6", _uniform(1, 6)),
    "EII": _fixed_row("F4", ((2, 0), (1, 0), (2, 0), (1, 0))),
    "EIII": _fixed_row("B2", ((8, 1), (6, 0))),
    "EIV": _fixed_row("A2", _uniform(8, 2)),
    "EV": _fixed_row("E7", _uniform(1, 7)),
    "EVI": _fixed_row("F4", ((1, 0), (1, 0), (4, 0), (4, 0))),
    "EVII": _fixed_row("C3", ((8, 0), (8, 0), (1, 0))),
    "EVIII": _fixed_row("E8", _uniform(1, 8)),
    "EIX": _fixed_row("F4", ((1, 0), (1, 0), (8, 0), (8, 0))),
    "FI": _fixed_row("F4", _uniform(1, 4)),
    "FII": _fixed_row("BC1", ((8, 7),)),
    "G": _fixed_row("G2", _uniform(1, 2)),
}

# node relabellings of the standard Cartan data: EII nodes are listed in
# the ambient E6 index order of the folded classes (alpha_1/alpha_6,
# alpha_2, alpha_3/alpha_5, alpha_4), hence the relabelling of the F4 chain
_NODE_PERMS = {"EII": (3, 0, 2, 1)}

# one representative parameter choice per label, inside the valid range
REPRESENTATIVE_PARAMS = {
    "AI": {"r": 5},
    "AII": {"r": 7},
    "AIII1": {"r": 6, "ell": 2},
    "AIII2": {"ell": 3},
    "BI": {"r": 4, "ell": 2},
    "CI": {"ell": 3},
    "CII1": {"r": 6, "ell": 2},
    "CII2": {"ell": 2},
    "DI1": {"ell": 3},
    "DI2": {"r": 5, "ell": 3},
    "DI3": {"ell": 4},
    "DIII1": {"ell": 3},
    "DIII2": {"ell": 3},
}


def _assemble(label, system, multiplicities, params, node_perm=None) -> RestrictedDatum:
    data = cartan_data(system)
    if node_perm is not None:
        data = _permuted(data, node_perm)
    k_coeffs = delta_bar_coeffs(multiplicities)
    two_delta = tuple(2 * k for k in k_coeffs)
    if any(x <= 0 for x in two_delta):
        raise AssertionError("half-sum coefficients must be positive")
    descriptor = SymmetricSpaceDescriptor(
        label=label,
        params=tuple(sorted(params.items())),
        restricted_type=system,
        multiplicities=tuple(tuple(m) for m in multiplicities),
        involution=_involution_for(system),
    )
    return RestrictedDatum(
        descriptor=descriptor,
        cartan=data,
        two_delta_bar=two_delta,
    )


def _row(label: str, r: Optional[int], ell: Optional[int]) -> tuple:
    """A catalog row's (restricted type, multiplicities, params); no Cartan data."""
    build = _ROWS.get(label)
    if build is None:
        raise ValueError(f"unknown symmetric-space label {label!r}")
    return build(r, ell)


def restricted_rank(label: str, r: Optional[int] = None, ell: Optional[int] = None) -> int:
    """The restricted rank of a catalog label at given parameters, before any Cartan data."""
    return len(_row(label, r, ell)[1])


def restricted_datum(label: str, r: Optional[int] = None, ell: Optional[int] = None) -> RestrictedDatum:
    """Build the restricted datum for a catalog label at given parameters."""
    return _assemble(label, *_row(label, r, ell), _NODE_PERMS.get(label))


def table_rows() -> list:
    """All catalog labels of rank >= 2 at representative parameters.

    FII has rank one, so it is left out.
    """
    return [
        restricted_datum(label, **REPRESENTATIVE_PARAMS.get(label, {}))
        for label in LABELS
        if label != "FII"
    ]


# -- rank-one data (the compact rank-one spaces used as product factors) --

_CROSS_ALIAS = re.compile(r"(S|CP|HP|OP)(\d+)")


def cross_datum(alias: str) -> RestrictedDatum:
    """Rank-one restricted datum for a compact rank-one symmetric space.

    Accepts only ``S<d>`` (spheres, d >= 2), ``CP<n>``/``HP<n>`` (n >= 1) and
    ``OP2``/``FII`` (the Cayley plane).  A catalog datum at rank one, such as
    ``AI`` with r=1, goes to ``products.factor_spectrum`` as a RestrictedDatum.
    """
    alias = alias.strip()
    if alias in ("OP2", "FII"):
        return restricted_datum("FII")
    match = _CROSS_ALIAS.fullmatch(alias)
    if match is None:
        raise ValueError(f"unknown rank-one factor {alias!r}")
    kind, n = match.group(1), int(match.group(2))
    if kind == "S":
        if n < 2:
            raise ValueError("spheres need dimension >= 2")
        return rank_one_datum(alias, m_gamma=n - 1, m_double=0)
    if kind == "CP":
        if n < 1:
            raise ValueError("CP needs n >= 1")
        if n == 1:
            return rank_one_datum("S2", m_gamma=1, m_double=0)
        return rank_one_datum(alias, m_gamma=2 * (n - 1), m_double=1)
    if kind == "HP":
        if n < 1:
            raise ValueError("HP needs n >= 1")
        if n == 1:
            return rank_one_datum("S4", m_gamma=3, m_double=0)
        return rank_one_datum(alias, m_gamma=4 * (n - 1), m_double=3)
    raise ValueError(f"unknown rank-one factor {alias!r}")


def rank_one_datum(label: str, m_gamma: int, m_double: int) -> RestrictedDatum:
    """Ad-hoc rank-one datum with the given multiplicity pair."""
    system = RootSystemType("BC" if m_double > 0 else "A", 1)
    return _assemble(label, system, ((m_gamma, m_double),), {})
