"""The quotient of SU(2) by the order-12 binary dihedral subgroup F.

F is generated by sigma = diag(w^2, w^-2) and tau = antidiag(i, i) where
w = exp(i pi / 6) is a primitive 12th root of unity.  Both generators act
monomially on the degree-k symmetric power V_k with basis
v_l = z1^l z2^(k-l), sending basis monomials to basis monomials times a
root of unity.

The F-invariant subspace of V_k is the image of the averaging projector
(1/12) sum_g g.  Summing the roots of unity over the cyclic group
<sigma> and its coset <sigma> tau gives that projector in closed form,
with rational entries (see ``averaging_projector``): it is
block-diagonal on the tau-orbits {l, k - l}, so its image is spanned by
one column per orbit.  The 12-element group average itself is kept in
the tests as the reference.

On the two-parameter metric family (a on the fiber direction, b on the
complement) the Casimir acts on the invariant vector with weight gap
d = 2l - k by the linear form

    a * (-d^2 / 8) + b * (k (k + 2) + d^2) / 8.

The k(k+2)/8 normalization of the round Casimir is used consistently; a
uniform positive factor on all forms moves no collision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional

import numpy as np

from .exactalg import MultiPoly, ParametricMatrix, primitive_vector, rational_to_str
from .spectrum import equal_value_pairs, exact_dtype, pair_values

METRIC_PARAMS = ("a", "b")


@dataclass(frozen=True)
class FixedSpaceBasis:
    """Exact basis of the F-invariant subspace of V_k.

    Basis vectors are primitive integer vectors in the monomial basis,
    each supported on a single tau-orbit {l, k - l}; ``ell_values`` lists
    the occurring weight gaps |2l - k| in increasing order.
    """

    k: int
    basis: tuple
    ell_values: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "dimension": self.dimension,
            "ell_values": list(self.ell_values),
            "basis": [list(v) for v in self.basis],
        }


def averaging_projector(k: int) -> list:
    """The exact matrix of P = (1/12) sum_g g acting on V_k, in closed form.

    F is the cyclic group <sigma> together with its coset <sigma> tau, and
    an element g acts by (g . f)(z) = f(g^-1 z):

    * sigma^j sends v_l to w^(2j(k - 2l)) v_l;
    * sigma^j tau sends v_l to w^(-3k) w^(2j(2l - k)) v_(k-l);
    * sum_{j=0..5} w^(2jm) is 6 when m = 0 (mod 6) and 0 otherwise;
    * w^(-3k) = (-1)^(k/2) for even k, and k = 2l (mod 6) forces k even.

    Together: P v_l = (v_l + (-1)^(k/2) v_(k-l)) / 2 when k = 2l (mod 6),
    and 0 otherwise.  When l = k - l the two halves land on one entry,
    which is 1 if k = 0 (mod 4) and 0 otherwise.
    """
    dim = k + 1
    sign = -1 if k % 4 == 2 else 1
    projector = [[Fraction(0)] * dim for _ in range(dim)]
    for ell in range(dim):
        if (k - 2 * ell) % 6 == 0:
            projector[ell][ell] += Fraction(1, 2)
            projector[k - ell][ell] += Fraction(sign, 2)
    return projector


@lru_cache(maxsize=None)
def fixed_space(k: int) -> FixedSpaceBasis:
    """F-invariant subspace of V_k, the image of the averaging projector.

    Since P g = P for the projector P, P v_(k-l) is a unit times P v_l, so
    the nonzero columns P v_l with l <= k/2, in ascending l, form a basis
    of the image.  Column l is zero outside rows l and k - l, so only
    those entries are reduced to a primitive vector.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    projector = averaging_projector(k)
    basis = []
    for ell in range(k // 2 + 1):
        rows = (ell, k - ell) if 2 * ell < k else (ell,)
        entries = [projector[row][ell] for row in rows]
        if any(entries):
            vector = [0] * (k + 1)
            for row, entry in zip(rows, primitive_vector(entries)):
                vector[row] = entry
            basis.append(tuple(vector))

    gaps = set()
    for vector in basis:
        support_gaps = {abs(2 * ell - k) for ell, c in enumerate(vector) if c}
        if len(support_gaps) != 1:
            raise AssertionError("basis vector mixes tau-orbits")
        gaps.add(support_gaps.pop())
    return FixedSpaceBasis(k=k, basis=tuple(basis), ell_values=tuple(sorted(gaps)))


def predicted_dimension(k: int) -> int:
    """Dimension of the F-invariant subspace of V_k, counted by rule.

    This is the rule of ``averaging_projector`` restated as a count:
    pairs l < k - l with 2l = k (mod 6) each contribute one invariant
    line; the middle monomial l = k/2 survives exactly when the tau phase
    (-i)^k is +1, i.e. k = 0 (mod 4).  Odd k has no invariants because
    -1 in F acts by (-1)^k.
    """
    if k % 2 == 1:
        return 0
    count = sum(1 for ell in range(k // 2) if (2 * ell - k) % 6 == 0)
    if k % 4 == 0:
        count += 1
    return count


@dataclass(frozen=True)
class TwoParamEigenvalue:
    """Casimir eigenvalue on one invariant line as a linear form in (a, b)."""

    k: int
    gap_squared: int
    a_coeff: Fraction
    b_coeff: Fraction

    def value(self, a: Fraction, b: Fraction) -> Fraction:
        return self.a_coeff * a + self.b_coeff * b

    def form(self) -> tuple:
        return (self.a_coeff, self.b_coeff)

    def parametric(self) -> MultiPoly:
        return (
            MultiPoly.variable(METRIC_PARAMS, "a") * self.a_coeff
            + MultiPoly.variable(METRIC_PARAMS, "b") * self.b_coeff
        )

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "gap_squared": self.gap_squared,
            "a_coeff": rational_to_str(self.a_coeff),
            "b_coeff": rational_to_str(self.b_coeff),
        }


def eigenvalue_forms(k: int) -> list:
    """One linear form per weight gap occurring in the invariant basis."""
    space = fixed_space(k)
    if space.dimension == 0:
        raise ValueError(f"V_{k} has no invariant vectors")
    forms = []
    for gap in space.ell_values:
        dsq = gap * gap
        forms.append(
            TwoParamEigenvalue(
                k=k,
                gap_squared=dsq,
                a_coeff=Fraction(-dsq, 8),
                b_coeff=Fraction(k * (k + 2) + dsq, 8),
            )
        )
    seen = {f.form() for f in forms}
    if len(seen) != len(forms):
        raise AssertionError("eigenvalue forms within one k must be distinct")
    return forms


def all_forms(kmax: int) -> list:
    forms = []
    for k in range(0, kmax + 1, 2):
        if fixed_space(k).dimension:
            forms.extend(eigenvalue_forms(k))
    return forms


def su2f_representation_family(kmax: int) -> list:
    """Representation entries (diagonal Casimir matrices) for k <= kmax."""
    from .simplicity import RepresentationEntry

    entries = []
    for k in range(0, kmax + 1, 2):
        if fixed_space(k).dimension == 0:
            continue
        # the basis runs in ascending l, so in descending gap |2l - k|
        diagonal = [f.parametric() for f in reversed(eigenvalue_forms(k))]
        entries.append(
            RepresentationEntry(
                id=f"V{k}",
                type_class="real",
                dual_id=f"V{k}",
                casimir=ParametricMatrix.diagonal(diagonal),
            )
        )
    return entries


def collisions_at_metric(kmax: int, a: Fraction, b: Fraction) -> list:
    """Pairs of distinct invariant lines with equal eigenvalue at (a, b).

    Pairs come in ascending eigenvalue.  The values are scaled by the lcm
    D of their denominators to exact integers, compared in int64 when the
    largest |D * value| is below 2**63 and in Python ints otherwise.
    """
    forms = all_forms(kmax)
    values = [form.value(a, b) for form in forms]
    denom = lcm(*(v.denominator for v in values))
    values = [int(v * denom) for v in values]
    values = np.array(values, exact_dtype(max(map(abs, values), default=0)))
    first, second = equal_value_pairs(values)
    ascending = np.argsort(values[first], kind="stable")
    first, second = first[ascending], second[ascending]
    keys = np.fromiter(((form.k, form.gap_squared) for form in forms), object, len(forms))
    return list(zip(keys[first], keys[second], pair_values(values, first, denom)))


def find_simple_metric(kmax: int) -> tuple:
    """First candidate metric (a, b), a != b, with no eigenvalue collision.

    Candidates are drawn from the deterministic sequence 1, 2, 3, 5, 7,
    11, ... (one and the primes), enumerated in lexicographic order.
    """
    from .products import candidate_tuples

    for a, b in candidate_tuples(2):
        if a == b:
            continue
        if not collisions_at_metric(kmax, Fraction(a), Fraction(b)):
            return (Fraction(a), Fraction(b))
    raise RuntimeError("unreachable: the candidate sequence is infinite")


@dataclass(frozen=True)
class SimplicityReport:
    """Certificate data for the two-parameter metric family on SU(2)/F."""

    kmax: int
    dimensions: tuple  # (k, dimension) for all k <= kmax
    within_k_distinct: bool
    cross_k_injective: bool
    metric: Optional[tuple]
    metric_collisions: tuple

    @property
    def certified(self) -> bool:
        ok = self.within_k_distinct and self.cross_k_injective
        if self.metric is not None:
            ok = ok and not self.metric_collisions
        return ok

    def to_json(self) -> dict:
        return {
            "kmax": self.kmax,
            "dimensions": {str(k): d for k, d in self.dimensions},
            "within_k_distinct": self.within_k_distinct,
            "cross_k_injective": self.cross_k_injective,
            "metric": None
            if self.metric is None
            else [rational_to_str(x) for x in self.metric],
            "metric_collisions": [
                [list(ka), list(kb), rational_to_str(value)]
                for ka, kb, value in self.metric_collisions
            ],
            "certified": self.certified,
        }


def simplicity_certificate(
    kmax: int, sample_metric: Optional[tuple] = None
) -> SimplicityReport:
    """Check the two eigenvalue separation properties up to kmax.

    (i) within each k the forms are pairwise distinct as linear forms
    (so some metric separates them, and quaternionic-type constraints
    are vacuous: every invariant-carrying V_k has k even, hence is of
    real type); (ii) the map (k, gap^2) -> form is injective across all
    k <= kmax, so distinct invariant lines never share a form
    identically.  With a sample metric the report also lists the exact
    collisions at that point, if any.
    """
    if kmax < 2:
        raise ValueError("kmax must be >= 2")
    dimensions = []
    for k in range(kmax + 1):
        dim = fixed_space(k).dimension
        if k % 2 == 1 and dim != 0:
            raise AssertionError("odd k must have no invariants")
        dimensions.append((k, dim))

    within = True
    forms = all_forms(kmax)  # constructor asserts within-k distinctness

    by_form = {}
    injective = True
    for form in forms:
        key = form.form()
        if key in by_form and by_form[key] != (form.k, form.gap_squared):
            injective = False
        by_form[key] = (form.k, form.gap_squared)

    metric = None
    metric_collisions = ()
    if sample_metric is not None:
        a, b = Fraction(sample_metric[0]), Fraction(sample_metric[1])
        if a <= 0 or b <= 0:
            raise ValueError("metric parameters must be positive")
        metric = (a, b)
        metric_collisions = tuple(collisions_at_metric(kmax, a, b))

    return SimplicityReport(
        kmax=kmax,
        dimensions=tuple(dimensions),
        within_k_distinct=within,
        cross_k_injective=injective,
        metric=metric,
        metric_collisions=metric_collisions,
    )
