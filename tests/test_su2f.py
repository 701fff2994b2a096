"""SU(2)/F: closed-form projector, fixed spaces, forms and certificates.

The 12-element group F, its monomial action on V_k and the cyclotomic
sum of its phases live here as the reference for the closed-form
``averaging_projector``.  The library stores the projector sparsely and
keeps only the weight gaps of its image; the references here are dense,
and the invariant basis vectors themselves, built by a dense
elimination, are checked here against the group and the gaps.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pairref
from specref import find_simple_metric, form_keys, predicted_dimension

from casimirspec import cli, su2f
from casimirspec.exactalg import MultiPoly
from casimirspec.su2f import (
    METRIC_PARAMS,
    averaging_projector,
    collisions_at_metric,
    fixed_space,
    invariant_lines,
    simplicity_certificate,
    su2f_representation_family,
)

GROUP_ROOT_ORDER = 12

# coordinates of w^e in the basis (1, w, w^2, w^3) of the 12th cyclotomic
# field, using w^4 = w^2 - 1
_ROOT_COORDS = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (-1, 0, 1, 0),
    (0, -1, 0, 1),
    (-1, 0, 0, 0),
    (0, -1, 0, 0),
    (0, 0, -1, 0),
    (0, 0, 0, -1),
    (1, 0, -1, 0),
    (0, 1, 0, -1),
)


def _root_sum_to_rational(exponent_counts) -> Fraction:
    """Sum of roots of unity given as exponent counts; must be rational."""
    coords = [0, 0, 0, 0]
    for exponent, count in enumerate(exponent_counts):
        if count:
            base = _ROOT_COORDS[exponent % GROUP_ROOT_ORDER]
            for i in range(4):
                coords[i] += count * base[i]
    if any(coords[i] for i in range(1, 4)):
        raise ArithmeticError("averaging produced an irrational entry")
    return Fraction(coords[0])


@dataclass(frozen=True)
class MonomialAction:
    """Action of one group element on a basis monomial: target index and
    the phase as an exponent of the primitive 12th root of unity."""

    target: int
    phase_exponent: int


@dataclass(frozen=True)
class MonomialMatrix:
    """A 2x2 monomial unitary with root-of-unity entries.

    ``diag(w^e1, w^e2)`` when not antidiagonal, ``[[0, w^e1], [w^e2, 0]]``
    otherwise; exponents live mod 12.
    """

    antidiag: bool
    e1: int
    e2: int

    def __post_init__(self):
        object.__setattr__(self, "e1", self.e1 % GROUP_ROOT_ORDER)
        object.__setattr__(self, "e2", self.e2 % GROUP_ROOT_ORDER)

    def __mul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if not self.antidiag and not other.antidiag:
            return MonomialMatrix(False, self.e1 + other.e1, self.e2 + other.e2)
        if not self.antidiag and other.antidiag:
            return MonomialMatrix(True, self.e1 + other.e1, self.e2 + other.e2)
        if self.antidiag and not other.antidiag:
            return MonomialMatrix(True, self.e1 + other.e2, self.e2 + other.e1)
        return MonomialMatrix(False, self.e1 + other.e2, self.e2 + other.e1)

    def action_on_monomial(self, k: int, ell: int) -> MonomialAction:
        """Image of v_l under (g . f)(z) = f(g^{-1} z)."""
        if self.antidiag:
            return MonomialAction(
                k - ell, (-self.e2 * ell - self.e1 * (k - ell)) % GROUP_ROOT_ORDER
            )
        return MonomialAction(
            ell, (-self.e1 * ell - self.e2 * (k - ell)) % GROUP_ROOT_ORDER
        )


SIGMA = MonomialMatrix(False, 2, -2)
TAU = MonomialMatrix(True, 3, 3)

_IDENTITY = MonomialMatrix(False, 0, 0)


def group_elements() -> tuple:
    """Close {sigma, tau} under multiplication; the result has order 12.

    The defining relations sigma^6 = 1 and tau^2 = sigma^3 (= -1) are
    asserted, not assumed.
    """
    elements = {_IDENTITY}
    frontier = [_IDENTITY]
    while frontier:
        nxt = []
        for g in frontier:
            for gen in (SIGMA, TAU):
                h = g * gen
                if h not in elements:
                    elements.add(h)
                    nxt.append(h)
        frontier = nxt
    elements = tuple(sorted(elements, key=lambda g: (g.antidiag, g.e1, g.e2)))
    if len(elements) != 12:
        raise AssertionError(f"group closure has order {len(elements)}, not 12")
    sigma6 = _IDENTITY
    for _ in range(6):
        sigma6 = sigma6 * SIGMA
    if sigma6 != _IDENTITY:
        raise AssertionError("sigma does not have order 6")
    sigma3 = SIGMA * SIGMA * SIGMA
    if TAU * TAU != sigma3 or sigma3 != MonomialMatrix(False, 6, 6):
        raise AssertionError("tau^2 = sigma^3 = -1 fails")
    return elements


def group_average_projector(k):
    """(1/12) sum_g g on V_k, each column summed from two phase counters."""
    dim = k + 1
    elements = group_elements()
    projector = [[Fraction(0)] * dim for _ in range(dim)]
    for ell in range(dim):
        counts = {ell: [0] * GROUP_ROOT_ORDER, k - ell: [0] * GROUP_ROOT_ORDER}
        for g in elements:
            action = g.action_on_monomial(k, ell)
            counts[action.target][action.phase_exponent] += 1
        for target, phases in counts.items():
            projector[target][ell] = _root_sum_to_rational(phases) / 12
    return projector


def reference_projector(k):
    """The projector from a dense (k+1)^2 x 12 phase-count cube."""
    dim = k + 1
    counts = [[[0] * GROUP_ROOT_ORDER for _ in range(dim)] for _ in range(dim)]
    for g in group_elements():
        for ell in range(dim):
            action = g.action_on_monomial(k, ell)
            counts[action.target][ell][action.phase_exponent] += 1
    return [
        [_root_sum_to_rational(counts[i][j]) / 12 for j in range(dim)]
        for i in range(dim)
    ]


def dense_projector(k):
    """``averaging_projector(k)`` as a dense (k+1) x (k+1) matrix."""
    dense = [[Fraction(0)] * (k + 1) for _ in range(k + 1)]
    for (row, column), entry in averaging_projector(k).items():
        dense[row][column] = entry
    return dense


def nonzero_entries(matrix):
    return {
        (i, j): entry
        for i, row in enumerate(matrix)
        for j, entry in enumerate(row)
        if entry
    }


def primitive_vector(vector) -> tuple:
    """Primitive integer vector on the ray of a rational vector.

    Denominators are cleared and the content divided out; the first
    nonzero entry is made positive.  The zero vector maps to itself.
    """
    scale = lcm(*[x.denominator for x in vector])
    vector = [x.numerator * (scale // x.denominator) for x in vector]
    content = gcd(*vector)
    if content:
        vector = [x // content for x in vector]
    if next((x for x in vector if x), 0) < 0:
        vector = [-x for x in vector]
    return tuple(vector)


def weight_gap(k, vector):
    """The weight gap |2l - k| of a basis vector supported on one tau-orbit."""
    gaps = {abs(2 * ell - k) for ell, coeff in enumerate(vector) if coeff}
    if len(gaps) != 1:
        raise AssertionError("basis vector mixes tau-orbits")
    return gaps.pop()


@lru_cache(maxsize=None)
def reference_fixed_space(k):
    """(basis, gaps) of the dense projector's image, by Gauss-Jordan on its
    transpose: primitive basis vectors and their weight gaps, ascending."""
    projector = dense_projector(k)
    dim = k + 1
    rows = [[projector[i][j] for i in range(dim)] for j in range(dim)]
    basis = []
    pivot_col = 0
    row = 0
    while row < len(rows) and pivot_col < dim:
        pivot = next((r for r in range(row, len(rows)) if rows[r][pivot_col] != 0), None)
        if pivot is None:
            pivot_col += 1
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        scale = rows[row][pivot_col]
        rows[row] = [x / scale for x in rows[row]]
        for r in range(len(rows)):
            if r != row and rows[r][pivot_col] != 0:
                factor = rows[r][pivot_col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[row])]
        basis.append(primitive_vector(rows[row]))
        row += 1
        pivot_col += 1
    return tuple(basis), tuple(sorted(weight_gap(k, v) for v in basis))


class TestPrimitiveVector:
    def test_clears_denominators_and_content(self):
        assert primitive_vector([Fraction(1, 2), Fraction(-1, 3)]) == (3, -2)
        assert primitive_vector([4, 6, 0]) == (2, 3, 0)

    def test_first_nonzero_entry_is_positive(self):
        assert primitive_vector([0, -4, 6]) == (0, 2, -3)
        assert primitive_vector([Fraction(-2), Fraction(2)]) == (1, -1)

    def test_zero_vector(self):
        assert primitive_vector([0, Fraction(0)]) == (0, 0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.integers(-50, 50) | st.fractions(max_denominator=60).map(lambda x: x * 7)
            | st.just(0) | st.just(Fraction(0)),
            max_size=6,
        )
    )
    @example([0, Fraction(0), 0])
    @example([Fraction(-3, 4), 2, Fraction(-5, 6), -4])
    def test_matches_fraction_scaling(self, vector):
        # the formula before denominators were cleared in ints
        scale = lcm(*[x.denominator for x in vector])
        scaled = [int(x * scale) for x in vector]
        content = gcd(*scaled)
        if content:
            scaled = [x // content for x in scaled]
        if next((x for x in scaled if x), 0) < 0:
            scaled = [-x for x in scaled]
        result = primitive_vector(vector)
        assert result == tuple(scaled)
        assert all(type(x) is int for x in result)


class TestGroup:
    def test_order_twelve(self):
        assert len(group_elements()) == 12

    def test_relations(self):
        sigma6 = MonomialMatrix(False, 0, 0)
        for _ in range(6):
            sigma6 = sigma6 * SIGMA
        assert sigma6 == MonomialMatrix(False, 0, 0)
        assert TAU * TAU == SIGMA * SIGMA * SIGMA

    def test_minus_identity_action(self):
        # tau^2 = -1 acts on V_k by (-1)^k
        minus = TAU * TAU
        for k in (3, 4):
            action = minus.action_on_monomial(k, 1)
            assert action.target == 1
            assert action.phase_exponent == (6 * k) % 12  # w^(6k) = (-1)^k

    def test_conjugation_inverts_sigma(self):
        tau_inv = MonomialMatrix(True, 9, 9)  # tau^-1 = -tau
        assert TAU * tau_inv == MonomialMatrix(False, 0, 0)
        lhs = TAU * SIGMA * tau_inv
        sigma_inv = MonomialMatrix(False, -2, 2)
        assert lhs == sigma_inv


class TestFixedSpace:
    def test_odd_k_zero(self):
        assert fixed_space(1) == ()
        assert fixed_space(7) == ()

    def test_k4(self):
        assert fixed_space(4) == (0,)
        assert reference_fixed_space(4) == (((0, 0, 1, 0, 0),), (0,))

    def test_k12(self):
        assert fixed_space(12) == (0, 6, 12)
        # one tau-orbit per vector, in ascending l
        basis, gaps = reference_fixed_space(12)
        assert basis == (
            (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
            (0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
        )
        assert gaps == (0, 6, 12)

    def test_projector_is_idempotent(self):
        for k in (4, 10, 12):
            p = dense_projector(k)
            n = len(p)
            square = [
                [sum(p[i][m] * p[m][j] for m in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert square == p

    def test_basis_vectors_are_fixed(self):
        for k in (4, 8, 12, 16):
            basis, gaps = reference_fixed_space(k)
            assert basis and gaps == fixed_space(k)
            for g in group_elements():
                for vector in basis:
                    image = [Fraction(0)] * (k + 1)
                    for ell, coeff in enumerate(vector):
                        if not coeff:
                            continue
                        action = g.action_on_monomial(k, ell)
                        # rational basis vectors stay rational: the
                        # phase must be +-1 on the support
                        assert action.phase_exponent in (0, 6)
                        sign = 1 if action.phase_exponent == 0 else -1
                        image[action.target] += sign * coeff
                    assert tuple(image) == vector

    def test_oracle_agreement_to_240(self):
        for k in range(241):
            assert len(fixed_space(k)) == predicted_dimension(k)

    def test_projector_matches_group_average_to_240(self):
        # k <= 240 covers every residue of k mod 12 and of l mod 6
        for k in range(241):
            assert averaging_projector(k) == nonzero_entries(group_average_projector(k)), k

    @pytest.mark.parametrize("k", [0, 4, 8, 12, 60, 2, 6, 10, 14, 62])
    def test_middle_entry(self, k):
        # l = k - l: both halves land on one entry, 1 iff k = 0 (mod 4)
        middle = k // 2
        expected = [Fraction(0)] * (k + 1)
        expected[middle] = Fraction(1 if k % 4 == 0 else 0)
        for projector in (dense_projector(k), group_average_projector(k)):
            assert [row[middle] for row in projector] == expected

    def test_projector_matches_dense_count_cube(self):
        for k in range(41):
            assert dense_projector(k) == reference_projector(k)

    def test_matches_dense_elimination_to_120(self):
        # one gap per reference basis vector, each on a single tau-orbit
        for k in range(121):
            assert fixed_space(k) == reference_fixed_space(k)[1], k


def arithmetic_form(a8, b8):
    """The line's form a * a8/8 + b * b8/8, built by MultiPoly arithmetic."""
    a = MultiPoly.variable(METRIC_PARAMS, "a")
    b = MultiPoly.variable(METRIC_PARAMS, "b")
    return a * Fraction(a8, 8) + b * Fraction(b8, 8)


class TestFormKeys:
    def test_k4(self):
        assert form_keys(4) == [(0, 24)]

    def test_k12(self):
        assert form_keys(12) == [(0, 168), (-36, 204), (-144, 312)]

    def test_zero_space_has_no_keys(self):
        assert form_keys(2) == []

    def test_within_k_distinct_to_sixty(self):
        for k in range(61):
            keys = form_keys(k)
            assert len(set(keys)) == len(keys) == len(fixed_space(k))

    def test_gaps_follow_the_residue_rule_to_1200(self):
        # odd k has no invariants; even k has the gaps 0 (when 4 | k) and
        # every positive multiple of 6 up to k
        for k in range(1201):
            space = fixed_space(k)
            if k % 2:
                assert space == (), k
                continue
            gaps = ((0,) if k % 4 == 0 else ()) + tuple(range(6, k + 1, 6))
            assert space == gaps, k
            assert len(space) == k // 6 + (k % 4 == 0), k

    def test_family_diagonals_against_arithmetic(self):
        for entry in su2f_representation_family(200):
            k = int(entry.id[1:])
            diagonal = list(entry.casimir.entries)
            oracles = [arithmetic_form(a8, b8) for a8, b8 in reversed(form_keys(k))]
            assert diagonal == oracles
            assert [hash(d) for d in diagonal] == [hash(o) for o in oracles]


class TestLineTable:
    KMAX = 1200

    def test_table_against_the_keys_to_1200(self):
        lines = invariant_lines(self.KMAX)
        assert lines.dtype == np.int64
        keys = [(k, key) for k in range(0, self.KMAX + 1, 2) for key in form_keys(k)]
        assert lines.tolist() == [[k, -a8] for k, (a8, _) in keys]
        for kmax in (2, 12, 13, 120):
            assert invariant_lines(kmax).tolist() == lines[lines[:, 0] <= kmax].tolist()

    @pytest.mark.parametrize("kmax", [2, 12, 120, 1200])
    def test_verdicts_against_the_keys(self, kmax):
        by_k = [form_keys(k) for k in range(0, kmax + 1, 2)]
        keys = [key for block in by_k for key in block]
        within = all(len(set(block)) == len(block) for block in by_k)
        injective = len(set(keys)) == len(keys)
        report = simplicity_certificate(kmax)
        verdicts = (report.within_k_distinct, report.cross_k_injective)
        assert verdicts == (within, injective) == (True, True)

    def test_python_int_fallback_gives_the_same_report(self, monkeypatch):
        expected = simplicity_certificate(120, sample_metric=(1, 1))
        monkeypatch.setattr(su2f, "exact_dtype", lambda magnitude: object)
        assert invariant_lines(120).dtype == object
        report = simplicity_certificate(120, sample_metric=(1, 1))
        assert report.metric_collisions.values.dtype == object
        assert report.to_json() == expected.to_json()
        assert pairref.records(report.metric_collisions) == pairref.records(
            expected.metric_collisions
        )


class TestPlantedDuplicates:
    """A repeated form fails its verdict, and the certificate exits 1."""

    def _run(self, capsys):
        code = cli.run(["su2f", "--kmax", "12", "--json"])
        return code, json.loads(capsys.readouterr().out)

    def test_within_one_k(self, monkeypatch, capsys):
        original = su2f.fixed_space

        def planted(k):
            return (0, 6, 6, 12) if k == 12 else original(k)

        monkeypatch.setattr(su2f, "fixed_space", planted)
        code, out = self._run(capsys)
        assert code == 1 and out["certified"] is False
        assert out["within_k_distinct"] is False and out["cross_k_injective"] is False
        assert out["dimensions"]["12"] == 4

    def test_across_two_k(self, monkeypatch, capsys):
        # the key (-d^2, k(k+2) + d^2) determines k, so no fixed_space plants
        # this one: the grouping reports lines 1 (k = 4) and 3 (k = 8) as equal
        monkeypatch.setattr(
            su2f, "equal_value_pairs", lambda build: (np.array([1]), np.array([3]), build())
        )
        assert invariant_lines(12)[[1, 3], 0].tolist() == [4, 8]
        code, out = self._run(capsys)
        assert code == 1 and out["certified"] is False
        assert out["within_k_distinct"] is True and out["cross_k_injective"] is False


class TestMetrics:
    def test_round_direction_collides(self):
        collisions = pairref.records(
            collisions_at_metric(invariant_lines(12), Fraction(1), Fraction(1))
        )
        assert collisions
        # all forms inside one k agree at a = b
        assert any(ka[0] == kb[0] for ka, kb, _ in collisions)

    def test_found_metric_is_clean(self):
        a, b = find_simple_metric(12)
        assert a != b
        assert not collisions_at_metric(invariant_lines(12), a, b)

    def test_scaling_invariance(self):
        t = Fraction(7, 3)
        lines = invariant_lines(16)
        base = pairref.records(collisions_at_metric(lines, Fraction(1), Fraction(1)))
        scaled = pairref.records(collisions_at_metric(lines, t, t))
        assert [(ka, kb) for ka, kb, _ in base] == [(ka, kb) for ka, kb, _ in scaled]


class TestCertificate:
    def test_kmax12(self):
        report = simplicity_certificate(12)
        assert report.within_k_distinct and report.cross_k_injective
        assert report.certified

    def test_metric_certificate(self):
        good = simplicity_certificate(12, sample_metric=(1, 2))
        assert good.certified and not good.metric_collisions
        bad = simplicity_certificate(12, sample_metric=(1, 1))
        assert not bad.certified and bad.metric_collisions

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            simplicity_certificate(1)
        with pytest.raises(ValueError):
            simplicity_certificate(8, sample_metric=(0, 1))


class TestRepresentationFamily:
    def test_k12_entry_diagonal(self):
        family = su2f_representation_family(12)
        entry = next(e for e in family if e.id == "V12")
        assert len(entry.casimir.entries) == 3
        assert entry.type_class == "real" and entry.dual_id == "V12"

    def test_dimensions_match_fixed_spaces(self):
        family = su2f_representation_family(20)
        for entry in family:
            k = int(entry.id[1:])
            assert len(entry.casimir.entries) == len(fixed_space(k))

    def test_diagonal_follows_basis_gaps(self):
        # entry i is the form of the weight gap of reference basis vector i
        for entry in su2f_representation_family(120):
            k = int(entry.id[1:])
            by_gap = {-a8: arithmetic_form(a8, b8) for a8, b8 in form_keys(k)}
            expected = [by_gap[weight_gap(k, v) ** 2] for v in reference_fixed_space(k)[0]]
            assert list(entry.casimir.entries) == expected
