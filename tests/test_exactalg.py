from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyref import (
    first_derivative,
    from_scalars,
    poly_at,
    poly_mul,
    reference_char_poly,
    t_minus,
)

from casimirspec.exactalg import (
    MultiPoly,
    ParametricMatrix,
    UniPoly,
    char_poly,
    derivative,
    determinant,
    exact_div,
    rational_from_str,
    rational_to_str,
    resultant,
    resultant_from_roots,
    sylvester_matrix,
)

AB = ("a", "b")


def mp(terms, variables=AB):
    return MultiPoly(variables, terms)


def const(value, variables=AB):
    return MultiPoly.constant(variables, value)


def var(name, variables=AB):
    return MultiPoly.variable(variables, name)


class TestRationals:
    def test_serialization(self):
        assert rational_to_str(Fraction(3, 4)) == "3/4"
        assert rational_to_str(Fraction(5)) == "5"
        assert rational_to_str(Fraction(-2, 6)) == "-1/3"
        assert rational_from_str("7/2") == Fraction(7, 2)
        assert rational_from_str("-4") == Fraction(-4)

    @given(st.integers(-50, 50), st.integers(1, 50))
    def test_roundtrip(self, num, den):
        q = Fraction(num, den)
        assert rational_from_str(rational_to_str(q)) == q

    @given(st.integers(-30, 30), st.integers(1, 30))
    def test_inverse_product(self, num, den):
        q = Fraction(num, den)
        if q != 0:
            assert q * (1 / q) == 1


small_poly = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=4,
).map(lambda terms: MultiPoly(AB, terms))


def assert_stored_canonically(p):
    """p holds what the public constructor would store for the same terms."""
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values())
    rebuilt = MultiPoly(p.variables, p.terms)
    assert p.terms == rebuilt.terms and p == rebuilt and hash(p) == hash(rebuilt)


class TestMultiPoly:
    def test_zero_coefficients_dropped(self):
        p = mp({(1, 0): 1, (0, 1): 0})
        assert (0, 1) not in p.terms

    def test_canonical_equality(self):
        p = var("a") * var("b") + const(3)
        q = const(3) + var("b") * var("a")
        assert p == q and hash(p) == hash(q)

    @settings(max_examples=60)
    @given(small_poly, small_poly)
    def test_commutative(self, p, q):
        for left, right in [(p + q, q + p), (p * q, q * p)]:
            assert left == right and hash(left) == hash(right)

    @settings(max_examples=40)
    @given(small_poly, small_poly, small_poly)
    def test_associative_distributive(self, p, q, r):
        for left, right in [
            ((p + q) + r, p + (q + r)),
            ((p * q) * r, p * (q * r)),
            (p * (q + r), p * q + p * r),
        ]:
            assert left == right and hash(left) == hash(right)

    def test_evaluate_and_substitute(self):
        p = var("a") ** 2 + var("b") * 3
        assert poly_at(p, {"a": Fraction(2), "b": Fraction(1, 3)}) == 5
        s = ("s",)
        image = p.substitute(
            {"a": MultiPoly.variable(s, "s"), "b": MultiPoly.constant(s, 2)}
        )
        assert image == MultiPoly(s, {(2,): 1, (0,): 6})

    @pytest.mark.parametrize(
        "terms", [{(0.5,): 3}, {(1.5,): 3, (1,): -3}, {("2",): 1}, {(-1,): 1}]
    )
    def test_non_integer_or_negative_exponent_raises(self, terms):
        with pytest.raises(ValueError):
            MultiPoly(("x",), terms)

    def test_integer_like_exponents_accepted(self):
        assert MultiPoly(("x",), {(np.int64(2),): 1}) == MultiPoly.variable(("x",), "x") ** 2
        assert MultiPoly(("x",), {(True,): 1}) == MultiPoly.variable(("x",), "x")

    def test_variable_mismatch(self):
        with pytest.raises(ValueError):
            var("a") + MultiPoly.variable(("c",), "c")

    @pytest.mark.parametrize("value", [3, 0, Fraction(3), Fraction(-5, 7)])
    def test_constant_hashes_like_its_value(self, value):
        p = MultiPoly.constant(AB, value)
        assert p == value and hash(p) == hash(value)
        assert len({p, value}) == 1

    def test_non_constant_stays_apart_from_numbers(self):
        assert len({var("a"), 0, 1}) == 3

    @settings(max_examples=60)
    @given(small_poly, small_poly)
    def test_arithmetic_results_stored_canonically(self, p, q):
        for result in [p + q, p - q, p * q, -p, p + 1, 2 * p, p - Fraction(1, 3)]:
            assert_stored_canonically(result)

    @settings(max_examples=60)
    @given(small_poly)
    def test_cancellations_leave_no_zero_coefficient(self, p):
        zero = MultiPoly.zero(AB)
        for result in [p + (-p), p - p, p * 0, p * zero, zero * p, -p + p]:
            assert result.terms == {} and result.is_zero()
            assert result == zero == 0 and hash(result) == hash(zero) == hash(0)
        # a partial cancellation drops only the terms that cancel
        q = p + var("a") ** 5
        assert q - p == var("a") ** 5 and (q - p).terms == {(5, 0): Fraction(1)}
        assert_stored_canonically(q - p)

    def test_public_constructor_still_validates(self):
        with pytest.raises(ValueError):
            MultiPoly(AB, {(1,): 1})
        with pytest.raises(ValueError):
            MultiPoly(AB, {(1, -1): 1})
        with pytest.raises(TypeError):
            MultiPoly(AB, {(1, 0): 0.5})
        assert MultiPoly(AB, {(1, 0): "3/4", (0, 1): 0}).terms == {(1, 0): Fraction(3, 4)}


class TestUniPoly:
    def test_derivative(self):
        t_sq = from_scalars(AB, [0, 0, 1])
        assert first_derivative(t_sq) == from_scalars(AB, [0, 2])
        assert derivative(t_sq) == from_scalars(AB, [2])
        assert derivative(first_derivative(t_sq)).is_zero()
        cubic = UniPoly(AB, [const(0), var("b"), const(0), var("a")])
        assert first_derivative(cubic) == UniPoly(AB, [var("b"), const(0), var("a") * 3])
        assert derivative(cubic) == UniPoly(AB, [const(0), var("a") * 6])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(small_poly, max_size=6))
    def test_second_derivative_is_the_first_taken_twice(self, coeffs):
        p = UniPoly(AB, coeffs)
        assert derivative(p) == first_derivative(first_derivative(p))

    def test_zero_state(self):
        z = UniPoly.zero(AB)
        assert z.is_zero()
        with pytest.raises(ValueError):
            _ = z.degree

    def test_mul_degree(self):
        p = t_minus(var("a"))
        q = t_minus(var("b"))
        prod = poly_mul(p, q)
        assert prod.degree == 2
        assert prod.coefficient(0) == var("a") * var("b")
        assert prod.coefficient(1) == -(var("a") + var("b"))


class TestCharPoly:
    def test_diagonal(self):
        m = ParametricMatrix([var("a"), var("b")])
        assert len(m.entries) == 2 and m.variables == AB
        p = char_poly(m)
        assert p.coefficient(2) == const(1)
        assert p.coefficient(1) == -(var("a") + var("b"))
        assert p.coefficient(0) == var("a") * var("b")

    def test_one_by_one(self):
        p = char_poly(ParametricMatrix([const(5)]))
        assert p == from_scalars(AB, [-5, 1])

    def test_empty_diagonal_rejected(self):
        with pytest.raises(ValueError):
            ParametricMatrix([])

    def test_variable_mismatch_rejected(self):
        with pytest.raises(ValueError, match="variable mismatch"):
            ParametricMatrix([var("a"), mp({(1,): 1}, ("u",))])

    def test_immutable(self):
        m = ParametricMatrix([var("a")])
        with pytest.raises(AttributeError):
            m.entries = (var("b"),)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(small_poly, min_size=1, max_size=6))
    def test_matches_generic_product(self, diagonal):
        matrix = ParametricMatrix(diagonal)
        p, expected = char_poly(matrix), reference_char_poly(matrix)
        assert p == expected and hash(p) == hash(expected)
        assert p.degree == len(diagonal) and p.coefficient(len(diagonal)) == 1
        for c in p.coeffs:
            assert_stored_canonically(c)


class TestDeterminant:
    def test_two_by_two(self):
        a, b = var("a"), var("b")
        rows = [[a, b], [b, a]]
        assert determinant(rows) == a * a - b * b

    def test_zero_column(self):
        z = const(0)
        rows = [[z, var("a")], [z, var("b")]]
        assert determinant(rows).is_zero()

    def test_pivot_swap(self):
        z, one = const(0), const(1)
        rows = [[z, one], [one, z]]
        assert determinant(rows) == const(-1)

    def test_exact_division(self):
        a, b = var("a"), var("b")
        product = (a + b) * (a - b)
        assert exact_div(product, a + b) == a - b
        with pytest.raises(ArithmeticError):
            exact_div(a * a + const(1), a + b)


class TestResultant:
    def test_linear_difference(self):
        uv = ("u", "v")
        p = t_minus(MultiPoly.variable(uv, "u"))
        q = t_minus(MultiPoly.variable(uv, "v"))
        expected = MultiPoly.variable(uv, "u") - MultiPoly.variable(uv, "v")
        assert resultant(p, q) == expected

    def test_discriminant_convention(self):
        # p = t^2 - 3t + 2 against p' = 2t - 3; the p-rows-first Sylvester
        # determinant is |1 -3 2; 2 -3 0; 0 2 -3| = -1
        p = from_scalars(AB, [2, -3, 1])
        q = first_derivative(p)
        assert resultant(p, q) == const(-1)

    def test_linear_root_substitution(self):
        p = t_minus(var("a") + var("b"))
        q = t_minus(var("b") * 2)
        assert resultant(p, q) == var("a") - var("b")

    def test_swap_sign(self):
        p = from_scalars(AB, [2, -3, 1])
        q = from_scalars(AB, [-3, 2])
        r_pq = resultant(p, q)
        r_qp = resultant(q, p)
        assert r_pq == r_qp * Fraction((-1) ** (p.degree * q.degree))

    def test_degenerate(self):
        c = from_scalars(AB, [3])
        with pytest.raises(ValueError):
            resultant(c, c)

    def test_constant_second_argument(self):
        p = from_scalars(AB, [2, -3, 1])
        assert resultant(p, from_scalars(AB, [5])) == const(25)

    def test_from_roots_matches_determinant(self):
        roots = [var("a"), var("b"), var("a") + const(1)]
        p = from_scalars(AB, [1])
        for root in roots:
            p = poly_mul(p, t_minus(root))
        q = first_derivative(p)
        assert resultant_from_roots(roots, q) == resultant(p, q)

    def test_vanishes_iff_common_root_at_points(self):
        import random

        rng = random.Random(7)
        a, b = var("a"), var("b")
        p = poly_mul(t_minus(a), t_minus(b + const(1)))
        q = poly_mul(t_minus(b), t_minus(a * 2))
        res = resultant(p, q)
        for _ in range(20):
            point = {
                "a": Fraction(rng.randint(1, 40), rng.randint(1, 10)),
                "b": Fraction(rng.randint(1, 40), rng.randint(1, 10)),
            }
            roots_p = {poly_at(a, point), poly_at(b + const(1), point)}
            roots_q = {poly_at(b, point), poly_at(a * 2, point)}
            assert (poly_at(res, point) == 0) == bool(roots_p & roots_q)

    def test_simple_roots_nonzero_discriminant_resultant(self):
        # distinct roots at a point: res(p, p') evaluates nonzero there
        p = poly_mul(t_minus(var("a")), t_minus(var("b")))
        res = resultant(p, first_derivative(p))
        point = {"a": Fraction(1, 3), "b": Fraction(5, 2)}
        assert poly_at(res, point) != 0
        equal_point = {"a": Fraction(5, 2), "b": Fraction(5, 2)}
        assert poly_at(res, equal_point) == 0

    def test_sylvester_shape(self):
        p = from_scalars(AB, [2, -3, 1])
        q = from_scalars(AB, [-3, 2])
        rows = sylvester_matrix(p, q)
        assert len(rows) == 3 and all(len(r) == 3 for r in rows)
