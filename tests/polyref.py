"""Reference arithmetic for rational polynomials as coefficient lists.

An oracle independent of the library's polynomial types: a list holds the
coefficients of t^0, t^1, ... as Fractions, and gcds are exact Euclid over
the rationals.  The tests evaluate a characteristic polynomial at a metric
point into such a list and decide shared roots and root multiplicities
from gcds, against the library's split path and its resultants.

On the library's own types it keeps ``poly_at``, the evaluation of a
``MultiPoly`` at a rational point, and three ``UniPoly`` builders the
tests use: the generic product of two polynomials, the generic-product
characteristic polynomial that ``exactalg.char_poly`` replaced with one
shift-and-subtract step per linear factor, and the first derivative in
``t`` (the library takes only the second, for condition (c)).
"""

from fractions import Fraction
from typing import Mapping, Sequence

from casimirspec.exactalg import MultiPoly, ParametricMatrix, UniPoly, as_rational


def poly_normalize(coeffs: Sequence[Fraction]) -> list:
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_divmod(num: Sequence[Fraction], den: Sequence[Fraction]) -> tuple:
    num = poly_normalize(num)
    den = poly_normalize(den)
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    quotient = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    rest = num[:]
    while len(rest) >= len(den):
        factor = rest[-1] / den[-1]
        shift = len(rest) - len(den)
        quotient[shift] = factor
        for i, c in enumerate(den):
            rest[shift + i] -= factor * c
        rest = poly_normalize(rest)
        if not rest:
            break
    return quotient, rest


def poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list:
    """Monic gcd over the rationals."""
    a, b = poly_normalize(a), poly_normalize(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def poly_derivative(coeffs: Sequence[Fraction]) -> list:
    return poly_normalize([i * c for i, c in enumerate(coeffs)][1:])


def shares_root(a: Sequence[Fraction], b: Sequence[Fraction]) -> bool:
    """Do two rational polynomials share a complex root?"""
    return len(poly_gcd(a, b)) > 1


def reference_profile(coeffs: Sequence[Fraction]) -> dict:
    """Histogram {multiplicity: count of roots} via repeated gcds with the derivative."""
    current = poly_normalize(coeffs)
    if len(current) <= 1:
        return {}
    degrees = [len(current) - 1]
    while True:
        current = poly_gcd(current, poly_derivative(current))
        degrees.append(len(current) - 1 if current else 0)
        if degrees[-1] == 0:
            break
    profile = {}
    for m in range(1, len(degrees)):
        count = (degrees[m - 1] - degrees[m]) - (
            (degrees[m] - degrees[m + 1]) if m + 1 < len(degrees) else 0
        )
        if count:
            profile[m] = count
    return profile


def poly_at(poly: MultiPoly, values: Mapping) -> Fraction:
    """The value of ``poly`` at a full assignment of rational values."""
    point = [as_rational(values[v]) for v in poly.variables]
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        term = coeff
        for base, e in zip(point, exps):
            if e:
                term *= base**e
        total += term
    return total


def coefficients_at(p, point: Mapping[str, Fraction]) -> list:
    """The coefficient list of a parametric polynomial in t at a metric point."""
    return poly_normalize([poly_at(c, point) for c in p.coeffs])


def from_scalars(variables: Sequence[str], scalars: Sequence) -> UniPoly:
    """The polynomial in t with these rational coefficients of t^0, t^1, ..."""
    return UniPoly(variables, [MultiPoly.constant(variables, s) for s in scalars])


def t_minus(value: MultiPoly) -> UniPoly:
    """The linear polynomial ``t - value``."""
    return UniPoly(value.variables, [-value, MultiPoly.constant(value.variables, 1)])


def poly_mul(p: UniPoly, q: UniPoly) -> UniPoly:
    """The product ``p q``, multiplied out coefficient by coefficient."""
    out = [MultiPoly.zero(p.variables)] * max(0, len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + a * b
    return UniPoly(p.variables, out)


def reference_char_poly(matrix: ParametricMatrix) -> UniPoly:
    """prod (t - d_i) over the diagonal, one generic ``UniPoly`` product per factor."""
    result = from_scalars(matrix.variables, [1])
    for d in matrix.entries:
        result = poly_mul(result, t_minus(d))
    return result


def first_derivative(p: UniPoly) -> UniPoly:
    """The formal derivative of ``p`` in ``t``."""
    return UniPoly(p.variables, [p.coefficient(i) * i for i in range(1, len(p.coeffs))])
