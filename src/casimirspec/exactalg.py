"""Exact rational and polynomial arithmetic.

Everything downstream (root-system Gram matrices, eigenvalue forms,
resultant criteria) runs on the types in this module: arbitrary-precision
rationals, sparse multivariate polynomials over named metric parameters,
univariate polynomials in a formal variable ``t`` whose coefficients are
such multivariate polynomials, characteristic polynomials of diagonal
matrices, and exact resultants.  There is no floating point anywhere.
``Record`` is the base of every engine's frozen value types.

Rationals are ``fractions.Fraction`` (always reduced, positive
denominator).  They serialize as ``"num/den"`` with the denominator
omitted when it is 1.

Sign convention for the resultant: ``resultant(p, q)`` is the determinant
of the Sylvester matrix laid out with the rows of ``p``-coefficients
first, coefficients in descending powers of ``t``.  Consequently for
monic split polynomials ``resultant(p, q) = prod_{i,j} (alpha_i - beta_j)``
over the roots, and ``resultant(p, q) == (-1)**(deg p * deg q) *
resultant(q, p)``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, index
from typing import Iterable, Mapping, Sequence, Union

RationalLike = Union[Fraction, int, str]


class Record:
    """A frozen value type: ``@dataclass(frozen=True)`` without generated code.

    Fields are the subclass's own annotations, in order, with class attributes
    as defaults.  ``class C(Record, eq=False)`` keeps identity equality.
    """

    def __init_subclass__(cls, eq=True):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        cls, rest = type(self), self._fields[len(args):]
        missing = [f for f in rest if f not in kwargs and f not in cls.__dict__]
        if len(args) > len(self._fields) or missing or not kwargs.keys() <= set(rest):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(self._fields)}")
        self.__dict__.update(zip(self._fields, args), **kwargs)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return rational_from_str(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rational_to_str(value: Fraction) -> str:
    """Serialize a rational as ``num/den``, den omitted when 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def rational_from_str(text: str) -> Fraction:
    """Parse the ``num/den`` serialization (den optional).

    A zero denominator is malformed input and raises ValueError.
    """
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class MultiPoly:
    """Sparse multivariate polynomial over a fixed ordered variable tuple.

    Terms are stored as a dict from exponent tuples to nonzero Fraction
    coefficients, so two equal polynomials have equal dicts.  Exponents
    must be non-negative integers (``operator.index``), so distinct keys of
    the input mapping stay distinct.  All operations return new objects;
    instances are never mutated after construction.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, RationalLike]):
        variables = tuple(variables)
        clean = {}
        for exps, coeff in terms.items():
            try:
                exps = tuple(map(index, exps))
            except TypeError:
                raise ValueError(f"non-integer exponent in {exps!r}") from None
            if len(exps) != len(variables):
                raise ValueError("exponent tuple length does not match variable count")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            coeff = as_rational(coeff)
            if coeff != 0:
                clean[exps] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _result(cls, variables: tuple, terms: dict) -> "MultiPoly":
        """A result of arithmetic on checked polynomials: only zeros are dropped."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", {e: c for e, c in terms.items() if c})
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value: RationalLike) -> "MultiPoly":
        return cls(variables, {(0,) * len(tuple(variables)): as_rational(value)})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(variables, {tuple(exps): Fraction(1)})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        zero_key = (0,) * len(self.variables)
        return self.terms.get(zero_key, Fraction(0))

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise ValueError(
                    f"variable mismatch: {self.variables} vs {other.variables}"
                )
            return other
        return MultiPoly.constant(self.variables, other)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms[exps] + coeff if exps in terms else coeff
        return MultiPoly._result(self.variables, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._result(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key, term = tuple(map(add, e1, e2)), c1 * c2
                terms[key] = terms[key] + term if key in terms else term
        return MultiPoly._result(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if exponent < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.variables, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def substitute(self, values: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Substitute polynomials for every variable (exact composition).

        All substituted polynomials must share one variable tuple, which
        becomes the variable tuple of the result.
        """
        images = [values[v] for v in self.variables]
        if not images:
            raise ValueError("cannot substitute into a polynomial with no variables")
        out_vars = images[0].variables
        result = MultiPoly.zero(out_vars)
        for exps, coeff in self.terms.items():
            term = MultiPoly.constant(out_vars, coeff)
            for image, e in zip(images, exps):
                for _ in range(e):
                    term = term * image
            result = result + term
        return result

    # -- comparison / printing -----------------------------------------

    def sorted_terms(self) -> list:
        """Canonical term list: exponent tuples in descending lex order."""
        return sorted(self.terms.items(), key=lambda item: item[0], reverse=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            if isinstance(other, (int, Fraction)):
                return self == MultiPoly.constant(self.variables, other)
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        # a constant compares equal to its value, so it hashes like it
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.variables, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps)
                if e
            ]
            if not factors:
                parts.append(rational_to_str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(rational_to_str(coeff) + "*" + "*".join(factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


class UniPoly:
    """Univariate polynomial in ``t`` with MultiPoly coefficients.

    ``coeffs[i]`` is the coefficient of ``t**i``; the leading coefficient
    is nonzero.  The zero polynomial is the distinguished empty-coefficient
    state and has no degree.
    """

    __slots__ = ("variables", "coeffs")

    def __init__(self, variables: Sequence[str], coeffs: Iterable[MultiPoly]):
        variables = tuple(variables)
        coeffs = list(coeffs)
        for c in coeffs:
            if c.variables != variables:
                raise ValueError("coefficient variable mismatch")
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "UniPoly":
        return cls(variables, [])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    def coefficient(self, power: int) -> MultiPoly:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return MultiPoly.zero(self.variables)

    def eval_at(self, value: MultiPoly) -> MultiPoly:
        """Substitute ``t = value`` (Horner, exact)."""
        result = MultiPoly.zero(self.variables)
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.variables == other.variables and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.variables, self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            tpart = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
            if not tpart:
                parts.append(f"({c})")
            elif c == 1:
                parts.append(tpart)
            else:
                parts.append(f"({c})*{tpart}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"UniPoly({self})"


def derivative(p: UniPoly) -> UniPoly:
    """Second formal derivative in ``t``."""
    return UniPoly(
        p.variables,
        [p.coefficient(i) * (i * (i - 1)) for i in range(2, len(p.coeffs))],
    )


class ParametricMatrix:
    """Diagonal ("split") matrix of MultiPoly entries: ``entries`` is its diagonal."""

    __slots__ = ("variables", "entries")

    def __init__(self, entries: Sequence[MultiPoly]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("a matrix needs at least one diagonal entry")
        variables = entries[0].variables
        for e in entries:
            if e.variables != variables:
                raise ValueError("entry variable mismatch")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("ParametricMatrix is immutable")


def char_poly(matrix: ParametricMatrix) -> UniPoly:
    """Characteristic polynomial ``prod (t - d_i)`` of a diagonal matrix, exact and monic.

    Each linear factor is multiplied in by one shift-and-subtract pass over
    the coefficients.
    """
    one = MultiPoly.constant(matrix.variables, 1)
    coeffs = [one]  # of t^0, ..., t^k, the last one 1
    for d in matrix.entries:
        # (t - d) sum_i c_i t^i has c_(i-1) - d c_i at t^i, with c_(-1) = 0
        coeffs = [-(d * coeffs[0])] + [lo - d * hi for lo, hi in zip(coeffs, coeffs[1:])] + [one]
    return UniPoly(matrix.variables, coeffs)


# -- exact determinants and resultants ---------------------------------


def _leading(poly: MultiPoly):
    """Leading term (lex order on exponent tuples)."""
    exps = max(poly.terms)
    return exps, poly.terms[exps]


def exact_div(num: MultiPoly, den) -> MultiPoly:
    """Exact division by a polynomial or a rational; raises if it is not exact."""
    den = num._coerce(den)
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if den.is_constant():
        scale = Fraction(1) / den.constant_value()
        return num * scale
    quotient = MultiPoly.zero(num.variables)
    rest = num
    den_exps, den_coeff = _leading(den)
    while not rest.is_zero():
        rest_exps, rest_coeff = _leading(rest)
        diff = tuple(a - b for a, b in zip(rest_exps, den_exps))
        if any(d < 0 for d in diff):
            raise ArithmeticError("polynomial division is not exact")
        term = MultiPoly(num.variables, {diff: rest_coeff / den_coeff})
        quotient = quotient + term
        rest = rest - term * den
    return quotient


def fraction_free_elimination(rows: Iterable[Sequence], divide) -> tuple:
    """Forward fraction-free (Bareiss) elimination over an integral domain.

    Step k clears column k below its pivot by
    ``row = (pivot * row - row[k] * pivot_row) / divisor``, the divisor
    being the pivot of the row's last update (1 before any).  The division
    is exact, and ``divide`` is the ring's exact division:
    ``operator.floordiv`` for int, ``exact_div`` for MultiPoly.  A row with
    a zero in column k is not touched; it catches up at its next update or
    when it becomes the pivot row.  A zero pivot is exchanged with the
    first row below it that is nonzero in its column.

    Returns ``(pivots, swaps, rows)``.  With no exchange the pivots are the
    leading principal minors.  The last pivot is ``(-1)**swaps`` times the
    determinant of the leading square block, which ends upper triangular
    with the pivots on its diagonal.  A singular block stops the
    elimination at a zero pivot, the last one returned.
    """
    a = [list(row) for row in rows]
    n = len(a)
    divisors = [1] * n
    pivots, swaps, previous = [], 0, 1
    for k in range(n):
        found = next((i for i in range(k, n) if a[i][k] != 0), None)
        if found is None:
            pivots.append(a[k][k])
            break
        if found != k:
            a[k], a[found] = a[found], a[k]
            divisors[k], divisors[found] = divisors[found], divisors[k]
            swaps += 1
        if divisors[k] != previous:
            a[k] = [divide(x * previous, divisors[k]) for x in a[k]]
        top, pivot = a[k], a[k][k]
        for i, row in enumerate(a[k + 1:], k + 1):
            factor = row[k]
            if factor != 0:
                divisor, divisors[i] = divisors[i], pivot
                a[i] = [divide(pivot * x - factor * y, divisor) for x, y in zip(row, top)]
        pivots.append(pivot)
        previous = pivot
    return pivots, swaps, a


def determinant(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant over the polynomial ring: sign times the last Bareiss pivot."""
    if not rows:
        raise ValueError("empty matrix")
    pivots, swaps, _ = fraction_free_elimination(rows, exact_div)
    return -pivots[-1] if swaps % 2 else pivots[-1]


def sylvester_matrix(p: UniPoly, q: UniPoly) -> list:
    """Sylvester matrix, rows of p first, coefficients in descending powers."""
    if p.variables != q.variables:
        raise ValueError("variable mismatch")
    if p.is_zero() or q.is_zero():
        raise ValueError("Sylvester matrix of the zero polynomial is undefined")
    n, m = p.degree, q.degree
    if n == 0 and m == 0:
        raise ValueError("both polynomials are constant in t")
    size = n + m
    zero = MultiPoly.zero(p.variables)
    rows = []
    p_desc = [p.coefficient(n - i) for i in range(n + 1)]
    q_desc = [q.coefficient(m - i) for i in range(m + 1)]
    for shift in range(m):
        rows.append([zero] * shift + p_desc + [zero] * (size - shift - n - 1))
    for shift in range(n):
        rows.append([zero] * shift + q_desc + [zero] * (size - shift - m - 1))
    return rows


def resultant(p: UniPoly, q: UniPoly) -> MultiPoly:
    """Resultant of p and q with respect to ``t``.

    Zero exactly when p and q share a root at the given parameter values
    (leading coefficients staying nonzero).  Both inputs constant in t is
    a degenerate case and raises.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial is degenerate")
    if p.degree == 0 and q.degree == 0:
        raise ValueError("resultant needs positive degree in t")
    if p.degree == 0:
        return p.coefficient(0) ** q.degree
    if q.degree == 0:
        return q.coefficient(0) ** p.degree
    return determinant(sylvester_matrix(p, q))


def resultant_from_roots(roots: Sequence[MultiPoly], q: UniPoly) -> MultiPoly:
    """Resultant of the monic split polynomial ``prod (t - root)`` with q.

    Equals ``resultant(prod (t - root_i), q)`` in the determinant sign
    convention above, computed as ``prod_i q(root_i)``.
    """
    if q.is_zero():
        raise ValueError("resultant of the zero polynomial is degenerate")
    result = MultiPoly.constant(q.variables, 1)
    for root in roots:
        result = result * q.eval_at(root)
    return result
