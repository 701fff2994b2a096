"""Reference oracles that several test modules compare the library against.

Each is a plain restatement of a closed form or a rule the library
evaluates some other way: the eigenvalue form written as a polynomial,
the reflection through a root, the rank-two catalog pairs and
polynomials at concrete parameters, the SU(2)/F invariant dimensions
counted by rule and its form keys one tuple per line, a rank-one datum
from every catalog family, and the box of weights that the scans read
off box positions.
"""

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from polyref import poly_at

from casimirspec.exactalg import MultiPoly
from casimirspec.products import candidate_tuples
from casimirspec.rootsys import gram_matrix
from casimirspec.spectrum import eigenvalue_polynomial
from casimirspec.su2f import collisions_at_metric, fixed_space, invariant_lines
from casimirspec.symmdata import restricted_datum


def weight_box(rank: int, bound: int) -> np.ndarray:
    """Every weight with coordinates in [0, bound], one per row, lexicographic."""
    return np.indices((bound + 1,) * rank, dtype=np.int64).reshape(rank, -1).T


def polynomial_form(datum) -> MultiPoly:
    """Eigenvalue form as a polynomial in the weight coordinates.

    The coordinates are ``x``, ``(x, y)`` or ``(x1, ..., xr)`` by rank,
    matching the rank-two catalog's ``(x, y)``.
    """
    rank = datum.rank
    if rank <= 2:
        names = ("x", "y")[:rank]
    else:
        names = tuple(f"x{i + 1}" for i in range(rank))
    shift = [MultiPoly.constant(names, c) for c in datum.two_delta_bar]
    return eigenvalue_polynomial(gram_matrix(datum.cartan), shift, names, names)


def reflect(datum, alpha: Sequence, vector: Sequence) -> tuple:
    """Image of a vector under the reflection through alpha (dual basis)."""
    gram = gram_matrix(datum.cartan)
    n = datum.rank
    alpha = [Fraction(a) for a in alpha]
    vector = [Fraction(v) for v in vector]
    g_alpha = [sum(gram[i][j] * alpha[j] for j in range(n)) for i in range(n)]
    alpha_alpha = sum(alpha[i] * g_alpha[i] for i in range(n))
    alpha_v = sum(vector[i] * g_alpha[i] for i in range(n))
    factor = 2 * alpha_v / alpha_alpha
    return tuple(vector[i] - factor * alpha[i] for i in range(n))


def pair_at(pair, s: int) -> tuple:
    """A catalog pair at the free parameter s: ``(r, weight_a, weight_b)``.

    ``r`` is None for a fixed pair.
    """
    point = {"s": Fraction(s)}
    wa = tuple(int(poly_at(c, point)) for c in pair.weight_a)
    wb = tuple(int(poly_at(c, point)) for c in pair.weight_b)
    r = int(poly_at(pair.r_expr, point)) if pair.r_expr is not None else None
    return r, wa, wb


def polynomial_at(case, r: Optional[int] = None) -> MultiPoly:
    """A catalog case's polynomial with the range parameter set to r, in (x, y)."""
    if not case.parameterized:
        return case.polynomial
    if r is None:
        raise ValueError(f"{case.label} needs the range parameter r")
    xy = ("x", "y")
    subs = {
        "x": MultiPoly.variable(xy, "x"),
        "y": MultiPoly.variable(xy, "y"),
        "r": MultiPoly.constant(xy, r),
    }
    return case.polynomial.substitute(subs)


def predicted_dimension(k: int) -> int:
    """Dimension of the F-invariant subspace of V_k, counted by rule.

    The rule of ``su2f.averaging_projector`` restated as a count: pairs
    l < k - l with 2l = k (mod 6) each contribute one invariant line; the
    middle monomial l = k/2 survives exactly when the tau phase (-i)^k is
    +1, i.e. k = 0 (mod 4).  Odd k has no invariants because -1 in F acts
    by (-1)^k.
    """
    if k % 2 == 1:
        return 0
    count = sum(1 for ell in range(k // 2) if (2 * ell - k) % 6 == 0)
    if k % 4 == 0:
        count += 1
    return count


def form_keys(k: int) -> list:
    """The key (-d^2, k(k+2) + d^2) of each weight gap d of V_k, ascending in d.

    Eight times the (a, b) coefficients of the line's linear form, built
    one tuple per line: the oracle for the packed keys and the (k, d^2)
    table of ``su2f.invariant_lines``.
    """
    return [(-gap * gap, k * (k + 2) + gap * gap) for gap in fixed_space(k)]


def find_simple_metric(kmax: int) -> tuple:
    """First candidate metric (a, b), a != b, with no SU(2)/F eigenvalue collision.

    Candidates are drawn from the deterministic sequence 1, 2, 3, 5, 7,
    11, ... (one and the primes), enumerated in lexicographic order.
    """
    lines = invariant_lines(kmax)
    for a, b in candidate_tuples(2):
        if a != b and not collisions_at_metric(lines, Fraction(a), Fraction(b)):
            return (Fraction(a), Fraction(b))


def rank_one_catalog() -> list:
    """Representative rank-one data drawn from every catalog family.

    Covers the simple-restricted-root multiplicities that occur at rank
    one: spheres in several dimensions plus the projective planes over
    the complex numbers, quaternions, and octonions.
    """
    return [
        restricted_datum("AI", r=1),            # S2, multiplicity 1
        restricted_datum("AII", r=3),           # S5, multiplicity 4
        restricted_datum("BI", r=3, ell=1),     # S6, multiplicity 5
        restricted_datum("DI2", r=4, ell=1),    # S7, multiplicity 6
        restricted_datum("CI", ell=1),          # multiplicity 1
        restricted_datum("DI1", ell=1),         # S3, multiplicity 2
        restricted_datum("AIII1", r=4, ell=1),  # CP4, BC1 (6, 1)
        restricted_datum("CII1", r=3, ell=1),   # HP2, BC1 (4, 3)
        restricted_datum("DIII2", ell=1),       # CP3, BC1 (4, 1)
        restricted_datum("FII"),                # OP2, BC1 (8, 7)
    ]
