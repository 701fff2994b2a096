"""Weighted Riemannian products of compact rank-one symmetric spaces.

Each factor carries its normal metric scaled by a positive weight
beta_i; the Laplace eigenvalue of a product spherical representation
indexed by the array a = (m_1, ..., m_n) is the weighted sum
sum_i beta_i * lambda_i(m_i) of the factor eigenvalues.  Rank-one
factors have strictly increasing spectra, so the only obstruction to
simplicity is a weight vector landing on one of the countably many
collision hyperplanes (lambda_a - lambda_a')^perp.  Inside a finite
index box the normals lambda_a - lambda_a' are exactly the vectors with
entry i in factor i's difference set {lambda_i(m) - lambda_i(m')}, so
this module builds them factor by factor, never pairing box arrays.  It
then produces a deterministic beta certified collision-free on that box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Iterator, Sequence, Union

import numpy as np

from .exactalg import rational_to_str
from .spectrum import (
    CollisionPairs, EigenvalueForm, eigenvalue, equal_value_pairs, exact_dtype, require_box,
    weight_box,
)
from .symmdata import RestrictedDatum, cross_datum


@dataclass(frozen=True)
class FactorSpectrum:
    """Eigenvalues lambda(0..bound) of one rank-one factor, exact."""

    label: str
    datum: RestrictedDatum
    eigenvalues: tuple

    @property
    def bound(self) -> int:
        return len(self.eigenvalues) - 1


def factor_spectrum(factor: Union[str, RestrictedDatum], bound: int) -> FactorSpectrum:
    """Spectrum of a rank-one factor for weight indices 0..bound.

    The factor may be an alias like ``S2``/``CP2``/``HP2``/``OP2`` or an
    already-built rank-one restricted datum.  Strict monotonicity and a
    zero value at index 0 are asserted.
    """
    datum = cross_datum(factor) if isinstance(factor, str) else factor
    if datum.rank != 1:
        raise ValueError(f"{datum.descriptor.label} has rank {datum.rank}, need rank one")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    form = EigenvalueForm.from_datum(datum)
    values = tuple(eigenvalue(form, (m,)) for m in range(bound + 1))
    if values[0] != 0:
        raise AssertionError("eigenvalue at the zero weight must be 0")
    if any(values[i] >= values[i + 1] for i in range(bound)):
        raise AssertionError("rank-one spectrum must be strictly increasing")
    return FactorSpectrum(
        label=datum.descriptor.label, datum=datum, eigenvalues=values
    )


def lambda_array(factors: Sequence[FactorSpectrum], indices: Sequence[int]) -> tuple:
    """Per-factor eigenvalue array of one index array."""
    if len(indices) != len(factors):
        raise ValueError("index array length must match the factor count")
    return tuple(f.eigenvalues[indices[i]] for i, f in enumerate(factors))


def collision_hyperplanes(factors: Sequence[FactorSpectrum], bound: int = None) -> list:
    """Primitive normals of the collision hyperplanes meeting the orthant.

    Normals are the differences lambda_a - lambda_a' over index arrays in
    the box, reduced to primitive integer vectors and deduplicated up to
    positive rational scaling.  Entry i of such a difference lies in the
    factor's difference set D_i = {lambda_i(m) - lambda_i(m') : m, m' <=
    bound}, and the entries vary independently, so the differences are
    exactly the product D_1 x ... x D_n; it is walked without touching
    the box.  Each D_i is closed under negation, so -n comes with n.
    Differences whose nonzero entries all share one sign are dropped:
    their zero set misses the open positive orthant, so no positive
    weight vector can hit them (in particular a single injective factor
    contributes no hyperplane at all).
    """
    if not factors:
        raise ValueError("need at least one factor")
    if bound is None:
        bound = min(f.bound for f in factors)
    if any(f.bound < bound for f in factors):
        raise ValueError("bound exceeds a factor's spectrum")
    # one common scale keeps every difference on its ray
    tables = [f.eigenvalues[: bound + 1] for f in factors]
    denom = lcm(*(v.denominator for table in tables for v in table))
    differences = [{int((x - y) * denom) for x in table for y in table} for table in tables]
    normals = set()
    for diff in product(*differences):
        if max(diff) > 0 > min(diff):
            content = gcd(*diff)
            normals.add(tuple(x // content for x in diff))
    return sorted(normals)


@dataclass(frozen=True)
class CollisionWitness:
    """Two index arrays whose weighted eigenvalues agree at a given beta."""

    array_a: tuple
    array_b: tuple
    value: Fraction


def check_beta(
    factors: Sequence[FactorSpectrum], beta: Sequence, bound: int = None
) -> CollisionPairs:
    """All collision witnesses for a candidate weight vector, sorted.

    The result is a :class:`~casimirspec.spectrum.CollisionPairs`
    sequence in (array_a, array_b) order; its ``CollisionWitness``
    records are built only when indexed or iterated, so a truth test
    builds none.

    The box values are the outer sum of the per-factor tables
    beta_i * lambda_i(m), scaled by the lcm D of their denominators to
    exact integers.  Every entry and partial sum is at most the sum over
    factors of the largest |D * beta_i * lambda_i(m)|; the box is summed
    in int64 when that bound is below 2**63 and in Python ints otherwise.
    """
    if bound is None:
        bound = min(f.bound for f in factors)
    beta = [Fraction(x) for x in beta]
    if len(beta) != len(factors):
        raise ValueError("beta length must match the factor count")
    if any(x <= 0 for x in beta):
        raise ValueError("beta entries must be positive")
    if any(f.bound < bound for f in factors):
        raise ValueError("bound exceeds a factor's spectrum")
    require_box(len(factors), bound)
    tables = [[b * v for v in f.eigenvalues[: bound + 1]] for b, f in zip(beta, factors)]
    denom = lcm(*(x.denominator for table in tables for x in table))
    tables = [[int(x * denom) for x in table] for table in tables]
    dtype = exact_dtype(sum(max(abs(x) for x in table) for table in tables))
    values = np.zeros(1, dtype)
    for table in tables:
        values = np.add.outer(values, np.array(table, dtype)).ravel()
    first, second = equal_value_pairs(values)
    box = weight_box(len(factors), bound)
    return CollisionPairs(CollisionWitness, box, first, second, values, denom)


def prime_sequence() -> Iterator[int]:
    """1, 2, 3, 5, 7, 11, ...: one followed by the primes."""
    yield 1
    primes = []
    candidate = 2
    while True:
        if all(candidate % p for p in primes):
            primes.append(candidate)
            yield candidate
        candidate += 1


def candidate_tuples(length: int) -> Iterator[tuple]:
    """Tuples over the 1-then-primes sequence, enumerated deterministically.

    Pure lexicographic order over an infinite alphabet never advances the
    leading coordinates, so enumeration proceeds by levels: level T holds
    the tuples whose largest sequence index is exactly T, in lexicographic
    order within the level.
    """
    seq = []
    gen = prime_sequence()
    level = 0
    while True:
        while len(seq) <= level:
            seq.append(next(gen))
        for indices in product(range(level + 1), repeat=length):
            if max(indices) == level:
                yield tuple(seq[i] for i in indices)
        level += 1


@dataclass(frozen=True)
class BetaCertificate:
    """A weight vector certified collision-free on a finite index box.

    The claim is exactly the box stated here, nothing more: every
    truncation certificate is finite and honest.
    """

    factors: tuple  # labels
    bound: int
    beta: tuple
    candidates_tried: int
    hyperplanes: int
    distinct_values: int

    def to_json(self) -> dict:
        return {
            "factors": list(self.factors),
            "bound": self.bound,
            "beta": [rational_to_str(x) for x in self.beta],
            "candidates_tried": self.candidates_tried,
            "hyperplanes": self.hyperplanes,
            "distinct_values": self.distinct_values,
        }


def generic_beta_certificate(
    factors: Sequence[FactorSpectrum], bound: int = None
) -> BetaCertificate:
    """Deterministic collision-free weight vector for the truncated box.

    Candidates with entries from the 1-then-primes sequence are tried in
    the deterministic order of :func:`candidate_tuples`; the first one
    for which :func:`check_beta` finds no collision on the box wins.  It
    is then cross-checked against the hyperplane list: it must be
    orthogonal to no truncated normal.  A single factor has no normals
    and is certified by the first candidate.
    """
    if bound is None:
        bound = min(f.bound for f in factors)
    normals = collision_hyperplanes(factors, bound)
    tried = 0
    for candidate in candidate_tuples(len(factors)):
        tried += 1
        beta = tuple(Fraction(c) for c in candidate)
        if check_beta(factors, beta, bound):
            continue
        # a box collision is exactly a hit on a truncated hyperplane, so
        # the surviving candidate must also clear every stored normal
        if any(
            sum(n_i * c_i for n_i, c_i in zip(normal, candidate)) == 0
            for normal in normals
        ):
            raise AssertionError("hyperplane list and exhaustive check disagree")
        box = (bound + 1) ** len(factors)
        return BetaCertificate(
            factors=tuple(f.label for f in factors),
            bound=bound,
            beta=beta,
            candidates_tried=tried,
            hyperplanes=len(normals),
            distinct_values=box,
        )
    raise RuntimeError("unreachable: the candidate sequence is infinite")
