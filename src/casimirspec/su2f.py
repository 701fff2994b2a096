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
block-diagonal on the tau-orbits {l, k - l}, with at most two nonzero
entries per column, and only those entries are stored.  Its image has
one line per orbit whose column is nonzero, and the certificate needs
only each line's weight gap, which ``fixed_space`` reads off the
projector's diagonal.  No (k+1)-long vector or (k+1) x (k+1) matrix is
built.  The 12-element group average and the invariant basis vectors
are kept in the tests as the reference.

On the two-parameter metric family (a on the fiber direction, b on the
complement) the Casimir acts on the invariant vector with weight gap
d = 2l - k by the linear form

    a * (-d^2 / 8) + b * (k (k + 2) + d^2) / 8.

The k(k+2)/8 normalization of the round Casimir is used consistently; a
uniform positive factor on all forms moves no collision.  Each form is
its integer key (-d^2, k (k + 2) + d^2), eight times the coefficients.
A certificate run builds one table of the lines' (k, d^2) from
``fixed_space``, in ``invariant_lines``: it packs each line's key into
one integer and groups the keys once for both separation verdicts, and
evaluates the same table at a metric in integers.  The representation
family for the condition engines is the same table, its keys over 8.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm
from typing import Optional

import numpy as np

from .exactalg import Record, rational_to_str
from .simplicity import SplitFamily
from .spectrum import CollisionPairs, compact_pairs, equal_value_pairs, exact_dtype

METRIC_PARAMS = ("a", "b")

# Largest kmax each builder accepts.  On a 2-vCPU Intel Xeon VM `su2f --kmax
# 7200 --json` takes 2.2-3.0 s and 195 MB, `su2f --kmax 7200 --metric 1,2
# --json` 3.2-4.1 s and 406 MB, and `simplicity --family su2f --bound 270 --metric
# 2,5` 20-22 s and 35 MB (54-57 s, and 71 s at bound 280, when the cap was set).
MAX_KMAX = 7200
MAX_FAMILY_KMAX = 270


def averaging_projector(k: int) -> dict:
    """The nonzero entries of P = (1/12) sum_g g on V_k, in closed form.

    F is the cyclic group <sigma> together with its coset <sigma> tau, and
    an element g acts by (g . f)(z) = f(g^-1 z):

    * sigma^j sends v_l to w^(2j(k - 2l)) v_l;
    * sigma^j tau sends v_l to w^(-3k) w^(2j(2l - k)) v_(k-l);
    * sum_{j=0..5} w^(2jm) is 6 when m = 0 (mod 6) and 0 otherwise;
    * w^(-3k) = (-1)^(k/2) for even k, and k = 2l (mod 6) forces k even.

    Together: P v_l = (v_l + (-1)^(k/2) v_(k-l)) / 2 when k = 2l (mod 6),
    and 0 otherwise.  When l = k - l the two halves land on one entry,
    which is 1 if k = 0 (mod 4) and 0 otherwise.

    The entries are returned as ``{(row, column): Fraction}``, with at
    most two per column: column l holds rows l and k - l.
    """
    if k % 2:
        return {}
    half = Fraction(1, 2)
    off_diagonal = -half if k % 4 == 2 else half
    projector = {}
    for ell in range(k // 2 % 3, k + 1, 3):  # the l with k = 2l (mod 6)
        if 2 * ell != k:
            projector[ell, ell] = half
            projector[k - ell, ell] = off_diagonal
        elif k % 4 == 0:
            projector[ell, ell] = Fraction(1)
    return projector


@lru_cache(maxsize=None)
def fixed_space(k: int) -> tuple:
    """Weight gaps of the F-invariant lines of V_k, ascending, one per line.

    Since P g = P for the projector P, P v_(k-l) is a unit times P v_l, so
    the nonzero columns P v_l with l <= k/2 span the image, one line per
    tau-orbit {l, k - l}.  Column l is nonzero exactly when its diagonal
    entry (l, l) is, and its line has weight gap k - 2l.  The number of
    gaps is the dimension.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    diagonal = [row for row, column in averaging_projector(k) if row == column]
    return tuple(sorted(k - 2 * row for row in diagonal if 2 * row <= k))


def invariant_lines(kmax: int) -> np.ndarray:
    """The (k, d^2) of every F-invariant line of V_k for k <= kmax, one per row.

    Rows run in ascending k and, within k, in ascending gap d, as
    ``fixed_space`` lists them.  The table is int64 when kmax^2, which
    bounds every gap's square, is below 2**63 and Python ints otherwise.
    """
    spaces = [fixed_space(k) for k in range(0, kmax + 1, 2)]
    sizes = [len(space) for space in spaces]
    dtype = exact_dtype(kmax * kmax)
    gaps = np.fromiter(chain.from_iterable(spaces), dtype, sum(sizes))
    k = np.repeat(np.arange(0, kmax + 1, 2).astype(dtype), sizes)
    return np.column_stack((k, gaps * gaps))


def su2f_representation_family(kmax: int) -> SplitFamily:
    """The V_k with invariants, k <= kmax, as a split family over (a, b).

    Each line of ``invariant_lines`` is a row keyed (0, -d^2, k(k+2) + d^2)
    over 8, far below 2**63 under ``MAX_FAMILY_KMAX``.  Entries "V<k>" are
    real and self-dual, in id-string order, each with its lines in
    descending gap as the projector's columns run.
    """
    if kmax < 0:
        raise ValueError("bound must be >= 0")
    if kmax > MAX_FAMILY_KMAX:
        raise ValueError(f"kmax {kmax} exceeds the maximum of {MAX_FAMILY_KMAX}")
    lines = invariant_lines(kmax)[::-1]
    ids, entry = np.unique([f"V{k}" for k in lines[:, 0].tolist()], return_inverse=True)
    order = np.argsort(entry, kind="stable")
    k, d2 = lines[order].T
    keys = np.column_stack((0 * k, -d2, k * (k + 2) + d2))
    real, self_dual = [0] * len(ids), range(len(ids))
    return SplitFamily(METRIC_PARAMS, ids.tolist(), real, self_dual, entry[order], keys, 8)


def collisions_at_metric(lines: np.ndarray, a: Fraction, b: Fraction) -> CollisionPairs:
    """Pairs of distinct invariant lines with equal eigenvalue at (a, b).

    ``lines`` is the (k, d^2) table of ``invariant_lines``.  The result
    keeps the lines that some pair joins, in table order, and the pairs
    come in ascending eigenvalue, then in (first, second) order.  With D
    the lcm of the denominators of a and b, A = D a and B = D b, each
    line's value times 8 D is the integer -d^2 A + (k(k+2) + d^2) B of its
    form key, so the denominator is 8 D.  With K the largest k and T =
    K(K+2) plus the largest d^2, every value and partial sum is at most
    (|A| + |B|) T, and A and B are at most |A| + |B|: the values are int64
    when (|A| + |B|) (T + 1) is below 2**63 and Python ints otherwise.
    """
    denom = lcm(a.denominator, b.denominator)
    scaled_a, scaled_b = int(a * denom), int(b * denom)
    top_k, top_d2 = (int(column.max()) for column in lines.T)
    dtype = exact_dtype((abs(scaled_a) + abs(scaled_b)) * (top_k * (top_k + 2) + top_d2 + 1))
    k, d2 = lines.astype(dtype, copy=False).T
    first, second, values = equal_value_pairs(
        lambda: (k * (k + 2) + d2) * scaled_b - d2 * scaled_a
    )
    used, first, second = compact_pairs(len(lines), first, second)
    values = values[used]
    ascending = np.argsort(values[first], kind="stable")
    return CollisionPairs(lines[used], first[ascending], second[ascending], values, 8 * denom)


class SimplicityReport(Record):
    """Certificate data for the two-parameter metric family on SU(2)/F."""

    kmax: int
    dimensions: tuple  # (k, dimension) for all k <= kmax
    within_k_distinct: bool
    cross_k_injective: bool
    metric: Optional[tuple]
    metric_collisions: Optional[CollisionPairs]  # None without a metric

    @property
    def certified(self) -> bool:
        ok = self.within_k_distinct and self.cross_k_injective
        if self.metric is not None:
            ok = ok and not self.metric_collisions
        return ok

    def to_json(self) -> dict:
        """The su2f JSON object less its "metric_collisions" key.

        ``su2f --json`` adds that key from the pair arrays, through the
        CLI's pair writer.
        """
        return {
            "kmax": self.kmax,
            "dimensions": {str(k): d for k, d in self.dimensions},
            "within_k_distinct": self.within_k_distinct,
            "cross_k_injective": self.cross_k_injective,
            "metric": None
            if self.metric is None
            else [rational_to_str(x) for x in self.metric],
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
    if kmax > MAX_KMAX:
        raise ValueError(f"kmax {kmax} exceeds the maximum of {MAX_KMAX}")
    dimensions = []
    for k in range(kmax + 1):
        dim = len(fixed_space(k))
        if k % 2 == 1 and dim != 0:
            raise AssertionError("odd k must have no invariants")
        dimensions.append((k, dim))

    lines = invariant_lines(kmax)
    # each line's form key (-d^2, k(k+2) + d^2), packed as (k(k+2) + d^2) R + d^2
    # with R above every d^2: with K the largest k, every key is below (K(K+2) + R) R
    top_k, top_d2 = (int(column.max()) for column in lines.T)
    radix = top_d2 + 1
    k, d2 = lines.astype(exact_dtype((top_k * (top_k + 2) + radix) * radix), copy=False).T
    first, second, _ = equal_value_pairs(lambda: (k * (k + 2) + d2) * radix + d2)

    metric = None
    metric_collisions = None
    if sample_metric is not None:
        a, b = Fraction(sample_metric[0]), Fraction(sample_metric[1])
        if a <= 0 or b <= 0:
            raise ValueError("metric parameters must be positive")
        metric = (a, b)
        metric_collisions = collisions_at_metric(lines, a, b)

    return SimplicityReport(
        kmax=kmax,
        dimensions=tuple(dimensions),
        within_k_distinct=not (k[first] == k[second]).any(),
        cross_k_injective=not len(first),
        metric=metric,
        metric_collisions=metric_collisions,
    )
