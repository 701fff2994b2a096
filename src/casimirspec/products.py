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

Both steps run on each factor's table lambda_i(0..bound), which is
integral (:func:`factor_spectrum`), so a factor keeps no denominator.
The hyperplanes are packed into one integer key per normal and
deduplicated by sorting; the beta candidates are tested in batches, each
one sorted ``(batch, box)`` array of box values, ``int32`` while they
stay below 2**31, and otherwise in the dtype that
:func:`~casimirspec.spectrum.exact_dtype` gives a bound on their
entries.  ``check_beta`` stays the exact witness lister that confirms
the winner.  Grids past ``MAX_DIFFERENCE_GRID`` and searches past
``MAX_SEARCH_ENTRIES`` are refused with ``ValueError``.

``check_beta`` decides a box by blocks before it sorts one.  Take the
factor k with the largest weighted span and cut its sorted weighted
table wherever a gap exceeds the weighted span of all the other factors.
The block of sums at one entry of factor k is the inner box over the
others, shifted by that entry, so blocks on either side of a cut have
disjoint value ranges.  The box is therefore collision-free exactly when
the inner box is (decided the same way, one factor down) and each
cluster of blocks between cuts has distinct values (built and sorted on
its own).  A box with a cluster of most of its blocks, or one that
collides, is handed whole to the pair kernel.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import islice, product, takewhile
from math import lcm, prod
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .exactalg import Record, rational_to_str
from .spectrum import (
    CollisionPairs, compact_pairs, distinct, eigenvalue, equal_value_pairs, exact_dtype,
    require_box,
)
from .symmdata import RestrictedDatum, cross_datum

# one more than the largest int32; beta batches below it sort narrow rows
INT32_LIMIT = 2**31
# difference-grid rows per step of the hyperplane walk
HYPERPLANE_CHUNK = 2**16
# candidate box values per batch of the beta search
BATCH_ENTRIES = 2**18
# largest difference grid prod_i |D_i| the hyperplane walk takes on
MAX_DIFFERENCE_GRID = 2**24
# most box values (candidates times box rows) the beta search sorts
MAX_SEARCH_ENTRIES = 2**31


class FactorSpectrum(Record):
    """Eigenvalues lambda(0..bound) of one rank-one factor, exact Python ints."""

    label: str
    table: tuple

    @property
    def bound(self) -> int:
        return len(self.table) - 1


def factor_spectrum(factor: Union[str, RestrictedDatum], bound: int) -> FactorSpectrum:
    """Spectrum of a rank-one factor for weight indices 0..bound.

    The factor may be an alias like ``S2``/``CP2``/``HP2``/``OP2`` or an
    already-built rank-one restricted datum.  At rank one the eigenvalue
    A m^2 + B m is a quadratic in m, so :func:`~casimirspec.spectrum.eigenvalue`
    is evaluated at m = 0, 1, 2 only, and the table is built from A and B
    in Python ints.  They are integers on every rank-one symmetric space:
    A = g is the square norm of the simple root, 2 or 4, and B = g 2deltabar
    is 2 m_gamma or 2 (m_gamma + 2 m_2gamma).  A datum with any other A or
    B is refused with ``ValueError``; a rational factor t / D is the
    integer factor t under the weight beta / D.  A zero value at index 0
    and strict increase of the table are asserted.
    """
    datum = cross_datum(factor) if isinstance(factor, str) else factor
    if datum.rank != 1:
        raise ValueError(f"{datum.descriptor.label} has rank {datum.rank}, need rank one")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    at0, at1, at2 = (eigenvalue(datum, (m,)) for m in range(3))
    if at0 != 0:
        raise AssertionError("eigenvalue at the zero weight must be 0")
    square = (at2 - 2 * at1) / 2
    linear = at1 - square
    if square.denominator != 1 or linear.denominator != 1:
        raise ValueError(f"{datum.descriptor.label} has a non-integral spectrum")
    a, b = int(square), int(linear)
    table = tuple((a * m + b) * m for m in range(bound + 1))
    if any(table[i] >= table[i + 1] for i in range(bound)):
        raise AssertionError("rank-one spectrum must be strictly increasing")
    return FactorSpectrum(label=datum.descriptor.label, table=table)


def require_difference_grid(rows: int) -> None:
    """Refuse a hyperplane walk over more than ``MAX_DIFFERENCE_GRID`` rows."""
    if rows > MAX_DIFFERENCE_GRID:
        raise ValueError(
            f"difference grid of at least {rows} vectors exceeds the maximum of "
            f"{MAX_DIFFERENCE_GRID}"
        )


def collision_hyperplanes(factors: Sequence[FactorSpectrum], bound: int = None) -> np.ndarray:
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

    Returns an ``(h, n)`` array, one normal per row in lexicographic
    order.  Let M be the largest |entry| of any D_i.  One sign of each
    normal is walked: the rows whose first nonzero entry is positive, in
    blocks 0, ..., 0, d_k > 0, d_(k+1), ..., d_n, each in chunks of
    ``HYPERPLANE_CHUNK`` rows held as n column arrays.
    A row whose later entries reach below zero mixes signs; it is divided
    by its gcd and packed into the key sum_i (x_i + M) (2M + 1)^(n - 1 - i),
    whose order is the rows' lexicographic order.  These keys lie above
    the key of the zero row, and the key of -x is twice that key minus
    the key of x, so the negated rows, in reverse, are the sorted rows
    below it and need no second sort.  Keys stay below (2M + 1)^n: with
    the tables' largest |entry| it sets the walk's dtype, by
    :func:`~casimirspec.spectrum.exact_dtype`.  A grid of more than
    ``MAX_DIFFERENCE_GRID`` rows is refused with ``ValueError`` before
    the difference sets are built, since a rank-one spectrum has |D_i| >=
    2 bound + 1, and again once their sizes are known.
    """
    if not factors:
        raise ValueError("need at least one factor")
    if bound is None:
        bound = min(f.bound for f in factors)
    if any(f.bound < bound for f in factors):
        raise ValueError("bound exceeds a factor's spectrum")
    n = len(factors)
    if n == 1:
        return np.zeros((0, 1), np.int64)
    require_difference_grid((2 * bound + 1) ** n)
    tables = [f.table[: bound + 1] for f in factors]
    span = max(max(table) - min(table) for table in tables)
    base = 2 * span + 1
    dtype = exact_dtype(max(base**n, max(abs(x) for table in tables for x in table)))
    arrays = (np.array(table, dtype) for table in tables)
    differences = [distinct(np.subtract.outer(t, t)) for t in arrays]
    require_difference_grid(prod(len(d) for d in differences))
    weights = [base ** (n - 1 - i) for i in range(n)]
    middle = span * sum(weights)  # the key of the zero row
    parts = []
    # block k holds the rows with zeros before entry k and entry k positive;
    # the zeros add nothing to the key, the minimum or the gcd
    for k in range(n - 1):
        columns = [differences[k][differences[k] > 0]] + differences[k + 1:]
        shape = tuple(map(len, columns))
        for start in range(0, prod(shape), HYPERPLANE_CHUNK):
            stop = min(start + HYPERPLANE_CHUNK, prod(shape))
            index = np.unravel_index(np.arange(start, stop), shape)
            rows = [d[i] for d, i in zip(columns, index)]
            del index
            # the first entry is positive: a negative one later mixes signs
            mixed = reduce(np.minimum, rows[1:]) < 0
            rows = [column[mixed] for column in rows]
            content = reduce(np.gcd, rows)
            keys = np.full(len(content), middle, dtype)
            for column, w in zip(rows, weights[k:]):
                column //= content
                column *= w
                keys += column
            parts.append(distinct(keys))
    keys = distinct(np.concatenate(parts or [np.zeros(0, dtype)]))
    del parts
    # the negated rows, reversed, are the sorted rows below the middle
    half = len(keys)
    normals = np.empty((2 * half, n), exact_dtype(base))  # entries reach 2M before the shift
    for i in reversed(range(n)):
        normals[half:, i] = keys % base
        keys //= base
    normals[half:] -= span
    np.negative(normals[half:][::-1], out=normals[:half])
    return normals


def box_values(weights: Sequence, tables: list, dtype) -> np.ndarray:
    """The box sums sum_i w_i t_i[m_i] of each weight vector w, by outer sums.

    ``weights`` holds one weight vector w per row; row j of the ``(rows,
    box)`` result holds vector j's sums in box order.  ``dtype`` must
    bound every entry and partial sum, as the callers' dtypes do.
    """
    weights = np.array(weights, dtype)
    values = np.zeros((len(weights), 1), dtype)
    for i, table in enumerate(tables):
        values = values[:, :, None] + weights[:, i, None, None] * np.array(table, dtype)
        values = values.reshape(len(weights), -1)
    return values


def all_distinct(values: np.ndarray) -> bool:
    """Whether a scratch array's entries are pairwise distinct; sorts it in place."""
    values.sort()
    return bool((values[1:] != values[:-1]).all())


def block_verdict(weights: list, tables: list, dtype) -> Optional[bool]:
    """Whether the box sums sum_i w_i t_i[m_i] are distinct, by blocks; None to sort whole.

    The block test that :func:`check_beta` states and proves.  The inner
    box is decided by this same test, or by one sort when it gets None
    (an empty box has one sum).  Offsets, gaps and spans are Python ints;
    ``dtype`` bounds every sum, as in :func:`check_beta`.  Nothing is
    built when a cluster holds more than half of the blocks, as with no
    cut: its sort would cost about one of the whole box.
    """
    if not tables:
        return True
    spans = [w * (max(table) - min(table)) for w, table in zip(weights, tables)]
    k = spans.index(max(spans))
    rest_span = sum(spans) - spans[k]
    offsets = sorted(weights[k] * x for x in tables[k])
    cuts = [m + 1 for m in range(len(offsets) - 1) if offsets[m + 1] - offsets[m] > rest_span]
    # a cluster's sums are its offsets, at weight 1, plus the inner box
    clusters = [offsets[start:stop] for start, stop in zip([0] + cuts, cuts + [len(offsets)])]
    if 2 * max(map(len, clusters)) > len(offsets):
        return None
    weights, tables = weights[:k] + weights[k + 1:], tables[:k] + tables[k + 1:]
    inner = block_verdict(weights, tables, dtype)
    if inner is None:
        inner = all_distinct(box_values([weights], tables, dtype)[0])
    if not inner:
        return False
    return all(
        all_distinct(box_values([[1] + weights], [cluster] + tables, dtype)[0])
        for cluster in clusters
        if len(cluster) > 1
    )


def check_beta(
    factors: Sequence[FactorSpectrum], beta: Sequence, bound: int = None
) -> CollisionPairs:
    """All collision witnesses for a candidate weight vector, sorted.

    The result is a :class:`~casimirspec.spectrum.CollisionPairs` over
    the index arrays of the box that some pair joins, in box order, with
    its pairs in (first, second) order.  No box of index arrays is built:
    the joined rows are decoded from their box positions.

    The box values are sum_i w_i t_i[m_i], built by :func:`box_values`:
    t_i are the factors' integer tables, and w_i = beta_i Q are the
    weights at the lcm Q of the denominators of beta, so the box holds Q
    times the weighted eigenvalues and the denominator is Q.  Every entry
    and partial sum is at most sum_i w_i max |t_i|; the box is summed in
    int64 when that bound is below 2**63 and in Python ints otherwise.

    A block test decides first (:func:`block_verdict`).  Let factor k
    have the largest weighted span w_k S_k, with S_i = max t_i - min t_i,
    and let S_R = sum_(j != k) w_j S_j span the other factors.  Sort
    factor k's offsets w_k t_k[m] as o_0 <= ... <= o_b.  Block m, the
    sums with factor k at offset o_m, is the inner box over the other
    factors shifted by o_m, so it lies in [o_m + L, o_m + L + S_R] with
    L = sum_(j != k) w_j min t_j.  Cut after o_m wherever o_(m+1) - o_m >
    S_R, and call the runs of blocks between cuts clusters.  A block
    after a cut then lies wholly above every block before it, so two
    equal sums lie in one cluster.  Hence the box is collision-free if
    and only if (1) the inner box is, since every block holds a copy of
    it, decided by the same test one factor down, and (2) each cluster of
    two or more blocks has distinct values, checked by building that
    cluster and sorting it in place; a one-block cluster is the inner box
    again.  At a gap equal to S_R the two blocks can share a sum, so it
    is not cut.  A scale-separated beta, each factor's gaps wider than
    the span of the lighter ones, is certified from the tables alone;
    ``--bound 2895 --beta 1,1000003`` on S2, S2 sorts 5 of its 2,896
    blocks.  The test is only a pre-check: a box with no cut, or with a
    cluster of more than half of the blocks, goes straight to
    :func:`~casimirspec.spectrum.equal_value_pairs`, and so does a box it
    finds colliding, so that kernel stays the one pair lister.  It sorts
    one build in place and builds again only when a value repeats.
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
    scale = lcm(*(x.denominator for x in beta))
    weights = [x.numerator * (scale // x.denominator) for x in beta]
    tables = [f.table[: bound + 1] for f in factors]
    dtype = exact_dtype(sum(w * max(map(abs, table)) for w, table in zip(weights, tables)))
    if block_verdict(weights, tables, dtype):
        first = second = np.zeros(0, np.int32)
        values = np.zeros(0, dtype)
    else:
        first, second, values = equal_value_pairs(lambda: box_values([weights], tables, dtype)[0])
    shape = (bound + 1,) * len(factors)
    used, first, second = compact_pairs(prod(shape), first, second)
    rows = np.column_stack(np.unravel_index(used, shape))
    return CollisionPairs(rows.astype(np.int64, copy=False), first, second, values[used], scale)


def prime_sequence() -> Iterator[int]:
    """1, 2, 3, 5, 7, 11, ...: one followed by the primes."""
    yield 1
    primes = []
    candidate = 2
    while True:
        # a composite candidate has a prime factor p with p * p <= candidate
        if all(candidate % p for p in takewhile(lambda p: p * p <= candidate, primes)):
            primes.append(candidate)
            yield candidate
        candidate += 1


def level_tuples(length: int, values: list) -> Iterator[tuple]:
    """Tuples over the increasing ``values`` that contain the last one, lexicographic.

    A tuple either starts below the last value and contains it later, or
    starts with it and continues freely, so none is generated and dropped.
    """
    top = values[-1]
    if length == 1:
        yield (top,)
        return
    for value in values[:-1]:
        for rest in level_tuples(length - 1, values):
            yield (value,) + rest
    for rest in product(values, repeat=length - 1):
        yield (top,) + rest


def candidate_tuples(length: int) -> Iterator[tuple]:
    """Tuples over the 1-then-primes sequence, enumerated deterministically.

    Pure lexicographic order over an infinite alphabet never advances the
    leading coordinates, so enumeration proceeds by levels: level T holds
    the tuples whose largest sequence index is exactly T, in lexicographic
    order within the level.
    """
    values = []
    for value in prime_sequence():
        values.append(value)
        yield from level_tuples(length, values)


class BetaCertificate(Record):
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


def first_free_candidate(tables: list, candidates: list) -> int:
    """Index of the first collision-free candidate of a batch, or -1.

    ``tables`` are the factors' integer tables.  The batch's box values
    sum_i c_i t_i[m_i] are one ``(batch, box)`` array of
    :func:`box_values`; each row is sorted and a candidate is free when
    no two neighbours are equal.  Every entry and partial sum is at most
    max(c) * sum_i max |t_i|.  Below 2**31 the sums are built and sorted
    as ``int32``, which halves the bytes each sort moves, and otherwise in
    the :func:`~casimirspec.spectrum.exact_dtype` of that bound.
    """
    widest = max(map(max, candidates)) * sum(max(map(abs, table)) for table in tables)
    dtype = np.int32 if widest < INT32_LIMIT else exact_dtype(widest)
    values = box_values(candidates, tables, dtype)
    values.sort(axis=1)
    free = np.flatnonzero((values[:, 1:] != values[:, :-1]).all(axis=1))
    return int(free[0]) if len(free) else -1


def generic_beta_certificate(
    factors: Sequence[FactorSpectrum], bound: int = None
) -> BetaCertificate:
    """Deterministic collision-free weight vector for the truncated box.

    Candidates with entries from the 1-then-primes sequence are tried in
    the deterministic order of :func:`candidate_tuples`; the first one
    with no collision on the box wins.  They are tested in batches by
    :func:`first_free_candidate`, on the factors' integer tables t_i.
    Batch sizes double from one candidate up to ``BATCH_ENTRIES // box``
    (at least one), so an early winner costs no wide batch.  A search that
    would sort more than ``MAX_SEARCH_ENTRIES`` box values (candidates
    times box rows) is refused with ``ValueError``.

    The boundary is confirmed on the exact path: :func:`check_beta`
    finds no collision for the winner and some for the candidate tried
    just before it.  The winner is then cross-checked against the
    hyperplane list: it must be orthogonal to no truncated normal.  A
    single factor has no normals and is certified by the first candidate.
    """
    if bound is None:
        bound = min(f.bound for f in factors)
    normals = collision_hyperplanes(factors, bound)
    tables = [f.table[: bound + 1] for f in factors]
    box = (bound + 1) ** len(factors)
    widest_batch, allowed = max(1, BATCH_ENTRIES // box), MAX_SEARCH_ENTRIES // box
    candidates = candidate_tuples(len(factors))
    tried, previous, batch = 0, None, 1
    while True:
        chunk = list(islice(candidates, min(batch, allowed - tried)))
        batch = min(2 * batch, widest_batch)
        if not chunk:
            raise ValueError(
                f"no collision-free beta among the first {tried} candidates; more on a box "
                f"of {box} rows exceed the maximum of {MAX_SEARCH_ENTRIES} sorted values"
            )
        found = first_free_candidate(tables, chunk)
        if found >= 0:
            break
        tried, previous = tried + len(chunk), chunk[-1]
    tried, winner = tried + found + 1, chunk[found]
    if found:
        previous = chunk[found - 1]
    if check_beta(factors, winner, bound):
        raise AssertionError("batched search and exhaustive check disagree on the winner")
    if previous is not None and not check_beta(factors, previous, bound):
        raise AssertionError("the candidate before the winner is collision-free")
    # a box collision is exactly a hit on a truncated hyperplane, so the
    # winner must also clear every stored normal
    dtype = exact_dtype(int(abs(normals).max(initial=0)) * sum(winner))
    if (normals.astype(dtype) @ np.array(winner, dtype) == 0).any():
        raise AssertionError("hyperplane list and exhaustive check disagree")
    return BetaCertificate(
        factors=tuple(f.label for f in factors),
        bound=bound,
        beta=tuple(Fraction(c) for c in winner),
        candidates_tried=tried,
        hyperplanes=len(normals),
        distinct_values=box,
    )
