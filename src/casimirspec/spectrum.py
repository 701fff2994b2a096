"""Eigenvalue quadratic form, collision search, and reflection witnesses.

A spherical representation is indexed by a dominant weight, a tuple of
non-negative integers in the dual weight basis.  Its Laplace eigenvalue
under the normal metric is the Freudenthal value

    lambda(w) = (w + 2*deltabar, w) = w^T G w + shift^T G w,

where G is the Gram matrix of the dual weight basis and shift is the
coefficient vector of twice the restricted half-sum.  Collisions of this
form between distinct non-dual weights refute simplicity; this module
searches for them exhaustively in a coordinate box, constructs them in
closed form through half-sum-fixing reflections for rank >= 3, and keeps
the catalog of rank-two cases with their closed-form collision pairs.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import ceil, lcm
from typing import Optional

import numpy as np

from .exactalg import MultiPoly, Record, rational_to_str
from .symmdata import RestrictedDatum
from .rootsys import gram_matrix, cartan_data, parse_type, solve


def eigenvalue(datum: RestrictedDatum, weight: Sequence) -> Fraction:
    """Exact eigenvalue w^T G w + shift^T G w at a weight; G w = 2 C^{-1} N w is one solve."""
    data = datum.cartan
    if len(weight) != data.rank:
        raise ValueError("weight length does not match the datum's rank")
    (gw,) = solve(data, [[2 * norm * x for norm, x in zip(data.norms, weight)]])
    quad = sum(x * g for x, g in zip(weight, gw))
    lin = sum(s * g for s, g in zip(datum.two_delta_bar, gw))
    return Fraction(quad + lin)


def dual_weight(datum: RestrictedDatum, weight: Sequence[int]) -> tuple:
    """Coordinates of the dual representation's highest weight."""
    sigma = datum.descriptor.involution
    if len(weight) != len(sigma):
        raise ValueError("weight length does not match the datum's rank")
    return tuple(weight[sigma[k]] for k in range(len(sigma)))


def eigenvalue_polynomial(gram, shift_polys, variables, coord_names) -> MultiPoly:
    """The eigenvalue form as an explicit polynomial.

    ``shift_polys`` entries are MultiPoly over ``variables`` (so a range
    parameter may appear symbolically), and ``coord_names`` name the
    weight coordinates among ``variables``.
    """
    n = len(shift_polys)
    coords = [MultiPoly.variable(variables, name) for name in coord_names]
    total = MultiPoly.zero(variables)
    for i in range(n):
        for j in range(n):
            gij = MultiPoly.constant(variables, gram[i][j])
            total = total + gij * coords[i] * coords[j]
            total = total + gij * shift_polys[i] * coords[j]
    return total


# Largest box (bound + 1)^rank a scan accepts, in rows.  The Hopf scan sets
# it: on a 2-vCPU Intel Xeon VM, near 2^23 rows, a fresh process running
# `hopf --n 2 --bound 2895 --json` spends 1.4-2.1 s in `cli.run` and peaks
# at 319 MB RSS, set inside `equal_value_pairs` (285 MB traced);
# `bundles.pair_disagreements` then adds 67 MB to the 101 MB alive.  A
# collision-free box costs far less: `collide AI --r 1 --bound 8388607
# --json` holds one array of values, sorted in place, and takes 0.19-0.26 s
# and 103 MB; `product --factors S2,S2 --bound 2895 --beta 1,1000003
# --json`, whose block test sorts 5 of its 2,896 blocks, takes
# 0.015-0.017 s and 31 MB.
MAX_BOX_ROWS = 2**23


# Most equal-value pairs a scan lists.  On a 2-vCPU Intel Xeon VM, `product
# --factors S2,S2,S2 --bound 70 --beta 1,1,1 --json` (15,981,879 pairs) takes
# 4-6 s and 284 MB peak RSS, writing to /dev/null; bound 202 would list
# 1,073,281,317 pairs in a box under MAX_BOX_ROWS.
MAX_PAIRS = 2**24


# box positions per step of a collision scan's value build
BUILD_CHUNK = 2**16


def require_box(rank: int, bound: int) -> None:
    """Refuse a box of more than ``MAX_BOX_ROWS`` rows before anything is allocated."""
    # a negative bound's box is empty
    if max(bound + 1, 0) ** rank > MAX_BOX_ROWS:
        raise ValueError(
            f"box of {bound + 1}^{rank} weights exceeds the maximum of {MAX_BOX_ROWS}"
        )


def exact_dtype(magnitude: int):
    """``int64`` when ``magnitude`` fits it, else ``object`` (Python ints).

    ``magnitude`` must bound the absolute value of every entry and every
    partial sum a scan computes, so the int64 path cannot overflow.
    """
    return np.int64 if magnitude < 2**63 else object


def equal_value_pairs(build) -> tuple:
    """Every pair i < j with ``values[i] == values[j]``, as two index arrays.

    ``build`` is a zero-argument callable that returns a fresh 1-D
    ``int64`` array, or ``object`` array of Python ints, of the values,
    the same ones on every call; the kernel owns what it returns.  Only
    comparisons touch the values, so both dtypes take the same path and
    neither rounds.  Returns ``(first, second, values)``: the pairs, each
    once, sorted by ``first`` and then by ``second``, as ``int32``
    indices (exact below 2**31 values), and ``values`` the input-order
    build when a value repeats, or an empty array of its dtype when none
    does.  More than ``MAX_PAIRS`` pairs is a ValueError, raised before
    the second build and before any pair array is allocated.

    One build is sorted in place: when no two neighbours in it are equal,
    only it and the neighbour mask were ever alive.  Otherwise the mask
    gives each run's end, and a second build gives the stable index sort
    and is returned with the pairs; no pair is sorted.
    """
    ordered = build()
    size = len(ordered)
    ordered.sort()
    change = ordered[1:] != ordered[:-1]
    if change.all():
        return np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0, ordered.dtype)
    del ordered
    # sorted position s pairs with the positions after it up to its run's end
    ends = np.flatnonzero(np.r_[change, True]).astype(np.int32) + 1
    later = np.repeat(ends, np.diff(ends, prepend=0)) - np.arange(1, size + 1, dtype=np.int32)
    del change, ends
    count = int(later.sum(dtype=np.int64))
    if count > MAX_PAIRS:
        raise ValueError(f"{count} equal-value pairs exceed the maximum of {MAX_PAIRS}")
    # a stable sort lists each run in input order, so index i pairs with
    # order[rank[i] + 1:][:length[i]], ascending; with offset[i] =
    # length[:i].sum(), output slot t takes order[rank[i] + 1 + t - offset[i]]
    values = build()
    order = np.argsort(values, kind="stable").astype(np.int32)
    rank = np.empty(size, np.int32)
    rank[order] = np.arange(size, dtype=np.int32)
    length = later[rank]
    del later
    # every offset and slot is at most count <= MAX_PAIRS < 2**31
    position = np.repeat(rank + 1 - (np.cumsum(length, dtype=np.int32) - length), length)
    del rank
    position += np.arange(count, dtype=np.int32)
    # at most two pair-length arrays are alive at once
    second = order[position]
    del order, position
    return np.repeat(np.arange(size, dtype=np.int32), length), second, values


def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a scratch array, ascending; sorts it in place.

    ``np.unique`` by one sort, without its ``numpy.ma`` import or copy.
    """
    values = values.ravel()
    values.sort()
    keep = np.ones(len(values), bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def compact_pairs(size: int, first: np.ndarray, second: np.ndarray) -> tuple:
    """The rows some pair joins, and the pairs as ``int32`` indices into them.

    ``first`` and ``second`` index ``range(size)``.  Returns ``(used,
    first, second)``: ``used`` the distinct joined rows, ascending, and
    ``used[first]``, ``used[second]`` the given pairs, in their order.
    A mark per row stands in for a sort, and indices are read as ``intp``
    by blocks: an ``int32`` index takes a slower buffered cast.  With no
    pairs the three arrays are empty and nothing of length ``size`` is
    allocated.
    """
    if not len(first):
        return np.zeros(0, np.intp), np.zeros(0, np.int32), np.zeros(0, np.int32)
    mark = np.zeros(size, bool)
    starts = range(0, len(first), BUILD_CHUNK)
    for start in starts:
        for index in (first, second):
            mark[index[start:start + BUILD_CHUNK].astype(np.intp)] = True
    place = np.cumsum(mark, dtype=np.int32) - 1
    places = [np.empty(len(first), np.int32) for _ in range(2)]
    for start in starts:
        for index, out in zip((first, second), places):
            out[start:start + BUILD_CHUNK] = place[index[start:start + BUILD_CHUNK].astype(np.intp)]
    return (np.flatnonzero(mark), *places)


def value_strings(values: np.ndarray, denom: int) -> np.ndarray:
    """``rational_to_str(values[i] / denom)`` for each entry, as an object array.

    The values, ``int64`` or an ``object`` array of Python ints, are
    reduced by ``np.gcd`` and their numerators written as Python ints; a
    ``/d`` suffix follows only where the reduced denominator d is not 1,
    and no suffix is built for a block where no d is.  A denominator past
    ``int64`` casts the values to ``object``, since ``np.gcd`` takes no
    wider int.  The work runs in blocks of ``BUILD_CHUNK`` values, so no
    block's ints, denominators or suffixes outlive its strings.
    """
    blocks = []
    for start in range(0, len(values), BUILD_CHUNK):
        block = values[start:start + BUILD_CHUNK]
        if denom >= 2**63:
            block = block.astype(object)
        common = np.gcd(block, denom)
        strings = np.fromiter(map(str, (block // common).tolist()), object, len(block))
        dens = denom // common
        if not (dens == 1).all():
            dens, den_index = np.unique(dens, return_inverse=True)
            suffixes = np.array(["" if d == 1 else f"/{d}" for d in dens.tolist()], object)
            # in place: one table of strings is alive, not two
            np.add(strings, suffixes[den_index], out=strings)
        blocks.append(strings)
    # one block is returned as built, with no second table of pointers
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks or [np.empty(0, object)])


def row_strings(rows: np.ndarray, opening: str, comma: str, closing: str) -> tuple:
    """Rows of a non-negative integer array as ``opening c0 comma ... closing``, in two tables.

    Returns ``(prefixes, prefix_of, tails, tail_of)``: row i is written
    ``prefixes[prefix_of[i]] + tails[tail_of[i]]``, and no row's whole
    text is built.  A prefix is the text up to the last coordinate, a
    tail the last coordinate and ``closing``; ``prefix_of`` and
    ``tail_of`` are ``int32``.

    The text before a row's last coordinate grows one coordinate at a
    time over runs of adjacent rows.  A row starts a run of the prefix
    through column j where it differs from the row above in column j or
    in an earlier one, and each run's text is its parent run's text
    with one coordinate added.  Rows in ascending lexicographic order, as
    every scan hands them, have one run per distinct prefix; rows in any
    other order get the same text, with a prefix written once per run.
    The last column's distinct coordinates are written once, found by a
    sort of that column alone (SU(2)/F's d^2 reaches 5.2e7).
    """
    *heads, last = rows.T
    # the last column's distinct coordinates, ascending, and each row's place
    # among them, from one sort: np.unique's inverse would add three row-length
    # arrays
    last = np.ascontiguousarray(last)
    coordinates = distinct(last.copy())
    tail_of = np.searchsorted(coordinates, last).astype(np.int32)
    del last
    tails = np.fromiter((str(c) + closing for c in coordinates.tolist()), object, len(coordinates))
    # the rows that start a run of the prefix so far: at first, of the empty one
    starts = np.zeros(len(rows), bool)
    starts[:1] = True
    prefixes = np.array([opening], object)
    for column in heads:
        parent = starts
        starts = parent.copy()
        starts[1:] |= column[1:] != column[:-1]
        begin = np.flatnonzero(starts)
        # every parent run starts a run here, so this counts the parent runs
        prefixes = prefixes[np.cumsum(parent[begin]) - 1] + np.fromiter(
            (str(c) + comma for c in column[begin].tolist()), object, len(begin)
        )
    # a run count is at most the row count, below 2**31 (MAX_BOX_ROWS, su2f.MAX_KMAX)
    prefix_of = np.cumsum(starts, dtype=np.int32)
    prefix_of -= 1
    return prefixes, prefix_of, tails, tail_of


class CollisionPairs(Record, eq=False):
    """The equal-value pairs of one scan, held as arrays.

    ``rows`` holds only the rows that some pair joins, distinct and in
    ascending lexicographic order: box order for a box scan, (k, d^2)
    table order for SU(2)/F.  In that order the writer's ``row_strings``
    writes each distinct prefix once; in any other it writes the same
    rows from a prefix per run.  ``values`` holds one exact
    integer per kept row, ``int64`` or Python ints in an ``object``
    array.  Pair t joins
    ``rows[first[t]]`` and ``rows[second[t]]``, with ``first[t] <
    second[t]``, at the value ``values[first[t]] / denom``.  ``first``
    and ``second`` are ``int32``, which is exact: a box scan keeps at
    most ``MAX_BOX_ROWS`` (2^23) rows and SU(2)/F about 2.2 million lines
    at ``su2f.MAX_KMAX``, both below 2^31.  ``dual`` flags the dual
    pairs, or is None when the scan has no duality.
    """

    rows: np.ndarray
    first: np.ndarray
    second: np.ndarray
    values: np.ndarray
    denom: int
    dual: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.first)


def enumerate_collisions(
    datum: RestrictedDatum, bound: int, exclude_dual_pairs: bool = False
) -> CollisionPairs:
    """All eigenvalue collisions in the per-coordinate box [0, bound]^rank.

    Every unordered pair of weights with the same exact eigenvalue is
    listed, flagged when the two weights are duals of each other.  Box
    position p, in lexicographic order, is the weight whose coordinate k
    is p // (bound + 1)^(rank - 1 - k) % (bound + 1).  The result keeps
    the weights that some pair joins, decoded from their positions in box
    order, and its pairs come in (first, second) order, which is
    lexicographic in the two weights.  No box of weights is built: the
    values are computed from positions ``BUILD_CHUNK`` at a time, and a
    pair is dual when its second position is the dual of its first.

    The scan is exact integer arithmetic: with D the lcm of the
    denominators of G and of c = G^T shift, D * lambda(w) = w^T (D G) w +
    (D c) . w is an integer, summed as sum_i w_i (sum_j (D G)_ji w_j +
    (D c)_i).  Every entry and partial sum is at most bound^2 * sum|D G|
    + bound * sum|D c| in absolute value; the values are int64 when that
    bound is below 2**63 and Python ints otherwise.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    rank = datum.rank
    require_box(rank, bound)
    gram = gram_matrix(datum.cartan)
    linear = [
        sum(datum.two_delta_bar[i] * gram[i][j] for i in range(rank))
        for j in range(rank)
    ]
    denom = lcm(*(x.denominator for x in [*linear, *(g for row in gram for g in row)]))
    quad = [[int(g * denom) for g in row] for row in gram]
    lin = [int(x * denom) for x in linear]
    magnitude = (
        bound * bound * sum(abs(q) for row in quad for q in row)
        + bound * sum(abs(x) for x in lin)
    )
    dtype = exact_dtype(magnitude)
    side = bound + 1
    size = side**rank
    # coordinate k of position p is p // scales[k] % side
    scales = [side ** (rank - 1 - k) for k in range(rank)]

    def build():
        values = np.empty(size, dtype)
        for start in range(0, size, BUILD_CHUNK):
            # int32 positions, exact under MAX_BOX_ROWS, divide faster than int64 ones
            position = np.arange(start, min(start + BUILD_CHUNK, size), dtype=np.int32)
            w = [(position // scale % side).astype(dtype, copy=False) for scale in scales]
            values[start:start + BUILD_CHUNK] = sum(
                w[i] * (lin[i] + sum(quad[j][i] * w[j] for j in range(rank)))
                for i in range(rank)
            )
        return values

    first, second, values = equal_value_pairs(build)
    # the dual of position p takes coordinate sigma[k] to k; a fixed one moves nothing
    dual_first = first.copy()
    for k, i in enumerate(datum.descriptor.involution):
        if i != k:
            dual_first += (first // scales[i] % side - first // scales[k] % side) * scales[k]
    dual = dual_first == second
    del dual_first
    if exclude_dual_pairs:
        first, second, dual = first[~dual], second[~dual], dual[~dual]
    used, first, second = compact_pairs(size, first, second)
    rows = np.column_stack(np.unravel_index(used, (side,) * rank))
    return CollisionPairs(
        rows.astype(np.int64, copy=False), first, second, values[used], denom, dual
    )


# -- reflection witnesses (rank >= 3) -----------------------------------


# fill increments tried before a dual-breaking witness is given up
WITNESS_RETRIES = 16


class WitnessError(ValueError):
    """Raised when a datum is outside the reflection construction's scope."""


class ReflectionWitness(Record):
    """A half-sum-fixing reflection collision certificate.

    ``alpha`` is an integer multiple of beta_i - beta_j written in the
    dual weight basis, rescaled so all its coordinates are integers; the
    reflection through alpha fixes the half-sum exactly and exchanges the
    dominant weights v and w, which are distinct, non-dual, and share the
    eigenvalue.
    """

    index_pair: tuple
    alpha: tuple
    multiplier: int
    fill: tuple
    weight_v: tuple
    weight_w: tuple
    eigenvalue: Fraction

    def to_json(self) -> dict:
        return {
            "index_pair": [self.index_pair[0] + 1, self.index_pair[1] + 1],
            "alpha": [rational_to_str(a) for a in self.alpha],
            "multiplier": self.multiplier,
            "v": list(self.weight_v),
            "w": list(self.weight_w),
            "eigenvalue": rational_to_str(self.eigenvalue),
        }


def admissible_pairs(datum: RestrictedDatum):
    """Index pairs (i, j) with equal half-sum coefficients and equal norms, in order."""
    n = datum.rank
    for i in range(n):
        for j in range(i + 1, n):
            if (
                datum.two_delta_bar[i] == datum.two_delta_bar[j]
                and datum.cartan.norms[i] == datum.cartan.norms[j]
            ):
                yield i, j


def reflection_witness(datum: RestrictedDatum) -> ReflectionWitness:
    """Construct a collision pair from a half-sum-fixing reflection.

    Requires rank >= 3 and an index pair with equal half-sum coefficient
    and equal simple-root norms.  Tie-breaking is deterministic: the
    lexicographically smallest admissible pair, the componentwise-minimal
    fill coefficients, then the smallest multiplier clearing denominators.
    When the reflected weight happens to be the dual of the seed, the
    smallest fill coefficient is incremented and the construction retried.
    """
    n = datum.rank
    if n < 3:
        raise WitnessError("the reflection construction needs rank >= 3")
    pair = next(admissible_pairs(datum), None)
    if pair is None:
        raise WitnessError(
            "no index pair with equal half-sum coefficients and equal norms"
        )
    i, j = pair

    # beta_l = 1/2 sum_k C_lk M_k, and with equal norms the reflection
    # through beta_i - beta_j sends v to v - (v_i - v_j)(C_i - C_j)/(2 - C_ij),
    # fixing the half-sum as its coefficients at i and j agree
    row_i, row_j = datum.cartan.cartan[i], datum.cartan.cartan[j]
    diff = [a - b for a, b in zip(row_i, row_j)]
    scale = 1 if all(d % 2 == 0 for d in diff) else 2
    alpha = tuple(scale * d // 2 for d in diff)
    length = 2 - row_i[j]

    # minimal fill producing a dominant image of M_i + sum fill_k M_k
    seed = [max(0, ceil(Fraction(d, length))) for d in diff]
    seed[i], seed[j] = 1, 0
    others = [k for k in range(n) if k not in (i, j)]

    for _ in range(WITNESS_RETRIES):
        image = [Fraction(c * length - d, length) for c, d in zip(seed, diff)]
        if any(c < 0 for c in image):
            raise WitnessError("reflected weight left the dominant cone")
        multiplier = lcm(*(c.denominator for c in image))
        v = tuple(multiplier * c for c in seed)
        w = tuple(int(multiplier * c) for c in image)
        if w != v and dual_weight(datum, v) != w:
            value_v = eigenvalue(datum, v)
            value_w = eigenvalue(datum, w)
            if value_v != value_w:
                raise WitnessError("reflection produced unequal eigenvalues")
            return ReflectionWitness(
                index_pair=(i, j),
                alpha=alpha,
                multiplier=multiplier,
                fill=tuple(seed[k] for k in others),
                weight_v=v,
                weight_w=w,
                eigenvalue=value_v,
            )
        # duality broke the pair: bump the smallest admissible coefficient
        seed[others[0]] += 1
    raise WitnessError("could not break duality within the retry budget")


# -- rank-two catalog ----------------------------------------------------


class Rank2Pair(Record):
    """One closed-form collision pair, possibly parameterized.

    Coordinates are polynomials in a free integer parameter ``s`` which
    ranges over ``s >= min_param``; ``r_expr`` recovers the range
    parameter from s (r = s is the common case, r = 2s / 2s - 1 encode
    the parity branches).  Fixed pairs use constant polynomials.
    """

    description: str
    r_expr: Optional[MultiPoly]
    weight_a: tuple
    weight_b: tuple
    min_param: int


class Rank2Case(Record):
    """One rank-two space whose half-sum is not proportional to M1 + M2."""

    label: str
    restricted_type: str
    two_delta_bar: tuple  # MultiPoly in ("r",) or constants
    polynomial: MultiPoly  # variables (x, y) or (x, y, r)
    parameterized: bool
    pairs: tuple

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "restricted_type": self.restricted_type,
            "two_delta_bar": [str(c) for c in self.two_delta_bar],
            "polynomial": str(self.polynomial),
            "pairs": [p.description for p in self.pairs],
        }


def _spoly(const, s_coeff=0):
    s = ("s",)
    poly = MultiPoly.constant(s, const)
    if s_coeff:
        poly = poly + MultiPoly.variable(s, "s") * s_coeff
    return poly


def _case(label, type_label, shift_entries, pairs):
    """Assemble a catalog case from its type, half-sum, and pair specs."""
    parameterized = any(not isinstance(c, int) for c in shift_entries)
    variables = ("x", "y", "r") if parameterized else ("x", "y")
    shift = []
    for c in shift_entries:
        if isinstance(c, int):
            shift.append(MultiPoly.constant(variables, c))
        else:  # (constant, r-coefficient)
            const, rc = c
            shift.append(
                MultiPoly.constant(variables, const)
                + MultiPoly.variable(variables, "r") * rc
            )
    gram = gram_matrix(cartan_data(parse_type(type_label)))
    poly = eigenvalue_polynomial(gram, shift, variables, ("x", "y"))
    return Rank2Case(
        label=label,
        restricted_type=type_label,
        two_delta_bar=tuple(shift),
        polynomial=poly,
        parameterized=parameterized,
        pairs=tuple(pairs),
    )


def _pair(description, r_expr, wa, wb, min_param=0):
    return Rank2Pair(
        description=description,
        r_expr=r_expr,
        weight_a=tuple(wa),
        weight_b=tuple(wb),
        min_param=min_param,
    )


def rank2_catalog() -> list:
    """The ten rank-two cases with closed-form collision pairs.

    Every returned pair satisfies the eigenvalue identity exactly; the
    test suite verifies it symbolically in the free parameter.
    """
    c = _spoly
    cases = [
        _case(
            "AIII1", "C2", [2, (-2, 1)],
            [
                _pair(
                    "(l+3, 0) ~ (l-1, 6) for even r = 2l >= 4",
                    c(0, 2), (c(3, 1), c(0)), (c(-1, 1), c(6)), min_param=2,
                ),
                _pair(
                    "(l, 0) ~ (l-2, 3) for odd r = 2l - 1 >= 5",
                    c(-1, 2), (c(0, 1), c(0)), (c(-2, 1), c(3)), min_param=3,
                ),
            ],
        ),
        _case(
            "AIII2", "C2", [2, 1],
            [_pair("(0, 3) ~ (2, 0)", None, (c(0), c(3)), (c(2), c(0)))],
        ),
        _case(
            "BI", "B2", [1, (-3, 2)],
            [
                _pair(
                    "(r+3, 0) ~ (r-3, 4) for r >= 3",
                    c(0, 1), (c(3, 1), c(0)), (c(-3, 1), c(4)), min_param=3,
                ),
            ],
        ),
        _case(
            "CII1", "B2", [4, (-5, 2)],
            [
                _pair(
                    "(r+3, 0) ~ (r-6, 6) for r >= 6",
                    c(0, 1), (c(3, 1), c(0)), (c(-6, 1), c(6)), min_param=6,
                ),
                _pair(
                    "(3, 0) ~ (0, 2) for r = 5",
                    c(5), (c(3), c(0)), (c(0), c(2)), min_param=0,
                ),
            ],
        ),
        _case(
            "CII2", "B2", [4, 3],
            [_pair("(0, 3) ~ (3, 1)", None, (c(0), c(3)), (c(3), c(1)))],
        ),
        _case(
            "DI1", "B2", [1, 2],
            [_pair("(0, 2) ~ (3, 0)", None, (c(0), c(2)), (c(3), c(0)))],
        ),
        _case(
            "DI2", "B2", [1, (-4, 2)],
            [
                _pair(
                    "(r, 0) ~ (r-3, 2) for r >= 4",
                    c(0, 1), (c(0, 1), c(0)), (c(-3, 1), c(2)), min_param=4,
                ),
            ],
        ),
        _case(
            "DIII1", "B2", [4, 1],
            [_pair("(1, 5) ~ (4, 3)", None, (c(1), c(5)), (c(4), c(3)))],
        ),
        _case(
            "DIII2", "C2", [4, 3],
            [_pair("(0, 3) ~ (2, 0)", None, (c(0), c(3)), (c(2), c(0)))],
        ),
        _case(
            "EIII", "B2", [5, 6],
            [_pair("(1, 3) ~ (4, 1)", None, (c(1), c(3)), (c(4), c(1)))],
        ),
    ]
    return cases


def verify_rank2_pair(case: Rank2Case, pair: Rank2Pair) -> bool:
    """Exact symbolic proof that a catalog pair collides identically.

    Substitutes the pair's coordinate polynomials (and the range
    parameter) into the case polynomial; the two sides must agree as
    polynomials in the free parameter.
    """

    def value_at(weight):
        subs = {"x": weight[0], "y": weight[1]}
        if case.parameterized:
            subs["r"] = pair.r_expr
        return case.polynomial.substitute(subs)

    return value_at(pair.weight_a) == value_at(pair.weight_b)
