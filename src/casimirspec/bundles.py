"""Two-parameter metrics on circle bundles over Hermitian symmetric spaces.

The total space of the Hopf fibration S^(2n+1) -> CP^n carries the
two-parameter family of invariant metrics obtained by scaling the fiber
direction against the horizontal distribution.  On the spherical
representation indexed by a pair (p, q) of non-negative integers, minus
the Laplacian acts by the affine form

    gamma_1 * alpha + gamma_2 * (freudenthal - alpha),

where alpha = -n^2 (q - p)^2 is the eigenvalue of the squared fiber
generator and freudenthal = n(p^2 + q^2) + 2pq + n(p + q) is the Casimir
value of the round metric.  Two weights collide for every (gamma_1,
gamma_2) exactly when both components agree; with the substitution
x = 2(n+1)p + n, y = 2(n+1)q + n this reduces to

    x^2 + y^2 = x'^2 + y'^2   and   x y = x' y',

and a multiset {x, y} of positive numbers is determined by those two
invariants, so the only collisions are coordinate swaps (p, q) <-> (q, p),
which index dual representations.  The scan below verifies this
exhaustively on a box and cross-checks the invariant reduction against
the direct two-equation system on every pair of weights.  The scan and
the representation family both take (alpha, freudenthal) from the one
formula in ``hopf_eigenvalue``, evaluated on integer arrays.
"""

from __future__ import annotations

import numpy as np

from .exactalg import Record
from .simplicity import SplitFamily
from .spectrum import BUILD_CHUNK, equal_value_pairs, exact_dtype, require_box

METRIC_PARAMS = ("gamma1", "gamma2")

# Largest degree p + q the representation family accepts, on the 1-2-5 scale: on a
# 2-vCPU Intel Xeon VM `simplicity --family hopf --n 2 --bound 2000 --metric 2,5
# --json` (2,003,001 entries) takes 5.0-5.7 s and 617 MB, most of it writing 33 MB
# of JSON; bound 5000 runs out of a 2 GiB address space.
MAX_FAMILY_DEGREE = 2000


def hopf_eigenvalue(n: int, p, q) -> tuple:
    """``(alpha, freudenthal)`` of the (p, q) spherical weight on S^(2n+1).

    ``p`` and ``q`` are ints, giving ints, or ints and integer arrays that
    broadcast together, giving arrays of their dtype; an array caller
    chooses a dtype that bounds every value.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("p, q must be non-negative")
    alpha = -(n * n) * (q - p) * (q - p)
    freudenthal = n * (p * p + q * q) + 2 * p * q + n * (p + q)
    return alpha, freudenthal


class HopfScanReport(Record):
    """Exhaustive collision scan over the box p, q <= bound."""

    n: int
    bound: int
    weights_scanned: int
    collision_pairs: int
    swap_pairs: int
    non_swap_pairs: tuple
    agreement_pairs_checked: int
    agreement_mismatches: int

    @property
    def swap_theorem_holds(self) -> bool:
        return not self.non_swap_pairs and self.agreement_mismatches == 0

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "bound": self.bound,
            "weights_scanned": self.weights_scanned,
            "collision_pairs": self.collision_pairs,
            "swap_pairs": self.swap_pairs,
            "non_swap_collisions": len(self.non_swap_pairs),
            "non_swap_pairs": [list(map(list, pair)) for pair in self.non_swap_pairs],
            "agreement_pairs_checked": self.agreement_pairs_checked,
            "agreement_mismatches": self.agreement_mismatches,
            "swap_theorem_holds": self.swap_theorem_holds,
        }


def pair_disagreements(first: np.ndarray, second: np.ndarray) -> int:
    """Ordered pairs (i, j) on which two labelings disagree about equality.

    Counts the pairs with exactly one of ``first[i] == first[j]`` and
    ``second[i] == second[j]``, over all N^2 ordered pairs including
    i == j.  With D ranging over the classes of ``first``, R over those
    of ``second`` and D & R over those of the joint labeling, the count
    is sum |D|^2 + sum |R|^2 - 2 sum |D & R|^2, computed in O(N log N)
    from the runs of three sorts: ``second`` sorted gives the R, ``first``
    ordered by a stable argsort the D, and ``second`` in that order,
    sorted within the runs of ``first`` by ``np.lexsort``, the D & R.
    Each sum is at most N^2; the run lengths are squared in int64 when
    N^2 is below 2**63 and in Python ints otherwise.  Labels are 1-D
    arrays of exact integers (``int64`` or ``object``).
    """
    dtype = exact_dtype(len(first) ** 2)

    def square_sum(starts) -> int:
        """Sum of squared run lengths, from a mask of the entries that start a run."""
        sizes = np.diff(np.flatnonzero(np.r_[starts, True])).astype(dtype, copy=False)
        sizes *= sizes
        return int(sizes.sum())

    def run_starts(ordered) -> np.ndarray:
        starts = np.ones(len(ordered), bool)
        starts[1:] = ordered[1:] != ordered[:-1]
        return starts

    total = square_sum(run_starts(np.sort(second)))
    order = np.argsort(first, kind="stable")
    starts = run_starts(first[order])
    total += square_sum(starts)
    gathered = second[order]
    del order
    # the run ids of first, the primary key, keep each run's block in place;
    # int32 counts the runs of a box under MAX_BOX_ROWS exactly
    order = np.lexsort((gathered, np.cumsum(starts, dtype=np.int32)))
    # compared a block at a time, so the sorted labels are never held whole
    for start in range(0, len(order), BUILD_CHUNK):
        block = gathered[order[start:start + BUILD_CHUNK + 1]]
        starts[start + 1:start + len(block)] |= block[1:] != block[:-1]
    del gathered, order
    return total - 2 * square_sum(starts)


def hopf_swap_theorem_scan(n: int, bound: int) -> HopfScanReport:
    """Scan all weight pairs in the box p, q <= bound and classify every collision.

    Collisions are the pairs with equal invariant key (x^2 + y^2, x y),
    packed as one integer; the report counts the coordinate swaps (dual
    pairs) and lists every other colliding pair in box-row order.
    Separately, the invariant reduction is compared against the direct
    two-equation system on every ordered pair of weights:
    ``agreement_pairs_checked`` is the number of ordered pairs, N^2 for
    the N weights of the box, and ``agreement_mismatches`` the number of
    them on which "equal (x^2 + y^2, x y)" and "equal (alpha,
    freudenthal)" disagree, counted exactly by ``pair_disagreements``
    without visiting the pairs one by one.

    Both keys are packed in radix R = X^2 + 1, where X = 2(n+1) bound + n
    is the largest substituted coordinate: the reduced key is
    (x^2 + y^2) R + x y and the direct key alpha R + freudenthal, with
    0 <= x y, freudenthal < R and |alpha| < R.  Every value and partial
    sum is below 2 R^2 in absolute value; the box is evaluated in int64
    when 2 R^2 is below 2**63 and in Python ints otherwise.
    """
    if n < 2:
        raise ValueError("the swap scan covers the fibrations with n > 1")
    if bound < 1:
        raise ValueError("bound must be >= 1")

    require_box(2, bound)
    side = bound + 1
    top = 2 * (n + 1) * bound + n
    radix = top * top + 1
    dtype = exact_dtype(2 * radix * radix)
    size = side * side

    def coordinates(start):
        """The columns p and q of one ``BUILD_CHUNK`` block of box rows from ``start``.

        Row i of the box is (i // side, i % side).
        """
        positions = np.arange(start, min(start + BUILD_CHUNK, size))
        return (c.astype(dtype, copy=False) for c in np.divmod(positions, side))

    def keys(key):
        """``key`` on the columns of every block, joined into one box-length array.

        A block's columns and temporaries are dropped once ``key`` has read
        them; one block is returned as it is.
        """
        blocks = [key(coordinates(start)) for start in range(0, size, BUILD_CHUNK)]
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)

    def reduced_key(columns):
        x, y = (2 * (n + 1) * c + n for c in columns)
        return (x * x + y * y) * radix + x * y

    def direct_key(columns):
        alpha, freudenthal = hopf_eigenvalue(n, *columns)
        return alpha * radix + freudenthal

    def rows(positions):
        return map(tuple, np.column_stack(np.divmod(positions, side)).tolist())

    # the swaps (0, 1) ~ (1, 0) repeat a key, so the kernel hands back its second build
    first, second, reduced = equal_value_pairs(lambda: keys(reduced_key))
    # a collision is a swap when its second row is the first one's transpose
    swap = second == first % side * side + first // side
    non_swap = tuple(zip(rows(first[~swap]), rows(second[~swap])))
    collision_pairs, swap_pairs = len(first), int(swap.sum())
    del first, second, swap
    direct = keys(direct_key)
    return HopfScanReport(
        n=n,
        bound=bound,
        weights_scanned=size,
        collision_pairs=collision_pairs,
        swap_pairs=swap_pairs,
        non_swap_pairs=non_swap,
        agreement_pairs_checked=side**4,
        agreement_mismatches=pair_disagreements(direct, reduced),
    )


def hopf_representation_family(n: int, max_degree: int) -> SplitFamily:
    """The weights p + q <= max_degree as a split family over (gamma1, gamma2).

    Weight (p, q) is a 1x1 entry with the form gamma1 alpha + gamma2
    (freudenthal - alpha), key (0, alpha, freudenthal - alpha), from
    ``hopf_eigenvalue`` on the arrays of all weights; it is dual to (q, p)
    and of complex type when p != q.  "H(p,q)" ids ascend as strings, that
    is by p's decimal string and then by q's, so the entries are laid out
    on the grid of those two string ranks.
    """
    if max_degree < 0:
        raise ValueError("bound must be >= 0")
    if max_degree > MAX_FAMILY_DEGREE:
        raise ValueError(f"degree {max_degree} exceeds the maximum of {MAX_FAMILY_DEGREE}")
    by_string = np.array(sorted(range(max_degree + 1), key=str))
    inside = by_string[:, None] + by_string <= max_degree
    # entry positions on the rank grid, which is symmetric: (q, p) sits at the transpose
    duals = (np.cumsum(inside, dtype=np.int32) - 1).reshape(inside.shape).T[inside]
    rank_p, rank_q = np.nonzero(inside)
    # with D = max_degree, |alpha| <= n^2 D^2 and every partial sum of freudenthal
    # is at most (n + 1)(D + 1)^2, so all of them stay below 2 (n + 1)^2 (D + 1)^2
    dtype = exact_dtype(2 * (n + 1) ** 2 * (max_degree + 1) ** 2)
    p, q = by_string.astype(dtype)[rank_p], by_string.astype(dtype)[rank_q]
    alpha, freudenthal = hopf_eigenvalue(n, p, q)
    ids = [f"H({a},{b})" for a, b in zip(p.tolist(), q.tolist())]
    keys = np.column_stack((np.zeros_like(alpha), alpha, freudenthal - alpha))
    return SplitFamily(METRIC_PARAMS, ids, rank_p != rank_q, duals, np.arange(len(ids)), keys)
