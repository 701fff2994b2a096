import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from casimirspec import bundles
from casimirspec.bundles import (
    HopfScanReport,
    hopf_eigenvalue,
    hopf_representation_family,
    hopf_swap_theorem_scan,
    pair_disagreements,
)
from casimirspec.exactalg import MultiPoly
from polyref import poly_at
from specref import weight_box


@dataclass(frozen=True)
class HopfInvariantPair:
    """The substituted coordinates x = 2(n+1)p + n, y = 2(n+1)q + n."""

    x: int
    y: int

    @classmethod
    def from_weight(cls, n, p, q):
        return cls(x=2 * (n + 1) * p + n, y=2 * (n + 1) * q + n)

    def invariants(self):
        return (self.x * self.x + self.y * self.y, self.x * self.y)


def direct_system_check(n, first, second):
    """Both collision equations, evaluated verbatim."""
    return hopf_eigenvalue(n, *first) == hopf_eigenvalue(n, *second)


def collision_system_check(n, first, second):
    """Collision test through the (x, y)-invariant reduction."""
    if min(*first, *second) < 0:
        raise ValueError("weights must be non-negative")
    inv_a = HopfInvariantPair.from_weight(n, *first).invariants()
    inv_b = HopfInvariantPair.from_weight(n, *second).invariants()
    return inv_a == inv_b


def reference_scan(n, bound):
    """The swap scan with dict grouping and O(N^2) agreement matrices."""
    side = bound + 1
    groups = {}
    for p in range(side):
        for q in range(side):
            key = HopfInvariantPair.from_weight(n, p, q).invariants()
            groups.setdefault(key, []).append((p, q))
    collision_pairs = swap_pairs = 0
    non_swap = []
    for weights in groups.values():
        for i in range(len(weights)):
            for j in range(i + 1, len(weights)):
                collision_pairs += 1
                (p, q), (pp, qq) = weights[i], weights[j]
                if (p, q) == (qq, pp):
                    swap_pairs += 1
                else:
                    non_swap.append(((p, q), (pp, qq)))

    grid_p, grid_q = np.meshgrid(
        np.arange(side, dtype=np.int64), np.arange(side, dtype=np.int64),
        indexing="ij",
    )
    p_flat = grid_p.ravel()
    q_flat = grid_q.ravel()
    alpha = -(n * n) * (q_flat - p_flat) ** 2
    freud = n * (p_flat**2 + q_flat**2) + 2 * p_flat * q_flat + n * (p_flat + q_flat)
    x = 2 * (n + 1) * p_flat + n
    y = 2 * (n + 1) * q_flat + n
    sum_sq = x * x + y * y
    prod = x * y
    direct = (alpha[:, None] == alpha[None, :]) & (freud[:, None] == freud[None, :])
    reduced = (sum_sq[:, None] == sum_sq[None, :]) & (prod[:, None] == prod[None, :])
    return HopfScanReport(
        n=n,
        bound=bound,
        weights_scanned=side * side,
        collision_pairs=collision_pairs,
        swap_pairs=swap_pairs,
        non_swap_pairs=tuple(sorted(non_swap)),
        agreement_pairs_checked=int(direct.size),
        agreement_mismatches=int(np.count_nonzero(direct != reduced)),
    )


def brute_disagreements(first, second):
    return sum(
        (first[i] == first[j]) != (second[i] == second[j])
        for i in range(len(first))
        for j in range(len(first))
    )


def label_array(values):
    dtype = np.int64 if all(abs(v) < 2**63 for v in values) else object
    return np.array(values, dtype=dtype)


LABELS = st.sampled_from([0, 1, 2, -7, 2**63, -(2**64), 3**50])


class TestHopfEigenvalue:
    def test_n2_values(self):
        alpha, freudenthal = hopf_eigenvalue(2, 1, 2)
        assert (alpha, freudenthal) == (-4, 20)
        assert type(alpha) is int and type(freudenthal) is int

    def test_swap_symmetry(self):
        assert hopf_eigenvalue(2, 2, 1) == hopf_eigenvalue(2, 1, 2)

    def test_zero_weight(self):
        for n in (1, 2, 5):
            assert hopf_eigenvalue(n, 0, 0) == (0, 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_box_arrays_against_each_pair(self, n, dtype):
        box = weight_box(2, 40)
        alpha, freudenthal = hopf_eigenvalue(n, *box.astype(dtype).T)
        assert alpha.dtype == freudenthal.dtype == np.dtype(dtype)
        assert list(zip(alpha.tolist(), freudenthal.tolist())) == [
            hopf_eigenvalue(n, p, q) for p, q in box.tolist()
        ]

    def test_bad_array_inputs(self):
        with pytest.raises(ValueError):
            hopf_eigenvalue(2, np.array([0, 1]), np.array([3, -1]))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            hopf_eigenvalue(0, 1, 1)
        with pytest.raises(ValueError):
            hopf_eigenvalue(2, -1, 0)

    def test_parametric_form_of_swap_pair_identical(self):
        forms = {e.id: e.casimir.entries[0] for e in hopf_representation_family(3, 5)}
        assert forms["H(4,1)"] == forms["H(1,4)"]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_parametric_against_arithmetic(self, n):
        g1 = MultiPoly.variable(bundles.METRIC_PARAMS, "gamma1")
        g2 = MultiPoly.variable(bundles.METRIC_PARAMS, "gamma2")
        family = hopf_representation_family(n, 30)
        # entries in id-string order: "H(10,0)" before "H(2,0)"
        ids = sorted(f"H({p},{q})" for p in range(31) for q in range(31 - p))
        assert [e.id for e in family] == ids
        weights = [tuple(map(int, i[2:-1].split(","))) for i in ids]
        for entry, (p, q) in zip(family, weights):
            alpha, freudenthal = hopf_eigenvalue(n, p, q)
            oracle = g1 * Fraction(alpha) + g2 * (Fraction(freudenthal) - alpha)
            (form,) = entry.casimir.entries
            assert form == oracle and hash(form) == hash(oracle)


class TestInvariants:
    def test_substitution(self):
        pair = HopfInvariantPair.from_weight(2, 3, 0)
        assert (pair.x, pair.y) == (20, 2)
        assert pair.invariants() == (404, 40)

    def test_congruence(self):
        for n in (2, 3):
            for p in range(5):
                for q in range(5):
                    pair = HopfInvariantPair.from_weight(n, p, q)
                    assert pair.x % (2 * (n + 1)) == n
                    assert pair.y % (2 * (n + 1)) == n
                    assert pair.x >= n and pair.y >= n


class TestCollisionCheck:
    def test_swaps(self):
        assert collision_system_check(2, (1, 2), (2, 1))
        assert collision_system_check(2, (3, 0), (0, 3))

    def test_non_collision(self):
        # invariant coordinates (20, 2) vs (14, 14): 404 != 392
        assert not collision_system_check(2, (3, 0), (2, 2))

    def test_agrees_with_direct_system_on_box(self):
        n, bound = 2, 8
        weights = [(p, q) for p in range(bound + 1) for q in range(bound + 1)]
        for a in weights:
            for b in weights:
                assert collision_system_check(n, a, b) == direct_system_check(n, a, b)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            collision_system_check(2, (-1, 0), (0, 0))


class TestSwapTheoremScan:
    def test_only_swaps_small(self):
        for n in (2, 3):
            report = hopf_swap_theorem_scan(n, 15)
            assert report.non_swap_pairs == ()
            assert report.agreement_mismatches == 0
            assert report.swap_pairs == report.collision_pairs
            assert report.swap_theorem_holds

    def test_bound_one(self):
        report = hopf_swap_theorem_scan(2, 1)
        assert report.collision_pairs == 1
        assert report.swap_pairs == 1

    def test_multiset_recovery_identity(self):
        # (x + y)^2 and (x - y)^2 recover the multiset from the invariants
        for n in (2, 4):
            for p in range(6):
                for q in range(6):
                    pair = HopfInvariantPair.from_weight(n, p, q)
                    sum_sq, prod = pair.invariants()
                    assert (pair.x + pair.y) ** 2 == sum_sq + 2 * prod
                    assert (pair.x - pair.y) ** 2 == sum_sq - 2 * prod

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("bound", [1, 2, 7, 15])
    def test_matches_reference_scan(self, n, bound):
        assert hopf_swap_theorem_scan(n, bound) == reference_scan(n, bound)

    def test_int64_boundary(self, monkeypatch):
        # the docstring's bound 2 R^2, R = X^2 + 1, X = 2(n+1) bound + n
        bound = 2

        def stated(n):
            top = 2 * (n + 1) * bound + n
            return 2 * (top * top + 1) ** 2

        below = next(n for n in range(9000, 10000) if stated(n + 1) >= 2**63)
        assert bundles.exact_dtype(stated(below)) is np.int64
        assert bundles.exact_dtype(stated(below + 1)) is object

        requested = []
        real = bundles.exact_dtype

        def spy(magnitude):
            requested.append(magnitude)
            return real(magnitude)

        monkeypatch.setattr(bundles, "exact_dtype", spy)
        reports = []
        for n in (below, below + 1):
            reports.append(hopf_swap_theorem_scan(n, bound).to_json())
            assert stated(n) in requested
        assert reports[0].pop("n") == below and reports[1].pop("n") == below + 1
        assert reports[0] == reports[1]
        assert reports[0]["agreement_mismatches"] == 0

    def test_requires_n_above_one(self):
        with pytest.raises(ValueError):
            hopf_swap_theorem_scan(1, 5)

    def test_builds_no_box_and_drops_each_array(self):
        # rows are decoded from box positions; with the box, x, y, alpha, F and
        # both keys alive through the sorts the scan peaked at 141 bytes a row.
        # It peaks near 85 now, and a box of int64 rows would add 16
        hopf_swap_theorem_scan(2, 20)
        tracemalloc.start()
        try:
            report = hopf_swap_theorem_scan(2, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.swap_theorem_holds and report.weights_scanned == 301**2
        assert peak < 90 * 301**2


class TestPairDisagreements:
    @given(st.lists(st.tuples(LABELS, LABELS), min_size=1, max_size=24))
    def test_matches_brute_force(self, pairs):
        first = [a for a, _ in pairs]
        second = [b for _, b in pairs]
        expected = brute_disagreements(first, second)
        assert pair_disagreements(label_array(first), label_array(second)) == expected

    def test_nonzero_counts(self):
        # classes {0, 1}, {2} against {0}, {1, 2}: pairs (0, 1) and (1, 2) each way
        assert pair_disagreements(np.array([0, 0, 1]), np.array([5, 6, 6])) == 4
        assert pair_disagreements(np.array([3, 3, 3]), np.array([1, 2, 3])) == 6
        huge = np.array([2**70, 2**70, 0], dtype=object)
        assert pair_disagreements(huge, np.array([0, 1, 1])) == 4

    def test_same_partition_agrees(self):
        assert pair_disagreements(np.array([4, 9, 4, 1]), np.array([0, 2, 0, -3])) == 0


class TestRepresentationFamily:
    def test_types_and_duals(self):
        family = hopf_representation_family(2, 4)
        by_id = {entry.id: entry for entry in family}
        assert by_id["H(1,2)"].type_class == "complex"
        assert by_id["H(1,2)"].dual_id == "H(2,1)"
        assert by_id["H(2,2)"].type_class == "real"
        assert by_id["H(2,2)"].dual_id == "H(2,2)"

    def test_truncation_shape(self):
        family = hopf_representation_family(2, 4)
        assert len(family) == 15  # pairs with p + q <= 4

    def test_parametric_entries(self):
        family = hopf_representation_family(2, 2)
        entry = next(e for e in family if e.id == "H(1,1)")
        value = poly_at(
            entry.casimir.entries[0],
            {"gamma1": Fraction(1), "gamma2": Fraction(1)}
        )
        assert value == hopf_eigenvalue(2, 1, 1)[1]
