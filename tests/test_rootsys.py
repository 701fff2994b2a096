from fractions import Fraction
from operator import floordiv

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimirspec import rootsys
from casimirspec.exactalg import fraction_free_elimination
from casimirspec.rootsys import (
    CartanData,
    RootSystemType,
    cartan_data,
    gram_matrix,
    parse_type,
    solve,
)
from casimirspec.symmdata import LABELS, _NODE_PERMS, _permuted, _ROWS

ALL_TYPES = [
    parse_type(t)
    for t in (
        "A1", "A2", "A3", "A5", "A7",
        "B2", "B3", "B4",
        "C2", "C3", "C4",
        "BC1", "BC2", "BC3",
        "D3", "D4", "D5",
        "E6", "E7", "E8", "F4", "G2",
    )
]


def F(n, d=1):
    return Fraction(n, d)


def reference_inverse(matrix):
    """Gauss-Jordan inverse with row exchanges."""
    n = len(matrix)
    a = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r][col:] = [x - factor * y for x, y in zip(a[r][col:], a[col][col:])]
                inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    return tuple(tuple(row) for row in inv)


def reference_minors(matrix):
    """Every leading principal minor, each by its own elimination."""
    n = len(matrix)
    minors = []
    for k in range(1, n + 1):
        a = [[Fraction(matrix[i][j]) for j in range(k)] for i in range(k)]
        det = Fraction(1)
        for col in range(k):
            pivot = next((r for r in range(col, k) if a[r][col] != 0), None)
            if pivot is None:
                det = Fraction(0)
                break
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                det = -det
            det *= a[col][col]
            for r in range(col + 1, k):
                if a[r][col] != 0:
                    factor = a[r][col] / a[col][col]
                    a[r][col:] = [x - factor * y for x, y in zip(a[r][col:], a[col][col:])]
        minors.append(det)
    return minors


def identity_columns(n):
    return [[int(i == j) for i in range(n)] for j in range(n)]


def solved_inverse(data):
    """C^{-1} row by row, from one solve on the columns of the identity."""
    return tuple(zip(*solve(data, identity_columns(data.rank))))


def reference_gram(data):
    """G = 2 C^{-1} N from the Gauss-Jordan inverse."""
    return tuple(
        tuple(2 * x * norm for x, norm in zip(row, data.norms))
        for row in reference_inverse(data.cartan)
    )


def unchecked_data(matrix):
    """Any square integer matrix as Cartan data, bypassing cartan_data's checks."""
    n = len(matrix)
    return CartanData(
        system=RootSystemType("A", n),
        cartan=tuple(tuple(row) for row in matrix),
        norms=(Fraction(2),) * n,
        doubled=(False,) * n,
    )


class TestCartanData:
    def test_a3(self):
        data = cartan_data(parse_type("A3"))
        assert data.cartan == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
        assert data.norms == (F(2), F(2), F(2))

    def test_b2_calibration(self):
        data = cartan_data(parse_type("B2"))
        assert sorted(
            [data.cartan[0][1], data.cartan[1][0]]
        ) == [-2, -1]
        assert gram_matrix(data) == ((F(2), F(2)), (F(2), F(4)))

    def test_bc1_doubled_flag(self):
        data = cartan_data(parse_type("BC1"))
        assert data.doubled == (True,)
        assert data.cartan == ((2,),)

    def test_bc_last_node_doubled(self):
        data = cartan_data(parse_type("BC3"))
        assert data.doubled == (False, False, True)

    @pytest.mark.parametrize("system", ALL_TYPES, ids=str)
    def test_invariants(self, system):
        data = cartan_data(system)
        n = system.rank
        for i in range(n):
            assert data.cartan[i][i] == 2
            for j in range(n):
                if i != j:
                    assert data.cartan[i][j] in (0, -1, -2, -3)
                assert (
                    data.cartan[i][j] * data.norms[j]
                    == data.cartan[j][i] * data.norms[i]
                )
        # cartan * solve(e_j) = e_j
        for j, x in enumerate(solve(data, identity_columns(n))):
            for i in range(n):
                assert sum(data.cartan[i][k] * x[k] for k in range(n)) == (i == j)

    @pytest.mark.parametrize("system", ALL_TYPES, ids=str)
    def test_inverse_matches_reference(self, system):
        data = cartan_data(system)
        assert solved_inverse(data) == reference_inverse(data.cartan)
        assert gram_matrix(data) == reference_gram(data)

    def test_solve_keeps_rational_columns_exact(self):
        data = cartan_data(parse_type("A3"))
        column = (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2))
        (x,) = solve(data, [column])
        inverse = reference_inverse(data.cartan)
        assert x == tuple(sum(a * b for a, b in zip(row, column)) for row in inverse)
        rational = CartanData(data.system, data.cartan, (Fraction(2, 3),) * 3, data.doubled)
        assert gram_matrix(rational) == reference_gram(rational)

    def test_unsupported(self):
        with pytest.raises(ValueError):
            RootSystemType("B", 1)
        with pytest.raises(ValueError):
            RootSystemType("E6", 5)
        with pytest.raises(ValueError):
            RootSystemType("X", 2)
        with pytest.raises(ValueError):
            parse_type("A")


class TestGramMatrix:
    def test_b2(self):
        assert gram_matrix(cartan_data(parse_type("B2"))) == (
            (F(2), F(2)),
            (F(2), F(4)),
        )

    def test_c2(self):
        assert gram_matrix(cartan_data(parse_type("C2"))) == (
            (F(4), F(2)),
            (F(2), F(2)),
        )

    def test_a3(self):
        assert gram_matrix(cartan_data(parse_type("A3"))) == (
            (F(3), F(2), F(1)),
            (F(2), F(4), F(2)),
            (F(1), F(2), F(3)),
        )

    @pytest.mark.parametrize("system", ALL_TYPES, ids=str)
    def test_symmetric_positive_definite(self, system):
        gram = gram_matrix(cartan_data(system))
        n = system.rank
        for i in range(n):
            for j in range(n):
                assert gram[i][j] == gram[j][i]
        assert all(m > 0 for m in reference_minors(gram))

    @pytest.mark.parametrize("system", ALL_TYPES, ids=str)
    def test_dual_basis_defining_relation(self, system):
        # (M_i, beta_j) recomputed from G and beta = (cartan/2) in the M
        # basis must come out delta_ij * (beta_j, beta_j)
        data = cartan_data(system)
        gram = gram_matrix(data)
        n = system.rank
        for i in range(n):
            for j in range(n):
                inner = sum(
                    Fraction(data.cartan[j][k], 2) * gram[i][k] for k in range(n)
                )
                expected = data.norms[j] if i == j else 0
                assert inner == expected

    @pytest.mark.parametrize("name", ["A4", "D4", "E6", "E7", "E8"])
    def test_simply_laced_integer_up_to_scale(self, name):
        gram = gram_matrix(cartan_data(parse_type(name)))
        scale = 1
        for row in gram:
            for entry in row:
                lcm = scale * entry.denominator
                from math import gcd

                scale = lcm // gcd(scale, entry.denominator)
        assert all((entry * scale).denominator == 1 for row in gram for entry in row)


SWEEP_MAX_RANK = 40
# reference_minors runs one elimination per minor, O(n^4) Fraction work:
# on the Gram matrices of the whole sweep it would add about 40 s to the
# suite, so the Gram side of the sweep stops at this rank
GRAM_ORACLE_MAX_RANK = 24


def _sweep_root_data():
    """Every distinct (restricted type, node relabelling) of the catalog.

    Each label is validated at every parameter pair with rank up to
    ``SWEEP_MAX_RANK`` (r up to 2 * SWEEP_MAX_RANK + 1, the largest any
    row needs at that rank).  The root data depend on the restricted type
    and the relabelling alone, so each distinct pair is checked once.
    """
    values = [None] + list(range(1, 2 * SWEEP_MAX_RANK + 2))
    found = set()
    for label in LABELS:
        for r in values:
            for ell in values[: SWEEP_MAX_RANK + 1]:
                try:
                    system, _, _ = _ROWS[label](r, ell)
                except ValueError:
                    continue
                if system.rank <= SWEEP_MAX_RANK:
                    found.add((system, _NODE_PERMS.get(label)))
    return sorted(found, key=lambda key: (str(key[0]), key[1] or ()))


SWEEP = _sweep_root_data()


def _relabelled(system, node_perm):
    data = cartan_data(system)
    return data if node_perm is None else _permuted(data, node_perm)


class TestEliminationSweep:
    """The forward integer elimination against the Fraction Gauss-Jordan oracles."""

    def test_sweep_reaches_rank_40_in_every_family(self):
        top = {}
        for system, _ in SWEEP:
            top[system.family] = max(top.get(system.family, 0), system.rank)
        assert top == {
            "A": 40, "B": 40, "C": 40, "BC": 40, "D": 40,
            "E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2,
        }
        assert any(perm is not None for _, perm in SWEEP)

    @pytest.mark.parametrize(
        "system,node_perm",
        SWEEP,
        ids=[f"{system}{'-relabelled' if perm else ''}" for system, perm in SWEEP],
    )
    def test_matches_gauss_jordan_oracle(self, system, node_perm):
        data = _relabelled(system, node_perm)
        assert solved_inverse(data) == reference_inverse(data.cartan)
        assert gram_matrix(data) == reference_gram(data)
        pivots, swaps, _ = fraction_free_elimination(data.cartan, floordiv)
        assert swaps == 0
        assert pivots == reference_minors(data.cartan)
        if system.rank <= GRAM_ORACLE_MAX_RANK:
            gram_definite = all(m > 0 for m in reference_minors(gram_matrix(data)))
            assert all(p > 0 for p in pivots) == gram_definite

    def test_reference_minors_continue_past_a_zero(self):
        assert reference_minors([[0, 1], [1, 0]]) == [0, -1]
        assert reference_minors([[1, 1, 0], [1, 1, 0], [0, 0, 1]]) == [1, 0, 0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    @example([[0, 1], [1, 0]])
    @example([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    @example([[2, 1], [1, 2]])
    def test_integer_matrices_match_the_oracles(self, matrix):
        n = len(matrix)
        pivots, swaps, rows = fraction_free_elimination(matrix, floordiv)
        minors = reference_minors(matrix)
        assert (-1) ** swaps * pivots[-1] == minors[-1]
        # the pivots are the leading minors up to the first one that
        # vanishes, where a row exchange or a singular stop must follow
        first_zero = next((k for k, m in enumerate(minors) if m == 0), n)
        assert pivots[:first_zero] == minors[:first_zero]
        assert (swaps > 0 or pivots[-1] == 0) == (first_zero < n)
        if minors[-1] != 0:
            assert [row[:k] for k, row in enumerate(rows)] == [[0] * k for k in range(n)]
            assert [row[k] for k, row in enumerate(rows)] == pivots
            assert solved_inverse(unchecked_data(matrix)) == reference_inverse(matrix)
        else:
            with pytest.raises(ZeroDivisionError):
                solve(unchecked_data(matrix), identity_columns(n))

    @pytest.mark.parametrize(
        "system,node_perm",
        [(parse_type("A60"), None), (parse_type("D60"), None), (parse_type("F4"), _NODE_PERMS["EII"])],
        ids=["A60", "D60", "F4-relabelled"],
    )
    def test_elimination_of_one_column_stays_sparse(self, system, node_perm):
        # a tree in node order fills in almost nothing, so the forward pass
        # on [C | b] updates O(r) rows; clearing above the pivots as well
        # would update O(r^2) of them
        data = _relabelled(system, node_perm)
        rank = data.rank
        calls = 0

        def counting_floordiv(a, b):
            nonlocal calls
            calls += 1
            return a // b

        augmented = [[*row, i + 1] for i, row in enumerate(data.cartan)]
        pivots, swaps, _ = fraction_free_elimination(augmented, counting_floordiv)
        assert swaps == 0 and all(p > 0 for p in pivots)
        assert calls <= 3 * rank * (rank + 1)

    @pytest.mark.parametrize(
        "cartan,norms",
        [
            ([[2, -2], [-2, 2]], (2, 2)),  # affine A1: second minor 0
            ([[2, -3], [-3, 2]], (2, 2)),  # indefinite: second minor -5
            ([[2, -2, 0], [-2, 2, -1], [0, -1, 2]], (2, 2, 2)),  # minor 0, then a row exchange
            ([[2, -1], [-1, 2]], (-2, -2)),  # negative norms
        ],
        ids=["affine-A1", "indefinite", "exchange", "negative-norm"],
    )
    def test_cartan_data_refuses_a_non_positive_datum(self, monkeypatch, cartan, norms):
        rank = len(cartan)
        monkeypatch.setattr(
            rootsys,
            "_build",
            lambda system: (cartan, tuple(Fraction(x) for x in norms), (False,) * rank),
        )
        with pytest.raises(AssertionError):
            cartan_data(RootSystemType("A", rank))
