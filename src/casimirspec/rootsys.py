"""Cartan data for the (restricted) root system types A, B, C, D, BC, E, F, G.

Each type carries an integer Cartan matrix, exact square norms of the
simple roots, and per-node flags marking doubled restricted roots (type
BC).  The Cartan convention is

    cartan[i][j] = 2 (beta_i, beta_j) / (beta_j, beta_j),

so norm-weighted symmetry ``cartan[i][j] * norms[j] == cartan[j][i] *
norms[i]`` holds, and the Gram matrix of the dual basis defined by
``(M_i, beta_j) = delta_ij (beta_j, beta_j)`` is

    G = 2 * cartan^{-1} * diag(norms).

No inverse is stored: G w is one ``solve``, a forward elimination of [C | b].

Norms are normalized per type so that the rank-two Gram matrices come out
as [[2,2],[2,4]] for B2 and [[4,2],[2,2]] for C2; other types use square
norm 2 for short roots.  Eigenvalue collision structure is invariant
under global rescaling, so only determinism is at stake in this choice.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress, count
from math import lcm
from operator import floordiv

from .exactalg import Record, fraction_free_elimination

FAMILIES = ("A", "B", "C", "D", "BC", "E6", "E7", "E8", "F4", "G2")

_FIXED_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}


class RootSystemType(Record):
    """A root system family together with its rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        fixed = _FIXED_RANK.get(self.family)
        if fixed is not None and self.rank != fixed:
            raise ValueError(f"{self.family} has rank {fixed}, got {self.rank}")
        if self.family == "B" and self.rank < 2:
            raise ValueError("type B needs rank >= 2 (use A1 for rank one)")
        if self.family == "C" and self.rank < 2:
            raise ValueError("type C needs rank >= 2 (use A1 for rank one)")
        if self.family == "D" and self.rank < 2:
            raise ValueError("type D needs rank >= 2")

    def __str__(self) -> str:
        if self.family in _FIXED_RANK:
            return self.family
        return f"{self.family}{self.rank}"


def parse_type(text: str) -> RootSystemType:
    """Parse labels like ``A3``, ``BC2``, ``E7``."""
    match = re.fullmatch(r"(BC|[ABCD]|E[678]|F4|G2)(\d*)", text.strip())
    if not match:
        raise ValueError(f"cannot parse root system type {text!r}")
    family, rank = match.group(1), match.group(2)
    if family in _FIXED_RANK:
        return RootSystemType(family, _FIXED_RANK[family])
    if not rank:
        raise ValueError(f"type {family} needs an explicit rank")
    return RootSystemType(family, int(rank))


class CartanData(Record):
    """Cartan matrix, simple-root norms, and doubled-root flags."""

    system: RootSystemType
    cartan: tuple
    norms: tuple
    doubled: tuple

    @property
    def rank(self) -> int:
        return self.system.rank


def _chain_cartan(rank: int, edges) -> list:
    """Cartan matrix from an explicit edge list (i, j, cij, cji)."""
    c = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        c[i][i] = 2
    for i, j, cij, cji in edges:
        c[i][j] = cij
        c[j][i] = cji
    return c


def _path_cartan(rank: int) -> list:
    return _chain_cartan(rank, [(i, i + 1, -1, -1) for i in range(rank - 1)])


def _build(system: RootSystemType):
    family, rank = system.family, system.rank
    two = Fraction(2)
    if family == "A":
        return _path_cartan(rank), (two,) * rank, (False,) * rank
    if family == "B":
        if rank == 2:
            # node order chosen so the Gram matrix is [[2,2],[2,4]]
            return [[2, -1], [-2, 2]], (Fraction(1), two), (False, False)
        c = _path_cartan(rank)
        c[rank - 2][rank - 1] = -2
        c[rank - 1][rank - 2] = -1
        return c, (two,) * (rank - 1) + (Fraction(1),), (False,) * rank
    if family in ("C", "BC"):
        doubled = (False,) * rank if family == "C" else (False,) * (rank - 1) + (True,)
        if rank == 1:
            return [[2]], (Fraction(4),), doubled
        if rank == 2:
            # node order chosen so the Gram matrix is [[4,2],[2,2]]
            return [[2, -2], [-1, 2]], (two, Fraction(1)), doubled
        c = _path_cartan(rank)
        c[rank - 2][rank - 1] = -1
        c[rank - 1][rank - 2] = -2
        return c, (two,) * (rank - 1) + (Fraction(4),), doubled
    if family == "D":
        edges = [(i, i + 1, -1, -1) for i in range(rank - 3)]
        if rank >= 3:
            edges += [(rank - 3, leaf, -1, -1) for leaf in (rank - 2, rank - 1)]
        return _chain_cartan(rank, edges), (two,) * rank, (False,) * rank
    if family in ("E6", "E7", "E8"):
        # Bourbaki numbering: chain 1-3-4-5-...-rank with node 2 on node 4
        edges = [(0, 2, -1, -1), (1, 3, -1, -1)]
        for i in range(2, rank - 1):
            edges.append((i, i + 1, -1, -1))
        return _chain_cartan(rank, edges), (two,) * rank, (False,) * rank
    if family == "F4":
        c = _chain_cartan(4, [(0, 1, -1, -1), (1, 2, -2, -1), (2, 3, -1, -1)])
        return c, (two, two, Fraction(1), Fraction(1)), (False,) * 4
    if family == "G2":
        return [[2, -1], [-3, 2]], (two, Fraction(6)), (False, False)
    raise ValueError(f"unsupported family {family}")


def cartan_data(system: RootSystemType) -> CartanData:
    """Cartan data for a root system type, validated against the invariants.

    One forward fraction-free elimination of C gives the definiteness
    certificate.  It needs no row exchange exactly when every leading
    principal minor of C is nonzero, and its pivots are then those
    minors.  Every pivot must be positive.

    That also certifies the Gram matrix G = 2 C^{-1} N of ``gram_matrix``,
    N = diag(norms), so no elimination runs on G.  G^{-1} = N^{-1} C / 2,
    so N G^{-1} N = C N / 2 is congruent to G^{-1}.  Norm-weighted
    symmetry makes C N symmetric (checked where C_ij or C_ji is nonzero).
    The k-th leading minor of C N is that of C times the positive product
    of the first k norms.  So, by Sylvester's criterion, C N, hence G^{-1}
    and G, is positive definite exactly when every leading minor of C is
    positive.  Relabelling the nodes (``symmdata._permuted``) conjugates
    C, N and G by one permutation matrix, which keeps G positive definite.
    """
    cartan, norms, doubled = _build(system)
    if any(x <= 0 for x in norms):
        raise AssertionError("simple-root norms must be positive")
    for i, row in enumerate(cartan):
        if row[i] != 2:
            raise AssertionError("diagonal Cartan entry must be 2")
        for j in compress(count(), row):
            if i != j and row[j] not in (-1, -2, -3):
                raise AssertionError("off-diagonal Cartan entry out of range")
            if row[j] * norms[j] != cartan[j][i] * norms[i]:
                raise AssertionError("norm-weighted symmetry violated")
    pivots, swaps, _ = fraction_free_elimination(cartan, floordiv)
    if swaps or any(p <= 0 for p in pivots):
        raise AssertionError("Cartan matrix needs positive leading principal minors")
    return CartanData(system, tuple(tuple(row) for row in cartan), tuple(norms), tuple(doubled))


def solve(data: CartanData, columns) -> tuple:
    """The solutions x of C x = b, one tuple of Fractions per column b.

    One forward elimination of [C | L b ...], L the lcm of b's denominators:
    z = det(C) L x is integral (Cramer), so pivot row k gives z_k exactly
    from its nonzeros right of k.  A singular C raises ZeroDivisionError.
    """
    n = data.rank
    scales = [lcm(*(x.denominator for x in column)) for column in columns]
    augmented = (  # a generator: the elimination's copy is the one dense copy
        [*row, *((column[i] * scale).numerator for column, scale in zip(columns, scales))]
        for i, row in enumerate(data.cartan)
    )
    pivots, _, rows = fraction_free_elimination(augmented, floordiv)
    det = pivots[-1]
    z = [[0] * n for _ in columns]
    for k, row in zip(range(n - 1, -1, -1), reversed(rows)):
        nonzero = list(compress(range(k + 1, n), row[k + 1:n]))
        for c, zc in enumerate(z, n):
            zc[k] = (det * row[c] - sum(row[j] * zc[j] for j in nonzero)) // row[k]
    return tuple(tuple(Fraction(x, det * scale) for x in zc) for zc, scale in zip(z, scales))


def gram_matrix(data: CartanData) -> tuple:
    """Gram matrix of the dual weight basis: G = 2 * cartan^{-1} * diag(norms).

    Symmetric and positive definite; G[i][j] = (M_i, M_j) for the basis
    with (M_i, beta_j) = delta_ij (beta_j, beta_j).  One ``solve``.
    """
    n = data.rank
    columns = [[2 * norm * (i == j) for i in range(n)] for j, norm in enumerate(data.norms)]
    gram = solve(data, columns)
    if gram != tuple(zip(*gram)):
        raise AssertionError("Gram matrix is not symmetric")
    return gram
