"""Pair records rebuilt from a ``CollisionPairs``, for oracles and pair-by-pair tests.

The scans return arrays only.  The records here hold the same fields the
reference loops build, one Python value each, so a scan compares equal to
its oracle as a list.
"""

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class CollisionReport:
    """A pair of distinct dominant weights with exactly equal eigenvalue."""

    weight_a: tuple
    weight_b: tuple
    eigenvalue: Fraction
    dual_related: bool


@dataclass(frozen=True)
class CollisionWitness:
    """Two index arrays whose weighted eigenvalues agree at a given beta."""

    array_a: tuple
    array_b: tuple
    value: Fraction


def records(pairs, record=lambda *fields: fields) -> list:
    """``record(row_a, row_b, value[, dual])`` for each pair, in the pairs' order.

    Rows become tuples of ints and values Fractions; the dual flag is
    passed only when the scan has one.  The default record is the plain
    tuple of those fields.
    """
    rows_a = map(tuple, pairs.rows[pairs.first].tolist())
    rows_b = map(tuple, pairs.rows[pairs.second].tolist())
    values = (Fraction(v, pairs.denom) for v in pairs.values[pairs.first].tolist())
    flags = () if pairs.dual is None else (pairs.dual.tolist(),)
    return list(map(record, rows_a, rows_b, values, *flags))


def reports(pairs) -> list:
    """The ``CollisionReport`` of each pair of ``spectrum.enumerate_collisions``."""
    return records(pairs, CollisionReport)


def witnesses(pairs) -> list:
    """The ``CollisionWitness`` of each pair of ``products.check_beta``."""
    return records(pairs, CollisionWitness)
