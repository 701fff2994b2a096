"""Resultant-based irreducibility condition engines on split families.

Given a finite family of spherical representations with parametric
Casimir matrices over shared metric parameters, the three identical-
vanishing conditions are:

(a) for non-isomorphic, non-dual pairs the resultant of the two
    characteristic polynomials is not the zero polynomial (otherwise the
    two representations share an eigenvalue for *every* metric);
(b) for entries of real or complex type the resultant of the
    characteristic polynomial with its first derivative is not the zero
    polynomial (otherwise no metric gives simple eigenvalues);
(c) for entries of real or quaternionic type the resultant with the
    second derivative is not the zero polynomial (otherwise eigenvalue
    multiplicity at least three is forced everywhere, which a
    quaternionic entry cannot tolerate).

Every entry's Casimir matrix is diagonal ("split"), as in both shipped
families, SU(2)/F and the Hopf circle bundles, and each diagonal entry
is an affine form in the parameters with rational coefficients.  A
``SplitFamily`` holds these forms as one table of integer keys over a
common denominator.  The characteristic polynomial prod (t - d_i) lives
in the integral domain Q[params], so a resultant with it vanishes
identically exactly when a factor q(d_i) does: (a) is an equal key in
two entries, (b) a repeated key within one entry (p'(d_j) = prod_{k != j}
(d_j - d_k)), and a metric point groups the keys' values.  One kernel,
``_equal_rows``, groups the rows for all three.  Condition (c) is
decided one root at a time on each entry's matrix, built from its rows.

Every report carries the finite family it was computed on; no claim is
made beyond that truncation.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import lt
from typing import Mapping, Sequence

import numpy as np

from .exactalg import (
    MultiPoly,
    ParametricMatrix,
    Record,
    char_poly,
    derivative,
    rational_to_str,
    resultant_from_roots,
)
from .spectrum import distinct, equal_value_pairs, exact_dtype

TYPE_CLASSES = ("real", "complex", "quaternionic")
REAL, COMPLEX, QUATERNIONIC = range(3)


class SplitFamily:
    """A family of split representations as one table of integer keys.

    Entry i has id ``ids[i]``, type class ``TYPE_CLASSES[types[i]]`` and
    dual entry ``duals[i]``; the ids ascend as strings ("H(10,0)" before
    "H(2,0)"), and the family holds every entry's dual.  Row r is one
    diagonal entry of entry ``entry[r]``: the form (c_0 + c_1 x_1 + ...
    + c_m x_m) / denom in the parameters ``params``, with (c_0, ..., c_m)
    = ``keys[r]``, an ``int64`` or ``object`` row of exact integers.  The
    rows of each entry are contiguous, in entry order.  Indexing,
    slicing and iterating give ``SplitEntry`` views.
    """

    def __init__(self, params, ids, types, duals, entry, keys, denom=1):
        self.params = tuple(params)
        self.ids = list(ids)
        self.types = np.asarray(types, np.int8)
        self.duals = np.asarray(duals, np.intp)
        self.entry = np.asarray(entry, np.intp)
        self.keys = np.asarray(keys)
        self.denom = denom
        own = np.arange(len(self.ids))
        if not len(own):
            raise ValueError("empty family")
        if not all(map(lt, self.ids, self.ids[1:])):
            raise ValueError("entry ids must be distinct and in ascending order")
        if ((self.types < REAL) | (self.types > QUATERNIONIC)).any():
            raise ValueError("unknown type class")
        duals = self.duals
        if ((duals < 0) | (duals >= len(own))).any() or (duals[duals] != own).any():
            raise ValueError("each entry's dual must be in the family, symmetrically")
        if ((self.types == COMPLEX) != (duals != own)).any():
            raise ValueError("complex type must coincide with being non-self-dual")
        counts = np.bincount(self.entry, minlength=len(own))
        if len(counts) > len(own) or not counts.all() or (np.diff(self.entry) < 0).any():
            raise ValueError("rows must cover each entry in one run, in entry order")
        width = (len(self.entry), 1 + len(self.params))
        if self.keys.dtype.kind not in "iO" or self.keys.shape != width or denom < 1:
            raise ValueError("each row needs one integer key per term over a positive denominator")
        self.starts = np.concatenate(([0], np.cumsum(counts)))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        picked = range(len(self.ids))[index]
        if isinstance(picked, range):
            return [SplitEntry(self, i) for i in picked]
        return SplitEntry(self, picked)


class SplitEntry:
    """One entry of a ``SplitFamily``, read off its table."""

    __slots__ = ("id", "type_class", "dual_id", "_family", "_index")

    def __init__(self, family: SplitFamily, index: int):
        self.id = family.ids[index]
        self.type_class = TYPE_CLASSES[family.types[index]]
        self.dual_id = family.ids[family.duals[index]]
        self._family = family
        self._index = index

    @property
    def casimir(self) -> ParametricMatrix:
        """The entry's diagonal Casimir matrix, one ``MultiPoly`` per row."""
        family = self._family
        names = family.params
        terms = [tuple(int(j == i) for j in range(len(names))) for i in range(-1, len(names))]
        rows = family.keys[family.starts[self._index]:family.starts[self._index + 1]]
        return ParametricMatrix([
            MultiPoly(names, {term: Fraction(c, family.denom) for term, c in zip(terms, row)})
            for row in rows.tolist()
        ])


def _equal_rows(family: SplitFamily, weights: Sequence[int]) -> tuple:
    """Row pairs r < s with equal values sum_j keys[., j] weights[j], as two index arrays.

    With T_j the largest |keys[., j]|, every value, partial sum and
    weight is at most sum_j (T_j + 1) |weights[j]|: the values are
    ``int64`` when that is below 2**63 and Python ints otherwise.
    """
    tops = [int(abs(column).max()) for column in family.keys.T]
    dtype = exact_dtype(sum((top + 1) * abs(w) for top, w in zip(tops, weights)))
    keys = family.keys.astype(dtype, copy=False)

    def build():
        values = keys[:, 0] * weights[0]
        for column, weight in zip(keys.T[1:], weights[1:]):
            values += column * weight
        return values

    return equal_value_pairs(build)[:2]


def _equal_forms(family: SplitFamily) -> tuple:
    """Row pairs r < s with equal forms: the keys packed in balanced radix 2 T_j + 1."""
    weights = [1]
    for column in family.keys.T[:0:-1]:
        weights.insert(0, weights[0] * (2 * int(abs(column).max()) + 1))
    return _equal_rows(family, weights)


def _entry_pairs(family: SplitFamily, first, second, exempt_duals: bool) -> list:
    """Sorted distinct id pairs of the entries i < j that row pairs join, rows in entry order."""
    i, j = family.entry[first], family.entry[second]
    keep = (i != j) & ~(exempt_duals & (family.duals[i] == j))
    joined = distinct(i[keep] * len(family) + j[keep])
    first, second = (index.tolist() for index in np.divmod(joined, len(family)))
    return [(family.ids[a], family.ids[b]) for a, b in zip(first, second)]


def condition_a(family: SplitFamily) -> list:
    """Pairs (sorted ids) whose resultant vanishes identically: an equal form.

    Pairs that are isomorphic or dual to each other are exempt: their
    spectra coincide for every metric by symmetry, not by accident.
    """
    return _entry_pairs(family, *_equal_forms(family), exempt_duals=True)


def condition_b(family: SplitFamily) -> list:
    """Real/complex entries whose res(p, p') vanishes identically: a repeated form.

    One-dimensional entries have linear characteristic polynomials and
    never violate it (nothing to separate).
    """
    rows, partners = _equal_forms(family)
    repeated = family.entry[rows][family.entry[rows] == family.entry[partners]]
    repeats = np.flatnonzero(np.bincount(repeated, minlength=len(family)))
    return [family.ids[i] for i in repeats.tolist() if family.types[i] != QUATERNIONIC]


def condition_c(family: SplitFamily) -> list:
    """Real/quaternionic entries whose res(p, p'') vanishes identically.

    Never for dimension at most 2: p'' is then a nonzero constant.  Not a
    repeat test: diag(A, A + B, A - B) has p''(A) = 0 with no repeat.
    res(p, p'') = prod_d p''(d) over the diagonal entries d, in an
    integral domain, so its factors are tested one root at a time and
    never multiplied out.
    """
    tested = (np.diff(family.starts) > 2) & (family.types != COMPLEX)
    violations = []
    for i in np.flatnonzero(tested).tolist():
        matrix = family[i].casimir
        second = derivative(char_poly(matrix))
        if any(resultant_from_roots([d], second).is_zero() for d in matrix.entries):
            violations.append(family.ids[i])
    return violations


class MetricReport(Record):
    """Exact condition verdicts at one positive metric point."""

    mode: str  # "real" (RI) or "complex" (CI)
    point: tuple  # sorted (name, value) pairs
    shared_eigenvalues: tuple  # pairs of ids
    multiplicity_violations: tuple  # (id, offending multiplicity)
    type_violations: tuple  # complex/quaternionic ids (CI mode only)

    @property
    def ok(self) -> bool:
        return not (
            self.shared_eigenvalues
            or self.multiplicity_violations
            or self.type_violations
        )

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "point": {k: rational_to_str(v) for k, v in self.point},
            "shared_eigenvalues": [list(p) for p in self.shared_eigenvalues],
            "multiplicity_violations": [
                list(p) for p in self.multiplicity_violations
            ],
            "type_violations": list(self.type_violations),
            "ok": self.ok,
        }


def evaluate_at_metric(
    family: SplitFamily,
    point: Mapping[str, Fraction],
    mode: str = "real",
) -> MetricReport:
    """Decide the concrete separation conditions at a metric point.

    In real mode: non-isomorphic non-dual pairs must not share an
    eigenvalue; real/complex entries need simple eigenvalues; a
    quaternionic entry needs every eigenvalue at multiplicity exactly
    two.  In complex mode the dual exemption disappears, every entry
    needs simple eigenvalues, and any non-real entry is reported as a
    type violation outright.

    With L the lcm of the point's denominators, each row's value times
    L denom is the integer L c_0 + sum_j (L x_j) c_j, grouped exactly.
    """
    if mode not in ("real", "complex"):
        raise ValueError("mode must be 'real' or 'complex'")
    values = {name: Fraction(point[name]) for name in family.params}
    if any(v <= 0 for v in values.values()):
        raise ValueError("metric parameters must be positive")
    scale = lcm(*(v.denominator for v in values.values()))
    first, second = _equal_rows(family, [scale] + [int(v * scale) for v in values.values()])

    # a row's copies in its own entry: itself and its partners there
    same = family.entry[first] == family.entry[second]
    copies = 1 + np.bincount(first[same], minlength=len(family.entry))
    copies += np.bincount(second[same], minlength=len(copies))
    pairs_only = (family.types == QUATERNIONIC)[family.entry] & (mode == "real")
    bad = np.where(pairs_only, copies != 2, copies > 1)
    worst = np.zeros(len(family), np.intp)
    np.maximum.at(worst, family.entry[bad], copies[bad])

    return MetricReport(
        mode=mode,
        point=tuple(sorted(values.items())),
        shared_eigenvalues=tuple(_entry_pairs(family, first, second, mode == "real")),
        multiplicity_violations=tuple(
            (family.ids[i], int(worst[i])) for i in np.flatnonzero(worst).tolist()
        ),
        type_violations=tuple(
            family.ids[i] for i in np.flatnonzero(family.types != REAL).tolist()
        ) if mode == "complex" else (),
    )
