"""The per-entry polynomial condition engines, kept as the oracle of the key table.

Each representation here is a ``RefEntry`` holding a ``ParametricMatrix``
of ``MultiPoly`` forms, and every condition is decided object by object:
forms are grouped as polynomials for (a), compared for a repeat for (b),
and evaluated as ``Fraction``s and grouped by value at a metric point.
``hopf_entries`` and ``su2f_entries`` build the shipped families the same
way, one ``MultiPoly`` per diagonal entry, straight from
``hopf_eigenvalue`` and ``fixed_space``.  ``split_family`` turns a list of
entries into the library's ``SplitFamily``, so a planted family can be fed
to both sides.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Mapping, Sequence

import numpy as np

from polyref import poly_at

from casimirspec.bundles import METRIC_PARAMS as HOPF_PARAMS, hopf_eigenvalue
from casimirspec.exactalg import (
    MultiPoly,
    ParametricMatrix,
    char_poly,
    derivative,
    resultant_from_roots,
)
from casimirspec.simplicity import TYPE_CLASSES, MetricReport, SplitFamily
from casimirspec.su2f import METRIC_PARAMS as SU2F_PARAMS, fixed_space


@dataclass(frozen=True)
class RefEntry:
    """One spherical representation with its diagonal parametric Casimir matrix."""

    id: str
    type_class: str
    dual_id: str
    casimir: ParametricMatrix

    def __post_init__(self):
        if self.type_class not in TYPE_CLASSES:
            raise ValueError(f"unknown type class {self.type_class!r}")
        if (self.type_class == "complex") != (self.dual_id != self.id):
            raise ValueError("complex type must coincide with being non-self-dual")


def validate_family(family: Sequence[RefEntry]) -> dict:
    """Shared parameters, unique ids, and a symmetric dual relation."""
    if not family:
        raise ValueError("empty family")
    by_id = {}
    for entry in family:
        if entry.id in by_id:
            raise ValueError(f"duplicate id {entry.id!r}")
        by_id[entry.id] = entry
    params = family[0].casimir.variables
    for entry in family:
        if entry.casimir.variables != params:
            raise ValueError("entries must share one parameter list")
        partner = by_id.get(entry.dual_id)
        if partner is not None and partner.dual_id != entry.id:
            raise ValueError(f"dual relation is not symmetric at {entry.id!r}")
    return by_id


def spectra_by_value(ordered: Sequence, values=None) -> tuple:
    """Shared eigenvalues and multiplicity profiles of the entries.

    One grouping of the diagonal entries, as polynomials or by exact value
    at ``values``: entries i < j share an eigenvalue when a group holds
    both, and entry i's profile {multiplicity: count} counts its copies
    per group.  Returns (set of index pairs (i, j), {index: profile}).
    """
    holders = defaultdict(list)  # value -> entry index, once per copy
    for i, entry in enumerate(ordered):
        for d in entry.casimir.entries:
            holders[d if values is None else poly_at(d, values)].append(i)
    meets, profiles = set(), defaultdict(Counter)
    for group in holders.values():
        copies = Counter(group)  # ascending entry index, as inserted
        meets.update(combinations(copies, 2))
        for i, m in copies.items():
            profiles[i][m] += 1
    return meets, dict(profiles)


def condition_a(family: Sequence) -> list:
    validate_family(family)
    ordered = sorted(family, key=lambda e: e.id)
    meets, _ = spectra_by_value(ordered)
    return [
        (ordered[i].id, ordered[j].id)
        for i, j in sorted(meets)
        if ordered[i].dual_id != ordered[j].id
    ]


def _violations(family: Sequence, exempt: str, vanishes) -> list:
    validate_family(family)
    ordered = sorted(family, key=lambda e: e.id)
    return [e.id for e in ordered if e.type_class != exempt and vanishes(e)]


def _repeated_root(entry) -> bool:
    diagonal = entry.casimir.entries
    return len(set(diagonal)) < len(diagonal)


def _second_derivative_vanishes(entry) -> bool:
    if len(entry.casimir.entries) <= 2:
        return False
    q = derivative(char_poly(entry.casimir))
    return any(resultant_from_roots([d], q).is_zero() for d in entry.casimir.entries)


def condition_b(family: Sequence) -> list:
    return _violations(family, "quaternionic", _repeated_root)


def condition_c(family: Sequence) -> list:
    return _violations(family, "complex", _second_derivative_vanishes)


def evaluate_at_metric(family: Sequence, point: Mapping, mode: str = "real") -> MetricReport:
    if mode not in ("real", "complex"):
        raise ValueError("mode must be 'real' or 'complex'")
    validate_family(family)
    params = family[0].casimir.variables
    values = {name: Fraction(point[name]) for name in params}
    if any(v <= 0 for v in values.values()):
        raise ValueError("metric parameters must be positive")
    ordered = sorted(family, key=lambda e: e.id)
    meets, profiles = spectra_by_value(ordered, values)
    shared = [
        (ordered[i].id, ordered[j].id)
        for i, j in sorted(meets)
        if mode == "complex" or ordered[i].dual_id != ordered[j].id
    ]
    multiplicity = []
    for i, entry in enumerate(ordered):
        if mode == "complex" or entry.type_class in ("real", "complex"):
            bad = sorted(m for m in profiles[i] if m > 1)
        else:  # quaternionic: exactly two everywhere
            bad = sorted(m for m in profiles[i] if m != 2)
        if bad:
            multiplicity.append((entry.id, bad[-1]))
    types = []
    if mode == "complex":
        types = [e.id for e in ordered if e.type_class != "real"]
    return MetricReport(
        mode=mode,
        point=tuple(sorted(values.items())),
        shared_eigenvalues=tuple(shared),
        multiplicity_violations=tuple(multiplicity),
        type_violations=tuple(types),
    )


def hopf_entries(n: int, max_degree: int) -> list:
    """The Hopf family p + q <= max_degree, one ``MultiPoly`` per weight."""
    entries = []
    for p in range(max_degree + 1):
        for q in range(max_degree + 1 - p):
            alpha, freudenthal = hopf_eigenvalue(n, p, q)
            form = MultiPoly(HOPF_PARAMS, {(1, 0): alpha, (0, 1): freudenthal - alpha})
            entries.append(RefEntry(
                f"H({p},{q})", "real" if p == q else "complex", f"H({q},{p})",
                ParametricMatrix([form]),
            ))
    return entries


def su2f_entries(kmax: int) -> list:
    """The V_k with invariants, k <= kmax: the form of each gap d, in descending d."""
    entries = []
    for k in range(0, kmax + 1, 2):
        gaps = fixed_space(k)
        if gaps:
            diagonal = [
                MultiPoly(SU2F_PARAMS, {
                    (1, 0): Fraction(-d * d, 8), (0, 1): Fraction(k * (k + 2) + d * d, 8)
                })
                for d in reversed(gaps)
            ]
            entries.append(RefEntry(f"V{k}", "real", f"V{k}", ParametricMatrix(diagonal)))
    return entries


def affine_key(form: MultiPoly) -> list:
    """The coefficients of an affine form on 1 and on each parameter; ValueError otherwise."""
    width = len(form.variables)
    units = [(0,) * width] + [tuple(int(i == j) for j in range(width)) for i in range(width)]
    if set(form.terms) - set(units):
        raise ValueError(f"{form} is not affine")
    return [form.terms.get(unit, Fraction(0)) for unit in units]


def split_family(entries: Sequence) -> SplitFamily:
    """A list of entries as the library's key table, over one common denominator.

    A dual missing from the list is index -1, which the table refuses.
    """
    ordered = sorted(entries, key=lambda e: e.id)
    index = {e.id: i for i, e in enumerate(ordered)}
    rows = [(i, affine_key(d)) for i, e in enumerate(ordered) for d in e.casimir.entries]
    denom = lcm(*(c.denominator for _, key in rows for c in key))
    return SplitFamily(
        ordered[0].casimir.variables,
        [e.id for e in ordered],
        [TYPE_CLASSES.index(e.type_class) for e in ordered],
        [index.get(e.dual_id, -1) for e in ordered],
        [i for i, _ in rows],
        np.array([[int(c * denom) for c in key] for _, key in rows], object),
        denom,
    )
