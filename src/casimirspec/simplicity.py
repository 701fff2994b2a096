"""Resultant-based irreducibility condition engines.

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
families, SU(2)/F and the Hopf circle bundles: a ``ParametricMatrix``
holds only its diagonal entries d_i.  Its characteristic polynomial is
prod (t - d_i) over the integral domain Q[params], so a resultant with
it vanishes identically exactly when a factor q(d_i) does: the
conditions read off the diagonal entries, grouped as polynomials for
(a), as a repeat among them for (b) (p'(d_j) = prod_{k != j} (d_j - d_k)),
one root at a time for (c), and grouped by value at a metric point.

Every report carries the finite family it was computed on; no claim is
made beyond that truncation.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .exactalg import (
    ParametricMatrix,
    char_poly,
    derivative,
    rational_to_str,
    resultant_from_roots,
)

TYPE_CLASSES = ("real", "complex", "quaternionic")


@dataclass(frozen=True)
class RepresentationEntry:
    """One spherical representation with its diagonal parametric Casimir matrix."""

    id: str
    type_class: str
    dual_id: str
    casimir: ParametricMatrix

    def __post_init__(self):
        if self.type_class not in TYPE_CLASSES:
            raise ValueError(f"unknown type class {self.type_class!r}")
        if (self.type_class == "complex") != (self.dual_id != self.id):
            raise ValueError(
                "complex type must coincide with being non-self-dual"
            )


def validate_family(family: Sequence[RepresentationEntry]):
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


def _resultant_vanishes(entry: RepresentationEntry, q) -> bool:
    """Does res(p, q) vanish identically, p the entry's characteristic polynomial?

    res(p, q) = prod_d q(d) over the diagonal entries d, in an integral
    domain, so its factors are tested one root at a time and never
    multiplied out.
    """
    return any(
        resultant_from_roots([d], q).is_zero() for d in entry.casimir.entries
    )


def condition_a(family: Sequence[RepresentationEntry]) -> list:
    """Pairs (sorted ids) whose resultant vanishes identically.

    Pairs that are isomorphic or dual to each other are exempt: their
    spectra coincide for every metric by symmetry, not by accident.
    """
    validate_family(family)
    ordered = sorted(family, key=lambda e: e.id)
    meets, _ = _spectra_by_value(ordered)
    return [
        (ordered[i].id, ordered[j].id)
        for i, j in sorted(meets)
        if ordered[i].dual_id != ordered[j].id
    ]


def _violations(family: Sequence[RepresentationEntry], exempt: str, vanishes) -> list:
    """Sorted ids of the entries not of type `exempt` for which `vanishes` holds."""
    validate_family(family)
    ordered = sorted(family, key=lambda e: e.id)
    return [e.id for e in ordered if e.type_class != exempt and vanishes(e)]


def _second_derivative_vanishes(entry: RepresentationEntry) -> bool:
    """Does res(p, p'') vanish identically?

    Never for dimension at most 2: p'' is then a nonzero constant and
    cannot share a root with p.
    """
    if entry.casimir.dimension <= 2:
        return False
    return _resultant_vanishes(entry, derivative(char_poly(entry.casimir)))


def _repeated_root(entry: RepresentationEntry) -> bool:
    """Does res(p, p') vanish identically, so p has a repeated root at every metric?

    p'(d_j) = prod_{k != j} (d_j - d_k) in the integral domain Q[params], so
    this is a repeat among the entry's diagonal entries.
    """
    diagonal = entry.casimir.entries
    return len(set(diagonal)) < len(diagonal)


def condition_b(family: Sequence[RepresentationEntry]) -> list:
    """Real/complex entries whose res(p, p') vanishes identically.

    One-dimensional entries have linear characteristic polynomials and
    never violate it (nothing to separate).
    """
    return _violations(family, "quaternionic", _repeated_root)


def condition_c(family: Sequence[RepresentationEntry]) -> list:
    """Real/quaternionic entries whose res(p, p'') vanishes identically.

    Not a repeat test: diag(A, A + B, A - B) has p''(A) = 0 with no
    repeat, so each root is tested in one factor.
    """
    return _violations(family, "complex", _second_derivative_vanishes)


@dataclass(frozen=True)
class MetricReport:
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


def _spectra_by_value(ordered: Sequence[RepresentationEntry], values=None) -> tuple:
    """Shared eigenvalues and multiplicity profiles of the entries.

    One grouping of the diagonal entries, as polynomials or by exact value
    at `values`: entries i < j share an eigenvalue when a group holds both,
    and entry i's profile {multiplicity: count} counts its copies per group.
    Returns (set of index pairs (i, j), {index: profile}).
    """
    holders = defaultdict(list)  # value -> entry index, once per copy
    for i, entry in enumerate(ordered):
        for d in entry.casimir.entries:
            holders[d if values is None else d.evaluate(values)].append(i)
    meets, profiles = set(), defaultdict(Counter)
    for group in holders.values():
        copies = Counter(group)  # ascending entry index, as inserted
        meets.update(combinations(copies, 2))
        for i, m in copies.items():
            profiles[i][m] += 1
    return meets, dict(profiles)


def evaluate_at_metric(
    family: Sequence[RepresentationEntry],
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
    """
    if mode not in ("real", "complex"):
        raise ValueError("mode must be 'real' or 'complex'")
    validate_family(family)
    params = family[0].casimir.variables
    values = {name: Fraction(point[name]) for name in params}
    if any(v <= 0 for v in values.values()):
        raise ValueError("metric parameters must be positive")

    ordered = sorted(family, key=lambda e: e.id)
    meets, profiles = _spectra_by_value(ordered, values)

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
