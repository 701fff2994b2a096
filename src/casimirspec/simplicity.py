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

At a concrete positive metric point the same conditions are decided
exactly through gcds of rational-coefficient polynomials: a common
eigenvalue is a non-constant gcd of the two evaluated characteristic
polynomials, eigenvalue multiplicity is read off gcd(p, p').

Every report carries the finite family it was computed on; no claim is
made beyond that truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .exactalg import (
    ParametricMatrix,
    UniPoly,
    char_poly,
    derivative,
    rational_to_str,
    resultant,
    resultant_from_roots,
)

TYPE_CLASSES = ("real", "complex", "quaternionic")


@dataclass(frozen=True)
class RepresentationEntry:
    """One spherical representation with its parametric Casimir matrix."""

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


def _char(entry: RepresentationEntry) -> UniPoly:
    return char_poly(entry.casimir)


def _entry_resultant(entry: RepresentationEntry, q: UniPoly):
    """Resultant of the entry's characteristic polynomial with q.

    Diagonal Casimir matrices split into linear factors, so the
    root-product form of the same determinant is used there; the dense
    Sylvester determinant covers the general case.
    """
    if entry.casimir.is_diagonal():
        return resultant_from_roots(entry.casimir.diagonal_entries(), q)
    return resultant(_char(entry), q)


def condition_a(family: Sequence[RepresentationEntry]) -> list:
    """Pairs (sorted ids) whose resultant vanishes identically.

    Pairs that are isomorphic or dual to each other are exempt: their
    spectra coincide for every metric by symmetry, not by accident.
    """
    validate_family(family)
    ordered = sorted(family, key=lambda e: e.id)
    chars = [_char(entry) for entry in ordered]
    violations = []
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            v, w = ordered[i], ordered[j]
            if v.id == w.id or v.dual_id == w.id:
                continue
            if _entry_resultant(v, chars[j]).is_zero():
                violations.append((v.id, w.id))
    return violations


def condition_b(family: Sequence[RepresentationEntry]) -> list:
    """Real/complex entries whose res(p, p') vanishes identically.

    One-dimensional entries have linear characteristic polynomials and
    are exempt (nothing to separate).
    """
    validate_family(family)
    violations = []
    for entry in sorted(family, key=lambda e: e.id):
        if entry.type_class == "quaternionic":
            continue
        if entry.casimir.dimension < 2:
            continue
        p = _char(entry)
        if _entry_resultant(entry, derivative(p, 1)).is_zero():
            violations.append(entry.id)
    return violations


def condition_c(family: Sequence[RepresentationEntry]) -> list:
    """Real/quaternionic entries whose res(p, p'') vanishes identically."""
    validate_family(family)
    violations = []
    for entry in sorted(family, key=lambda e: e.id):
        if entry.type_class == "complex":
            continue
        if entry.casimir.dimension < 3:
            continue  # p'' is a nonzero constant: no triple eigenvalue
        p = _char(entry)
        if _entry_resultant(entry, derivative(p, 2)).is_zero():
            violations.append(entry.id)
    return violations


# -- exact rational-coefficient polynomial helpers -----------------------


def poly_normalize(coeffs: Sequence[Fraction]) -> list:
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_divmod(num: Sequence[Fraction], den: Sequence[Fraction]) -> tuple:
    num = poly_normalize(num)
    den = poly_normalize(den)
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    quotient = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    rest = num[:]
    while len(rest) >= len(den):
        factor = rest[-1] / den[-1]
        shift = len(rest) - len(den)
        quotient[shift] = factor
        for i, c in enumerate(den):
            rest[shift + i] -= factor * c
        rest = poly_normalize(rest)
        if not rest:
            break
    return quotient, rest


def poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list:
    """Monic gcd over the rationals."""
    a, b = poly_normalize(a), poly_normalize(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def poly_derivative(coeffs: Sequence[Fraction]) -> list:
    return poly_normalize([i * c for i, c in enumerate(coeffs)][1:])


def shared_root(p: Sequence[Fraction], q: Sequence[Fraction]) -> bool:
    """Do two rational polynomials share a complex root (gcd test)?"""
    return len(poly_gcd(p, q)) > 1


def multiplicity_profile(coeffs: Sequence[Fraction]) -> dict:
    """Histogram {multiplicity: count of roots} via repeated gcds.

    Works over the complex roots without computing any root: the gcd
    with the derivative strips one copy of every repeated root, so
    degree drops identify how many roots live at each multiplicity.
    """
    current = poly_normalize(coeffs)
    if len(current) <= 1:
        return {}
    degrees = [len(current) - 1]
    while True:
        current = poly_gcd(current, poly_derivative(current))
        degrees.append(len(current) - 1 if current else 0)
        if degrees[-1] == 0:
            break
    # degrees[m] = number of distinct roots with multiplicity > m
    profile = {}
    for m in range(1, len(degrees)):
        count = (degrees[m - 1] - degrees[m]) - (
            (degrees[m] - degrees[m + 1]) if m + 1 < len(degrees) else 0
        )
        if count:
            profile[m] = count
    return profile


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

    evaluated = {
        entry.id: poly_normalize(_char(entry).evaluate_params(values))
        for entry in family
    }
    ordered = sorted(family, key=lambda e: e.id)

    shared = []
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            v, w = ordered[i], ordered[j]
            if mode == "real" and v.dual_id == w.id:
                continue
            if shared_root(evaluated[v.id], evaluated[w.id]):
                shared.append((v.id, w.id))

    multiplicity = []
    for entry in ordered:
        profile = multiplicity_profile(evaluated[entry.id])
        if mode == "complex" or entry.type_class in ("real", "complex"):
            bad = sorted(m for m in profile if m > 1)
        else:  # quaternionic: exactly two everywhere
            bad = sorted(m for m in profile if m != 2)
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
