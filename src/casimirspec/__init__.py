"""Exact Laplace-Casimir spectra on compact homogeneous spaces.

The package computes, in exact rational arithmetic, the Casimir
eigenvalues of spherical representations on compact symmetric spaces and
a handful of non-symmetric examples, searches for eigenvalue collisions,
and certifies or refutes the irreducibility of Laplace eigenspaces for
two-parameter and product metric families.
"""

from .exactalg import MultiPoly, ParametricMatrix, UniPoly
from .rootsys import CartanData, RootSystemType, cartan_data, gram_matrix
from .spectrum import (
    CollisionPairs,
    ReflectionWitness,
    enumerate_collisions,
    eigenvalue,
    rank2_catalog,
    reflection_witness,
)
from .symmdata import RestrictedDatum, cross_datum, restricted_datum

__all__ = [
    "CartanData",
    "CollisionPairs",
    "MultiPoly",
    "ParametricMatrix",
    "ReflectionWitness",
    "RestrictedDatum",
    "RootSystemType",
    "UniPoly",
    "cartan_data",
    "cross_datum",
    "enumerate_collisions",
    "eigenvalue",
    "gram_matrix",
    "rank2_catalog",
    "reflection_witness",
    "restricted_datum",
]

__version__ = "0.1.0"
