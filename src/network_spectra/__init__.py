"""Spectral data of biperiodic resistor networks on the torus."""

from .graph_core import Edge, TorusGraph, find_isomorphism, unit_conductances
from .laurent import LaurentPoly2, NewtonPolygon

__all__ = [
    "Edge",
    "TorusGraph",
    "LaurentPoly2",
    "NewtonPolygon",
    "find_isomorphism",
    "unit_conductances",
]

__version__ = "0.1.0"
