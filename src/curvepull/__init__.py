"""Exact pullback dynamics of simple closed curves under quadratic
Thurston maps with four postcritical points."""

from .curves import (
    Curve,
    EntersCycle,
    EventuallyTrivial,
    OrbitResult,
    PullbackError,
    PullbackStep,
    PullbackSystem,
    Unresolved,
)
from .endo import DomainError, ParityHom, VirtualEndo
from .mapdef import MapDefError, MapDefinition, builtin, load_map, parse_mapdef
from .spectra import (
    AbelianVirtualEndo,
    RationalMatrix,
    contraction_coefficient_estimate,
    is_contracting,
    leading_eigenvalue,
)
from .words import CyclicWord, Word, cyclic_reduce, primitive_root

__all__ = [
    "AbelianVirtualEndo",
    "Curve",
    "CyclicWord",
    "DomainError",
    "EntersCycle",
    "EventuallyTrivial",
    "MapDefError",
    "MapDefinition",
    "OrbitResult",
    "ParityHom",
    "PullbackError",
    "PullbackStep",
    "PullbackSystem",
    "RationalMatrix",
    "Unresolved",
    "VirtualEndo",
    "Word",
    "builtin",
    "contraction_coefficient_estimate",
    "cyclic_reduce",
    "is_contracting",
    "leading_eigenvalue",
    "load_map",
    "parse_mapdef",
    "primitive_root",
]
