"""Exact pullback dynamics of simple closed curves under quadratic
Thurston maps with four postcritical points.

``spectra`` loads on first use: ``curvepull.spectra`` and its five names
here are looked up on each access (PEP 562), so importing the package
and building a ``PullbackSystem`` does not compile it.
"""

import importlib

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

_SPECTRA = frozenset(
    {"AbelianVirtualEndo", "RationalMatrix", "contraction_coefficient_estimate", "is_contracting", "leading_eigenvalue"}
)


def __getattr__(name: str):
    # Not copied here: a copy in this namespace would keep whatever
    # spectra held at first access, even after spectra rebinds the name.
    if name == "spectra" or name in _SPECTRA:
        # not ``from . import spectra``, which asks this hook for "spectra" first
        spectra = importlib.import_module(".spectra", __name__)
        return spectra if name == "spectra" else getattr(spectra, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
