"""Hydrogen-like level structure, stability, and accelerated-frame contrast
for a two-body Coulomb system whose inertial and gravitational masses differ.

The closed forms import no numpy.  The numerical routes of ``frames``,
``oracle`` and ``wavepacket`` are re-exported lazily: their module, and
numpy with it, loads on first access to one of their names.
"""

import importlib
import types

from .constants import PhysicalConstants, atomic_scale, codata_defaults
from .errors import (
    BoundaryEscapeError,
    DomainEscapeError,
    EigensolverError,
    EmptyWindowError,
    GravstarkError,
    GridResolutionError,
    NoBarrierError,
    PropagationError,
    StabilityBoundError,
    UndefinedRatioError,
    UnrepresentableError,
)
from .ionization import compare_lifetimes
from .masses import (
    CompositeMasses,
    MassModel,
    derive_composites,
    model_with_asymmetry,
)
from .parabolic import (
    ParabolicLevel,
    degenerate_pt,
    evaluate_levels,
    splitting_table,
)
from .separation import (
    FieldSpec,
    frame_discrepancy,
    separate_gravitational,
)

_LAZY = {
    "frames": ("frame_equivalence_check",),
    "oracle": ("radial_eigensolve", "stabilization_scan"),
    "wavepacket": ("Wavefunction1D", "fidelity", "gaussian_packet", "propagate"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
] + list(_LAZY_MODULE)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
