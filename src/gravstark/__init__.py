"""Hydrogen-like level structure, stability, and accelerated-frame contrast
for a two-body Coulomb system whose inertial and gravitational masses differ.
"""

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
    QuadratureError,
    ResourceLimitError,
    StabilityBoundError,
    StableAtomSignal,
    UndefinedRatioError,
    UnrepresentableError,
)
from .frames import (
    FrameTrajectory,
    frame_discrepancy,
    frame_equivalence_check,
    transform_wavefunction,
)
from .ionization import (
    closed_form_lifetime,
    compare_lifetimes,
    wkb_rate,
)
from .masses import (
    CompositeMasses,
    MassModel,
    codata_model,
    derive_composites,
    equivalence_holds,
    model_with_asymmetry,
)
from .oracle import (
    degenerate_pt,
    manifold_matrix,
    radial_eigensolve,
    stabilization_scan,
)
from .parabolic import (
    ParabolicLevel,
    enumerate_levels,
    evaluate_levels,
    first_order_shift,
    splitting_table,
    unperturbed_energy,
)
from .separation import (
    FieldSpec,
    separate_gravitational,
    verify_separability,
)
from .wavepacket import (
    PropagationSpec,
    Wavefunction1D,
    fidelity,
    gaussian_packet,
    mean_momentum,
    propagate,
)

__version__ = "0.1.0"
