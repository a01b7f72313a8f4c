"""Hydrogen-like level structure, stability, and accelerated-frame contrast
for a two-body Coulomb system whose inertial and gravitational masses differ.
"""

from .constants import AtomicUnitScale, PhysicalConstants, atomic_scale, codata_defaults
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
    AcceleratedHamiltonian,
    FrameCheckResult,
    FrameDiscrepancy,
    FrameTrajectory,
    PhaseField,
    accelerated_hamiltonian,
    frame_discrepancy,
    frame_equivalence_check,
    phase_field,
    transform_wavefunction,
)
from .ionization import (
    LifetimeComparison,
    ResonanceEstimate,
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
    ManifoldMatrix,
    RadialGrid,
    ScanPoint,
    SphericalState,
    degenerate_pt,
    dipole_matrix_element,
    manifold_matrix,
    radial_eigensolve,
    stabilization_scan,
)
from .parabolic import (
    ParabolicLevel,
    SplittingTable,
    Sublevel,
    enumerate_levels,
    evaluate_levels,
    first_order_shift,
    splitting_table,
    unperturbed_energy,
)
from .separation import (
    FieldSpec,
    SeparatedHamiltonian,
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
