"""Center-of-mass / internal split of the two-body problem in a uniform field.

For a two-particle Coulomb system with independent inertial and gravitational
masses in a uniform field g, the coordinate change R = (m_e x + m_p y)/M,
r = x - y separates the Hamiltonian exactly into

    CM:       -(hbar^2/2M) d^2/dR^2 + Mbar g . R
    internal: -(hbar^2/2mu) d^2/dr^2 + V(r) - A g . r

where A is the mass asymmetry.  ``separate_gravitational`` returns the
coefficients; ``verify_separability`` checks the operator identity on a dense
1D two-particle surrogate.  A uniformly accelerated frame couples to the
centre of mass alone, with gravitational masses equal to the inertial ones;
``frame_discrepancy`` reports how a real field of the same magnitude differs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .constants import atomic_scale, codata_defaults
from .errors import UndefinedRatioError, representable
from .masses import MassModel, derive_composites

__all__ = [
    "FieldSpec",
    "SeparatedHamiltonian",
    "FrameDiscrepancy",
    "separate_gravitational",
    "frame_discrepancy",
    "verify_separability",
]


class _FieldSpecFields(NamedTuple):
    magnitude: float


class FieldSpec(_FieldSpecFields):
    """Uniform field of magnitude g (m/s^2) along the z axis."""

    __slots__ = ()

    def __new__(cls, magnitude):
        if not (magnitude >= 0.0 and math.isfinite(magnitude)):
            raise ValueError("field magnitude must be non-negative and finite")
        return super().__new__(cls, magnitude)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``; both validate like the constructor.
        return cls(*iterable)


class SeparatedHamiltonian(NamedTuple):
    """Coefficients of the separated CM and internal equations."""

    cm_kinetic_mass: float      # kg, = M
    cm_coupling: float          # N, = Mbar * g
    internal_kinetic_mass: float  # kg, = mu
    internal_coupling: float    # N, = mass_asymmetry * g (internal term is -A g . r)
    coulomb_present: bool


def separate_gravitational(model: MassModel, field: FieldSpec) -> SeparatedHamiltonian:
    """Coefficient set of the separated equations for ``model`` in ``field``.

    Raises ``UnrepresentableError`` when a mass or a coupling leaves the
    float range; a coupling with a zero factor is +0.0.
    """
    comp = derive_composites(model)
    g = field.magnitude
    return SeparatedHamiltonian(
        cm_kinetic_mass=comp.total_mass,
        cm_coupling=representable("cm_coupling", comp.grav_total_mass * g, comp.grav_total_mass, g),
        internal_kinetic_mass=comp.reduced_mass,
        internal_coupling=representable(
            "internal_coupling", comp.mass_asymmetry * g, comp.mass_asymmetry, g
        ),
        coulomb_present=True,
    )


class FrameDiscrepancy(NamedTuple):
    """How a real field and an equal-magnitude acceleration differ."""

    cm_mass_ratio: float                 # M / Mbar
    internal_coupling_difference: float  # N, |A| * magnitude


def frame_discrepancy(model: MassModel, magnitude: float) -> FrameDiscrepancy:
    """Field-versus-acceleration contrast for a field/acceleration of ``magnitude``.

    Raises ``UnrepresentableError`` when the ratio or the coupling difference
    leaves the float range; a coupling difference with a zero factor is +0.0.
    """
    if not 0.0 <= magnitude < math.inf:
        raise ValueError("magnitude must be non-negative and finite")
    comp = derive_composites(model)
    if comp.grav_total_mass == 0.0:
        raise UndefinedRatioError("total gravitational mass is zero; ratio undefined")
    return FrameDiscrepancy(
        cm_mass_ratio=representable("cm_mass_ratio", comp.total_mass / comp.grav_total_mass),
        internal_coupling_difference=representable(
            "internal_coupling_difference",
            abs(comp.mass_asymmetry) * magnitude,
            comp.mass_asymmetry,
            magnitude,
        ),
    )


# The dense check's fixed surrogate: 48 points per axis over [-7, 7] Bohr,
# Gaussian trial factors in R and r, and a Coulomb softening of 0.1 Bohr.
_POINTS_PER_AXIS = 48
_HALF_WIDTH = 7.0
_SOFTENING = 0.1


def verify_separability(model: MassModel, field: FieldSpec) -> float:
    """Maximum pointwise relative residual between the two-body operator and
    the sum of the separated operators, applied to a product trial state.

    Both sides are assembled from the same finite-difference derivative
    tables of the two 1D factors, so the residual isolates the coefficient
    identities (kinetic cross-term cancellation and potential regrouping)
    rather than stencil truncation error.  The Coulomb term uses an identical
    softened form 1/sqrt(r^2 + s^2) on both sides.  Runs in atomic units of
    the configuration's reduced mass, with the CODATA constants.
    """
    # Imported here, so that the scalar functions of this module load no numpy.
    import numpy as np

    comp = derive_composites(model)
    scale = atomic_scale(codata_defaults(), comp.reduced_mass)

    # 1D factor samples on ghost-extended grids; central stencils everywhere.
    step = 2.0 * _HALF_WIDTH / (_POINTS_PER_AXIS - 1)
    ext = -_HALF_WIDTH - step + step * np.arange(_POINTS_PER_AXIS + 2)
    A_ext = np.exp(-((ext - 0.8) ** 2) / (2.0 * 1.9**2))
    B_ext = np.exp(-((ext + 0.5) ** 2) / (2.0 * 1.3**2))

    R = ext[1:-1]
    r = ext[1:-1]
    A, A1, A2 = (
        A_ext[1:-1],
        (A_ext[2:] - A_ext[:-2]) / (2.0 * step),
        (A_ext[2:] - 2.0 * A_ext[1:-1] + A_ext[:-2]) / step**2,
    )
    B, B1, B2 = (
        B_ext[1:-1],
        (B_ext[2:] - B_ext[:-2]) / (2.0 * step),
        (B_ext[2:] - 2.0 * B_ext[1:-1] + B_ext[:-2]) / step**2,
    )

    mu = comp.reduced_mass
    me_au = model.m_e / mu
    mp_au = model.m_p / mu
    M_au = comp.total_mass / mu
    fe = model.m_e / comp.total_mass
    fp = model.m_p / comp.total_mass

    # Per-particle and regrouped field couplings in Hartree per Bohr.
    g = field.magnitude
    w_e = model.mbar_e * g / scale.force_atomic
    w_p = model.mbar_p * g / scale.force_atomic
    w_cm = comp.grav_total_mass * g / scale.force_atomic
    w_int = comp.mass_asymmetry * g / scale.force_atomic

    d2R = np.outer(A2, B)
    d2r = np.outer(A, B2)
    cross = np.outer(A1, B1)
    prod = np.outer(A, B)

    X = R[:, None] + fp * r[None, :]
    Y = R[:, None] - fe * r[None, :]
    coulomb = -1.0 / np.sqrt(r**2 + _SOFTENING**2)

    d2x = fe**2 * d2R + 2.0 * fe * cross + d2r
    d2y = fp**2 * d2R - 2.0 * fp * cross + d2r
    lhs = (
        -0.5 / me_au * d2x
        - 0.5 / mp_au * d2y
        + (coulomb[None, :] + w_e * X + w_p * Y) * prod
    )
    rhs = (
        -0.5 / M_au * d2R
        - 0.5 * d2r
        + (coulomb[None, :] + w_cm * R[:, None] - w_int * r[None, :]) * prod
    )

    floor = np.finfo(float).eps
    return float(np.max(np.abs(lhs - rhs)) / (np.max(np.abs(lhs)) + floor))
