"""Center-of-mass / internal split of the two-body problem in a uniform field.

For a two-particle Coulomb system with independent inertial and gravitational
masses in a uniform field g, the coordinate change R = (m_e x + m_p y)/M,
r = x - y separates the Hamiltonian exactly into

    CM:       -(hbar^2/2M) d^2/dR^2 + Mbar g . R
    internal: -(hbar^2/2mu) d^2/dr^2 + V(r) - A g . r

where A is the mass asymmetry.  ``separate_gravitational`` returns the
coefficients.  A uniformly accelerated frame couples to the centre of mass
alone, with gravitational masses equal to the inertial ones;
``frame_discrepancy`` reports how a real field of the same magnitude differs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import UndefinedRatioError, representable
from .masses import MassModel, derive_composites

__all__ = [
    "FieldSpec",
    "SeparatedHamiltonian",
    "FrameDiscrepancy",
    "separate_gravitational",
    "frame_discrepancy",
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


def _grav_total(model: MassModel, plain_sum: float) -> tuple[float, int]:
    """Mbar as (value, binary exponent): the plain sum ``plain_sum``, or half of
    it with the exponent carried where that sum overflows although Mbar g or
    M / Mbar need not."""
    if math.isinf(plain_sum):
        return 0.5 * model.mbar_e + 0.5 * model.mbar_p, 1
    return plain_sum, 0


def separate_gravitational(model: MassModel, field: FieldSpec) -> SeparatedHamiltonian:
    """Coefficient set of the separated equations for ``model`` in ``field``.

    Raises ``UnrepresentableError`` when a mass or a coupling leaves the
    float range; a coupling with a zero factor is +0.0.
    """
    comp = derive_composites(model)
    g = field.magnitude
    mbar, power = _grav_total(model, comp.grav_total_mass)
    return SeparatedHamiltonian(
        cm_kinetic_mass=comp.total_mass,
        cm_coupling=representable("cm_coupling", mbar * g, mbar, g, exponent=power),
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
    mbar, power = _grav_total(model, comp.grav_total_mass)
    return FrameDiscrepancy(
        cm_mass_ratio=representable("cm_mass_ratio", comp.total_mass / mbar, exponent=-power),
        internal_coupling_difference=representable(
            "internal_coupling_difference",
            abs(comp.mass_asymmetry) * magnitude,
            comp.mass_asymmetry,
            magnitude,
        ),
    )
