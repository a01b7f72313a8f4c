"""Four-mass configuration of the atom and its derived composite masses.

A configuration carries separate inertial and gravitational masses for the
electron and the proton.  The composite of interest is the mass-asymmetry
coupling, the combination through which a uniform external field leaks into
the internal (relative-coordinate) dynamics:

    mass_asymmetry * M = mbar_p * m_e - mbar_e * m_p

It vanishes exactly when each particle's gravitational mass equals its
inertial one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import PhysicalConstants, codata_defaults

__all__ = [
    "MassModel",
    "CompositeMasses",
    "derive_composites",
    "model_with_asymmetry",
]


@dataclass(frozen=True)
class MassModel:
    """Inertial and gravitational masses of the two constituents (kg).

    Inertial masses must be positive; gravitational masses may be any real
    value (including zero or negative) so that violation scans are
    unconstrained.
    """

    m_e: float
    m_p: float
    mbar_e: float
    mbar_p: float

    def __post_init__(self) -> None:
        if not (self.m_e > 0.0 and math.isfinite(self.m_e)):
            raise ValueError("inertial electron mass must be strictly positive")
        if not (self.m_p > 0.0 and math.isfinite(self.m_p)):
            raise ValueError("inertial proton mass must be strictly positive")
        if not (math.isfinite(self.mbar_e) and math.isfinite(self.mbar_p)):
            raise ValueError("gravitational masses must be finite")


@dataclass(frozen=True)
class CompositeMasses:
    """Derived mass combinations, each computed once and stored (kg)."""

    total_mass: float       # M = m_e + m_p
    reduced_mass: float     # mu = m_e m_p / M
    grav_total_mass: float  # Mbar = mbar_e + mbar_p
    mass_asymmetry: float   # (mbar_p m_e - mbar_e m_p) / M


def derive_composites(model: MassModel) -> CompositeMasses:
    """All composite masses of a configuration."""
    total = model.m_e + model.m_p
    # Gravitational masses below 2**-600 kg are carried times 2**600, so that
    # their products with the inertial masses cannot underflow where the
    # asymmetry itself is a normal float; a power of two changes no bit of a
    # normal-range result.  Adding 0.0 turns -0.0 into 0.0.
    scale = 2.0**600 if max(abs(model.mbar_e), abs(model.mbar_p)) < 2.0**-600 else 1.0
    products = (scale * model.mbar_p) * model.m_e - (scale * model.mbar_e) * model.m_p
    return CompositeMasses(
        total_mass=total,
        reduced_mass=model.m_e * model.m_p / total,
        grav_total_mass=model.mbar_e + model.mbar_p,
        mass_asymmetry=products / total / scale + 0.0,
    )


def model_with_asymmetry(mass_asymmetry: float, constants: PhysicalConstants | None = None) -> MassModel:
    """Canonical violating configuration realizing a given mass asymmetry (kg).

    Keeps the inertial masses and the proton's gravitational mass at their
    CODATA values and solves for the electron's gravitational mass.
    """
    c = constants if constants is not None else codata_defaults()
    total = c.m_e_ref + c.m_p_ref
    mbar_e = (c.m_p_ref * c.m_e_ref - mass_asymmetry * total) / c.m_p_ref
    return MassModel(m_e=c.m_e_ref, m_p=c.m_p_ref, mbar_e=mbar_e, mbar_p=c.m_p_ref)
