"""Physical constants (CODATA 2018, frozen) and Hartree atomic-unit scales.

Every other module obtains hbar, c, alpha, charges and reference masses from
here.  Internal numerics run in atomic units built from the reduced mass of
the active mass configuration; SI values appear only at module boundaries.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import representable

__all__ = [
    "PhysicalConstants",
    "AtomicUnitScale",
    "codata_defaults",
    "atomic_scale",
]


class _PhysicalConstantsFields(NamedTuple):
    hbar: float      # J s
    c: float         # m / s
    alpha: float     # dimensionless fine-structure constant
    e_charge: float  # C
    eps0: float      # F / m
    m_e_ref: float   # kg, reference electron mass
    m_p_ref: float   # kg, reference proton mass


class PhysicalConstants(_PhysicalConstantsFields):
    """A mutually consistent set of SI constants."""

    __slots__ = ()

    def __new__(cls, hbar, c, alpha, e_charge, eps0, m_e_ref, m_p_ref):
        self = super().__new__(cls, hbar, c, alpha, e_charge, eps0, m_e_ref, m_p_ref)
        for name, value in zip(self._fields, self):
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be strictly positive and finite")
        derived = e_charge**2 / (4.0 * math.pi * eps0 * hbar * c)
        if abs(derived - alpha) > 1e-9 * alpha:
            raise ValueError("alpha disagrees with e^2/(4 pi eps0 hbar c)")
        return self

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``; both validate like the constructor.
        return cls(*iterable)


class AtomicUnitScale(NamedTuple):
    """Hartree-style unit scales built from one reduced mass.

    energy_hartree = mu c^2 alpha^2 and length_bohr = hbar/(mu c alpha); the
    remaining scales follow from those two.
    """

    energy_hartree: float  # J
    length_bohr: float     # m
    time_atomic: float     # s
    force_atomic: float    # N


def codata_defaults() -> PhysicalConstants:
    """CODATA 2018 values (exact where the SI defines them exactly)."""
    return PhysicalConstants(
        hbar=1.0545718176461565e-34,  # h / (2 pi), h = 6.62607015e-34 J s exact
        c=299792458.0,
        alpha=7.2973525693e-3,
        e_charge=1.602176634e-19,
        eps0=8.8541878128e-12,
        m_e_ref=9.1093837015e-31,
        m_p_ref=1.67262192369e-27,
    )


def atomic_scale(constants: PhysicalConstants, mu: float) -> AtomicUnitScale:
    """Atomic-unit scales for the reduced mass ``mu`` (kg), each a normal float."""
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError("reduced mass must be strictly positive and finite")
    energy = representable("Hartree energy", mu * constants.c**2 * constants.alpha**2)
    length = representable("Bohr radius", constants.hbar / (mu * constants.c * constants.alpha))
    return AtomicUnitScale(
        energy_hartree=energy,
        length_bohr=length,
        time_atomic=representable("atomic time", constants.hbar / energy),
        force_atomic=representable("atomic force", energy / length),
    )
