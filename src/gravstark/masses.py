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
from typing import NamedTuple

from .constants import codata_defaults
from .errors import _carried, representable

__all__ = [
    "MassModel",
    "CompositeMasses",
    "derive_composites",
    "model_with_asymmetry",
]


class _MassModelFields(NamedTuple):
    m_e: float
    m_p: float
    mbar_e: float
    mbar_p: float


class MassModel(_MassModelFields):
    """Inertial and gravitational masses of the two constituents (kg).

    Inertial masses must be positive; gravitational masses may be any real
    value (including zero or negative) so that violation scans are
    unconstrained.
    """

    __slots__ = ()

    def __new__(cls, m_e, m_p, mbar_e, mbar_p):
        if not (m_e > 0.0 and math.isfinite(m_e)):
            raise ValueError("inertial electron mass must be strictly positive")
        if not (m_p > 0.0 and math.isfinite(m_p)):
            raise ValueError("inertial proton mass must be strictly positive")
        if not (math.isfinite(mbar_e) and math.isfinite(mbar_p)):
            raise ValueError("gravitational masses must be finite")
        return super().__new__(cls, m_e, m_p, mbar_e, mbar_p)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``; both validate like the constructor.
        return cls(*iterable)


class CompositeMasses(NamedTuple):
    """Derived mass combinations, each computed once and stored (kg)."""

    total_mass: float       # M = m_e + m_p
    reduced_mass: float     # mu = m_e m_p / M
    grav_total_mass: float  # Mbar = mbar_e + mbar_p
    mass_asymmetry: float   # (mbar_p m_e - mbar_e m_p) / M


def derive_composites(model: MassModel) -> CompositeMasses:
    """All composite masses of a configuration, mu and both products of A
    carried as mantissa and exponent.  A is +0.0 exactly when the two products
    are equal; M, mu or a nonzero A outside the normal float range raises
    ``UnrepresentableError``."""
    total = representable("total mass", model.m_e + model.m_p)
    mu, mu_exponent = _carried((model.m_e, model.m_p), (total,))
    up, down = _carried((model.mbar_p, model.m_e)), _carried((model.mbar_e, model.m_p))
    # Aligned on the larger nonzero product, whose mantissa then keeps its bits.
    top = max(up, down, key=lambda product: (product[0] != 0.0, product[1]))[1]
    difference = math.ldexp(up[0], up[1] - top) - math.ldexp(down[0], down[1] - top)
    asymmetry, exponent = _carried((difference,), (total,))
    return CompositeMasses(
        total_mass=total,
        reduced_mass=representable("reduced mass", mu, exponent=mu_exponent),
        grav_total_mass=model.mbar_e + model.mbar_p,
        mass_asymmetry=representable("mass asymmetry", asymmetry, difference,
                                     exponent=exponent + top),
    )


def model_with_asymmetry(mass_asymmetry: float) -> MassModel:
    """Canonical violating configuration realizing a given mass asymmetry (kg).

    Keeps the inertial masses and the proton's gravitational mass at their
    CODATA values and solves for the electron's gravitational mass.
    """
    c = codata_defaults()
    total = c.m_e_ref + c.m_p_ref
    mbar_e = (c.m_p_ref * c.m_e_ref - mass_asymmetry * total) / c.m_p_ref
    return MassModel(m_e=c.m_e_ref, m_p=c.m_p_ref, mbar_e=mbar_e, mbar_p=c.m_p_ref)
