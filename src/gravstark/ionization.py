"""Quasi-stationary lifetime of the ground state: a closed form and a WKB
cross-estimate, side by side in one report.

With a residual internal force F = |A| g (A the mass asymmetry) the internal
potential -1/r - F z has no bound states: the ground level becomes a
resonance that decays by tunneling through the Coulomb-plus-linear barrier.

``compare_lifetimes`` is the one lifetime path.  It forms |A| g once and
reports two estimates:

* the closed-form lifetime

      tau = [A g hbar^2 / (4 m_e^3 c^5 alpha^5)] * exp( m_e^2 c^3 alpha^3 / (A g hbar) )

  evaluated exactly as written, in log space so astronomically large values
  never overflow, and

* a WKB lifetime 1 / rate through the 1D barrier V(x) = -1/x - F x at the
  unperturbed ground energy E = -1/2 Hartree,

      rate = nu * exp( -2 * integral sqrt(2 (V - E)) dx ),  nu = |E| / (pi hbar),

  also in log space: the rate itself underflows for every realistic field.
  The turning points a < b are the roots of F x^2 - x/2 + 1 = 0, in closed
  form.  Since V - E = (F/x)(x - a)(b - x), the barrier integral is a
  complete elliptic one (DLMF 19.8):

      integral_a^b sqrt((x-a)(b-x)/x) dx = (2/3) sqrt(b) [(a+b) E(m) - 2a K(m)],

  m = 1 - a/b, with K and E from the arithmetic-geometric mean.  As F
  approaches 1/16 the turning points merge and that difference cancels, so
  for m <= 0.9 the same integral comes from Euler's integral instead,

      (pi/8) (b - a)^2 b^(-1/2) 2F1(1/2, 3/2; 3; m),

  a series of positive terms.

The two exponents agree only up to an order-one factor; the report surfaces
the ratio instead of folding it into either estimate.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .constants import PhysicalConstants, atomic_scale
from .errors import NoBarrierError, _carried, representable
from .masses import CompositeMasses
from .separation import FieldSpec

__all__ = [
    "LifetimeComparison",
    "compare_lifetimes",
]

GROUND_ENERGY = -0.5          # Hartree, unperturbed ground state
ORDER_UNITY_WINDOW = (0.1, 10.0)
# Relative AGM stop test.  Rounding can leave the two means one ulp apart for
# good, which is up to 2.2e-16 x, so a test at 1e-16 x need never be met.
AGM_REL_TOL = 4e-16
# a / b at and above which the barrier integral is summed as a series (m <= 0.9).
SERIES_MIN_RATIO = 0.1


class LifetimeComparison(NamedTuple):
    """Side-by-side report of the two lifetime estimates."""

    stable: bool
    mass_asymmetry: float           # kg
    field_magnitude: float          # m / s^2
    internal_force_atomic: float | None = None
    closed_form_exponent: float | None = None
    log10_tau_closed_form: float | None = None
    wkb_exponent: float | None = None
    log10_tau_wkb: float | None = None
    exponent_ratio: float | None = None
    within_order_unity: bool | None = None


def _barrier_turning_points(force: float) -> tuple[float, float]:
    """Roots a < b of V(x) - E = 0 around the barrier: F x^2 + E x + 1 = 0.

    b takes the sign that adds, and a = 1 / (F b) from the product of the
    roots, so neither root cancels.
    """
    disc = GROUND_ENERGY**2 - 4.0 * force
    if disc <= 0.0:
        raise NoBarrierError(
            f"turning points merged at force {force:.3e} a.u.; no barrier below the "
            "ground energy"
        )
    outer = (math.sqrt(disc) - GROUND_ENERGY) / (2.0 * force)
    return 1.0 / (force * outer), outer


def _agm(y: float, c2: float) -> tuple[float, float]:
    """Arithmetic-geometric mean of 1 and ``y`` with Gauss's sum.

    Returns ``(AGM(1, y), sum_{n>=0} 2**(n-1) c_n**2)`` for ``c2 = c_0**2 =
    1 - y**2``.  Each c_n**2 comes from c_(n+1) = c_n**2 / (4 a_(n+1)), not
    from a difference, so no term cancels.
    """
    x, weight, total = 1.0, 0.5, 0.5 * c2
    while abs(x - y) > AGM_REL_TOL * x:
        x, y = 0.5 * (x + y), math.sqrt(x * y)
        c2 = c2 * c2 / (16.0 * x * x)
        weight *= 2.0
        total += weight * c2
    return x, total


def _complete_elliptic(p: float) -> tuple[float, float]:
    """(K(m), E(m)) at parameter m = 1 - p, for 0 < p <= 1.

    K(m) is pi / (2 AGM(1, sqrt(p))).  E(m) comes from Legendre's relation
    E K' + E' K - K K' = pi/2 with K' and K' - E' at parameter p; there
    K' - E' is K' times Gauss's sum, so E stays accurate as p -> 0, where
    1 - sum would cancel.
    """
    k = 0.5 * math.pi / _agm(math.sqrt(p), 1.0 - p)[0]
    mean, gauss_sum = _agm(math.sqrt(1.0 - p), p)
    k_comp = 0.5 * math.pi / mean
    return k, (0.5 * math.pi + k * k_comp * gauss_sum) / k_comp


def _hypergeometric(m: float) -> float:
    """2F1(1/2, 3/2; 3; m) for 0 <= m <= 0.9: every term is positive and
    ``math.fsum`` adds them exactly, so only each term's own rounding is left."""
    term, terms, k = 1.0, [1.0], 0
    while term > 1e-17:
        term *= (k + 0.5) * (k + 1.5) / ((k + 1.0) * (k + 3.0)) * m
        terms.append(term)
        k += 1
    return math.fsum(terms)


def _barrier_exponent(force: float) -> float:
    """2 * integral sqrt(2 (V - E)) dx across the barrier, at force F in atomic units.

    That is 2 sqrt(2F) times integral_a^b sqrt((x-a)(b-x)/x) dx.  The
    elliptic form is grouped so that the factor sqrt(2 F b), about 1, keeps
    every product in range down to the smallest normal F.  The series form,
    for m = (b - a) / b <= 0.9, is (pi/2) (E^2 - 4F) / (F sqrt(2 F b)) 2F1(m):
    it takes (b - a)^2 = (E^2 - 4F) / F^2, one rounding of exact terms.
    """
    inner, outer = _barrier_turning_points(force)
    if inner >= SERIES_MIN_RATIO * outer:
        disc = GROUND_ENERGY**2 - 4.0 * force
        m = math.sqrt(disc) / (force * outer)
        return 0.5 * math.pi * disc / (force * math.sqrt(2.0 * force * outer)) * _hypergeometric(m)
    k, e = _complete_elliptic(inner / outer)
    return (4.0 / 3.0) * math.sqrt(2.0 * force * outer) * ((inner + outer) * e - 2.0 * inner * k)


def compare_lifetimes(
    composites: CompositeMasses,
    field: FieldSpec,
    constants: PhysicalConstants,
) -> LifetimeComparison:
    """Closed-form and WKB exponents side by side, with their ratio flagged.

    A = 0 or g = 0 short-circuits into a stable report: with no residual
    force there is no decay channel and the lifetime is infinite.  The force
    magnitude |A| g enters every estimate, so the sign of the asymmetry is
    irrelevant.  A nonzero coupling whose printed force, exponents or ratio,
    or whose atomic scale, leaves the float range raises
    ``UnrepresentableError`` rather than reporting stable, and a force too
    strong for a barrier below the ground energy raises ``NoBarrierError``.

    The WKB exponent matches 50-digit arithmetic to a few ulps (5.6e-16
    relative) for forces up to 1e-2 atomic units, 8.9e-16 from there up to
    the merge at 1/16, and stays as accurate for weaker forces as long as F
    is a normal float.
    """
    a, g = composites.mass_asymmetry, field.magnitude
    if a == 0.0 or g == 0.0:
        return LifetimeComparison(stable=True, mass_asymmetry=a, field_magnitude=g)
    m_e = constants.m_e_ref
    # |A| g hbar is carried as mantissa and exponent, and the prefactor is
    # formed only as its log10: either product may leave the float range
    # while every printed number stays inside it.
    action, action_exponent = _carried((abs(a), g, constants.hbar))
    closed_exponent = representable(
        "closed-form exponent",
        m_e**2 * constants.c**3 * constants.alpha**3 / action,
        exponent=-action_exponent,
    )
    log10_prefactor = (
        math.log10(action)
        + action_exponent * math.log10(2.0)
        + math.log10(constants.hbar)
        - math.log10(4.0 * m_e**3 * constants.c**5 * constants.alpha**5)
    )
    log10_tau_closed_form = log10_prefactor + closed_exponent / math.log(10.0)

    scale = atomic_scale(constants, composites.reduced_mass)
    mantissa, power = _carried((abs(a), g), (scale.force_atomic,))
    force_atomic = representable("internal force in atomic units", mantissa, exponent=power)
    exponent = representable("WKB exponent", _barrier_exponent(force_atomic))
    attempt_rate_si = (abs(GROUND_ENERGY) / math.pi) / scale.time_atomic
    log10_tau_wkb = exponent / math.log(10.0) - math.log10(attempt_rate_si)
    ratio = representable("exponent ratio", exponent / closed_exponent)
    return LifetimeComparison(
        stable=False,
        mass_asymmetry=a,
        field_magnitude=g,
        internal_force_atomic=force_atomic,
        closed_form_exponent=closed_exponent,
        log10_tau_closed_form=log10_tau_closed_form,
        wkb_exponent=exponent,
        log10_tau_wkb=log10_tau_wkb,
        exponent_ratio=ratio,
        within_order_unity=bool(ORDER_UNITY_WINDOW[0] <= ratio <= ORDER_UNITY_WINDOW[1]),
    )
