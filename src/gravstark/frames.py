"""Uniformly accelerated frames and the exact phase map between them.

The coordinate change x = x' + Z(t), t = t' to a rigidly accelerating frame
maps solutions of the inertial Schroedinger equation onto solutions of the
accelerated-frame equation once the wavefunction is multiplied by

    exp( i [ -m Zdot . x' - (m/2) integral_0^t Zdot^2 ds ] / hbar ).

For a two-particle system the induced potential regroups as
M Zdotdot . R': the acceleration couples only to the center of mass, with
effective gravitational mass equal to the total inertial mass M, and leaves
the internal dynamics untouched for every mass configuration.  That is the
structural contrast with a real uniform field, whose internal coupling is
the mass asymmetry times g.  The accelerated frame's coefficients are those
``separate_gravitational`` gives once each gravitational mass is set to its
inertial one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainEscapeError, GridResolutionError, representable
from .wavepacket import (
    Wavefunction1D,
    _free_evolution,
    _wavenumbers,
    fidelity,
    gaussian_packet,
    propagate,
)

__all__ = [
    "FrameCheckResult",
    "frame_equivalence_check",
]

SUPPORT_REL_TOL = 1e-9
EDGE_MARGIN_CELLS = 8
# The frame check's packet: a unit-width Gaussian at rest at the origin of a
# 48-unit grid, for a particle of unit mass (units with hbar = 1).
MASS = 1.0
X_MIN, X_MAX = -24.0, 24.0
SIGMA = 1.0


def _transform_wavefunction(state: Wavefunction1D, a: float, t: float) -> Wavefunction1D:
    """View a 1D state of mass ``MASS`` from the accelerated frame at time ``t``.

    The frame starts coincident and at rest and accelerates at ``a`` along
    the grid axis.  Returns exp(i Phi) psi(x' + Z(t)) with
    Phi = -m Zdot x' - (m/2) integral_0^t Zdot^2 ds.  The coordinate shift
    uses band-limited (spectral) interpolation, so the map is unitary up to
    rounding.  Raises ``DomainEscapeError`` when the shifted support would
    leave the grid, and ``UnrepresentableError`` when the frame velocity or
    action leaves the float range.
    """
    z = 0.5 * a * t * t
    v = representable("frame velocity a t", a * t, a, t)
    action = representable("frame action a^2 t^3 / 3", a * a * t**3 / 3.0, a, t)

    psi = state.samples
    peak = float(np.max(np.abs(psi)))
    x = state.grid()
    if peak > 0.0 and z != 0.0:
        support = np.nonzero(np.abs(psi) >= SUPPORT_REL_TOL * peak)[0]
        lo = x[support[0]] - z
        hi = x[support[-1]] - z
        margin = EDGE_MARGIN_CELLS * state.dx
        if lo < state.x_min + margin or hi > state.x_max - margin:
            raise DomainEscapeError(
                f"support shifted by {-z:+.3g} leaves the grid "
                f"[{state.x_min}, {state.x_max}]"
            )

    shifted = np.fft.ifft(np.fft.fft(psi) * np.exp(1j * _wavenumbers(state) * z))
    phase = np.exp(1j * (-MASS * v * x - 0.5 * MASS * action))
    return Wavefunction1D(
        samples=phase * shifted,
        x_min=state.x_min,
        x_max=state.x_max,
        point_count=state.point_count,
    )


class FrameCheckResult(NamedTuple):
    fidelity: float
    max_pointwise_error: float
    grid: int
    steps: int


def frame_equivalence_check(
    acceleration: float = 1.0,
    total_time: float = 1.0,
    grid_points: int = 2048,
    steps: int = 4096,
) -> FrameCheckResult:
    """Numerical check that the frame map commutes with time evolution.

    Path A propagates freely in the inertial frame and transforms at the final
    time; path B transforms the initial data (the identity at t = 0) and
    propagates under the static accelerated-frame potential m a x'.  Exact
    frame equivalence means the two paths agree.  Path A's free evolution is
    exact in one spectral multiply; only path B is stepped (``steps``
    Strang steps of ``total_time / steps``), and path A is formed and
    health-checked at the same steps as path B.

    For H = p^2/2m + m a x every nested commutator of the splitting ends at
    the c-number [V, [V, T]], so each Strang step is exact up to a global
    phase, and path B carries exp(i m a^2 T dt^2 / 24) against path A.
    ``max_pointwise_error`` is the largest pointwise difference once that
    predicted phase is removed; ``fidelity`` is phase-blind and compares the
    paths as they are.

    A ``total_time`` that is not positive and finite fails with ``ValueError``
    before anything is built.  A run whose kicked momentum band
    m |a| T / hbar + 10 / (2 SIGMA) reaches pi / dx fails with
    ``GridResolutionError`` before either path is built.
    A run too large for its grid fails with ``BoundaryEscapeError`` when either
    path reaches the grid edge at a checked step, or with ``DomainEscapeError``
    when the final frame shift of path A would carry its support off the grid.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not math.isfinite(acceleration):
        raise ValueError("acceleration must be finite")
    if not 0.0 < total_time < math.inf:
        raise ValueError("total_time must be positive and finite")
    initial = gaussian_packet(X_MIN, X_MAX, grid_points, sigma=SIGMA)
    band = MASS * abs(acceleration) * total_time + 10.0 / (2.0 * SIGMA)
    if band >= math.pi / initial.dx:
        raise GridResolutionError(f"kicked momentum band {band:.3g} reaches pi / dx")
    dt = total_time / steps
    inertial = _free_evolution(initial, MASS, dt, steps)
    path_b = propagate(initial, MASS * acceleration * initial.grid(), MASS, dt, steps)
    path_a = _transform_wavefunction(inertial, acceleration, total_time)
    splitting_phase = -MASS * acceleration**2 * total_time * dt**2 / 24.0
    err = float(np.max(np.abs(path_a.samples - np.exp(1j * splitting_phase) * path_b.samples)))
    return FrameCheckResult(
        fidelity=fidelity(path_a, path_b),
        max_pointwise_error=err,
        grid=grid_points,
        steps=steps,
    )
