import math

import numpy as np
import pytest

from gravstark.errors import BoundaryEscapeError, StabilityBoundError
from gravstark.wavepacket import (
    Wavefunction1D,
    _wavenumbers,
    fidelity,
    gaussian_packet,
    _free_evolution,
    propagate,
)


def harmonic(state: Wavefunction1D) -> np.ndarray:
    return 0.5 * state.grid() ** 2


def mean_momentum(state: Wavefunction1D) -> float:
    """Expectation of the momentum operator, from the spectral representation."""
    weights = np.abs(np.fft.fft(state.samples)) ** 2
    return float(np.sum(_wavenumbers(state) * weights) / np.sum(weights))


def free_gaussian(x, t, center, sigma, k0, mass=1.0, hbar=1.0):
    """Closed-form free evolution of a Gaussian packet."""
    tau = hbar * t / (2.0 * mass * sigma**2)
    prefactor = (2.0 * math.pi * sigma**2) ** (-0.25) / np.sqrt(1.0 + 1j * tau)
    velocity = hbar * k0 / mass
    return prefactor * np.exp(
        -((x - center - velocity * t) ** 2) / (4.0 * sigma**2 * (1.0 + 1j * tau))
        + 1j * (k0 * (x - center) - 0.5 * hbar * k0**2 * t / mass)
    )


# --- construction ------------------------------------------------------------

def test_grid_must_be_power_of_two():
    with pytest.raises(ValueError):
        Wavefunction1D(samples=np.zeros(300, complex), x_min=-1.0, x_max=1.0, point_count=300)
    with pytest.raises(ValueError):
        Wavefunction1D(samples=np.zeros(128, complex), x_min=-1.0, x_max=1.0, point_count=128)


def test_gaussian_packet_normalized():
    state = gaussian_packet(-16.0, 16.0, 512, sigma=0.7, momentum=2.0)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert mean_momentum(state) == pytest.approx(2.0, abs=1e-9)


def test_spec_validation():
    state = gaussian_packet(-16.0, 16.0, 256)
    zero = np.zeros(256)
    with pytest.raises(ValueError, match="dt must be nonzero"):
        propagate(state, zero, 1.0, 0.0, 10)
    with pytest.raises(ValueError, match="steps must be at least 1"):
        propagate(state, zero, 1.0, 1e-3, 0)
    with pytest.raises(ValueError, match="mass must be positive"):
        propagate(state, zero, -1.0, 1e-3, 1)


# --- propagation -------------------------------------------------------------

def test_free_gaussian_dispersion():
    state = gaussian_packet(-24.0, 24.0, 1024, center=0.0, sigma=1.0, momentum=1.5)
    out = propagate(state, np.zeros(1024), 1.0, 1.0 / 1024, 1024)
    exact = free_gaussian(out.grid(), 1.0, 0.0, 1.0, 1.5)
    assert np.max(np.abs(out.samples - exact)) < 1e-8


def test_harmonic_period_return():
    state = gaussian_packet(-24.0, 24.0, 512, center=3.0, sigma=1.0 / math.sqrt(2.0))
    period = 2.0 * math.pi
    out = propagate(state, harmonic(state), 1.0, period / 4096, 4096)
    assert fidelity(state, out) >= 1.0 - 1e-8


def test_second_order_convergence():
    state = gaussian_packet(-24.0, 24.0, 512, center=3.0, sigma=1.0 / math.sqrt(2.0))
    period = 2.0 * math.pi
    potential = harmonic(state)
    reference = propagate(state, potential, 1.0, period / 32768, 32768)

    def error(steps: int) -> float:
        out = propagate(state, potential, 1.0, period / steps, steps)
        return float(np.linalg.norm(out.samples - reference.samples)) * math.sqrt(out.dx)

    ratio = error(2048) / error(4096)
    assert 3.0 < ratio < 5.0


def test_unitarity_drift():
    state = gaussian_packet(-16.0, 16.0, 512, center=2.0, sigma=0.8)
    out = propagate(state, harmonic(state), 1.0, 2e-3, 10000)
    assert abs(out.norm() - state.norm()) < 1e-10


def test_time_reversal():
    state = gaussian_packet(-24.0, 24.0, 512, center=3.0, sigma=1.0)
    potential = harmonic(state)
    forward = propagate(state, potential, 1.0, 1e-3, 1000)
    back = propagate(forward, potential, 1.0, -1e-3, 1000)
    assert fidelity(state, back) >= 1.0 - 1e-9


def test_momentum_kick_identity():
    force = 0.5
    state = gaussian_packet(-24.0, 24.0, 1024, center=0.0, sigma=1.0)
    out = propagate(state, -force * state.grid(), 1.0, 1.0 / 1024, 1024)
    assert mean_momentum(out) == pytest.approx(force * 1.0, rel=1e-8)


def test_stability_bound_enforced():
    state = gaussian_packet(-8.0, 8.0, 2048, sigma=0.5)
    # dx tiny, dt large: kinetic phase at the grid edge exceeds pi
    with pytest.raises(StabilityBoundError):
        propagate(state, np.zeros(2048), 1.0, 0.1, 1)


def test_boundary_escape_detected():
    state = gaussian_packet(-8.0, 8.0, 256, center=0.0, sigma=1.0, momentum=4.0)
    # fast packet crosses half the box well before the run ends
    with pytest.raises(BoundaryEscapeError):
        propagate(state, np.zeros(256), 1.0, 2e-3, 1500)


def test_static_potential_shape_checked():
    state = gaussian_packet(-16.0, 16.0, 256, sigma=1.0)
    with pytest.raises(ValueError):
        propagate(state, np.zeros(512), 1.0, 1e-3, 1)


def test_closed_form_free_path_matches_stepped_free_propagation():
    # The frame check's default grid and stepping: the spectral multiply and
    # 4096 Strang steps with a zero potential agree to rounding.
    state = gaussian_packet(-24.0, 24.0, 2048, sigma=1.0)
    stepped = propagate(state, np.zeros(2048), 1.0, 1.0 / 4096, 4096)
    exact = _free_evolution(state, 1.0, 1.0 / 4096, 4096)
    assert np.max(np.abs(exact.samples - stepped.samples)) <= 1e-12


# A heavy packet that crosses the periodic grid once and is back, intact, at
# the centre at t = 8: only the intermediate checks see it at the edge.
_ROUND_TRIP = dict(mass=20.0, dt=8.0 / 1024, steps=1024)


def _round_trip_state():
    return gaussian_packet(-16.0, 16.0, 1024, sigma=1.0, momentum=80.0)


def test_free_path_is_health_checked_while_it_crosses_the_edge():
    state = _round_trip_state()
    with pytest.raises(BoundaryEscapeError):
        _free_evolution(state, **_ROUND_TRIP)
    # checked only at t = 8, the same packet passes
    back = _free_evolution(state, _ROUND_TRIP["mass"], 8.0, 1)
    assert fidelity(state, back) >= 0.99


def test_stepped_path_is_health_checked_while_it_crosses_the_edge():
    state = _round_trip_state()
    with pytest.raises(BoundaryEscapeError):
        propagate(state, np.zeros(state.point_count), **_ROUND_TRIP)


def test_non_finite_potential_aborts():
    from gravstark.errors import PropagationError

    state = gaussian_packet(-16.0, 16.0, 256, sigma=1.0)
    bad = np.full(256, np.nan)
    with pytest.raises(PropagationError):
        propagate(state, bad, 1.0, 1e-3, 64)


# --- fidelity -----------------------------------------------------------------

def test_fidelity_self_is_one():
    state = gaussian_packet(-16.0, 16.0, 512)
    assert fidelity(state, state) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_global_phase_invariant():
    state = gaussian_packet(-16.0, 16.0, 512)
    rotated = Wavefunction1D(
        samples=state.samples * np.exp(1j * 0.7),
        x_min=state.x_min,
        x_max=state.x_max,
        point_count=state.point_count,
    )
    assert fidelity(state, rotated) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_orthogonal_modes():
    base = gaussian_packet(-16.0, 16.0, 512, sigma=1.0)
    x = base.grid()
    odd = Wavefunction1D(
        samples=base.samples * x,  # first excited harmonic mode shape
        x_min=base.x_min,
        x_max=base.x_max,
        point_count=base.point_count,
    )
    assert fidelity(base, odd) <= 1e-12


def test_fidelity_zero_norm_rejected():
    state = gaussian_packet(-16.0, 16.0, 512)
    zero = Wavefunction1D(
        samples=np.zeros(512, complex), x_min=-16.0, x_max=16.0, point_count=512
    )
    with pytest.raises(ValueError):
        fidelity(state, zero)


def test_fidelity_grid_mismatch_rejected():
    a = gaussian_packet(-16.0, 16.0, 512)
    b = gaussian_packet(-8.0, 8.0, 512)
    with pytest.raises(ValueError):
        fidelity(a, b)
