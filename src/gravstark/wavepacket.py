"""1D time-dependent Schroedinger propagation with a spectral kinetic step.

Units with hbar = 1.  Strang splitting per step,

    exp(-i V dt / 2) exp(-i T dt) exp(-i V dt / 2),

with the kinetic factor applied in momentum space on a periodic grid.  The
potential is static, one value per grid point, so its half-step factor is
built once per run.  Free evolution needs no stepping: the kinetic
propagator is diagonal in momentum space, so ``_free_evolution`` forms the
state at any time with one spectral multiply.
The grid must be a power of two and sized so the wavepacket support stays at
least eight grid spacings away from the boundary; both routes assert this
every ``CHECK_INTERVAL`` steps and at the end.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    BoundaryEscapeError,
    PropagationError,
    StabilityBoundError,
)

__all__ = [
    "Wavefunction1D",
    "gaussian_packet",
    "propagate",
    "fidelity",
]

BOUNDARY_CELLS = 8
BOUNDARY_REL_TOL = 1e-9
CHECK_INTERVAL = 64


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class Wavefunction1D:
    """Complex amplitudes on a uniform periodic grid x_min + j dx, j = 0..N-1;
    compares by identity."""

    __slots__ = ("samples", "x_min", "x_max", "point_count")

    def __init__(self, samples: np.ndarray, x_min: float, x_max: float, point_count: int) -> None:
        if not _is_power_of_two(point_count) or point_count < 256:
            raise ValueError("point_count must be a power of two, at least 256")
        if not x_max > x_min:
            raise ValueError("need x_max > x_min")
        self.samples = np.asarray(samples, dtype=np.complex128)
        self.x_min, self.x_max, self.point_count = x_min, x_max, point_count
        if self.samples.shape != (point_count,):
            raise ValueError("sample count disagrees with point_count")
        if not np.all(np.isfinite(self.samples.view(float))):
            raise ValueError("samples must be finite")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.point_count

    def grid(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.point_count)

    def norm(self) -> float:
        return math.sqrt(float(np.sum(np.abs(self.samples) ** 2)) * self.dx)


def gaussian_packet(
    x_min: float,
    x_max: float,
    point_count: int,
    center: float = 0.0,
    sigma: float = 1.0,
    momentum: float = 0.0,
) -> Wavefunction1D:
    """Normalized Gaussian of position width ``sigma`` carrying mean ``momentum``."""
    state = Wavefunction1D(
        samples=np.zeros(point_count, dtype=np.complex128),
        x_min=x_min,
        x_max=x_max,
        point_count=point_count,
    )
    x = state.grid()
    psi = np.exp(-((x - center) ** 2) / (4.0 * sigma**2) + 1j * momentum * (x - center))
    state.samples = psi / (math.sqrt(float(np.sum(np.abs(psi) ** 2)) * state.dx))
    return state


def _check_health(psi: np.ndarray, step: int) -> None:
    peak = float(np.max(np.abs(psi)))
    if not math.isfinite(peak) or peak == 0.0:
        raise PropagationError(f"non-finite or vanished amplitudes at step {step}")
    edge = max(
        float(np.max(np.abs(psi[:BOUNDARY_CELLS]))),
        float(np.max(np.abs(psi[-BOUNDARY_CELLS:]))),
    )
    if edge > BOUNDARY_REL_TOL * peak:
        raise BoundaryEscapeError(
            f"wavepacket reached the grid boundary at step {step} "
            f"(edge/peak = {edge / peak:.2e})"
        )


def _check_steps(steps: int) -> list[int]:
    """Steps after which a run health-checks its state: every CHECK_INTERVAL-th and the last."""
    checked = list(range(CHECK_INTERVAL - 1, steps - 1, CHECK_INTERVAL))
    return checked + [steps - 1]


def _wavenumbers(state: Wavefunction1D) -> np.ndarray:
    return 2.0 * math.pi * np.fft.fftfreq(state.point_count, d=state.dx)


def propagate(
    state: Wavefunction1D, potential: np.ndarray, mass: float, dt: float, steps: int
) -> Wavefunction1D:
    """Evolve ``state`` through ``steps`` Strang-split steps of ``dt`` under the
    static ``potential``, one value per grid point.

    ``dt`` may be negative (backward propagation); the spectral stability
    bound |dt| E_kin_max < pi is enforced before the first step.
    """
    if dt == 0.0 or not math.isfinite(dt):
        raise ValueError("dt must be nonzero and finite")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if mass <= 0.0:
        raise ValueError("mass must be positive")
    k = _wavenumbers(state)
    k_max = math.pi / state.dx
    if abs(dt) * k_max**2 / (2.0 * mass) >= math.pi:
        raise StabilityBoundError(
            "time step violates |dt| * E_kin_max < pi; shrink dt or coarsen the grid"
        )
    kinetic = np.exp(-1j * k**2 * dt / (2.0 * mass))
    if np.shape(potential) != (state.point_count,):
        raise ValueError("the potential must hold one value per grid point")
    half = np.exp(-0.5j * np.asarray(potential, dtype=float) * dt)

    checked = frozenset(_check_steps(steps))
    psi = state.samples.copy()
    spectrum = np.empty_like(psi)
    for step in range(steps):
        psi *= half
        np.fft.fft(psi, out=spectrum)
        spectrum *= kinetic
        np.fft.ifft(spectrum, out=psi)
        psi *= half
        if step in checked:
            _check_health(psi, step)
    return Wavefunction1D(
        samples=psi, x_min=state.x_min, x_max=state.x_max, point_count=state.point_count
    )


def _free_evolution(state: Wavefunction1D, mass: float, dt: float, steps: int) -> Wavefunction1D:
    """Exact free evolution of ``state`` over ``steps * dt``: one spectral multiply.

    On the periodic grid the free propagator is diagonal in momentum space,
    so the state at time t is ifft(fft(psi) exp(-i k^2 t / 2m)) with no
    splitting error.  The state is formed and health-checked at the times a
    stepped run of the same ``dt`` and ``steps`` would check it.
    """
    spectrum = np.fft.fft(state.samples)
    rate = _wavenumbers(state) ** 2 / (2.0 * mass)
    for step in _check_steps(steps):
        psi = np.fft.ifft(spectrum * np.exp(-1j * rate * ((step + 1) * dt)))
        _check_health(psi, step)
    return Wavefunction1D(
        samples=psi, x_min=state.x_min, x_max=state.x_max, point_count=state.point_count
    )


def fidelity(a: Wavefunction1D, b: Wavefunction1D) -> float:
    """|<a|b>| / (||a|| ||b||), in [0, 1]; global phases drop out."""
    if (a.x_min, a.x_max, a.point_count) != (b.x_min, b.x_max, b.point_count):
        raise ValueError("states live on different grids")
    norm_a = a.norm()
    norm_b = b.norm()
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("fidelity of a zero-norm state is undefined")
    overlap = abs(complex(np.sum(np.conj(a.samples) * b.samples)) * a.dx)
    return min(1.0, overlap / (norm_a * norm_b))

