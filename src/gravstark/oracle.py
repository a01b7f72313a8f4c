"""Spectral machinery that cross-checks the closed forms.

Everything here works in Hartree atomic units of whichever reduced mass the
caller's unit scale was built from: lengths in Bohr radii, energies in
Hartree.  No SI value enters or leaves this module.  ``radial_eigensolve``
discretizes the radial equation for u(r) = r R(r),

    -(1/2) u'' + [ l(l+1)/(2 r^2) - 1/r ] u = E u,

with second-order central differences on a uniform grid whose first point
sits one spacing away from the origin, so the left Dirichlet ghost node lies
exactly at r = 0.  Quoted energies are Richardson extrapolated over spacings
h and h/2.

The n-manifold's first-order splitting is the spectrum of -A g z within the
manifold, and the closed form emerges from diagonalizing it instead of being
assumed.  ``_manifold_spectrum(n)`` returns the spectrum of z in Bohr radii;
``parabolic.degenerate_pt`` scales it to joules.  Its radial states come from
a Laguerre basis t^(l+1) e^(-t/2) p_k(t), t = 2r/nu, whose scale nu = 1.237 n
deliberately differs from the states' own decay length n (Rotenberg 1962;
Baye 2015), by Cholesky reduction and a symmetric eigensolve; the radial
dipoles <n l|r|n l+1> follow by Gauss quadrature, and z splits into one
tridiagonal block of size n - |m| per m.  That numpy-only route covers every
n up to 50, and its spectrum is memoized per n.

``stabilization_scan`` diagnoses bound versus continuum character by
diagonalizing a half-axis model with a hard wall at increasing box sizes:
continuum level spacings shrink towards 1/sqrt(L), as the semiclassical
density of states (the integral of dx/p) grows like sqrt(L); bound levels
converge.

The scan's values are those of one value-mode bisection over the window
widened by 0.6 Hartree on each side and clipped to the interval LAPACK
bisects.  Bisection halves at float midpoints and stops at widths no window
sets, so a solve over one leaf of that tree returns the whole-window floats
inside it; the scan solves only leaves around the centre and its neighbour.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import EigensolverError, EmptyWindowError, GridResolutionError

__all__ = [
    "ScanPoint",
    "radial_eigensolve",
    "stabilization_scan",
]

RESIDUAL_CERTIFICATE = 1e-10   # per eigenpair, relative to a norm bound of H
DISCRETIZATION_GATE = 1e-5     # Hartree, estimated truncation error per level
GROUPING_REL_TOL = 1e-10       # relative tolerance for merging equal shifts
LEVEL_GATE = 1e-12             # relative error allowed on -1/(2 n^2) of a basis state
_BASIS_SCALE = 1.237           # Laguerre scale nu over n: unmatched to the states' decay
_BASIS_MARGIN = 40             # basis functions beyond the n - l of the wanted state
_SCAN_MARGIN = 0.6             # Hartree searched beyond each side of a scan window
_SCAN_DEPTH = 8                # bisection-tree depth of the leaves a scan solves


def _check_coefficients(spacing: float, l: int, wall_force: float) -> None:
    """Raise ``ValueError`` unless a grid Hamiltonian's Gershgorin bound is a finite float.

    The bound 2/h^2 + l(l+1)/(2h^2) + 1/h + F L holds the kinetic diagonal and
    its two neighbours, the centrifugal and Coulomb terms at the first point
    and the field ``wall_force`` = F L at the far wall, so every entry and
    every Gershgorin end point built from them is finite too.
    """
    try:
        bound = (2.0 + l * (l + 1) / 2.0) / spacing**2 + 1.0 / spacing + wall_force
    except (OverflowError, ZeroDivisionError):
        bound = math.inf
    if not math.isfinite(bound):
        raise ValueError(
            f"grid coefficients overflow a float at spacing {spacing}, l = {l} "
            f"and far-wall force {wall_force}"
        )


def _solve_radial(spacing: float, r_max: float, l: int, count: int):
    """Lowest ``count`` raw finite-difference eigenpairs at one spacing.

    Returns (energies, u-columns normalized by trapezoid).
    """
    n_points = round(r_max / spacing)
    if count > n_points - 1:
        raise ValueError("grid too small for the requested number of states")
    _check_coefficients(spacing, l, 0.0)
    # Imported here: scipy.linalg is slow to import and only the grid solves need it.
    from scipy.linalg import eigh_tridiagonal
    r = spacing * np.arange(1, n_points + 1)
    diag = 1.0 / spacing**2 + l * (l + 1) / (2.0 * r**2) - 1.0 / r
    off = np.full(n_points - 1, -0.5 / spacing**2)
    try:
        energies, vectors = eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise EigensolverError(f"tridiagonal eigensolver failed: {exc}") from exc

    # Certify each returned pair against a Gershgorin bound on ||H||.
    h_norm = float(np.max(np.abs(diag))) + 1.0 / spacing**2
    for i in range(count):
        v = vectors[:, i]
        hv = diag * v
        hv[:-1] += off * v[1:]
        hv[1:] += off * v[:-1]
        r_vec = hv - energies[i] * v
        # np.sum, not np.linalg.norm: a threaded BLAS dot would spin beside scipy's pool.
        residual = math.sqrt(float(np.sum(r_vec * r_vec)))
        if residual > RESIDUAL_CERTIFICATE * h_norm * math.sqrt(float(np.sum(v * v))):
            raise EigensolverError(
                f"eigenpair {i} residual {residual:.3e} exceeds certificate"
            )

    for i in range(count):
        vectors[:, i] /= math.sqrt(np.trapezoid(vectors[:, i] ** 2, dx=spacing))
    return energies, vectors


def radial_eigensolve(spacing: float, r_max: float, l: int, count: int) -> list[float]:
    """Lowest ``count`` energies (Hartree) of the radial Coulomb problem for angular momentum l.

    Entry i belongs to n = l + 1 + i.  The grid starts one spacing from the
    origin and its box is snapped to ``round(r_max / spacing) * spacing``;
    energies are Richardson extrapolated over the spacing and half of it.
    Raises ``GridResolutionError`` when the estimated truncation error of any
    level exceeds the accuracy gate, or when the box is too small to hold the
    highest requested state.
    """
    if not (0.0 < spacing < math.inf and 0.0 < r_max < math.inf):
        raise ValueError("grid spacing and box size must be positive and finite")
    if not math.isfinite(r_max / spacing):
        raise ValueError(f"grid spacing {spacing} is too fine for box size {r_max}")
    point_count = round(r_max / spacing)
    if point_count < 200:
        raise ValueError("point_count must be at least 200")
    r_max = point_count * spacing
    if not 1 <= count <= 10:
        raise ValueError("count must be in 1..10")
    if l < 0:
        raise ValueError("l must be non-negative")

    coarse, vectors = _solve_radial(spacing, r_max, l, count)
    fine, _ = _solve_radial(spacing / 2.0, r_max, l, count)
    estimate = np.abs(coarse - fine) / 3.0
    if np.max(estimate) > DISCRETIZATION_GATE:
        raise GridResolutionError(
            f"estimated discretization error {np.max(estimate):.3e} Hartree exceeds "
            f"{DISCRETIZATION_GATE:.0e}; refine the grid"
        )
    tail_start = int(0.95 * point_count)
    for i in range(count):
        tail = float(np.trapezoid(vectors[tail_start:, i] ** 2, dx=spacing))
        if tail > 1e-8:
            raise GridResolutionError(
                f"state {i} carries {tail:.2e} of its norm in the outer 5% of the box; "
                "increase r_max"
            )
    return [float(e) for e in (4.0 * fine - coarse) / 3.0]


def _angular_z_factor(l_low: int, m: int) -> float:
    """<l_low + 1, m | cos(theta) | l_low, m> for spherical harmonics."""
    l_up = l_low + 1
    return math.sqrt((l_up**2 - m**2) / ((2.0 * l_low + 1.0) * (2.0 * l_low + 3.0)))


def _laguerre(alpha: float, size: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal generalized Laguerre polynomials of degree < ``size`` at t,
    times sqrt(Gamma(alpha + 1)) so that degree 0 is 1, and their t-derivatives.

    Row k holds degree k, from the three-term recurrence of the Jacobi matrix.
    """
    values = np.zeros((size, t.size))
    slopes = np.zeros((size, t.size))
    values[0] = 1.0
    for k in range(size - 1):   # at k = 0, row -1 is still all zeros
        below = math.sqrt(k * (k + alpha))
        above = math.sqrt((k + 1) * (k + 1 + alpha))
        shifted = t - (2.0 * k + alpha + 1.0)
        values[k + 1] = (shifted * values[k] - below * values[k - 1]) / above
        slopes[k + 1] = (values[k] + shifted * slopes[k] - below * slopes[k - 1]) / above
    return values, slopes


def _radial_channel(n: int, l: int, nu: float):
    """The radial state (n, l) in a Laguerre basis of scale ``nu``.

    u(r) = sqrt(2/nu) t^(l+1) e^(-t/2) sum_k c_k p_k(t), t = 2r/nu, with p_k
    orthonormal for the weight t^(2l+2) e^-t.  Every matrix element is a
    polynomial against t^(2l) e^-t, integrated exactly by that weight's Gauss
    rule with one node more than the basis.  The (n - l)-th lowest Ritz pair
    is kept and certified against -1/(2 n^2).

    Returns (c, t, rule, basis) with the nodes t_j, rule[k, j] =
    sqrt(w_j) p_k^(2l)(t_j) and basis[k, j] = sqrt(w_j) p_k(t_j).  The
    Christoffel numbers w_j = 1 / sum_k p_k^(2l)(t_j)^2 span hundreds of
    decades, so w_j is never formed alone.
    """
    size = n - l + _BASIS_MARGIN
    alpha = 2.0 * l
    k = np.arange(size + 1)
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    jacobi = np.diag(2.0 * k + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    t = np.linalg.eigvalsh(jacobi)   # Golub & Welsch: the nodes are its eigenvalues
    rule, _ = _laguerre(alpha, size + 1, t)
    root_sum = np.sqrt(np.sum(rule * rule, axis=0))
    rule /= root_sum
    basis, slopes = _laguerre(alpha + 2.0, size, t)
    scale = root_sum * math.sqrt((alpha + 1.0) * (alpha + 2.0))
    basis, slopes = basis / scale, slopes / scale
    # d/dt [t^(l+1) e^(-t/2) p] = t^l e^(-t/2) [(l + 1 - t/2) p + t p']
    grad = (l + 1.0 - 0.5 * t) * basis + t * slopes
    overlap = (basis * t * t) @ basis.T
    # nu^2/2 times the Hamiltonian: kinetic, centrifugal and Coulomb terms
    hamiltonian = grad @ grad.T + l * (l + 1.0) * (basis @ basis.T) - nu * ((basis * t) @ basis.T)
    lower = np.linalg.cholesky(overlap)
    reduced = np.linalg.solve(lower, np.linalg.solve(lower, hamiltonian).T)
    values, vectors = np.linalg.eigh(reduced)
    index = n - l - 1
    error = abs(values[index] * (2.0 * n / nu) ** 2 + 1.0)
    if error > LEVEL_GATE:
        raise EigensolverError(
            f"Laguerre basis resolves level n = {n}, l = {l} only to {error:.2e} relative"
        )
    return np.linalg.solve(lower.T, vectors[:, index]), t, rule, basis


def _radial_dipoles(n: int) -> list[float]:
    """<n l| r |n l+1> in Bohr radii for l = 0 .. n-2, by Gauss quadrature.

    u_l u_(l+1) r dr = (nu/2) t^(2l+4) e^-t f_l f_(l+1) dt: on the upper
    channel's rule (weight t^(2l+2) e^-t) f_l lies in the rule's own family,
    and the lower basis has as many functions as that rule has nodes, so the
    degree-(2 size - 1) integrand is integrated exactly.
    """
    nu = _BASIS_SCALE * n
    channels = [_radial_channel(n, l, nu) for l in range(n)]
    dipoles = []
    for (low, *_), (up, t, rule, basis) in zip(channels, channels[1:]):
        dipoles.append(0.5 * nu * float(np.sum(t * t * (low @ rule) * (up @ basis))))
    return dipoles


@lru_cache(maxsize=None)
def _manifold_spectrum(n: int) -> tuple[tuple[float, int], ...]:
    """Distinct eigenvalues of z within the n-manifold, in Bohr radii, ascending,
    with multiplicities.

    z couples l to l +- 1 at fixed m, so the n^2 states split into one
    tridiagonal block of size n - |m| per m, and blocks m and -m coincide.
    Memoized: the spectrum depends on n alone, never on the masses or the
    field.
    """
    dipoles = _radial_dipoles(n)
    values: list[float] = []
    for m in range(n):
        off = np.array([dipoles[l] * _angular_z_factor(l, m) for l in range(m, n - 1)])
        block = np.diag(off, 1) + np.diag(off, -1)
        values += list(np.linalg.eigvalsh(block)) * (1 if m == 0 else 2)
    ordered = np.sort(values)
    # A tridiagonal block with zero diagonal has a spectrum symmetric about 0,
    # so each value pairs with its mirror image; averaging the pair makes the
    # k = 0 group exactly 0 and the groups exact negatives of each other.
    ordered = 0.5 * (ordered - ordered[::-1])
    tol = GROUPING_REL_TOL * float(ordered[-1])
    groups = []
    start = 0
    for i in range(1, len(ordered) + 1):
        if i == len(ordered) or ordered[i] - ordered[i - 1] > tol:
            groups.append((math.fsum(ordered[start:i]) / (i - start), i - start))
            start = i
    return tuple(groups)


class ScanPoint(NamedTuple):
    """One box size of a stabilization scan (atomic units)."""

    box_size: float
    energy: float
    level_spacing: float


def _stebz_interval(diag: np.ndarray, off: np.ndarray) -> tuple[float, float]:
    """The interval (low, high] that LAPACK ``stebz`` bisects for an unsplit
    matrix: the Gershgorin interval widened by its fudge, formed op for op."""
    radius = np.abs(off)
    left, right = np.append(0.0, radius), np.append(radius, 0.0)
    low, high = float(np.min(diag - left - right)), float(np.max(diag + left + right))
    peak = float(np.max(radius))
    pivmin = max(1.0, peak * peak) * sys.float_info.min
    fudge = 2.1 * max(abs(low), abs(high)) * 2.0**-52 * diag.size
    return low - fudge - 2.1 * pivmin, high + fudge + 2.1 * pivmin


def _scan_box(diag: np.ndarray, off: np.ndarray, box: float, lo: float, hi: float):
    """(energy, level spacing) of the eigenvalue nearest the window centre.

    From the leaf holding the centre, solves the next leaf on the side of the
    nearer unsolved edge until the nearest value lies in [lo, hi] and nearer
    than that edge, then leaves upward (downward from the top) to its
    neighbour.  The root is the single leaf where a leaf might lie inside the
    stopping width or ``stebz`` would split the matrix.
    """
    # Imported here: scipy.linalg is slow to import and only the grid solves need it.
    from scipy.linalg import eigvalsh_tridiagonal

    center = 0.5 * (lo + hi)
    too_wide = (
        f"energy window [{lo}, {hi}] is too wide to resolve levels around its centre {center}"
    )
    empty = f"no eigenvalue in [{lo}, {hi}] for box size {box}"
    low, high = _stebz_interval(diag, off)
    if not math.ulp(center) < high - low:
        # The floats at the centre are no finer than the whole spectrum, so
        # |value - centre| cannot tell the levels apart: refused before any solve.
        raise ValueError(too_wide)
    # Bounds the bisection's stopping width, with room for rounding.
    slack = 8.0 * diag.size * sys.float_info.epsilon * max(abs(low), abs(high))
    low, high = max(low, lo - _SCAN_MARGIN), min(high, hi + _SCAN_MARGIN)
    if not low < high:
        raise EmptyWindowError(empty)
    # stebz's split test: each block it splits off is bisected over its own interval.
    with np.errstate(over="ignore"):
        splits = np.any(np.abs(diag[1:] * diag[:-1]) * 2.0**-104 + sys.float_info.min > off * off)
    edges = [low, high]
    if not splits and (high - low) / 2.0**_SCAN_DEPTH > slack:
        for _ in range(_SCAN_DEPTH):
            edges = [x for a, b in zip(edges, edges[1:]) for x in (a, 0.5 * (a + b))] + [high]
    top = len(edges) - 1

    def solve(leaf):
        bounds = (edges[leaf], edges[leaf + 1])
        return eigvalsh_tridiagonal(diag, off, select="v", select_range=bounds)

    # Leaves first..last - 1 are solved; leaf k is (edges[k], edges[k + 1]].
    first = sum(edge < center for edge in edges[1:-1])
    last = first + 1
    values = solve(first)
    while True:
        below = center - edges[first] if first else math.inf
        above = edges[last] - center if last < top else math.inf
        inside = (values >= lo) & (values <= hi)
        if not np.any(inside) and (first == 0 or edges[first] < lo) and (
            last == top or edges[last] >= hi
        ):
            raise EmptyWindowError(empty)
        settled = False
        if values.size:
            nearest = int(np.argmin(np.abs(values - center)))
            settled = bool(inside[nearest]) and abs(values[nearest] - center) < min(below, above)
            if settled and nearest + 1 < values.size:
                return float(values[nearest]), float(values[nearest + 1] - values[nearest])
            if settled and last == top and nearest > 0:
                return float(values[nearest]), float(values[nearest] - values[nearest - 1])
        if first == 0 and last == top:
            if values.size < 2:
                raise EmptyWindowError(
                    f"no neighboring eigenvalue around the window for box size {box}"
                )
            # Some value lies in [lo, hi], so the exact nearest one does too:
            # this pick can only come from the centre absorbing every |value - centre|.
            raise ValueError(too_wide)
        if last < top and (settled or above <= below):
            values = np.concatenate([values, solve(last)])
            last += 1
        else:
            first -= 1
            values = np.concatenate([solve(first), values])


def stabilization_scan(
    box_sizes,
    field_force: float,
    state_energy_window: tuple[float, float],
    spacing: float = 0.05,
) -> list[ScanPoint]:
    """Hard-wall spectra of the half-axis model -1/x - F x at growing box sizes.

    For each box the eigenvalue nearest the window center is reported together
    with the local level spacing around it.  With F > 0 the spacing in the
    downhill continuum shrinks between 1/L and the linear-potential limit
    1/sqrt(L); with F = 0 a bound level in the window converges as the box grows.

    The values are those of one value-mode bisection (LAPACK ``stebz``) over
    (lo - 0.6, hi + 0.6] clipped to the interval ``stebz`` bisects, whose
    midpoints and stopping widths no window sets, so a solve over one depth-8
    leaf of its tree returns the same floats there.  Leaves are solved one at
    a time outward from the centre and on to the neighbour, at most 2**8 per
    box.  Digits and errors are those of the whole-window solve.
    """
    sizes = [float(b) for b in box_sizes]
    if len(sizes) < 3:
        raise ValueError("need at least three box sizes")
    if not all(math.isfinite(b) for b in sizes):
        raise ValueError("box sizes must be finite")
    if any(b2 <= b1 for b1, b2 in zip(sizes, sizes[1:])):
        raise ValueError("box sizes must be strictly increasing (no duplicates)")
    if not 0.0 <= field_force < math.inf:
        raise ValueError("field force must be finite and non-negative")
    if not 0.0 < spacing < math.inf:
        raise ValueError("grid spacing must be positive and finite")
    lo, hi = float(state_energy_window[0]), float(state_energy_window[1])
    if not -math.inf < lo < hi < math.inf:
        raise ValueError("energy window must be finite with lo < hi")
    if not math.isfinite(sizes[-1] / spacing):
        raise ValueError(f"grid spacing {spacing} is too fine for box size {sizes[-1]}")
    counts = [round(box / spacing) for box in sizes]
    if counts[0] < 3:
        raise ValueError(
            f"box size {sizes[0]} holds fewer than 3 grid points at spacing {spacing}"
        )
    _check_coefficients(spacing, 0, field_force * sizes[-1])

    out = []
    for box, count in zip(sizes, counts):
        x = spacing * np.arange(1, count)
        diag = 1.0 / spacing**2 - 1.0 / x - field_force * x
        off = np.full(count - 2, -0.5 / spacing**2)
        energy, gap = _scan_box(diag, off, box, lo, hi)
        out.append(ScanPoint(box_size=box, energy=energy, level_spacing=gap))
    return out
