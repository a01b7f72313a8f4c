"""Hydrogen states in parabolic quantum numbers and the first-order splitting.

With a uniform field coupled to the internal coordinate through the mass
asymmetry A, each n-level splits linearly in the electric-quantum-number
combination k = n1 - n2:

    shift(n, k) = -3 A g hbar n k / (2 mu alpha c)

i.e. 2n - 1 equally spaced sublevels with spacing proportional to n |A| g,
the sublevel at k carrying n - |k| states.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import PhysicalConstants
from .errors import representable
from .masses import CompositeMasses
from .separation import FieldSpec

__all__ = [
    "ParabolicLevel",
    "Sublevel",
    "SplittingTable",
    "unperturbed_energy",
    "evaluate_levels",
    "splitting_table",
]

MAX_PRINCIPAL = 50


@dataclass(frozen=True)
class ParabolicLevel:
    """One state (n, n1, n2, m) with k = n1 - n2, its field-free energy and
    first-order shift in joules."""

    n: int
    n1: int
    n2: int
    m: int
    k: int
    energy_unperturbed: float
    shift: float

    def __post_init__(self) -> None:
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError("parabolic quantum numbers must be non-negative")
        if self.n != self.n1 + self.n2 + abs(self.m) + 1:
            raise ValueError("n must equal n1 + n2 + |m| + 1")
        if self.k != self.n1 - self.n2:
            raise ValueError("k must equal n1 - n2")


@dataclass(frozen=True)
class Sublevel:
    """One sublevel of a split manifold.

    ``shift`` is kept separately from ``energy = E0 + shift`` because for
    realistic fields the shift lies far below one ulp of the unperturbed
    energy; the splitting structure is only resolvable in the shifts.
    """

    k: int
    shift: float   # J
    energy: float  # J
    multiplicity: int


@dataclass(frozen=True)
class SplittingTable:
    """Sublevels of one n-manifold, ordered by descending k."""

    n: int
    sublevels: tuple[Sublevel, ...]
    spacing: float  # J, gap between adjacent sublevels


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_PRINCIPAL:
        raise ValueError(f"principal quantum number must be in 1..{MAX_PRINCIPAL}")


def unperturbed_energy(n: int, composites: CompositeMasses, constants: PhysicalConstants) -> float:
    """Field-free level energy -mu c^2 alpha^2 / (2 n^2) in joules."""
    _check_n(n)
    return representable(
        f"unperturbed energy at n = {n}",
        -composites.reduced_mass * constants.c**2 * constants.alpha**2 / (2.0 * n * n),
    )


def _shift(
    n: int,
    k: int,
    composites: CompositeMasses,
    field: FieldSpec,
    constants: PhysicalConstants,
) -> float:
    # Below |A| g = 2**-800 the product A g hbar would underflow, so the smaller
    # factor is carried times 2**800 and the one final division takes that back
    # out; that changes no bit of a normal-range result.
    a, g = composites.mass_asymmetry, field.magnitude
    scale = 1.0
    if abs(a) * g < 2.0**-800:
        scale = 2.0**800
        if abs(a) < g:
            a *= scale
        else:
            g *= scale
    shift = (
        -3.0 * a * g * constants.hbar * n * k
        / (2.0 * composites.reduced_mass * constants.alpha * constants.c)
    ) / scale
    return representable(f"first-order shift at n = {n}, k = {k}", shift, a, g, k)


def evaluate_levels(
    n: int,
    composites: CompositeMasses,
    field: FieldSpec,
    constants: PhysicalConstants,
) -> list[ParabolicLevel]:
    """All n^2 states of the n-manifold with their unperturbed energies and
    first-order shifts, ordered by descending k, then (n1, m)."""
    e0 = unperturbed_energy(n, composites, constants)
    levels = []
    for n1 in range(n):
        for n2 in range(n - n1):
            q = n - 1 - n1 - n2
            for m in ((0,) if q == 0 else (-q, q)):
                k = n1 - n2
                shift = _shift(n, k, composites, field, constants)
                levels.append(ParabolicLevel(n, n1, n2, m, k, e0, shift))
    levels.sort(key=lambda lv: (-lv.k, lv.n1, lv.m))
    return levels


def splitting_table(
    n: int,
    composites: CompositeMasses,
    field: FieldSpec,
    constants: PhysicalConstants,
) -> SplittingTable:
    """The 2n - 1 equally spaced sublevels of the n-manifold."""
    _check_n(n)
    e0 = unperturbed_energy(n, composites, constants)
    subs = []
    for k in range(n - 1, -n, -1):
        shift = _shift(n, k, composites, field, constants)
        subs.append(Sublevel(k=k, shift=shift, energy=e0 + shift, multiplicity=n - abs(k)))
    spacing = 0.0 if n == 1 else abs(_shift(n, 1, composites, field, constants))
    return SplittingTable(n=n, sublevels=tuple(subs), spacing=spacing)
