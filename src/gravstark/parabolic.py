"""Hydrogen states in parabolic quantum numbers and the first-order splitting.

With a uniform field coupled to the internal coordinate through the mass
asymmetry A, each n-level splits linearly in the electric-quantum-number
combination k = n1 - n2:

    shift(n, k) = -3 A g hbar n k / (2 mu alpha c)

i.e. 2n - 1 equally spaced sublevels with spacing proportional to n |A| g,
the sublevel at k carrying n - |k| states.

``degenerate_pt`` gives the same shifts from the spectrum of z within the
spherical n-manifold, which ``_spherical`` builds in exact rationals with
the standard library alone; the joule scale of both routes lives here.  It
loads that module only when neither parity (n = 1) nor a zero coupling
already fixes the shifts.
"""

from __future__ import annotations

from typing import NamedTuple

from .constants import PhysicalConstants
from .errors import _carried, representable
from .masses import CompositeMasses
from .separation import FieldSpec

__all__ = [
    "ParabolicLevel",
    "Sublevel",
    "SplittingTable",
    "evaluate_levels",
    "splitting_table",
    "degenerate_pt",
]

MAX_PRINCIPAL = 50


class ParabolicLevel(NamedTuple):
    """One state (n, n1, n2, m) with k = n1 - n2, its field-free energy and
    first-order shift in joules."""

    n: int
    n1: int
    n2: int
    m: int
    k: int
    energy_unperturbed: float
    shift: float


class Sublevel(NamedTuple):
    """One sublevel of a split manifold.

    ``shift`` is kept separately from ``energy = E0 + shift`` because for
    realistic fields the shift lies far below one ulp of the unperturbed
    energy; the splitting structure is only resolvable in the shifts.
    """

    k: int
    shift: float   # J
    energy: float  # J
    multiplicity: int


class SplittingTable(NamedTuple):
    """Sublevels of one n-manifold, ordered by descending k."""

    n: int
    sublevels: tuple[Sublevel, ...]
    spacing: float       # J, gap between adjacent sublevels
    unperturbed: float   # J, field-free level energy E0


def _manifold(
    n: int,
    composites: CompositeMasses,
    field: FieldSpec,
    constants: PhysicalConstants,
) -> tuple[float, list[tuple[int, float]]]:
    """E0 = -mu c^2 alpha^2 / (2 n^2) and (k, shift) for k = n - 1 .. 1 - n, in joules.

    -3 A g hbar n and 2 mu alpha c are carried as mantissa and exponent; each
    quotient head * k / down lies in [0.5, 98) and rounds as the whole would."""
    if not 1 <= n <= MAX_PRINCIPAL:
        raise ValueError(f"principal quantum number must be in 1..{MAX_PRINCIPAL}")
    e0 = representable(
        f"unperturbed energy at n = {n}",
        -composites.reduced_mass * constants.c**2 * constants.alpha**2 / (2.0 * n * n),
    )
    a, g = composites.mass_asymmetry, field.magnitude
    head, head_exponent = _carried((-3.0, a, g, constants.hbar, n))
    down, down_exponent = _carried((2.0, composites.reduced_mass, constants.alpha, constants.c))
    return e0, [
        (k, representable(f"first-order shift at n = {n}, k = {k}", head * k / down,
                          a, g, k, exponent=head_exponent - down_exponent))
        for k in range(n - 1, -n, -1)
    ]


def evaluate_levels(
    n: int,
    composites: CompositeMasses,
    field: FieldSpec,
    constants: PhysicalConstants,
) -> list[ParabolicLevel]:
    """All n^2 states of the n-manifold with their unperturbed energies and
    first-order shifts, ordered by descending k, then (n1, m)."""
    e0, shifts = _manifold(n, composites, field, constants)
    levels = []
    for k, shift in shifts:
        # n1 - n2 = k and n1 + n2 + |m| = n - 1, so |m| = n - 1 + k - 2 n1 >= 0.
        for n1 in range(max(k, 0), (n - 1 + k) // 2 + 1):
            q = n - 1 + k - 2 * n1
            for m in ((0,) if q == 0 else (-q, q)):
                levels.append(ParabolicLevel(n, n1, n1 - k, m, k, e0, shift))
    return levels


def splitting_table(
    n: int,
    composites: CompositeMasses,
    field: FieldSpec,
    constants: PhysicalConstants,
) -> SplittingTable:
    """The 2n - 1 equally spaced sublevels of the n-manifold."""
    e0, shifts = _manifold(n, composites, field, constants)
    subs = [
        Sublevel(k=k, shift=shift, energy=e0 + shift, multiplicity=n - abs(k))
        for k, shift in shifts
    ]
    spacing = 0.0 if n == 1 else abs(shifts[n - 2][1])   # the k = 1 entry
    return SplittingTable(n=n, sublevels=tuple(subs), spacing=spacing, unperturbed=e0)


def degenerate_pt(
    n: int,
    composites: CompositeMasses,
    field: FieldSpec,
    constants: PhysicalConstants,
) -> list[tuple[float, int]]:
    """Distinct first-order shifts (J) with multiplicities from diagonalizing
    -A g z within the n-manifold.

    The eigenvalues lambda of z (Bohr radii) come from
    ``_spherical.manifold_spectrum``, built exactly and memoized per n, so a
    repeat n builds nothing, whatever the masses and the field.  Each call
    scales them to joules as -(A g a_mu) lambda, with a_mu = hbar /
    (mu alpha c) carried as mantissa and exponent, and each shift must be a
    normal float (else ``UnrepresentableError``).  Returned shifts ascend; at
    n = 1 (zero by parity) and at zero coupling the result is ``[(0.0, n^2)]``
    and nothing is built.
    """
    if not 1 <= n <= MAX_PRINCIPAL:
        raise ValueError(f"principal quantum number must be in 1..{MAX_PRINCIPAL}")
    if not composites.reduced_mass > 0.0:
        raise ValueError("reduced mass must be strictly positive")
    mantissa, exponent = _carried(
        (-1.0, composites.mass_asymmetry, field.magnitude, constants.hbar),
        (composites.reduced_mass, constants.alpha, constants.c),
    )
    if n == 1 or mantissa == 0.0:
        return [(0.0, n * n)]
    # Imported here: only calls that build a manifold compile and load it.
    from ._spherical import manifold_spectrum

    shifts = [
        (representable(f"oracle shift at n = {n}", mantissa * value, value, exponent=exponent), count)
        for value, count in manifold_spectrum(n)
    ]
    return shifts if mantissa > 0.0 else shifts[::-1]
