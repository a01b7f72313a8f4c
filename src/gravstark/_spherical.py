"""The spectrum of z within the spherical n-manifold, in exact rationals.

Every input is rational (Laguerre radial polynomials, moments j!, angular
factors), so each m-block's squared off-diagonals are exact ratios and its
roots are confirmed exactly.  Standard library only: no numpy, no BLAS.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import EigensolverError


def radial_polynomial(n: int, l: int) -> list[int]:
    """Coefficients, lowest degree first, of (n-l-1)! L^(2l+1)_(n-l-1)(s):
    the radial state (n, l) is s^l e^(-s/2) times it, with s = 2r/n."""
    k, alpha = n - l - 1, 2 * l + 1
    return [(-1) ** i * math.comb(k + alpha, k - i) * math.perm(k, k - i) for i in range(k + 1)]


def _ratio(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms, as a pair of integers."""
    common = math.gcd(num, den)
    return num // common, den // common


def squared_dipoles(n: int) -> list[tuple[int, int]]:
    """<n l|r|n l+1>^2 in squared Bohr radii for l = 0 .. n-2, as exact ratios.

    With P_l the radial polynomials, <l|r|l+1> = (n/2) J_l / sqrt(Q_l Q_(l+1)),
    where J_l integrates s^(2l+4) e^-s P_l P_(l+1) and the norm Q_l integrates
    s^(2l+2) e^-s P_l^2: integer sums of the moments j!.
    """
    factorial = [math.factorial(j) for j in range(2 * n + 2)]

    def moment(p: list[int], q: list[int], power: int) -> int:
        return sum(a * sum(b * factorial[power + i + j] for j, b in enumerate(q))
                   for i, a in enumerate(p))

    polys = [radial_polynomial(n, l) for l in range(n)]
    norms = [moment(p, p, 2 * l + 2) for l, p in enumerate(polys)]
    return [
        _ratio(n * n * moment(low, up, 2 * l + 4) ** 2, 4 * norms[l] * norms[l + 1])
        for l, (low, up) in enumerate(zip(polys, polys[1:]))
    ]


def _count_below(x: float, squares: list[float]) -> int:
    """Eigenvalues below x of the zero-diagonal tridiagonal matrix whose squared
    off-diagonals are ``squares``, by the signs of its LDL^T pivots (Sturm count)."""
    pivot = -x
    count = int(pivot < 0.0)
    for square in squares:
        pivot = -x - square / (pivot if pivot else -2.0**-1022)
        count += pivot < 0.0
    return count


def _vanishes(h: int, squares: list[tuple[int, int]]) -> bool:
    """Whether x = h/2 is exactly a root of the block with squared off-diagonals
    ``squares``, the ratios N_i/D_i.

    Runs p_(i+2) = x p_(i+1) - (N_i/D_i) p_i in integers as
    q_i = 2^i D_0 ... D_(i-2) p_i, so q_(i+2) = h D_i q_(i+1) - 4 N_i D_(i-1) q_i.
    """
    before, last, previous = 1, h, 1
    for num, den in squares:
        before, last, previous = last, h * den * last - 4 * num * previous * before, den
    return last == 0


def block_roots(squares: list[tuple[int, int]]) -> list[int]:
    """2x for each root x >= 0 of one z-block, which must be a half-integer.

    Bisection on Sturm counts splits [-1/4, Gershgorin bound) until each
    interval no wider than 1/4 holds one root; twice its midpoint, rounded,
    must be an exact root (``_vanishes``), else ``EigensolverError``.  The
    block's spectrum is symmetric about 0, so the negative roots are mirrors.
    """
    values = [num / den for num, den in squares]
    bound = 2.0 * math.sqrt(max(values, default=0.0)) + 1.0
    pending = [(-0.25, bound, _count_below(-0.25, values), len(values) + 1)]
    roots = []
    while pending:
        lo, hi, below, upto = pending.pop()
        if upto == below:
            continue
        if hi - lo <= 0.25:
            h = round(lo + hi)
            if upto - below > 1 or not _vanishes(h, squares):
                raise EigensolverError(
                    f"z-block root near {0.5 * (lo + hi)} is not an exact half-integer root"
                )
            roots.append(h)
            continue
        mid = 0.5 * (lo + hi)
        at = _count_below(mid, values)
        pending += [(lo, mid, below, at), (mid, hi, at, upto)]
    return roots


@lru_cache(maxsize=None)
def manifold_spectrum(n: int) -> tuple[tuple[float, int], ...]:
    """Distinct eigenvalues of z within the n-manifold (Bohr radii), ascending,
    with multiplicities, grouped by exact equality.

    z couples l to l +- 1 at fixed m: one tridiagonal block of size n - |m|
    per m, blocks m and -m alike.  Memoized: it depends on n alone.
    """
    dipoles = squared_dipoles(n)
    counts: dict[int, int] = {}
    for m in range(n):
        squares = [
            _ratio(num * ((l + 1) ** 2 - m * m), den * (2 * l + 1) * (2 * l + 3))
            for l, (num, den) in enumerate(dipoles[m:], start=m)
        ]
        weight = 1 if m == 0 else 2
        for h in block_roots(squares):
            for mirror in {h, -h}:
                counts[mirror] = counts.get(mirror, 0) + weight
    return tuple((h / 2, count) for h, count in sorted(counts.items()))
