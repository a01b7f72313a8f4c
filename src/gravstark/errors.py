"""Exception types shared across the package, and its one float-range rule."""

import math
import sys


class GravstarkError(Exception):
    """Base class for all package-specific failures."""


class GridResolutionError(GravstarkError):
    """Discretization too coarse, or box too small, for the requested accuracy."""


class EigensolverError(GravstarkError):
    """The eigensolver failed or an eigenpair failed its residual certificate."""


class NoBarrierError(GravstarkError):
    """Field too strong: turning points merged, no tunneling barrier exists."""


class EmptyWindowError(GravstarkError):
    """No eigenvalue found inside (or next to) the requested energy window."""


class UndefinedRatioError(GravstarkError):
    """Total gravitational mass is zero; the frame mass ratio is undefined."""


class StabilityBoundError(GravstarkError):
    """Propagation time step violates the spectral stability bound."""


class BoundaryEscapeError(GravstarkError):
    """Wavepacket support reached the edge of the periodic grid."""


class DomainEscapeError(GravstarkError):
    """A coordinate shift would move the state support off the grid."""


class UnrepresentableError(GravstarkError):
    """A result that the inputs define overflows or underflows a float."""


def representable(name: str, value: float, *factors: float, exponent: int = 0) -> float:
    """``value * 2**exponent``, a closed-form result named ``name``, checked for range.

    If one of ``factors`` is exactly 0 the result is +0.0.  Otherwise it must
    be a finite normal float: 0, a subnormal, inf or nan means the product or
    quotient left the float range and its digits with it, and raises
    ``UnrepresentableError``.
    """
    if 0.0 in factors:
        return 0.0
    try:
        value = math.ldexp(value, exponent)
    except OverflowError:
        value = math.copysign(math.inf, value)
    if math.isfinite(value) and abs(value) >= sys.float_info.min:
        return value
    raise UnrepresentableError(f"{name} is {value!r}: outside the float range")


def _carried(factors, divisors=()) -> tuple[float, int]:
    """The product of ``factors``, divided by each of ``divisors`` in turn, as
    (mantissa, binary exponent) with 0.5 <= |mantissa| < 1 (or 0).  Partial
    results never leave the float range, and each step rounds as the plain
    left-to-right expression does wherever its partial results are normal."""
    mantissa, exponent = 1.0, 0
    for factor in factors:
        part, power = math.frexp(factor)
        mantissa, exponent = mantissa * part, exponent + power
    for divisor in divisors:
        part, power = math.frexp(divisor)
        mantissa, exponent = mantissa / part, exponent - power
    part, power = math.frexp(mantissa)
    return part, exponent + power


class PropagationError(GravstarkError):
    """Propagation produced non-finite amplitudes."""
