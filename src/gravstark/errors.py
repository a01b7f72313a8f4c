"""Exception types shared across the package."""


class GravstarkError(Exception):
    """Base class for all package-specific failures."""


class ResourceLimitError(GravstarkError):
    """A requested computation exceeds the size limits of a dense check."""


class GridResolutionError(GravstarkError):
    """Discretization too coarse, or box too small, for the requested accuracy."""


class EigensolverError(GravstarkError):
    """The eigensolver failed or an eigenpair failed its residual certificate."""


class NoBarrierError(GravstarkError):
    """Field too strong: turning points merged, no tunneling barrier exists."""


class EmptyWindowError(GravstarkError):
    """No eigenvalue found inside (or next to) the requested energy window."""


class StableAtomSignal(GravstarkError):
    """Internal field coupling vanishes: infinite lifetime, nothing to estimate."""


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


class PropagationError(GravstarkError):
    """Propagation produced non-finite amplitudes."""
