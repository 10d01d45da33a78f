"""Exception hierarchy for the quasi-exactly-solvable spectrum engine.

Every error raised by this package derives from HeunQESError so callers can
catch one base class; the concrete subclasses map one-to-one onto the
failure modes of the physics pipeline (invalid configuration, series
overflow, missing frequency roots, quadrature or eigensolver breakdown).
"""


class HeunQESError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveMass(HeunQESError):
    """Mass must be strictly positive."""


class ZeroAngularMomentum(HeunQESError):
    """l = 0 removes the Coulomb-type term; frequency quantization is undefined."""


class VanishingCoupling(HeunQESError):
    """M*lambda = 0 removes the Coulomb-type term required for quantization."""


class OverflowGuard(HeunQESError):
    """A series coefficient exceeded the overflow threshold (pathological input)."""


class NonPositiveFrequency(HeunQESError):
    """Oscillator frequency must be strictly positive."""


class NoRootInRange(HeunQESError):
    """c_{n+1}(omega) has no positive real root: the cell has no quantized frequency."""


class NoPositiveRoot(NoRootInRange):
    """No root of the ground-state (n = 1) cubic passes the sign test on c_2."""


class WrongDegree(HeunQESError):
    """Operation requires a specific polynomial degree n."""


class QuadratureFailure(HeunQESError):
    """Normalization quadrature did not converge under grid refinement."""


class InvalidGrid(HeunQESError):
    """Discretization grid violates its constraints (too coarse or empty box)."""


class ConvergenceFailure(HeunQESError):
    """Tridiagonal eigensolver failed or returned an inconsistent spectrum."""
