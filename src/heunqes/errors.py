"""Exception hierarchy for the quasi-exactly-solvable spectrum engine.

Each class names one numerical outcome of the physics pipeline (series
overflow, a frequency out of range, no frequency root, quadrature or
eigensolver breakdown), and all derive from HeunQESError so callers can
catch them with one base class. Bad input is not among them: the record that
owns a value raises ValueError for it.
"""


class HeunQESError(Exception):
    """Base class for the numerical failures raised by this package."""


class OverflowGuard(HeunQESError):
    """A series coefficient exceeded the overflow threshold (pathological input)."""


class NonPositiveFrequency(HeunQESError):
    """Oscillator frequency must be strictly positive."""


class NoRootInRange(HeunQESError):
    """c_{n+1}(omega) has no positive real root: the cell has no quantized frequency."""


class QuadratureFailure(HeunQESError):
    """Normalization quadrature did not converge under grid refinement."""


class ConvergenceFailure(HeunQESError):
    """Tridiagonal eigensolver failed or returned an inconsistent spectrum."""
