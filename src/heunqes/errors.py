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
    """A computed quantity left the double range (pathological input).

    Raised for a series coefficient, the frequency companion's scale, the
    n = 1 cubic, (m*omega)^1.5, the energy, the box, the radial envelope, the
    finite-difference operator and a sampled radial profile.
    """


class NonPositiveFrequency(HeunQESError):
    """An oscillator frequency that is not positive and finite."""


class NoRootInRange(HeunQESError):
    """c_{n+1}(omega) has no positive real root: the cell has no quantized frequency."""


class QuadratureFailure(HeunQESError):
    """Normalization quadrature did not converge under grid refinement."""


class ConvergenceFailure(HeunQESError):
    """Tridiagonal eigensolver failed or returned an inconsistent spectrum."""
