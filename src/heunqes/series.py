"""Frobenius series engine for the biconfluent Heun equation

    H'' + [theta/xi - alpha - 2*xi] H' + [g - (theta*alpha + 2*delta)/(2*xi)] H = 0.

The solution regular at the origin is the power series H(xi) = sum_j c_j xi^j
with the normalization c_0 = 1, the seed

    c_1 = alpha/2 + delta/theta,

and the two-term recurrence

    c_{j+2} = [2*alpha*(j+1) + theta*alpha + 2*delta] * c_{j+1} / [2*(j+2)*(j+1+theta)]
            - (g - 2*j) * c_j / [(j+2)*(j+1+theta)].

The series collapses to a degree-n polynomial exactly when g = 2n and
c_{n+1} = 0 simultaneously; that pair of conditions is the quasi-exact
solvability mechanism that quantizes the oscillator frequency (see quantize).
_raw_coefficients is the one implementation of the recurrence: quantize calls
it for c_{n+1}(omega) and for each state's polynomial, and every c_j the
package reports comes from it. Given equal-shape arrays of alpha and delta it
runs the recurrence for all of them at once, each element bit-identical to a
scalar call, which is how quantize treats all frequencies of a cell at once.
This module only manipulates the series; it knows nothing about physical
parameters.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OverflowGuard

# Coefficients beyond this magnitude abort generation: the recurrence has
# quadratically growing denominators, so growth this large only happens for
# pathological parameters and would otherwise surface as silent infinities.
OVERFLOW_LIMIT = 1e250

# Largest polynomial degree the downstream root-finder is rated for in double
# precision.
MAX_DEGREE = 50


@dataclass(frozen=True)
class HeunParams:
    """Dimensionless parameters (alpha, delta, theta) of a truncated state.

    theta = 2|l| + 1 is an odd positive integer. The spectral parameter g is
    not stored: for a degree-n state the truncation condition pins it to 2n.
    """

    alpha: float
    delta: float
    theta: int

    def __post_init__(self):
        if self.theta < 1 or self.theta % 2 == 0:
            raise ValueError(f"theta must be an odd positive integer, got {self.theta}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.delta)):
            raise ValueError("HeunParams entries must be finite")


def _raw_coefficients(alpha, delta, theta: int, g: float, j_max: int):
    """Series coefficients [c_0, ..., c_{j_max}] for j_max >= 1.

    Floats give a list of plain floats. Equal-shape arrays alpha and delta
    give an array with one more axis, of length j_max + 1, whose every
    element is bit-identical to the scalar call at that (alpha, delta).
    Set g = 2n to probe truncation at degree n: c_{n+1} is then the
    truncation residual. Raises OverflowGuard the moment any coefficient
    magnitude passes OVERFLOW_LIMIT, in any element.
    """
    batch = np.ndim(alpha) > 0
    alpha, delta = np.asarray(alpha, dtype=float), np.asarray(delta, dtype=float)
    two_alpha, theta_alpha, two_delta = 2.0 * alpha, theta * alpha, 2.0 * delta
    c = [np.ones_like(alpha), alpha / 2.0 + delta / theta]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(j_max - 1):
            c_next = (
                (two_alpha * (j + 1) + theta_alpha + two_delta) * c[j + 1]
                / (2.0 * (j + 2) * (j + 1 + theta))
                - (g - 2.0 * j) * c[j] / ((j + 2) * (j + 1 + theta))
            )
            big = np.abs(c_next) > OVERFLOW_LIMIT
            if big.any():
                at = np.argmax(big)  # the first offending element
                c_big, a, d = (np.ravel(x)[at] for x in (c_next, alpha, delta))
                raise OverflowGuard(
                    f"|c_{j + 2}| = {abs(c_big):.3e} exceeds {OVERFLOW_LIMIT:.0e} "
                    f"(alpha={a:.6g}, delta={d:.6g}, theta={theta}, g={g:.6g})"
                )
            c.append(c_next)
    out = np.stack(c, axis=-1)
    return out if batch else out.tolist()


def evaluate_H(coeffs, xi):
    """Evaluate H(xi) = sum_j coeffs[j] xi^j by Horner's rule.

    Accepts a scalar or an ndarray of evaluation points.
    """
    acc = np.zeros_like(np.asarray(xi, dtype=float)) if isinstance(xi, np.ndarray) else 0.0
    for c in reversed(coeffs):
        acc = acc * xi + c
    return acc


def radial_ansatz(coeffs, alpha: float, abs_l: int, xi):
    """Unnormalized radial profile R(xi) = exp(-xi^2/2) exp(-alpha*xi/2) xi^|l| H(xi).

    The Gaussian factor comes from the harmonic term, the plain exponential
    from the linear term, and xi^|l| enforces regularity at the origin. Both
    exponentials are taken as one, exp(-xi*(xi + alpha)/2), so a large
    negative alpha cannot make them overflow to inf * 0 = nan. For alpha < 0
    that is a Gaussian centred at xi = -alpha/2, written exp(-(xi + alpha/2)^2/2):
    the dropped constant exp(alpha^2/8) passes the double range once
    alpha < -75, and it cancels in any normalized profile.
    Accepts a scalar or an ndarray; xi must be >= 0 for the result to be the
    physical profile.
    """
    xi = np.asarray(xi, dtype=float) if isinstance(xi, np.ndarray) else float(xi)
    exponent = -0.5 * (xi + 0.5 * alpha) ** 2 if alpha < 0.0 else -0.5 * xi * (xi + alpha)
    return np.exp(exponent) * xi**abs_l * evaluate_H(coeffs, xi)
