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
it once per cell for c_{n+1}(omega), each state's polynomial and its node
count, and every c_j the package reports comes from it. Given equal-shape
arrays of alpha and delta it runs the recurrence for all of them at once,
each element bit-identical to a scalar call, which is how quantize treats
all frequencies of a cell at once. The numerators and denominators of every
step are computed before the loop, so a step costs one multiply, one divide
and one subtract over the whole batch.
This module holds only the series: the coefficients and their polynomial
H. It knows nothing about physical parameters; the radial profile built on
H is wavefunction.evaluate_R.
"""

import numpy as np

from .errors import OverflowGuard

# Coefficients beyond this magnitude abort generation: the recurrence has
# quadratically growing denominators, so growth this large only happens for
# pathological parameters and would otherwise surface as silent infinities.
OVERFLOW_LIMIT = 1e250

# Largest polynomial degree the downstream root-finder is rated for in double
# precision.
MAX_DEGREE = 50


def _raw_coefficients(alpha, delta, theta: int, g: float, j_max: int):
    """Series coefficients [c_0, ..., c_{j_max}] for j_max >= 1.

    Floats give a list of plain floats. Equal-shape arrays alpha and delta
    give an array with one more axis, of length j_max + 1, whose every
    element is bit-identical to the scalar call at that (alpha, delta).
    Set g = 2n to probe truncation at degree n: c_{n+1} is then the
    truncation residual. Raises OverflowGuard if any c_j (j >= 2) of any element
    passes OVERFLOW_LIMIT, naming the first such j and its first such element.

    The numerators (g - 2j, 2 alpha (j+1) + theta alpha + 2 delta) of every step
    and their denominators are computed up front, so step j is one multiply of
    the pair (c_j, c_{j+1}), one divide and one subtract, each rounding exactly
    as the formula read left to right.
    """
    batch = np.ndim(alpha) > 0
    alpha, delta = np.asarray(alpha, dtype=float), np.asarray(delta, dtype=float)
    a, d = alpha.reshape(-1), delta.reshape(-1)
    j = np.arange(j_max - 1, dtype=float)
    num = np.empty((j_max - 1, 2, a.size))
    num[:, 0] = (g - 2.0 * j)[:, None]
    num[:, 1] = (2.0 * a * (j[:, None] + 1.0) + theta * a) + 2.0 * d
    den = np.stack([(j + 2.0) * (j + 1.0 + theta), 2.0 * (j + 2.0) * (j + 1.0 + theta)], axis=-1)[..., None]
    c = np.empty((j_max + 1, a.size))  # c[j] holds c_j of every element
    c[0] = 1.0
    c[1] = a / 2.0 + d / theta
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(j_max - 1):
            pair = num[k] * c[k : k + 2]
            pair /= den[k]
            np.subtract(pair[1], pair[0], out=c[k + 2])
    big = np.abs(c[2:]) > OVERFLOW_LIMIT
    if big.any():
        k = np.argmax(big.any(axis=1))
        at = np.argmax(big[k])
        raise OverflowGuard(
            f"|c_{k + 2}| = {abs(c[k + 2, at]):.3e} exceeds {OVERFLOW_LIMIT:.0e} "
            f"(alpha={a[at]:.6g}, delta={d[at]:.6g}, theta={theta}, g={g:.6g})"
        )
    return c.T.reshape(alpha.shape + (j_max + 1,)) if batch else c[:, 0].tolist()


def evaluate_H(coeffs, xi):
    """Evaluate H(xi) = sum_j coeffs[j] xi^j by Horner's rule.

    Accepts a scalar or an ndarray of evaluation points.
    """
    acc = np.zeros_like(np.asarray(xi, dtype=float)) if isinstance(xi, np.ndarray) else 0.0
    for c in reversed(coeffs):
        acc = acc * xi + c
    return acc

