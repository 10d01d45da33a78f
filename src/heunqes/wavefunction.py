"""Bound-state radial wavefunctions assembled from solved frequency roots.

A SpectralSolution fixes the polynomial H and the exponential envelope; this
module turns that into the physical radial profile R(rho) and normalizes it
against the two-dimensional radial measure rho d(rho) (the z plane wave is
delta-normalized and excluded). The solver takes each state's node count
from Sturm counts on the Jacobi matrix of its recurrence (quantize._node_counts).
count_positive_roots, the positive real roots of H, stays as the independent
count the tests cross-check it against, and as the node-count layer the
benchmark traces by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import series
from .errors import QuadratureFailure

if TYPE_CHECKING:  # runtime import would be circular; quantize imports this module
    from .quantize import SpectralSolution

# Normalization quadrature: composite Simpson, doubled until the norm constant
# is stable to NORM_RTOL, starting coarse and refusing to refine forever.
NORM_RTOL = 1e-8
_SIMPSON_START = 512
_SIMPSON_MAX = 2**20


@dataclass(frozen=True)
class RadialWavefunction:
    """Normalized radial state: integral of |N*R|^2 rho d(rho) equals one."""

    solution: SpectralSolution
    norm_constant: float

    def evaluate(self, rho):
        """Normalized amplitude N*R at rho (scalar or array)."""
        return self.norm_constant * evaluate_R(self.solution, rho)

    def sample(self, n_samples: int, rho_max: float) -> list[tuple[float, float]]:
        """(rho, N*R) pairs on n_samples uniform points covering [0, rho_max]."""
        rho = np.linspace(0.0, rho_max, n_samples)
        amp = self.evaluate(rho)
        return list(zip(rho.tolist(), np.asarray(amp).tolist()))


def evaluate_R(solution: SpectralSolution, rho):
    """Unnormalized radial amplitude at rho >= 0 (scalar or array).

    Converts rho to the dimensionless radius xi = sqrt(m*omega)*rho and
    evaluates the full ansatz envelope times the polynomial H.
    """
    xi_scale = math.sqrt(solution.problem.mass * solution.omega)
    return series.radial_ansatz(
        solution.coefficients, solution.alpha, solution.problem.abs_l, xi_scale * rho
    )


def suggested_rho_max(solution: SpectralSolution) -> float:
    """Radius beyond which the state is numerically dead.

    The integrand of the norm peaks near xi_peak = sqrt(|l| + n); the Gaussian
    exp(-xi^2) has suppressed that peak by 1e-16 at
    xi = sqrt(xi_peak^2 + 16 ln 10), and a further factor 1.5 pads the
    polynomial prefactors. The envelope is exp(-xi*(xi + alpha)), so the cut
    moves with alpha: for alpha < 0 it is the same Gaussian centred at
    xi = -alpha/2, and the cut moves out by that much; for alpha > 0 it dies
    sooner, where xi*(xi + alpha) reaches the Gaussian's xi_cut^2.
    """
    xi_cut = math.sqrt(solution.problem.abs_l + solution.n + 16.0 * math.log(10.0))
    half_alpha = 0.5 * solution.alpha
    if half_alpha < 0.0:
        xi_cut -= half_alpha
    else:
        xi_cut = math.sqrt(xi_cut**2 + half_alpha**2) - half_alpha
    return 1.5 * xi_cut / math.sqrt(solution.problem.mass * solution.omega)


def _simpson_norm_sq(solution: SpectralSolution, rho_max: float, intervals: int) -> float:
    """Composite-Simpson value of the squared norm integral on [0, rho_max].

    Overflow yields a non-finite value, which normalize reports as QuadratureFailure.
    """
    rho = np.linspace(0.0, rho_max, intervals + 1)
    h = rho_max / intervals
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.asarray(evaluate_R(solution, rho)) ** 2 * rho
        return float(h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()))


def normalize(solution: SpectralSolution) -> RadialWavefunction:
    """Compute the norm constant N by adaptive composite quadrature.

    Simpson's rule on [0, rho_max] with the interval count doubled until N
    moves by less than NORM_RTOL relative between refinements.

    Raises:
        QuadratureFailure: the integral is non-finite or non-positive, or the
            refinement cap is hit without convergence.
    """
    rho_max = suggested_rho_max(solution)
    previous = None
    intervals = _SIMPSON_START
    while intervals <= _SIMPSON_MAX:
        integral = _simpson_norm_sq(solution, rho_max, intervals)
        if not math.isfinite(integral) or integral <= 0.0:
            raise QuadratureFailure(
                f"norm integral evaluated to {integral!r} on [0, {rho_max:.6g}]"
            )
        norm = 1.0 / math.sqrt(integral)
        if previous is not None and abs(norm - previous) <= NORM_RTOL * abs(norm):
            return RadialWavefunction(solution, norm)
        previous = norm
        intervals *= 2
    raise QuadratureFailure(
        f"norm constant did not stabilize to {NORM_RTOL:g} within {_SIMPSON_MAX} intervals"
    )


def count_positive_roots(coeffs) -> int:
    """Number of strictly positive real roots of sum_j coeffs[j] x^j.

    The roots come from numpy.roots (companion-matrix eigenvalues); a root
    counts as real when |Im| <= 1e-9 * max(1, |root|). Trailing zero
    coefficients are ignored; a non-finite coefficient locates no root, so
    such a polynomial counts 0.
    """
    c = np.asarray(coeffs, dtype=float)
    if not np.all(np.isfinite(c)):
        return 0
    roots = np.roots(c[::-1])
    real = np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(roots))
    return int(np.count_nonzero(real & (roots.real > 0.0)))
