"""Bound-state radial wavefunctions: this module owns the radial profile R(rho) of a state.

evaluate_R builds the paper's ansatz on the polynomial H of a SpectralSolution,
suggested_rho_max gives the box where its density has died, normalize sets its
norm over that box against the two-dimensional radial measure rho d(rho) (the
z plane wave is delta-normalized and excluded), and RadialWavefunction carries
that box and samples the profile. The solver takes each state's node count
from Sturm counts on its recurrence (quantize._node_counts). The tests check it
against two independent counts: the dense Jacobi eigenvalues
(oracles.dense_node_count) and count_positive_roots, the positive real roots
of H, which is also the node-count layer the benchmark traces by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import series
from .errors import OverflowGuard, QuadratureFailure

if TYPE_CHECKING:  # annotations only: this module uses nothing of quantize at run time
    from .quantize import SpectralSolution

# suggested_rho_max cuts where the modelled density has fallen this many decades below its peak.
BOX_DECADES = 24
# Normalization quadrature: composite Simpson, doubled until the norm constant
# is stable to NORM_RTOL, starting coarse and refusing to refine forever.
NORM_RTOL = 1e-8
_SIMPSON_START = 512
_SIMPSON_MAX = 2**20


@dataclass(frozen=True)
class RadialWavefunction:
    """Normalized state: |N*R|^2 rho d(rho) integrates to one over [0, rho_max], the box of normalize."""

    solution: SpectralSolution
    norm_constant: float
    rho_max: float

    def evaluate(self, rho):
        """Normalized amplitude N*R at rho (scalar or array)."""
        return self.norm_constant * evaluate_R(self.solution, rho)

    def sample(self, n_samples: int, rho_max: float) -> tuple[np.ndarray, np.ndarray]:
        """Arrays rho and N*R on n_samples uniform points covering [0, rho_max].

        Raises:
            OverflowGuard: a sample is not finite; the message names the first such rho.
        """
        rho = np.linspace(0.0, rho_max, n_samples)
        amplitude = self.evaluate(rho)
        bad = np.flatnonzero(~np.isfinite(amplitude))
        if bad.size:
            raise OverflowGuard(
                f"radial profile overflows at rho = {rho[bad[0]]:.6g} (rho_max = {rho_max:.6g})"
            )
        return rho, amplitude


def evaluate_R(solution: SpectralSolution, rho):
    """Unnormalized radial profile at rho >= 0 (scalar or array): the paper's ansatz

        R(xi) = exp(-xi^2/2) exp(-alpha*xi/2) xi^|l| H(xi),   xi = sqrt(m*omega)*rho.

    The Gaussian factor comes from the harmonic term, the plain exponential
    from the linear term, and xi^|l| enforces regularity at the origin. Both
    exponentials are taken as one, exp(-xi*(xi + alpha)/2), so a large
    negative alpha cannot make them overflow to inf * 0 = nan. For alpha < 0
    that is a Gaussian centred at xi = -alpha/2, written exp(-(xi + alpha/2)^2/2):
    the dropped constant exp(alpha^2/8) passes the double range once
    alpha < -75, and it cancels in any normalized profile. Where the envelope
    underflows to 0 the profile is 0, even where xi^|l| H(xi) overflows;
    elsewhere an overflow comes back as a non-finite value, without a
    warning, which normalize and sample report. Raises OverflowGuard where the
    exponent is not finite, as for xi past about 1e154, where xi^2 leaves the double range.
    """
    alpha = solution.alpha
    xi = math.sqrt(solution.problem.mass * solution.omega) * rho
    # a numpy scalar rounds as a float does, but overflows to inf where float ** raises
    xi = np.asarray(xi, dtype=float) if isinstance(xi, np.ndarray) else np.float64(xi)
    with np.errstate(over="ignore"):
        exponent = -0.5 * (xi + 0.5 * alpha) ** 2 if alpha < 0.0 else -0.5 * xi * (xi + alpha)
    if not np.isfinite(exponent).all():
        raise OverflowGuard(f"radial envelope overflows (xi up to {np.max(xi):.3e}, alpha = {alpha:.6g})")
    envelope = np.exp(exponent)
    with np.errstate(over="ignore", invalid="ignore"):
        profile = envelope * xi**solution.problem.abs_l * series.evaluate_H(solution.coefficients, xi)
    return np.where(envelope > 0.0, profile, 0.0)[()]


def suggested_rho_max(solution: SpectralSolution) -> float:
    """The state's box: the radius where its density R^2 rho has died.

    normalize, the wavefunction command and verify all cut here. The density
    is xi^(2|l|+1) H(xi)^2 exp(-xi (xi + alpha)) with H of degree n, modelled
    as t^k exp(-t^2 - a t), k = 2(n + |l|) + 1, a = max(alpha, 0). t is
    measured from the envelope's Gaussian centre xi = -alpha/2 when
    alpha < 0, and from xi = 0 otherwise. The model peaks at
    t_p = 2k / (a + sqrt(a^2 + 8k)), a form without cancellation at any
    alpha, and the cut is the t > t_p where k ln t - t (t + a) has fallen
    BOX_DECADES decades below its peak. Past t_p that function falls at least
    like -(t - t_p)^2, so Newton from t_p + sqrt(drop) starts beyond the cut
    and descends to it monotonically; it stops when a step no longer descends.

    Raises:
        OverflowGuard: the box is zero or not finite.
    """
    k = 2 * (solution.n + solution.problem.abs_l) + 1
    a = max(solution.alpha, 0.0)
    drop = BOX_DECADES * math.log(10.0)
    peak = 2.0 * k / (a + math.hypot(a, math.sqrt(8.0 * k)))
    cut = math.nan  # stays so where alpha leaves the double range and peak underflows to 0
    if peak > 0.0:
        cut = peak + math.sqrt(drop)
        while True:
            excess = k * math.log(cut / peak) - (cut - peak) * (cut + peak + a) + drop
            step = excess / (k / cut - 2.0 * cut - a)
            if not cut - step < cut:
                break
            cut -= step
    rho_max = (cut + max(0.0, -0.5 * solution.alpha)) / math.sqrt(solution.problem.mass * solution.omega)
    if not 0.0 < rho_max < math.inf:
        raise OverflowGuard(
            f"state box is {rho_max!r} (alpha = {solution.alpha:.6g}, "
            f"m*omega = {solution.problem.mass * solution.omega:.3e})"
        )
    return rho_max


def _density(solution: SpectralSolution, rho: np.ndarray) -> np.ndarray:
    """The integrand R^2 rho of the squared norm; overflow yields a non-finite value."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(evaluate_R(solution, rho)) ** 2 * rho


def normalize(solution: SpectralSolution) -> RadialWavefunction:
    """Compute the norm constant N by adaptive composite quadrature.

    Simpson's rule on [0, rho_max] with the interval count doubled until N
    moves by less than NORM_RTOL relative between refinements. Each doubling
    evaluates R at the new midpoints only: linspace(0, rho_max, 2M + 1)[::2]
    is linspace(0, rho_max, M + 1) bit for bit, so the earlier samples are
    the even ones of the new level.

    Raises:
        QuadratureFailure: the integral is non-finite or non-positive, or the
            refinement cap is hit without convergence.
    """
    rho_max = suggested_rho_max(solution)
    previous = None
    intervals = _SIMPSON_START
    f = _density(solution, np.linspace(0.0, rho_max, intervals + 1))
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            integral = float(rho_max / intervals / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()))
        if not math.isfinite(integral) or integral <= 0.0:
            raise QuadratureFailure(
                f"norm integral evaluated to {integral!r} on [0, {rho_max:.6g}]"
            )
        norm = 1.0 / math.sqrt(integral)
        if previous is not None and abs(norm - previous) <= NORM_RTOL * abs(norm):
            return RadialWavefunction(solution, norm, rho_max)
        previous = norm
        intervals *= 2
        if intervals > _SIMPSON_MAX:
            raise QuadratureFailure(
                f"norm constant did not stabilize to {NORM_RTOL:g} within {_SIMPSON_MAX} intervals"
            )
        refined = np.empty(intervals + 1)
        refined[::2] = f
        refined[1::2] = _density(solution, np.linspace(0.0, rho_max, intervals + 1)[1::2])
        f = refined


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
