"""Brute-force finite-difference verifier for the radial spectrum.

Entirely independent of the series machinery: the radial equation is put in
self-adjoint form with u(rho) = sqrt(rho) * R(rho),

    -u'' + [ (l^2 - 1/4)/rho^2 + M*lambda*l/rho + m^2 w^2 rho^2 + 2 m eta rho ] u
        = zeta^2 u,

discretized by central second differences on a uniform grid with Dirichlet
ends, and diagonalized by Sturm-sequence bisection. A quantized frequency is
genuine exactly when the analytic zeta^2 shows up in this spectrum at the
index equal to the state's radial node count (Sturm oscillation ordering),
with the residual deviation shrinking like h^2 under grid doubling.

Dirichlet at rho = 0 is exact for |l| >= 1 because u ~ rho^(|l|+1/2) there;
the first grid node sits at h > 0, so |l| = 0 regression channels never touch
the 1/rho^2 singularity either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceFailure, InvalidGrid
from .wavefunction import suggested_rho_max

if TYPE_CHECKING:
    from .quantize import SpectralSolution

DEFAULT_GRID_N = 4000
PASS_TOL = 1e-3  # relative, acknowledges O(h^2) discretization error
# Box sizing: 1.5x the outer classical turning point of the claimed eigenvalue,
# floored at m*omega so the turning-point equation always has a positive root.
# Only index k is resolved, but the target keeps its +10*m*omega margin: it puts
# the box edge well past the state's own turning point, in the tail where the
# box error is negligible, and every recorded deviation was measured on it.
BOX_PADDING = 1.5
TARGET_MARGIN = 10.0
# Absolute bisection tolerance for the tridiagonal eigensolver. The LAPACK
# default scales with the matrix norm (~1/h^2), which at large N is far looser
# than the 1e-10 relative contract; a fixed tiny value keeps every eigenvalue
# refined to machine-level width.
_EIG_ABS_TOL = 1e-14
# The refined eigenvalue is bisected inside a window predicted from the
# coarse one by h^2 convergence. Its half-width is HINT_WIDTH times the coarse
# deviation |z_coarse - claim| (the prediction missed by at most 1.9% of it over
# the 132 states of n <= 12, l in {1, -1, 2}, and 2.4% over 543 random-sweep
# states), floored at HINT_NOISE_FLOOR roundings of the operator norm 4/h^2,
# far above the ~1e-10 rounding noise of an 8000-point eigenvalue.
HINT_WIDTH = 0.05
HINT_NOISE_FLOOR = 100.0


@dataclass(frozen=True)
class RadialOperatorSpec:
    """One finite-difference channel: physics plus grid.

    coulomb_strength carries the signed product M*lambda*l; abs_l enters only
    through the centrifugal term. The grid has n_grid interior nodes at
    rho_i = i * h, h = rho_max / (n_grid + 1), with u = 0 enforced at rho = 0
    and rho = rho_max.
    """

    m: float
    omega: float
    eta: float
    coulomb_strength: float
    abs_l: int
    rho_max: float
    n_grid: int = DEFAULT_GRID_N

    def __post_init__(self) -> None:
        if not (self.m > 0.0 and math.isfinite(self.m)):
            raise ValueError(f"mass must be positive and finite, got {self.m!r}")
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError(f"omega must be positive and finite, got {self.omega!r}")
        if not (math.isfinite(self.eta) and math.isfinite(self.coulomb_strength)):
            raise ValueError("eta and coulomb_strength must be finite")
        if self.abs_l < 0 or self.abs_l != int(self.abs_l):
            raise ValueError(f"abs_l must be a nonnegative integer, got {self.abs_l!r}")
        if self.n_grid < 100:
            raise InvalidGrid(f"need at least 100 grid points, got {self.n_grid}")
        if not (self.rho_max > 0.0 and math.isfinite(self.rho_max)):
            raise InvalidGrid(f"rho_max must be positive and finite, got {self.rho_max!r}")

    @property
    def step(self) -> float:
        return self.rho_max / (self.n_grid + 1)


@dataclass(frozen=True)
class OracleSpectrum:
    """Consecutive eigenvalues zeta^2_k of one channel, strictly ascending.

    eigenvalues[i] is zeta^2 at index k = first + i.
    """

    eigenvalues: tuple[float, ...]
    spec: RadialOperatorSpec
    first: int = 0


def build_operator(spec: RadialOperatorSpec) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the symmetric tridiagonal operator.

    Returns:
        (d, e) with d[i] = 2/h^2 + V_eff(rho_i) at the n_grid interior nodes
        and e[i] = -1/h^2 on both off-diagonals (length n_grid - 1).
    """
    h = spec.step
    rho = h * np.arange(1, spec.n_grid + 1)
    v_eff = (
        (spec.abs_l**2 - 0.25) / rho**2
        + spec.coulomb_strength / rho
        + (spec.m * spec.omega) ** 2 * rho**2
        + 2.0 * spec.m * spec.eta * rho
    )
    d = 2.0 / h**2 + v_eff
    e = np.full(spec.n_grid - 1, -1.0 / h**2)
    return d, e


def eigenvalues(
    spec: RadialOperatorSpec, count: int, first: int = 0, *, within: tuple[float, float] | None = None
) -> OracleSpectrum:
    """Eigenvalues of indices first..count-1 of the channel by Sturm-sequence bisection.

    With within = (lo, hi) only (lo, hi] is bisected, and its values are used
    when Sturm counts certify that it holds exactly these indices. Otherwise,
    as without a window, the indices are bisected from the Gershgorin bounds,
    so the result is the same indices either way.
    A narrow window costs fewer bisection sweeps: each halves the interval
    down to _EIG_ABS_TOL. The values themselves are exact only to the
    rounding of the operator, about half an ulp of 2/h^2 (see
    verify_solution).

    Raises:
        ConvergenceFailure: the bisection backend failed or returned a
            non-ascending sequence.
    """
    # scipy is imported here so the solver-only commands never load it.
    from scipy.linalg import LinAlgError, eigh_tridiagonal

    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > spec.n_grid:
        raise ValueError(f"cannot request {count} eigenvalues from a {spec.n_grid}-point grid")
    if not 0 <= first < count:
        raise ValueError(f"first must lie in [0, {count}), got {first}")
    d, e = build_operator(spec)
    vals = None if within is None else _certified_window(d, e, count, first, *within)
    if vals is None:
        try:
            vals = eigh_tridiagonal(
                d,
                e,
                eigvals_only=True,
                select="i",
                select_range=(first, count - 1),
                tol=_EIG_ABS_TOL,
            )
        except LinAlgError as exc:
            raise ConvergenceFailure(f"tridiagonal eigensolver failed: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise ConvergenceFailure("eigensolver returned non-finite eigenvalues")
    if np.any(np.diff(vals) <= 0.0):
        raise ConvergenceFailure("eigenvalues not strictly ascending; bisection lost states")
    return OracleSpectrum(tuple(float(v) for v in vals), spec, first=first)


def _certified_window(
    d: np.ndarray, e: np.ndarray, count: int, first: int, lo: float, hi: float
) -> np.ndarray | None:
    """Eigenvalues in (lo, hi] if they are exactly indices first..count-1, else None.

    Two dstebz calls over a value range (range = 1): a Sturm count of
    (floor, lo], with floor below the Gershgorin bound and a tolerance so wide
    that nothing is bisected, then the bisection of (lo, hi] to _EIG_ABS_TOL.
    """
    from scipy.linalg.lapack import dstebz

    floor = min(float(d.min() - 2.0 * np.abs(e).max()), lo)
    floor -= 1.0 + abs(floor)
    if not -math.inf < floor < lo < hi < math.inf:
        return None
    below, _, _, _, info_below = dstebz(d, e, 1, floor, lo, 0, 0, 1e300, b"E")
    found, vals, _, _, info = dstebz(d, e, 1, lo, hi, 0, 0, _EIG_ABS_TOL, b"E")
    if info_below != 0 or info != 0 or below != first or found != count - first:
        return None
    return vals[:found]


def _refined_hint(claim: float, coarse: float, step: float, step_refined: float) -> tuple[float, float]:
    """Window where h^2 convergence puts the refined eigenvalue, given the coarse one.

    The deviation from the claim shrinks by (step_refined / step)^2, 1/4 for a
    doubled grid, so the prediction is claim + (coarse - claim) * that factor.
    """
    predicted = claim + (coarse - claim) * (step_refined / step) ** 2
    noise = 4.0 / step_refined**2 * np.finfo(float).eps
    radius = max(HINT_WIDTH * abs(coarse - claim), HINT_NOISE_FLOOR * noise)
    return predicted - radius, predicted + radius


def default_rho_max(m: float, omega: float, eta: float, zeta_sq_target: float) -> float:
    """Box edge: BOX_PADDING times the outer classical turning point.

    The turning point solves m^2 w^2 rho^2 + 2 m eta rho = zeta_t for the
    largest eigenvalue the caller intends to resolve; zeta_t is floored at
    m*omega so a positive root always exists. Gaussian decay past the turning
    point makes the remaining truncation error negligible against PASS_TOL.
    """
    zeta_t = max(zeta_sq_target, m * omega)
    a = (m * omega) ** 2
    b = m * eta
    rho_t = (-b + math.sqrt(b * b + a * zeta_t)) / a
    return BOX_PADDING * rho_t


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a coarse/refined oracle comparison for one solved state."""

    passed: bool
    deviation: float
    deviation_refined: float
    ratio: float
    node_index: int
    zeta_claim: float
    zeta_oracle: float
    zeta_oracle_refined: float
    grid_n: int
    grid_n_refined: int
    rho_max: float
    omega: float


def verify_solution(
    solution: SpectralSolution,
    *,
    grid_n: int = DEFAULT_GRID_N,
    grid_n_refined: int | None = None,
    rho_max: float | None = None,
    perturb_omega: float = 1.0,
) -> VerificationReport:
    """Check one solved state against the finite-difference spectrum.

    The channel is diagonalized at grid_n and grid_n_refined (default 2x)
    interior points with a shared rho_max, and on each grid only the
    eigenvalue at index node_count is compared with the claimed zeta^2. On
    the coarse grid it is bisected inside claim * (1 -/+ PASS_TOL), the values
    that can pass. On the refined grid it is bisected inside the much
    narrower window that h^2 convergence predicts from the coarse value
    (_refined_hint). A window is used only when Sturm counts certify that it
    holds exactly this index, and the index is bisected from the Gershgorin
    bounds when it does not, as for a failing state or a perturbed frequency;
    either way both oracle values are eigenvalue node_count. PASS requires
    relative deviation < PASS_TOL on the coarse grid and a strictly smaller
    deviation on the refined one.

    Every diagonal entry carries 2/h^2 (1.8e6 at 8000 points in a box of
    8.5), so the oracle values carry absolute rounding noise of about half an
    ulp of it, 1e-10 there: a few ulps of rho_max move the refined value by
    that much, the coarse one by a quarter of it. With refined deviations
    near 1e-7 relative, deviation_refined and ratio hold only about 5
    significant digits.

    perturb_omega multiplies the channel frequency while the claim keeps the
    solved state's zeta^2; values other than 1.0 turn this into a negative
    control demonstrating that the spectrum only matches at the quantized
    frequency.
    """
    if perturb_omega <= 0.0 or not math.isfinite(perturb_omega):
        raise ValueError(f"perturb_omega must be positive and finite, got {perturb_omega!r}")
    prob = solution.problem
    omega = solution.omega * perturb_omega
    claim = solution.zeta_sq
    k = solution.node_count
    if rho_max is None:
        rho_max = max(
            default_rho_max(prob.mass, omega, prob.eta, claim + TARGET_MARGIN * prob.mass * omega),
            suggested_rho_max(solution),
        )
    coarse_spec = RadialOperatorSpec(
        m=prob.mass,
        omega=omega,
        eta=prob.eta,
        coulomb_strength=prob.coupling,
        abs_l=prob.abs_l,
        rho_max=rho_max,
        n_grid=grid_n,
    )
    if grid_n_refined is None:
        grid_n_refined = 2 * grid_n
    scale = max(abs(claim), 1e-300)
    window = (claim - PASS_TOL * scale, claim + PASS_TOL * scale)
    (zeta_oracle,) = eigenvalues(coarse_spec, k + 1, k, within=window).eigenvalues
    refined_spec = replace(coarse_spec, n_grid=grid_n_refined)
    hint = _refined_hint(claim, zeta_oracle, coarse_spec.step, refined_spec.step)
    (zeta_oracle_refined,) = eigenvalues(refined_spec, k + 1, k, within=hint).eigenvalues
    deviation = abs(zeta_oracle - claim) / scale
    deviation_refined = abs(zeta_oracle_refined - claim) / scale
    ratio = deviation / deviation_refined if deviation_refined > 0.0 else math.inf
    return VerificationReport(
        passed=deviation < PASS_TOL and deviation_refined < deviation,
        deviation=deviation,
        deviation_refined=deviation_refined,
        ratio=ratio,
        node_index=k,
        zeta_claim=claim,
        zeta_oracle=zeta_oracle,
        zeta_oracle_refined=zeta_oracle_refined,
        grid_n=grid_n,
        grid_n_refined=grid_n_refined,
        rho_max=rho_max,
        omega=omega,
    )
