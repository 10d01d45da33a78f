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

if TYPE_CHECKING:
    from .quantize import SpectralSolution

DEFAULT_GRID_N = 4000
PASS_TOL = 1e-3  # relative, acknowledges O(h^2) discretization error
# Box sizing: 1.5x the outer classical turning point of the largest requested
# eigenvalue; the target gets a +10*m*omega margin so the spare states above
# the comparison index are also resolved, and a floor of m*omega so the
# turning-point equation always has a positive root.
BOX_PADDING = 1.5
TARGET_MARGIN = 10.0
EXTRA_STATES = 2  # eigenvalues requested above the comparison index
# Absolute bisection tolerance for the tridiagonal eigensolver. The LAPACK
# default scales with the matrix norm (~1/h^2), which at large N is far looser
# than the 1e-10 relative contract; a fixed tiny value keeps every eigenvalue
# refined to machine-level width.
_EIG_ABS_TOL = 1e-14


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

    eigenvalues[i] is zeta^2 at index k = first + i. drift, when set, is the
    largest relative eigenvalue change observed when the grid that produced
    this spectrum was reached by doubling a coarser one; it estimates the
    remaining discretization error.
    """

    eigenvalues: tuple[float, ...]
    spec: RadialOperatorSpec
    drift: float | None = None
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


def eigenvalues(spec: RadialOperatorSpec, count: int, first: int = 0) -> OracleSpectrum:
    """Eigenvalues of indices first..count-1 of the channel by Sturm-sequence bisection.

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
    interior points with a shared rho_max, and the eigenvalue at index
    node_count is compared with the claimed zeta^2; only indices node_count - 1
    .. node_count + EXTRA_STATES are bisected. PASS requires relative
    deviation < PASS_TOL on the coarse grid and a strictly smaller deviation
    on the refined one.

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
    count = k + 1 + EXTRA_STATES
    first = max(k - 1, 0)  # the ascending check still covers both neighbours of k
    if rho_max is None:
        rho_max = default_rho_max(
            prob.mass, omega, prob.eta, claim + TARGET_MARGIN * prob.mass * omega
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
    coarse = eigenvalues(coarse_spec, count, first)
    refined = eigenvalues(replace(coarse_spec, n_grid=grid_n_refined), count, first)
    drift = max(
        abs(b - a) / max(abs(b), 1e-300)
        for a, b in zip(coarse.eigenvalues, refined.eigenvalues)
    )
    refined = replace(refined, drift=drift)
    scale = max(abs(claim), 1e-300)
    zeta_oracle, zeta_oracle_refined = coarse.eigenvalues[k - first], refined.eigenvalues[k - first]
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
