"""Brute-force finite-difference verifier for the radial spectrum.

Entirely independent of the series machinery: the radial equation is put in
self-adjoint form with u(rho) = sqrt(rho) * R(rho),

    -u'' + [ (l^2 - 1/4)/rho^2 + M*lambda*l/rho + m^2 w^2 rho^2 + 2 m eta rho ] u
        = zeta^2 u,

discretized by central second differences on a uniform grid with Dirichlet
ends at rho = 0 and at the edge of the claimed state's box
(wavefunction.suggested_rho_max, where its density has died). The oracle
answers one question, eigenvalue k near a shift (eigenvalues): LAPACK's
dstebz bisects it by Sturm sequences, inside the window that two
inverse-iteration steps (dgttrf, dgttrs) at the shift give; the three
routines come from scipy's compiled _flapack alone (see _flapack).
A quantized frequency is genuine exactly when the analytic zeta^2 shows up in
this spectrum at the index k equal to the state's radial node count (Sturm
oscillation ordering), with the residual deviation shrinking like h^2 from
the coarse grid of N interior points to the refined grid, always 2N
(verify_solution).

Dirichlet at rho = 0 is exact for |l| >= 1 because u ~ rho^(|l|+1/2) there;
the first grid node sits at h > 0, so |l| = 0 regression channels never touch
the 1/rho^2 singularity either.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceFailure, OverflowGuard
from .model import DEFAULT_GRID_N, MIN_GRID_N
from .wavefunction import suggested_rho_max

if TYPE_CHECKING:
    from .quantize import SpectralSolution

PASS_TOL = 1e-3  # relative, acknowledges O(h^2) discretization error
# Absolute bisection tolerance for the tridiagonal eigensolver. The LAPACK
# default scales with the matrix norm (~1/h^2), which at large N is far looser
# than the 1e-10 relative contract; a fixed tiny value keeps every eigenvalue
# refined to machine-level width.
_EIG_ABS_TOL = 1e-14
# Least half-width of the window around a Rayleigh quotient. Its residual
# norm is itself a rounding of T x, median 2.4e-10 at 8000 points, and a
# window this narrow still costs only about 15 bisection halvings.
_RESIDUAL_FLOOR = 1e-11


@dataclass(frozen=True)
class RadialOperatorSpec:
    """One finite-difference channel: physics plus grid.

    coulomb_strength carries the signed product M*lambda*l; abs_l enters only
    through the centrifugal term. The grid has n_grid interior nodes at
    rho_i = i * h, h = rho_max / (n_grid + 1), with u = 0 enforced at rho = 0
    and rho = rho_max. Raises ValueError for a field out of its range, the
    grid's included (n_grid < MIN_GRID_N, rho_max not positive and finite).
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
        if self.n_grid < MIN_GRID_N:
            raise ValueError(f"need at least {MIN_GRID_N} grid points, got {self.n_grid}")
        if not (self.rho_max > 0.0 and math.isfinite(self.rho_max)):
            raise ValueError(f"rho_max must be positive and finite, got {self.rho_max!r}")

    @property
    def step(self) -> float:
        return self.rho_max / (self.n_grid + 1)


def build_operator(spec: RadialOperatorSpec) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the symmetric tridiagonal operator.

    Returns:
        (d, e) with d[i] = 2/h^2 + V_eff(rho_i) at the n_grid interior nodes
        and e[i] = -1/h^2 on both off-diagonals (length n_grid - 1).

    Raises:
        OverflowGuard: a diagonal entry is not finite, from a large m*omega
            or a box too large or too small for the double range.
    """
    h = spec.step
    rho = h * np.arange(1, spec.n_grid + 1)
    # numpy's ** is the same libm pow as Python's, but overflows to inf
    # rather than raising OverflowError, and 1/0 is inf, not ZeroDivisionError
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h2 = np.float64(h) ** 2
        v_eff = (
            (spec.abs_l**2 - 0.25) / rho**2
            + spec.coulomb_strength / rho
            + np.float64(spec.m * spec.omega) ** 2 * rho**2
            + 2.0 * spec.m * spec.eta * rho
        )
        d = 2.0 / h2 + v_eff
        e = np.full(spec.n_grid - 1, -1.0 / h2)
    if not np.isfinite(d).all():
        raise OverflowGuard(
            f"finite-difference operator overflows (m*omega = {spec.m * spec.omega:.3e}, "
            f"rho_max = {spec.rho_max:.6g})"
        )
    return d, e


def eigenvalues(spec: RadialOperatorSpec, k: int, *, near: float | None = None) -> float:
    """Eigenvalue zeta^2_k of the channel, index k counted from 0, by Sturm-sequence bisection.

    With near = shift, two inverse-iteration steps at that shift give a
    Rayleigh quotient theta and its residual norm r, and some eigenvalue lies
    within r of theta. Only the window theta -/+ max(r, _RESIDUAL_FLOOR) is
    bisected, and its value is used when Sturm counts certify that it holds
    index k alone (_certified_window), as a shift nearest eigenvalue k gives.
    Otherwise, as without near or when T - shift is singular, index k is
    bisected from the Gershgorin bounds, so the result is eigenvalue k either
    way. A narrow window costs fewer bisection sweeps: each halves the
    interval down to _EIG_ABS_TOL. The value itself is exact only to the
    rounding of the operator, about half an ulp of 2/h^2 (see
    verify_solution).

    The name is plural for the benchmark tracer, which binds
    oracle.eigenvalues and reads spec.n_grid from the first argument.

    Raises:
        OverflowGuard: the operator is not finite (build_operator).
        ConvergenceFailure: the bisection backend failed or returned a
            non-finite value.
    """
    d, e = build_operator(spec)
    window = None if near is None else _rayleigh_window(d, e, near)
    value = None if window is None else _certified_window(d, e, k, *window)
    if value is None:
        # range = 2: indices il..iu, 1-based
        found, vals, _, _, info = _flapack().dstebz(d, e, 2, 0.0, 0.0, k + 1, k + 1, _EIG_ABS_TOL, b"E")
        if info != 0 or found != 1:
            raise ConvergenceFailure(f"dstebz failed on eigenvalue {k}: info = {info}, {found} values")
        value = vals[0]
    if not math.isfinite(value):
        raise ConvergenceFailure(f"eigensolver returned a non-finite eigenvalue {k}")
    return float(value)


def _rayleigh_window(d: np.ndarray, e: np.ndarray, shift: float) -> tuple[float, float] | None:
    """theta -/+ max(r, _RESIDUAL_FLOOR) around an eigenvalue near shift, None if T - shift is singular.

    dgttrf factors T - shift once; two dgttrs solves from the all-ones vector
    give a unit x, its Rayleigh quotient theta = x.T T x and residual
    r = |T x - theta x|. A non-finite window is left to _certified_window,
    which rejects it.
    """
    lapack = _flapack()
    # in place where LAPACK allows: each 8000-point vector is 64 kB of peak RSS
    *factors, info = lapack.dgttrf(e, d - shift, e, overwrite_d=1)
    if info != 0:
        return None
    x = np.ones(d.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):
            x, _ = lapack.dgttrs(*factors, x, overwrite_b=1)
            x /= np.linalg.norm(x)
        tx = d * x
        tx[1:] += e * x[:-1]
        tx[:-1] += e * x[1:]
        theta = float(x @ tx)
        tx -= theta * x
        radius = max(float(np.linalg.norm(tx)), _RESIDUAL_FLOOR)
    return theta - radius, theta + radius


def _certified_window(d: np.ndarray, e: np.ndarray, k: int, lo: float, hi: float) -> float | None:
    """The eigenvalue in (lo, hi] if it is index k alone, else None.

    Two dstebz calls over a value range (range = 1): a Sturm count of
    (floor, lo], with floor below the Gershgorin bound and a tolerance so wide
    that nothing is bisected, then the bisection of (lo, hi] to _EIG_ABS_TOL.
    """
    dstebz = _flapack().dstebz
    floor = min(float(d.min() - 2.0 * np.abs(e).max()), lo)
    floor -= 1.0 + abs(floor)
    if not -math.inf < floor < lo < hi < math.inf:
        return None
    below, _, _, _, info_below = dstebz(d, e, 1, floor, lo, 0, 0, 1e300, b"E")
    found, vals, _, _, info = dstebz(d, e, 1, lo, hi, 0, 0, _EIG_ABS_TOL, b"E")
    if info_below != 0 or info != 0 or below != k or found != 1:
        return None
    return vals[0]


@functools.cache
def _flapack():
    """scipy's compiled LAPACK wrappers (_flapack), loaded without scipy.linalg.

    Importing scipy.linalg takes about 0.3 s (scipy 1.17's array-API shim
    imports numpy.f2py and numpy.testing); the extension file alone, under
    10 ms. The oracle calls its dstebz, dgttrf and dgttrs, the routines of
    scipy.linalg.lapack by those names.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:  # scipy.linalg is loaded already
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")  # locates the package, imports nothing
    directory = os.path.join(scipy.submodule_search_locations[0], "linalg")
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    path = next(filter(os.path.isfile, (os.path.join(directory, "_flapack" + s) for s in suffixes)), None)
    if path is None:
        raise ImportError(f"no compiled _flapack extension in {directory}")
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    # A single-phase extension enters itself in sys.modules; take it out so a
    # later import of scipy.linalg binds _flapack to its package as usual.
    sys.modules.pop(name, None)
    return module


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
    rho_max: float | None = None,
    perturb_omega: float = 1.0,
) -> VerificationReport:
    """Check one solved state against the finite-difference spectrum.

    The channel is discretized at grid_n and at 2 * grid_n interior points
    (grid_n_refined) with a shared rho_max, by default the claimed state's
    box (suggested_rho_max), and on each grid one oracle call,
    eigenvalues(spec, node_count, near=shift), gives the eigenvalue at index
    node_count to compare with the claimed zeta^2. The shift is the claim on
    the coarse grid and the coarse value on the refined one. A window is used
    only when Sturm counts certify that it holds this index alone, and the
    index is bisected from the Gershgorin bounds when it does not, as when a
    perturbed frequency puts the claim nearest another eigenvalue; either way
    both oracle values are eigenvalue node_count. PASS requires relative
    deviation < PASS_TOL on the coarse grid and a strictly smaller deviation
    on the refined one.

    Every diagonal entry carries 2/h^2 (3.7e6 at 8000 points in the box of
    5.9 of the m = M = lambda = eta = l = n = 1 state), so the oracle values
    carry absolute rounding noise of about half an ulp of it, 2e-10 there: a
    few ulps of rho_max move the refined value by that much, the coarse one
    by a quarter of it. With refined deviations near 1e-7 relative,
    deviation_refined and ratio hold only about 5 significant digits.

    perturb_omega multiplies the channel frequency while the claim keeps the
    solved state's zeta^2 and its box; values other than 1.0 turn this into
    a negative control demonstrating that the spectrum only matches at the
    quantized frequency.
    """
    if perturb_omega <= 0.0 or not math.isfinite(perturb_omega):
        raise ValueError(f"perturb_omega must be positive and finite, got {perturb_omega!r}")
    prob = solution.problem
    omega = solution.omega * perturb_omega
    claim = solution.zeta_sq
    k = solution.node_count
    if rho_max is None:
        rho_max = suggested_rho_max(solution)
    coarse_spec = RadialOperatorSpec(
        m=prob.mass,
        omega=omega,
        eta=prob.eta,
        coulomb_strength=prob.coupling,
        abs_l=prob.abs_l,
        rho_max=rho_max,
        n_grid=grid_n,
    )
    zeta_oracle = eigenvalues(coarse_spec, k, near=claim)
    zeta_oracle_refined = eigenvalues(replace(coarse_spec, n_grid=2 * grid_n), k, near=zeta_oracle)
    scale = max(abs(claim), 1e-300)
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
        grid_n_refined=2 * grid_n,
        rho_max=rho_max,
        omega=omega,
    )
