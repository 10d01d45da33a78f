"""Brute-force finite-difference verifier for the radial spectrum.

Entirely independent of the series machinery: the radial equation is put in
self-adjoint form with u(rho) = sqrt(rho) * R(rho),

    -u'' + [ (l^2 - 1/4)/rho^2 + M*lambda*l/rho + m^2 w^2 rho^2 + 2 m eta rho ] u
        = zeta^2 u,

discretized by central second differences on a uniform grid with Dirichlet
ends at rho = 0 and at the edge of the claimed state's box
(wavefunction.suggested_rho_max, where its density has died). The oracle
answers one question, eigenvalue k near a shift (eigenvalues): inverse
iteration (LAPACK dpttrs on the LDL^T factors of dpttrf) at the shift gives
a Rayleigh quotient, which is the answer when the eigenvalue counts at both
ends of its window certify it by the Kato-Temple inequality, each read by
Sylvester's law of inertia from the signs of one LDL^T factorization's
pivots (_ldl; the shift's own closes an end it lies past), and dstebz
bisects index k otherwise; the three routines come from scipy's compiled
_flapack alone (see _flapack).
Each thread works in one set of vectors per grid size, kept for the two
sizes it used last (_grid), so a certified call allocates no vector of the
grid's length but the iterate it returns.
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
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConvergenceFailure, OverflowGuard
from .model import DEFAULT_GRID_N, MIN_GRID_N
from .wavefunction import suggested_rho_max

if TYPE_CHECKING:
    from .quantize import SpectralSolution

PASS_TOL = 1e-3  # relative, acknowledges O(h^2) discretization error
# Absolute error allowed to an eigenvalue: the Kato-Temple bound r^2/w of a
# certified Rayleigh quotient, and the bisection tolerance of the fallback.
# The LAPACK default scales with the matrix norm (~1/h^2), far looser at large N.
_EIG_ABS_TOL = 1e-14
# Least half-width of the window around a Rayleigh quotient. Its residual
# norm is itself a rounding of T x, median 2.4e-10 at 8000 points.
_RESIDUAL_FLOOR = 1e-11


@dataclass(frozen=True)
class RadialOperatorSpec:
    """One finite-difference channel: physics plus grid.

    coulomb_strength carries the signed product M*lambda*l; abs_l enters only
    through the centrifugal term. The grid has n_grid interior nodes at
    rho_i = i * h, h = rho_max / (n_grid + 1), with u = 0 enforced at rho = 0
    and rho = rho_max. Raises ValueError for a field out of its range, the
    grid's included (n_grid: an integer >= MIN_GRID_N; rho_max: positive, finite).
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
        if not (self.abs_l >= 0 and float(self.abs_l).is_integer()):
            raise ValueError(f"abs_l must be a nonnegative integer, got {self.abs_l!r}")
        if not (isinstance(self.n_grid, (int, np.integer)) and self.n_grid >= MIN_GRID_N):
            raise ValueError(f"n_grid must be an integer of at least {MIN_GRID_N}, got {self.n_grid!r}")
        if not (self.rho_max > 0.0 and math.isfinite(self.rho_max)):
            raise ValueError(f"rho_max must be positive and finite, got {self.rho_max!r}")

    @property
    def step(self) -> float:
        return self.rho_max / (self.n_grid + 1)


def build_operator(spec: RadialOperatorSpec) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the symmetric tridiagonal operator.

    Returns:
        (d, e) with d[i] = 2/h^2 + V_eff(rho_i) at the n_grid interior nodes
        and e[i] = -1/h^2 on both off-diagonals (length n_grid - 1), arrays
        the caller owns (copies of _operator's).

    Raises:
        OverflowGuard: a diagonal entry is not finite, from a large m*omega
            or a box too large or too small for the double range.
    """
    grid = _operator(spec)
    return grid.d.copy(), grid.e.copy()


def _operator(spec: RadialOperatorSpec) -> _Grid:
    """This thread's buffers of the spec's grid (_grid), with build_operator's d and e written in place."""
    h = spec.step
    grid = _grid(spec.n_grid)
    d, rho, rho2, term = grid.d, grid.s, grid.t, grid.pivots
    # numpy's ** is the same libm pow as Python's, but overflows to inf
    # rather than raising OverflowError, and 1/0 is inf, not ZeroDivisionError
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h2 = np.float64(h) ** 2
        np.multiply(grid.nodes, h, out=rho)
        np.multiply(rho, rho, out=rho2)  # the multiply of numpy's rho**2
        # V_eff = (l^2 - 1/4)/rho^2 + M lambda l/rho + (m omega)^2 rho^2 + 2 m eta rho, summed left to right
        np.divide(spec.abs_l**2 - 0.25, rho2, out=d)
        d += np.divide(spec.coulomb_strength, rho, out=term)
        d += np.multiply(np.float64(spec.m * spec.omega) ** 2, rho2, out=rho2)
        d += np.multiply(2.0 * spec.m * spec.eta, rho, out=rho)
        d += 2.0 / h2
        grid.e.fill(-1.0 / h2)
    # min and max are nan if any entry is, and reduce without a bool temporary
    if not (math.isfinite(d.min()) and math.isfinite(d.max())):
        raise OverflowGuard(
            f"finite-difference operator overflows (m*omega = {spec.m * spec.omega:.3e}, "
            f"rho_max = {spec.rho_max:.6g})"
        )
    return grid


class _Grid:
    """The oracle's buffers for a grid of n interior nodes, reused by every call on that grid in one thread.

    nodes holds 1..n; d and e the operator (_operator); pivots and
    multipliers the LDL^T factors of T - x (_ldl); s and t are scratch
    vectors of the operator and the Rayleigh quotient, and so is pivots
    while no factors are live in it. All are views of one block: at the
    default grids glibc maps it apart from its heap, and verify's peak RSS
    grew about half as much as with separate arrays. fractions are the
    interpolation weights of _onto_refined_grid from this grid, once it has
    asked for them.
    """

    def __init__(self, n: int) -> None:
        block = np.empty(7 * n - 2)
        self.nodes, self.d, self.pivots, self.s, self.t = block[: 5 * n].reshape(5, n)
        self.nodes[:] = np.arange(1.0, n + 1.0)
        self.e, self.multipliers = block[5 * n :].reshape(2, n - 1)
        self.fractions: tuple[np.ndarray, np.ndarray] | None = None


_local = threading.local()


def _grid(n: int) -> _Grid:
    """This thread's buffers for a grid of n interior nodes.

    A thread keeps those of the two sizes it used last, the coarse and the
    refined grid of a verify_solution call, so a sweep over grids does not
    grow its memory. Allocating every vector afresh for each call made the
    oracle's speed hang on glibc trimming the heap and faulting it in again.
    """
    grids = vars(_local).setdefault("grids", {})
    grids[n] = grid = grids.pop(n, None) or _Grid(n)  # the most recent last
    if len(grids) > 2:
        del grids[next(iter(grids))]
    return grid


def eigenvalues(
    spec: RadialOperatorSpec, k: int, *, near: float | None = None, start: np.ndarray | None = None
) -> tuple[float, np.ndarray | None]:
    """Eigenvalue zeta^2_k of the channel, index k counted from 0, and its unit iterate.

    With near = shift, inverse iteration at that shift gives a Rayleigh
    quotient theta, its residual norm r and a half-width
    w >= r^2/_EIG_ABS_TOL (_rayleigh_window): two steps from the all-ones
    vector, or one in start, a unit iterate of the same eigenvalue on this
    grid, which the step overwrites. When eigenvalue counts show that
    theta -/+ w holds index k alone (_certified_window), as a shift nearest
    eigenvalue k gives, theta is the value: within r^2/w <= _EIG_ABS_TOL of
    eigenvalue k (Kato-Temple), up to its rounding, about 1e-2 eps ||T||.
    Otherwise, as without near or when T - shift is singular, dstebz
    bisects index k from the Gershgorin bounds to _EIG_ABS_TOL, so the value
    is eigenvalue k either way. The operator's own rounding, half an ulp of
    2/h^2, still moves it (see verify_solution).

    Returns:
        (value, x): x is the unit iterate whose Rayleigh quotient is the
        certified value, an array the caller owns (start itself, when
        given), None when the value was bisected.

    The name is plural for the benchmark tracer, which binds
    oracle.eigenvalues and reads spec.n_grid from the first argument.

    Raises:
        OverflowGuard: the operator is not finite (build_operator).
        ConvergenceFailure: the bisection fallback failed, or the value is
            not finite.
    """
    grid = _operator(spec)
    d, e = grid.d, grid.e
    window = None if near is None else _rayleigh_window(d, e, near, start)
    if window is not None and _certified_window(d, e, k, window):
        return window.theta, window.x
    # range = 2: indices il..iu, 1-based
    found, vals, _, _, info = _flapack().dstebz(d, e, 2, 0.0, 0.0, k + 1, k + 1, _EIG_ABS_TOL, b"E")
    if info != 0 or found != 1:
        raise ConvergenceFailure(f"dstebz failed on eigenvalue {k}: info = {info}, {found} values")
    if not math.isfinite(vals[0]):
        raise ConvergenceFailure(f"eigensolver returned a non-finite eigenvalue {k}")
    return float(vals[0]), None


class _Window(NamedTuple):
    """What inverse iteration at shift leaves: its window theta -/+ w, the
    count below shift (None at a zero pivot) and the unit iterate x."""

    theta: float
    w: float
    shift: float
    below: int | None
    x: np.ndarray


def _rayleigh_window(d: np.ndarray, e: np.ndarray, shift: float, start: np.ndarray | None = None) -> _Window | None:
    """The window of an eigenvalue near shift, None if T - shift is singular.

    _ldl factors T - shift once, which also gives the count below shift.
    dpttrs solves in start once, overwriting it, or from the all-ones vector
    twice, for a unit x, its Rayleigh quotient theta = x.T T x and residual
    r = |T x - theta x|, and w = max(r, r^2/_EIG_ABS_TOL, _RESIDUAL_FLOOR).
    A non-finite window is left to _certified_window, which rejects it.
    The products go into the scratch vectors of the grid's buffers (_grid).
    """
    grid = _grid(d.size)
    factors = _ldl(d, e, shift, out=grid)
    if factors is None:
        return None
    pivots, multipliers, below = factors
    dpttrs = _flapack().dpttrs
    square, tx = grid.s, grid.t
    x, steps = (np.ones(d.size), 2) if start is None else (start, 1)
    # numpy's pairwise sums, not BLAS dot: OpenBLAS splits a long dot over its
    # threads, so its rounding would depend on their number
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            x, _ = dpttrs(pivots, multipliers, x, overwrite_b=1)
            x /= np.sqrt(np.add.reduce(np.multiply(x, x, out=square)))
        term = pivots  # the factors are spent
        np.multiply(d, x, out=tx)
        tx[1:] += np.multiply(e, x[:-1], out=term[1:])
        tx[:-1] += np.multiply(e, x[1:], out=term[1:])
        theta = float(np.add.reduce(np.multiply(x, tx, out=square)))
        tx -= np.multiply(theta, x, out=term)
        r = math.sqrt(np.add.reduce(np.multiply(tx, tx, out=square)))
    w = max(r, r * r / _EIG_ABS_TOL, _RESIDUAL_FLOOR)
    return _Window(theta, w, shift, below, x)


def _certified_window(d: np.ndarray, e: np.ndarray, k: int, window: _Window) -> bool:
    """Whether eigenvalue counts show that the window theta -/+ w holds index k alone.

    The count below theta - w must read k, then the count below theta + w
    k + 1. Then |theta - lambda_k| <= r^2/w <= _EIG_ABS_TOL (Kato-Temple). A
    shift at least w below theta whose count is k closes the lower end in
    place of the count at theta - w, and one at least w above theta whose
    count is k + 1 the upper end: the interval from the shift to the other end then holds index
    k alone and reaches at least w past theta, so the bound is the same. The
    first count that fails ends the check, and a count stops once it passes
    the one it must read.
    """
    lo, hi = window.theta - window.w, window.theta + window.w
    if not -math.inf < lo < hi < math.inf:
        return False
    ends = ((lo, k), (hi, k + 1))
    if window.shift <= lo and window.below == k:
        ends = ends[1:]
    elif window.shift >= hi and window.below == k + 1:
        ends = ends[:1]
    return all(_count_below(d, e, x, count) == count for x, count in ends)


def _count_below(d: np.ndarray, e: np.ndarray, x: float, most: int | None = None) -> int | None:
    """Number of eigenvalues of tridiag(d, e) below x, None at a zero pivot; given most, it stops at most + 1."""
    factors = _ldl(d, e, x, most, out=_grid(d.size))
    return None if factors is None else factors[2]


def _ldl(
    d: np.ndarray, e: np.ndarray, x: float, most: int | None = None, out: _Grid | None = None
) -> tuple[np.ndarray, np.ndarray, int] | None:
    """Unpivoted LDL^T of tridiag(d, e) - x: (pivots q, multipliers, negative pivots); None if a pivot is 0.

    By Sylvester's law of inertia the number of negative pivots is the number
    of eigenvalues below x; this count is backward stable in floating point
    (Demmel, Dhillon and Ren, ETNA 3, 1995). dpttrf factors in place and stops
    at the first pivot q_i <= 0, leaving the multipliers before it and e_i
    untouched. Past a negative q_i this function takes the step itself,
    l_i = e_i/q_i and q_{i+1} -= l_i e_i, in Python floats, which overflow to
    inf without a warning, and goes on stepping while the next pivot is
    negative too; after a positive one it restarts dpttrf on the tail, and
    a one-row tail, which scipy's wrapper refuses, is its own pivot. So T - x
    costs one dpttrf call, plus one per run of negative pivots that a
    positive one ends off the last row. Given most, the factorization stops,
    unfinished, at negative pivot most + 1. dpttrs solves with the finished
    factors, whatever the signs of the pivots. The factors go into out's
    pivots and multipliers, or into new arrays the caller owns.
    """
    if out is None:
        pivots, multipliers = d - x, e.copy()
    else:
        pivots, multipliers = np.subtract(d, x, out=out.pivots), out.multipliers
        multipliers[:] = e
    dpttrf = _flapack().dpttrf
    last = pivots.size - 1
    below, row = 0, 0
    while True:
        if row < last:
            # contiguous views of the two arrays, which dpttrf overwrites in place
            *_, info = dpttrf(pivots[row:], multipliers[row:], overwrite_d=1, overwrite_e=1)
        else:
            info = 0 if pivots[row] > 0.0 else 1
        if info == 0:
            return pivots, multipliers, below
        row += info - 1
        pivot = float(pivots[row])
        while True:
            if pivot == 0.0:
                return None
            below += 1
            if row == last or (most is not None and below > most):
                return pivots, multipliers, below
            off = float(multipliers[row])
            multipliers[row] = multiplier = off / pivot
            row += 1
            pivots[row] = pivot = float(pivots[row]) - multiplier * off
            if not pivot <= 0.0:  # dpttrf's own test, so a nan pivot goes to it
                break


def _onto_refined_grid(x: np.ndarray) -> np.ndarray:
    """x on the N interior nodes of a grid, linearly interpolated onto the 2N of the grid of the same box.

    Node i of N sits at i/(N + 1) of the box, node j of 2N at j/(2N + 1), and u is 0 at
    both ends. So nodes j = 2i and 2i + 1 both fall between nodes i and i + 1, at the
    fractions i/(2N + 1) and (i + N + 1)/(2N + 1) of that interval. The two fraction
    arrays are kept in the coarse grid's buffers (_grid).
    """
    n = x.size
    grid = _grid(n)
    if grid.fractions is None:
        fraction = np.arange(n + 1) / (2 * n + 1)
        grid.fractions = fraction[1:], fraction[:-1] + (n + 1) / (2 * n + 1)
    odd_fraction, even_fraction = grid.fractions
    fine = np.empty(2 * n)
    odd, even = fine[1::2], fine[0::2]
    # the steps x_{i+1} - x_i into odd and x_i - x_{i-1} into even, with x_{-1} = x_N = 0
    np.subtract(x[1:], x[:-1], out=odd[:-1])
    even[1:] = odd[:-1]
    odd[-1] = 0.0 - x[-1]
    odd *= odd_fraction
    odd += x
    even[1:] *= even_fraction[1:]
    even[1:] += x[:-1]
    even[0] = 0.0 + even_fraction[0] * x[0]
    return fine


@functools.cache
def _flapack():
    """scipy's compiled LAPACK wrappers (_flapack), loaded without scipy.linalg.

    Importing scipy.linalg takes about 0.3 s (scipy 1.17's array-API shim
    imports numpy.f2py and numpy.testing); the extension file alone, under
    10 ms. The oracle calls its dpttrf (the LDL^T factorization of inverse
    iteration and eigenvalue counts), dpttrs (the solve) and dstebz (the
    index bisection), the routines of scipy.linalg.lapack by those names.
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
    the coarse grid and the coarse value on the refined one, where inverse
    iteration starts from the coarse grid's certified iterate, linearly
    interpolated (_onto_refined_grid), and takes one step instead of two;
    a coarse value that was bisected leaves no iterate. A Rayleigh
    quotient is used only when eigenvalue counts certify that its window holds
    this index alone, and the index is bisected when it does not, as when a
    perturbed frequency puts the claim far from every eigenvalue; either way
    both oracle values are eigenvalue node_count. PASS requires relative
    deviation < PASS_TOL on the coarse grid and a strictly smaller deviation
    on the refined one.

    Every diagonal entry carries 2/h^2 (3.7e6 at 8000 points in the box of
    5.9 of the m = M = lambda = eta = l = n = 1 state) and rounds to half an
    ulp of it. Moving omega, and with it the box, by 1e-15 relative moves
    the refined value of the 132 states of n <= 12, l in {1, -1, 2} by a
    median 2e-12 and at most 5e-11, and deviation_refined and ratio by at
    most 2.3e-5 relative: they hold about 4 significant digits.

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
    zeta_oracle, x = eigenvalues(coarse_spec, k, near=claim)
    if x is not None:  # rebound, so that the coarse iterate is freed before the refined grid is built
        x = _onto_refined_grid(x)
    zeta_oracle_refined, _ = eigenvalues(replace(coarse_spec, n_grid=2 * grid_n), k, near=zeta_oracle, start=x)
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
