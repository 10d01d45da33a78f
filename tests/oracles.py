"""Independent reference routes and frozen regression constants.

Every helper here recomputes quantities through deliberately separate paths
(hand-rolled recurrence, generic bisection, closed forms, the full 3(n+1)
companion of the frequency condition, scipy.linalg's index route to the
oracle's spectrum, a long-double Sturm multisection of the oracle's
matrices) so the tests never compare the package
against itself. The straightforward forms of the solver's array glue (dense
companion, list recurrence, per-probe alpha_delta) are the reference its
optimized forms must match bit for bit, as must normalize's Simpson
quadrature, which reuses each level's samples, against its
level-by-level form (straightforward_norm). synthetic_solution hand-assembles a
state record without quantize, for the profile formulas. record_verify
records what one verify_solution run passes through the oracle's two
boundaries, oracle.eigenvalues and the LAPACK namespace oracle._flapack(), so
the oracle's tests check those calls' contract and cost, not its private
functions. The FROZEN_* constants were produced by
these same routines in a standalone session before the package was written
and are pinned verbatim as regression anchors; DISPLAY_* values are the
coarser hand-rounded figures quoted in documentation.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from heunqes import oracle
from heunqes.errors import OverflowGuard
from heunqes.model import PhysicalParams
from heunqes.oracle import RadialOperatorSpec, VerificationReport, build_operator
from heunqes.quantize import EIG_IMAG_RTOL, EIG_ZERO_RTOL, ROOT_RTOL, ReducedProblem, SpectralSolution, solve
from heunqes.wavefunction import _SIMPSON_MAX, _SIMPSON_START, NORM_RTOL, count_positive_roots, evaluate_R

# Reference system m = M = lambda = l = eta = 1, k = 0, n = 1.
FROZEN_OMEGA = 1.747847765739618
FROZEN_ENERGY = 5.204875665981442
FROZEN_ZETA_SQ = 10.159751331962884
FROZEN_C1 = 0.6848888959236428
FROZEN_ALPHA = 0.8655149824294558
FROZEN_DELTA = 0.7563942141267446

# Derived closed forms.
FROZEN_LIMIT_ROOT = 1.3572088082974532  # (5/2)^(1/3): cubic root as M*lambda*l -> 0
FROZEN_SQRT6_OVER_3 = 0.8164965809277259  # c1 = delta/theta at eta=0, M*lambda*l=sqrt(6)
SQRT6 = 2.449489742783178
FROZEN_OSC_NORM = 1.4142135623730951  # sqrt(2): 2D-oscillator |l|=1 ground-state norm

# Three positive cubic roots at m=1, M=10, lambda=1, l=-1, eta=1.
FROZEN_THREE_ROOTS = (0.2927378097130504, 0.5393294156252424, 15.834599441328375)

# Distance in eps ||T||_inf (eps_norm) within which a certified oracle value, a
# Rayleigh quotient, must sit from eigenvalue k of its channel. Against the
# long-double reference (long_double_eigenvalues) the certified values of the
# 132 verify states, of a 115-state seeded sweep and of their 1.05 omega
# controls sit within 0.018; the index bisection of the same channels misses
# 0.03 on about half of them, by up to 0.19.
CERTIFIED_TOL = 0.03

# Hand-rounded display values (4-5 significant figures, rounded from
# evaluations at the already-rounded omega ~ 1.7479, hence the loose DISPLAY_TOL).
DISPLAY_OMEGA = 1.7479
DISPLAY_ENERGY = 5.2051
DISPLAY_ZETA_SQ = 10.1601
DISPLAY_C1 = 0.6849
DISPLAY_TOL = 2.5e-3


def synthetic_solution(coeffs, *, l=1, n=None, omega=1.0, mass=1.0, alpha=0.0, delta=0.0):
    """Hand-assembled state for cases quantize cannot produce (formula-level)."""
    degree = len(coeffs) - 1 if n is None else n
    physical = PhysicalParams(mass=mass, quad=0.0, lam=0.0, eta=alpha * (mass * omega) ** 1.5 / (2 * mass), kz=0.0, l=l)
    problem = ReducedProblem(
        physical=physical, n=degree, abs_l=abs(l), theta=2 * abs(l) + 1, coupling=delta * (mass * omega) ** 0.5
    )
    return SpectralSolution(
        n=degree,
        l=l,
        omega=omega,
        energy=0.0,
        zeta_sq=2.0 * mass * omega * (abs(l) + 1),
        coefficients=tuple(coeffs),
        node_count=count_positive_roots(coeffs),
        residuals={},
        problem=problem,
        alpha=alpha,
        delta=delta,
    )


def heun_series(alpha, delta, theta, g, j_max):
    """Hand-rolled coefficient recurrence, kept separate from the package."""
    c = [1.0, alpha / 2.0 + delta / theta]
    for j in range(j_max - 1):
        lead = (2.0 * alpha * (j + 1) + theta * alpha + 2.0 * delta) * c[j + 1]
        lag = (g - 2.0 * j) * c[j]
        c.append(lead / (2.0 * (j + 2) * (j + 1 + theta)) - lag / ((j + 2) * (j + 1 + theta)))
    return c[: j_max + 1]


def cubic_coeffs(m, coupling, eta, theta):
    """(a2, a1, a0) of omega^3 + a2 omega^2 + a1 omega + a0 for n = 1."""
    a2 = -(coupling**2) / (2.0 * m * theta)
    a1 = -eta * coupling * (1 + theta) / (m * theta)
    a0 = -(2 + theta) * eta**2 / (2.0 * m)
    return a2, a1, a0


def cubic_value(w, a2, a1, a0):
    return ((w + a2) * w + a1) * w + a0


def bisect(f, lo, hi, steps=200):
    """Plain bisection to machine width; assumes a sign change on [lo, hi]."""
    f_lo = f(lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def oscillator_level(m, omega, abs_l, k):
    """Closed-form 2D oscillator zeta^2 = 2 m omega (2k + |l| + 1)."""
    return 2.0 * m * omega * (2 * k + abs_l + 1)


def turning_point_box(m, omega, eta, zeta_sq_target):
    """Box edge for a bare oracle channel: 1.5 times the outer classical turning point.

    The turning point solves m^2 w^2 rho^2 + 2 m eta rho = zeta_t for the
    largest eigenvalue the caller intends to resolve; zeta_t is floored at
    m*omega so a positive root always exists. It sizes the bare channels that
    have no solved state, whose box wavefunction.suggested_rho_max would give.
    """
    zeta_t = max(zeta_sq_target, m * omega)
    try:
        a = (m * omega) ** 2
        b = m * eta
        rho_t = (-b + math.sqrt(b * b + a * zeta_t)) / a
    except (OverflowError, ZeroDivisionError):
        rho_t = math.inf
    if not math.isfinite(1.5 * rho_t):
        raise OverflowGuard(
            f"oracle box overflows (m*omega = {m * omega:.3e}, eta = {eta:.6g}, "
            f"target zeta^2 = {zeta_sq_target:.6g})"
        )
    return 1.5 * rho_t


def lowest_eigenvalues(spec, count, first=0):
    """Eigenvalues of indices first..count-1 of an oracle channel through scipy.linalg.

    eigh_tridiagonal's index route makes the same dstebz call the oracle's
    index fallback makes for one index (tol 1e-14, order E), from the
    Gershgorin bounds, with no window or shift.
    """
    from scipy.linalg import eigh_tridiagonal

    d, e = build_operator(spec)
    values = eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(first, count - 1), tol=1e-14)
    return tuple(float(v) for v in values)


def eps_norm(d, e):
    """eps * ||T||_inf of a symmetric tridiagonal (d, e): the scale of its eigenvalues' rounding in double."""
    rows = np.abs(d)
    rows[1:] += np.abs(e)
    rows[:-1] += np.abs(e)
    return float(np.finfo(float).eps * rows.max())


def sturm_counts(channels, shifts):
    """Eigenvalues below each shift of each channel, by Sturm sequences in long double.

    channels is a sequence of (d, e) pairs of one size and shifts has shape
    (len(channels), s). The pivots q_i = d_i - shift - e_{i-1}^2 / q_{i-1} run
    over every channel and shift at once, and by Sylvester's inertia the count
    of negative pivots is the number of eigenvalues below the shift. A pivot
    smaller than pivmin is replaced by -pivmin, as LAPACK does. Shares no code
    with the oracle's LAPACK routes. Where long double has a 64-bit mantissa,
    its rounding moves a count's threshold by about 1e-3 eps_norm.
    """
    d = np.array([c[0] for c in channels], dtype=np.longdouble)
    e_sq = np.array([c[1] for c in channels], dtype=np.longdouble) ** 2
    shifts = np.asarray(shifts, dtype=np.longdouble)
    pivmin = np.finfo(np.longdouble).tiny * np.maximum(1.0, e_sq.max(axis=1, keepdims=True))
    q = d[:, :1] - shifts
    counts = (q < 0.0).astype(int)
    for i in range(1, d.shape[1]):
        np.copyto(q, -pivmin, where=np.abs(q) < pivmin)
        q = (d[:, i : i + 1] - shifts) - e_sq[:, i - 1 : i] / q
        counts += q < 0.0
    return counts


def long_double_eigenvalues(channels, ks, lo, hi, shifts=63, width=1e-4):
    """Eigenvalue ks[j] of each channel j inside (lo[j], hi[j]], by Sturm multisection in long double.

    Each pass counts (sturm_counts) at shifts points spread evenly inside
    every bracket and keeps the sub-interval where the count first passes k,
    until every bracket is narrower than width * eps_norm. Returns the
    midpoints, in long double. Raises AssertionError when a starting bracket
    does not hold index k alone.
    """
    ks = np.asarray(ks)[:, None]
    lo = np.asarray(lo, dtype=np.longdouble)
    hi = np.asarray(hi, dtype=np.longdouble)
    ends = sturm_counts(channels, np.stack([lo, hi], axis=1))
    bad = np.flatnonzero((ends != np.hstack([ks, ks + 1])).any(axis=1))
    assert bad.size == 0, f"brackets {bad.tolist()} do not hold index k alone: counts {ends[bad].tolist()}"
    target = width * np.array([eps_norm(d, e) for d, e in channels], dtype=np.longdouble)
    fractions = np.arange(shifts + 2, dtype=np.longdouble) / (shifts + 1)
    rows = np.arange(len(channels))
    while np.any(hi - lo > target):
        grid = lo[:, None] + (hi - lo)[:, None] * fractions
        grid[:, -1] = hi  # the ends keep their counts, k and k + 1
        past = np.ones(grid.shape, dtype=bool)
        past[:, 0] = False
        past[:, 1:-1] = sturm_counts(channels, grid[:, 1:-1]) > ks
        first = np.argmax(past, axis=1)
        lo, hi = grid[rows, first - 1], grid[rows, first]
    return (lo + hi) / 2


def probability_outside(spec, k, radius):
    """Share of the probability of an oracle channel's eigenvector k that lies beyond radius.

    The unit eigenvector comes from scipy.linalg's eigh_tridiagonal, the
    index route of lowest_eigenvalues.
    """
    from scipy.linalg import eigh_tridiagonal

    _, vectors = eigh_tridiagonal(*build_operator(spec), select="i", select_range=(k, k))
    u_sq = vectors[:, 0] ** 2
    rho = spec.step * np.arange(1, spec.n_grid + 1)
    return float(u_sq[rho > radius].sum() / u_sq.sum())


def rel_err(value, reference):
    return abs(value - reference) / max(abs(reference), 1e-300)


def sign_changes(values):
    """Strict sign flips in a sequence, zeros skipped."""
    v = np.asarray(values, dtype=float)
    positive = v[v != 0.0] > 0.0
    return int(np.count_nonzero(positive[1:] != positive[:-1]))


def energy_formula(m, coupling_product, eta, kz, n, abs_l, omega):
    """E = omega (n + |l| + 1) - eta^2/(2 m omega^2) + (M lambda)^2/(8m) + k^2/(2m)."""
    return (
        omega * (n + abs_l + 1)
        - eta**2 / (2.0 * m * omega**2)
        + coupling_product**2 / (8.0 * m)
        + kz**2 / (2.0 * m)
    )


def zeta_sq_formula(m, eta, n, abs_l, omega):
    return m * omega * (2 * n + 2 + 2 * abs_l) - eta**2 / omega**2


def reference_cubic_root():
    """The reference frequency recomputed from scratch via bisection."""
    a2, a1, a0 = cubic_coeffs(1.0, 1.0, 1.0, 3)
    root = bisect(lambda w: cubic_value(w, a2, a1, a0), 1.0, 3.0)
    assert math.isclose(root, FROZEN_OMEGA, rel_tol=1e-14)
    return root


def companion_candidates(m, coupling, eta, n, theta):
    """Frequencies from the real positive s of the full 3(n+1) companion of T(s).

    T(s) = K0 + 2 M lambda l s + 2 m eta s^3 D with s = (m omega)^(-1/2): the
    cubic in s is made monic by D^(-1/2) on both sides, balanced by s = sigma*t
    and linearized on (c, t c, t^2 c). The companion carries every real root
    together with its mirror -s; only real positive s survive. Needs eta != 0.
    """
    size = n + 1
    i = np.arange(1, size, dtype=float)
    off = np.sqrt(8.0 * (n - i + 1) * i * (i - 1 + theta))  # K0 symmetrized
    a3, a1 = 2.0 * m * eta, 2.0 * coupling
    d_inv = 1.0 / (2.0 * np.arange(size) + theta)
    k0 = -(np.diag(off, 1) + np.diag(off, -1)) * np.sqrt(np.outer(d_inv, d_inv)) / a3
    sigma = max((abs(a1 / a3) / theta) ** 0.5, np.linalg.norm(k0, np.inf) ** (1.0 / 3.0))
    companion = np.zeros((3 * size, 3 * size))
    companion[: 2 * size, size:] = np.eye(2 * size)
    companion[2 * size :, :size] = -k0 / sigma**3
    companion[2 * size :, size : 2 * size] = np.diag(-a1 / a3 * d_inv / sigma**2)
    s = sigma * np.linalg.eigvals(companion)
    real = (np.abs(s.imag) <= 1e-6 * np.abs(s)) & (s.real > 1e-8 * np.max(np.abs(s)))
    return np.sort(1.0 / (m * s.real[real] ** 2))


def reference_spectrum(m, coupling, eta, n, theta):
    """Quantized (omega, node count) pairs through the 3(n+1) companion, independently.

    Each companion candidate is bracketed by widening omega*(1 -/+ r) from
    r = 1e-10 until c_{n+1} (hand-rolled recurrence) changes sign, with r capped
    at half the gap to the neighbours, and then bisected to machine width; a
    candidate with no sign change is dropped. The node count is the rank from
    the top of the Jacobi eigenvalue -(K0 + alpha D)/2 nearest delta, taken from
    the unsymmetrized tridiagonal of the recurrence by a general eigensolver.
    """

    def truncation(w):
        alpha = 2.0 * m * eta / (m * w) ** 1.5
        delta = coupling / (m * w) ** 0.5
        return heun_series(alpha, delta, theta, 2.0 * n, n + 1)[n + 1]

    candidates = companion_candidates(m, coupling, eta, n, theta)
    gaps = np.diff(candidates, prepend=0.0, append=math.inf)
    caps = 0.5 * np.minimum(gaps[:-1], gaps[1:]) / candidates
    i = np.arange(n + 1, dtype=float)
    k0 = np.diag(-2.0 * (i[:-1] + 1) * (i[:-1] + theta), 1) + np.diag(-4.0 * (n - i[1:] + 1), -1)
    d = 2.0 * i + theta
    states = []
    for w, cap in zip(candidates.tolist(), caps.tolist()):
        r = 1e-10
        while r < cap and truncation(w * (1 - r)) * truncation(w * (1 + r)) > 0.0:
            r *= 10.0
        r = min(r, cap)
        if truncation(w * (1 - r)) * truncation(w * (1 + r)) > 0.0:
            continue
        root = bisect(truncation, w * (1 - r), w * (1 + r))
        alpha = 2.0 * m * eta / (m * root) ** 1.5
        delta = coupling / (m * root) ** 0.5
        mu = np.sort(np.linalg.eigvals(-(k0 + alpha * np.diag(d)) / 2.0).real)[::-1]
        states.append((root, int(np.argmin(np.abs(mu - delta)))))
    return states


def dense_companion_candidates(problem):
    """quantize._candidate_frequencies built from the dense K0, its scaling and its blocks. Needs eta != 0."""
    n, theta = problem.n, problem.theta
    i = np.arange(1, n + 1, dtype=float)
    k0 = -np.diag(np.sqrt(8.0 * (n - i + 1) * i * (i - 1 + theta)), 1)
    k0 += k0.T
    a3, a1 = 2.0 * problem.mass * problem.eta, 2.0 * problem.coupling
    d_inv = 1.0 / (2.0 * np.arange(n + 1) + theta)
    k0 *= np.sqrt(np.outer(d_inv, d_inv)) / a3
    c = a1 / a3
    sigma = max((abs(c) / theta) ** 0.5, np.linalg.norm(k0, np.inf) ** (1.0 / 3.0))
    b = k0[0::2, 1::2] / sigma**3
    n_e, n_o = b.shape
    companion = np.zeros((n_e + 2 * n_o, n_e + 2 * n_o))
    companion[:n_e, :n_e] = np.diag(-c / sigma**2 * d_inv[0::2])
    companion[:n_e, n_e : n_e + n_o] = -b
    companion[n_e : n_e + n_o, n_e + n_o :] = np.eye(n_o)
    companion[n_e + n_o :, :n_e] = -b.T
    companion[n_e + n_o :, n_e + n_o :] = np.diag(-c / sigma**2 * d_inv[1::2])
    u = sigma**2 * np.linalg.eigvals(companion)
    real = np.abs(u.imag) <= EIG_IMAG_RTOL * np.abs(u)
    real &= u.real > EIG_ZERO_RTOL * np.max(np.abs(u))
    return np.sort(1.0 / (problem.mass * u.real[real]))


def list_recurrence(alpha, delta, theta, g, j_max):
    """series._raw_coefficients on equal-shape arrays, one list entry per c_j; no overflow guard."""
    two_alpha, theta_alpha, two_delta = 2.0 * alpha, theta * alpha, 2.0 * delta
    c = [np.ones_like(alpha), alpha / 2.0 + delta / theta]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(j_max - 1):
            c.append(
                (two_alpha * (j + 1) + theta_alpha + two_delta) * c[j + 1] / (2.0 * (j + 2) * (j + 1 + theta))
                - (g - 2.0 * j) * c[j] / ((j + 2) * (j + 1 + theta))
            )
    return np.stack(c, axis=-1)


def alpha_delta(problem, omega):
    """Heun (alpha, delta) at frequency omega, in the Python-float arithmetic of one quantize._cell_rows probe."""
    m_omega = problem.mass * omega
    return 2.0 * problem.mass * problem.eta / m_omega**1.5, problem.coupling / m_omega**0.5


def packed_cell_rows(problem, omegas):
    """quantize._cell_rows with (alpha, delta) packed from alpha_delta per probe, through list_recurrence."""
    omegas = np.asarray(omegas, dtype=float)
    probes = np.concatenate([omegas * (1.0 - ROOT_RTOL), omegas * (1.0 + ROOT_RTOL), omegas])
    alpha, delta = np.array([alpha_delta(problem, w) for w in probes.tolist()]).reshape(-1, 2).T
    raw = list_recurrence(alpha, delta, problem.theta, 2.0 * problem.n, problem.n + 2)
    return raw.reshape(3, len(omegas), problem.n + 3), alpha.reshape(3, -1)[2], delta.reshape(3, -1)[2]


def straightforward_norm(solution, rho_max):
    """wavefunction.normalize's norm constant with each Simpson level sampled afresh.

    Returns (N, intervals), the level at which N settled, or None where the
    refinement cap is passed first.
    """
    previous, intervals = None, _SIMPSON_START
    while intervals <= _SIMPSON_MAX:
        rho = np.linspace(0.0, rho_max, intervals + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            f = np.asarray(evaluate_R(solution, rho)) ** 2 * rho
            integral = float(rho_max / intervals / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()))
        norm = 1.0 / math.sqrt(integral)
        if previous is not None and abs(norm - previous) <= NORM_RTOL * abs(norm):
            return norm, intervals
        previous, intervals = norm, 2 * intervals
    return None


def benchmark_states():
    """The 132 states of n <= 12, l in {1, -1, 2} at m = M = lambda = eta = 1, the verify workload's."""
    states = []
    for n in range(1, 13):
        for l in (1, -1, 2):
            states += solve(ReducedProblem.from_params(PhysicalParams(1.0, 1.0, 1.0, 1.0, 0.0, l), n))
    return states


@dataclass(frozen=True)
class OracleCall:
    """One oracle.eigenvalues(spec, k, near=near, start=start) call: what it returned and what LAPACK it ran.

    start is a copy of the start iterate as given, which the call overwrites.
    lapack names the routines of oracle._flapack() it ran, in order. factored
    holds, for each dgttrf call, which factors T - x, the first entry d[0] - x
    of the diagonal it was given: d[0] - factored is x, up to a rounding of
    d[0], about eps ||T||_inf.
    """

    spec: RadialOperatorSpec
    k: int
    near: float | None
    start: np.ndarray | None
    value: float
    x: np.ndarray | None
    lapack: tuple[str, ...]
    factored: tuple[float, ...]


class _LoggedLapack:
    """The routines of a LAPACK namespace, each logging its name (and dgttrf its first diagonal entry) when run."""

    def __init__(self, lapack):
        self._lapack, self.names, self.factored = lapack, [], []

    def __getattr__(self, name):
        routine = getattr(self._lapack, name)

        def logged(*args, **kwargs):
            self.names.append(name)
            if name == "dgttrf":
                self.factored.append(float(args[1][0]))  # before dgttrf overwrites it
            return routine(*args, **kwargs)

        return logged


def record_verify(state, perturb_omega=1.0) -> tuple[VerificationReport, list[OracleCall]]:
    """verify_solution(state, perturb_omega=...) and the oracle calls it made, in order."""
    eigenvalues, flapack = oracle.eigenvalues, oracle._flapack
    lapack, calls = _LoggedLapack(flapack()), []

    def recorded(spec, k, *, near=None, start=None):
        lapack.names, lapack.factored = [], []
        given = None if start is None else start.copy()
        value, x = eigenvalues(spec, k, near=near, start=start)
        calls.append(OracleCall(spec, k, near, given, value, x, tuple(lapack.names), tuple(lapack.factored)))
        return value, x

    oracle.eigenvalues, oracle._flapack = recorded, lambda: lapack
    try:
        report = oracle.verify_solution(state, perturb_omega=perturb_omega)
    finally:
        oracle.eigenvalues, oracle._flapack = eigenvalues, flapack
    return report, calls


def lapack_totals(calls):
    """{(grid points, routine): number of runs} over a sequence of OracleCall."""
    return Counter((call.spec.n_grid, name) for call in calls for name in call.lapack)
