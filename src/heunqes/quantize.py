"""Frequency quantization through quasi-exact solvability.

Separating the azimuthal and axial parts of the wave equation leaves a radial
problem that maps, after xi = sqrt(m*omega)*rho and the ansatz of
wavefunction.evaluate_R, onto the biconfluent Heun equation with

    alpha = 2*m*eta / (m*omega)^(3/2),
    delta = M*lambda*l / (m*omega)^(1/2),
    theta = 2|l| + 1,
    g     = zeta^2/(m*omega) + alpha^2/4 - 2 - 2|l|,

where zeta^2 = 2mE - k^2 - M^2 lambda^2 / 4 collects the separation
constants. Demanding a polynomial solution imposes two conditions at once:
g = 2n and c_{n+1} = 0. The first fixes

    zeta^2 = m*omega*(2n + 2 + 2|l|) - eta^2/omega^2,

the second is satisfied only at discrete frequencies omega_{n,l}: the
potentials cannot be chosen freely, the oscillator frequency itself is
quantized. For n = 1 the condition c_2 = 0 is a cubic in omega with a closed
form (solve_cubic); for general n every root of c_{n+1}(omega) is an eigenvalue
of one real companion matrix in u = 1/(m*omega) of size (n+1) + floor((n+1)/2)
(solve_frequency), filled along its diagonals straight from the scaled
off-diagonal of K0 (_candidate_frequencies). Both only propose candidates and
quantize decides: it takes one array recurrence at every candidate and just
below and above it (_cell_rows). The sign changes of c_0..c_{n+1} below and
above are Sturm counts; one step between them is the root test and the smaller
is the node count (_node_counts). The row at the candidate gives the
coefficients. solve is the one place that picks a cell's route: the cubic at
n = 1, the companion otherwise.

Energies follow as

    E = omega*(n + |l| + 1) - eta^2/(2*m*omega^2) + M^2 lambda^2/(8m) + k^2/(2m).
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import series
from .errors import NonPositiveFrequency, NoRootInRange, OverflowGuard
from .model import PhysicalParams

# Eigenvalues u = s^2 kept as real positive roots: |Im| <= EIG_IMAG_RTOL*|u|, and
# Re > EIG_ZERO_RTOL*max|u|, which drops the u -> 0 artifacts (omega ~ 1e40 and up).
# Both are the bounds on s = (m omega)^(-1/2) restated for u: twice the relative
# imaginary part, the square of the zero threshold.
EIG_IMAG_RTOL = 2e-6
EIG_ZERO_RTOL = 1e-16

# A root is kept only if its Sturm count steps by one, so c_{n+1} changes sign, across
# omega * (1 -/+ ROOT_RTOL). The eigenvalues are close already: against their polished
# roots the relative error was 1.2e-15 at the median and 6.5e-14 at most over 1332
# candidates (the 98 n >= 2 cells of the perfbench spectrum workload, seed 11), so most
# pass that test as they stand. That figure holds on the spectrum range only: secant
# steps, each until a step is below STEP_RTOL, are the fallback for a candidate that
# fails, and over a sweep of 1500 random cells (21,742 states, m 1e-3..1e3, |M lambda|
# 1e-2..1e2) 41 candidates in 27 cells needed them, all with small m and large M lambda.
SECANT_START_RTOL = 1e-7
SECANT_STEPS = 8
STEP_RTOL = 1e-13
ROOT_RTOL = 1e-11

# Two frequency roots closer than this (relative) are treated as one.
ROOT_MERGE_RTOL = 1e-9

# The companion is balanced by u = sigma^2 t and its block B carries 1/sigma^3, so sigma
# must stay below the cube root of the largest double; at unit parameters an |eta| below
# about 1e-206 passes it. It must stay above the reciprocal too, or sigma^2 and sigma^3
# underflow to 0, as where 2 m eta leaves the double range.
_SIGMA_LIMIT = sys.float_info.max ** (1.0 / 3.0)


@dataclass(frozen=True)
class ReducedProblem:
    """Radial problem at fixed polynomial degree n.

    Carries the physical parameters plus the derived quantities every
    quantization formula needs. Construct through from_params, which adds
    to the checks of PhysicalParams the Coulomb-type term that quantization
    needs, l != 0 and M*lambda != 0, and 1 <= n <= series.MAX_DEGREE.
    """

    physical: PhysicalParams
    n: int
    abs_l: int
    theta: int
    coupling: float  # signed product M*lambda*l

    @classmethod
    def from_params(cls, physical: PhysicalParams, n: int) -> "ReducedProblem":
        """Raises ValueError if l = 0, M*lambda = 0 or n is not an integer in 1..MAX_DEGREE."""
        if physical.l == 0:
            raise ValueError(
                "l must be nonzero: the Coulomb-type term M*lambda*l/rho vanishes "
                "at l = 0 and the frequency quantization is undefined"
            )
        if physical.quad * physical.lam == 0.0:
            raise ValueError("M*lambda must be nonzero for the quantized problem")
        if n != int(n) or n < 1:
            raise ValueError(f"polynomial degree n must be an integer >= 1, got {n!r}")
        if n > series.MAX_DEGREE:
            raise ValueError(f"n = {n} beyond the supported degree {series.MAX_DEGREE}")
        abs_l = abs(physical.l)
        return cls(physical, int(n), abs_l, 2 * abs_l + 1, physical.coupling)

    @property
    def mass(self) -> float:
        return self.physical.mass

    @property
    def eta(self) -> float:
        return self.physical.eta


@dataclass(frozen=True)
class SpectralSolution:
    """One quantized state: frequency root plus everything derived at it.

    residuals holds diagnostics: 'truncation' and 'truncation_next' are
    |c_{n+1}| and |c_{n+2}| relative to max_{j<=n}|c_j|; 'cubic' (n = 1 only)
    is the absolute cubic residual at omega. alpha and delta are the Heun
    parameters at omega (see the module docstring); theta is problem.theta.
    """

    n: int
    l: int
    omega: float
    energy: float
    zeta_sq: float
    coefficients: tuple[float, ...]
    node_count: int
    residuals: dict[str, float]
    problem: ReducedProblem
    alpha: float
    delta: float

    def __post_init__(self):
        if not (self.omega > 0):
            raise ValueError(f"omega must be positive, got {self.omega}")


def _energies(problem: ReducedProblem, omegas: list[float]) -> list[float]:
    """Energy level E_{n,l} at each of omegas, its per-cell constants taken once."""
    p = problem.physical
    level, eta_sq, two_m = problem.n + problem.abs_l + 1, p.eta**2, 2.0 * p.mass
    coulomb, axial = (p.quad * p.lam) ** 2 / (8.0 * p.mass), p.kz**2 / (2.0 * p.mass)
    return [w * level - eta_sq / (two_m * w**2) + coulomb + axial for w in omegas]


def _zeta_squares(problem: ReducedProblem, omegas: list[float]) -> list[float]:
    """Radial eigenvalue zeta^2 = m*omega*(2n + 2 + 2|l|) - eta^2/omega^2 at each of omegas.

    Algebraically identical to 2mE - k^2 - M^2 lambda^2/4 with E from
    _energies; the identity is exercised as a cross-check in the tests.
    """
    mass, level, eta_sq = problem.mass, 2 * problem.n + 2 + 2 * problem.abs_l, problem.eta**2
    return [mass * w * level - eta_sq / w**2 for w in omegas]


def cubic_coefficients(problem: ReducedProblem) -> tuple[float, float, float]:
    """Coefficients (a2, a1, a0) of the ground-state cubic omega^3 + a2 omega^2 + a1 omega + a0.

    Obtained by clearing (m*omega)^3 out of c_2 = 0 at g = 2:

        a2 = -(M lambda l)^2 / (2 m theta)
        a1 = -eta M lambda l (1 + theta) / (m theta)
        a0 = -(2 + theta) eta^2 / (2 m)

    Raises ValueError if problem.n is not 1.
    """
    if problem.n != 1:
        raise ValueError(f"the closed-form cubic exists for n = 1 only, got n = {problem.n}")
    m, eta, coup, theta = problem.mass, problem.eta, problem.coupling, problem.theta
    a2 = -(coup * coup) / (2.0 * m * theta)
    a1 = -eta * coup * (1 + theta) / (m * theta)
    a0 = -(2 + theta) * eta * eta / (2.0 * m)
    return a2, a1, a0


def _cubic_real_roots(a2: float, a1: float, a0: float) -> list[float]:
    """Real roots of omega^3 + a2 omega^2 + a1 omega + a0: the largest in closed form, the rest by deflation.

    The closed form works on the depressed cubic t^3 + p t + q (omega = t - a2/3): the
    trigonometric form when the discriminant is positive (three real roots), the radical
    (Cardano) form otherwise. Both lose a root far below the largest to cancellation against
    the shift (a pair near 0.005 beside 6.4e5 comes out wrong from its third digit), so they
    give only the largest-magnitude root r. The other two solve omega^2 + (a2 + r) omega - a0/r
    (Vieta), by the quadratic formula without cancellation; a double root is one of its cases.

    Raises:
        OverflowGuard: p^3 or q^2, which grow like the sixth power of the
            root scale, leave the double range: roots past about 1e51, as
            for a mass below about 1e-52 at unit couplings.
    """
    try:
        p = a1 - a2 * a2 / 3.0
        q = 2.0 * a2**3 / 27.0 - a2 * a1 / 3.0 + a0
        disc = -4.0 * p**3 - 27.0 * q * q
    except OverflowError:  # float ** raises where * gives inf
        disc = math.inf
    if not math.isfinite(disc):
        raise OverflowGuard(f"ground-state cubic overflows (a2 = {a2:.3e}, a1 = {a1:.3e}, a0 = {a0:.3e})")
    shift = -a2 / 3.0
    if disc > 0.0:
        # three distinct real roots; clamp guards acos against rounding spill
        r = math.sqrt(-p / 3.0)
        phi = math.acos(min(1.0, max(-1.0, 3.0 * q / (2.0 * p * r))))
        roots = [2.0 * r * math.cos((phi - 2.0 * math.pi * k) / 3.0) + shift for k in range(3)]
        largest = max(roots, key=abs)
    else:
        half_q = -q / 2.0
        root_term = math.sqrt(max(0.0, q * q / 4.0 + p**3 / 27.0))
        largest = _signed_cbrt(half_q + root_term) + _signed_cbrt(half_q - root_term) + shift
    if largest == 0.0:  # then every real root is zero
        return [largest]
    b, c = a2 + largest, -a0 / largest
    d = b * b - 4.0 * c
    if d < 0.0:
        return [largest]
    s = -0.5 * (b + math.copysign(math.sqrt(d), b))  # the pair's larger root in magnitude
    return [largest, s, c / s] if s else [largest, s, s]


def _signed_cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _polish_newton(value: float, a2: float, a1: float, a0: float) -> float:
    """Up to four Newton steps on the cubic from value, each kept only if it lowers the residual."""
    f = lambda w: ((w + a2) * w + a1) * w + a0
    fp = lambda w: (3.0 * w + 2.0 * a2) * w + a1
    best = value
    for _ in range(4):
        slope = fp(best)
        if slope == 0.0:
            break
        trial = best - f(best) / slope
        if not math.isfinite(trial) or abs(f(trial)) >= abs(f(best)):
            break
        best = trial
    return best


def _merge_close(roots: list[float]) -> list[float]:
    out: list[float] = []
    for r in sorted(roots):
        if out and abs(r - out[-1]) <= ROOT_MERGE_RTOL * max(abs(r), abs(out[-1])):
            continue
        out.append(r)
    return out


def solve_cubic(problem: ReducedProblem) -> list["SpectralSolution"]:
    """The n = 1 states, ascending: the cubic's real roots, each Newton-polished, are candidates
    for quantize, the root test of solve_frequency too. Each state's residuals add 'cubic', the
    absolute cubic residual at omega. Raises ValueError if problem.n is not 1 (cubic_coefficients)
    and NoRootInRange if no candidate passes.
    """
    a2, a1, a0 = cubic_coefficients(problem)
    candidates = np.sort([_polish_newton(w, a2, a1, a0) for w in _cubic_real_roots(a2, a1, a0)])
    solutions = quantize(problem, candidates)
    for s in solutions:
        s.residuals["cubic"] = abs(((s.omega + a2) * s.omega + a1) * s.omega + a0)
    return solutions


def _cell_rows(problem: ReducedProblem, omegas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c_0..c_{n+2} at omega * (1 - ROOT_RTOL), omega * (1 + ROOT_RTOL) and omega, in one recurrence.

    Returns the rows, shape (3, len(omegas), n + 3), and (alpha, delta) at each omega. Both
    take Python-float ** at every probe (numpy's ** differs from Python's in the last bit),
    so each row is bit-identical to a scalar recurrence.
    """
    omegas = np.asarray(omegas, dtype=float)
    probes = np.concatenate([omegas * (1.0 - ROOT_RTOL), omegas * (1.0 + ROOT_RTOL), omegas])
    finite_positive = (probes > 0.0) & (probes < math.inf)
    if not finite_positive.all():
        bad = probes[np.argmin(finite_positive)].item()
        raise NonPositiveFrequency(f"omega must be finite and > 0, got {bad}")
    mass, a3, coupling = problem.mass, 2.0 * problem.mass * problem.eta, problem.coupling
    m_omegas = [mass * w for w in probes.tolist()]
    try:
        alpha = np.array([a3 / x**1.5 for x in m_omegas])
    except (OverflowError, ZeroDivisionError):  # float ** raises past the double range, or gives 0
        raise OverflowGuard(f"(m*omega)^1.5 leaves the double range, m*omega = {min(m_omegas):.3e}") from None
    delta = np.array([coupling / x**0.5 for x in m_omegas])
    raw = series._raw_coefficients(alpha, delta, problem.theta, 2.0 * problem.n, problem.n + 2)
    return raw.reshape(3, len(omegas), problem.n + 3), alpha.reshape(3, -1)[2], delta.reshape(3, -1)[2]


def _fill_diagonal(matrix: np.ndarray, row: int, col: int, values: np.ndarray) -> None:
    """Write values along the diagonal of a C-contiguous matrix that starts at (row, col)."""
    step = matrix.shape[1] + 1
    start = row * matrix.shape[1] + col
    matrix.reshape(-1)[start : start + step * len(values) : step] = values


def _candidate_frequencies(problem: ReducedProblem) -> np.ndarray:
    """Every positive real root of det T(s) = 0 as a frequency, ascending, to about 1e-5.

    The companion is filled along its diagonals from the scaled off-diagonal of K0:
    entry k joins indices k and k + 1, so even k lands on the diagonal of B and odd k
    just below it. The companion's only other entries are diagonals too.
    """
    n, theta = problem.n, problem.theta
    i = np.arange(1, n + 1, dtype=float)
    off = np.sqrt(8.0 * (n - i + 1) * i * (i - 1 + theta))  # K0's off-diagonal, symmetrized, without its sign
    a3, a1 = 2.0 * problem.mass * problem.eta, 2.0 * problem.coupling
    if a3 == 0.0:
        k0 = -np.diag(off, 1)
        k0 += k0.T
        s = np.linalg.eigvalsh(-k0 / a1)
        u = s[s > 0.0] ** 2
    else:
        d_inv = 1.0 / (2.0 * np.arange(n + 1) + theta)
        with np.errstate(over="ignore"):  # an overflow to inf fails the sigma check below
            k = -off * (np.sqrt(d_inv[:-1] * d_inv[1:]) / a3)  # off-diagonal of D^(-1/2) K0 D^(-1/2) / a3
            # row r of the scaled K holds k_(r-1) and k_r: its inf-norm is the largest |k_(r-1)| + |k_r|
            row_sums = np.abs(np.concatenate([k, [0.0]])) + np.abs(np.concatenate([[0.0], k]))
        c = a1 / a3
        sigma = max((abs(c) / theta) ** 0.5, row_sums.max() ** (1.0 / 3.0))
        if not 1.0 / _SIGMA_LIMIT < sigma < _SIGMA_LIMIT:
            raise OverflowGuard(
                f"frequency companion overflows: scale {sigma:.3e} from eta = {problem.eta:.3e}, "
                f"M*lambda*l = {problem.coupling:.3e}"
            )
        # blocks (x, z', y) of solve_frequency in t = u/sigma^2, with z' and y scaled by sigma
        minus_b = -(k / sigma**3)
        shift = -c / sigma**2
        n_e, n_o = (n + 2) // 2, (n + 1) // 2
        companion = np.zeros((n_e + 2 * n_o, n_e + 2 * n_o))
        _fill_diagonal(companion, 0, 0, shift * d_inv[0::2])
        _fill_diagonal(companion, 0, n_e, minus_b[0::2])
        _fill_diagonal(companion, 1, n_e, minus_b[1::2])
        _fill_diagonal(companion, n_e, n_e + n_o, np.ones(n_o))
        _fill_diagonal(companion, n_e + n_o, 0, minus_b[0::2])
        _fill_diagonal(companion, n_e + n_o, 1, minus_b[1::2])
        _fill_diagonal(companion, n_e + n_o, n_e + n_o, shift * d_inv[1::2])
        u = sigma**2 * np.linalg.eigvals(companion)
    real = np.abs(u.imag) <= EIG_IMAG_RTOL * np.abs(u)
    real &= u.real > EIG_ZERO_RTOL * np.max(np.abs(u))
    m_u = problem.mass * u.real[real]
    with np.errstate(divide="ignore", over="ignore"):  # m*u at or near 0: omega = inf, which _cell_rows rejects
        return np.sort(1.0 / m_u)


def _polish(problem: ReducedProblem, omega: float, cap: float) -> float:
    """Secant steps on c_{n+1} from an eigenvalue estimate, each at most cap long."""
    truncation = lambda ws: _cell_rows(problem, ws)[0][2, :, problem.n + 1].tolist()
    x0, x1 = omega, omega * (1.0 + SECANT_START_RTOL)
    f0, f1 = truncation([x0, x1])
    for _ in range(SECANT_STEPS):
        if f1 == f0:
            break
        step = max(-cap, min(cap, -f1 * (x1 - x0) / (f1 - f0)))
        x0, f0 = x1, f1
        x1 += step
        if abs(step) <= STEP_RTOL * x1:
            break
        (f1,) = truncation([x1])
    return x1


def solve_frequency(problem: ReducedProblem) -> list["SpectralSolution"]:
    """All quantized frequencies of the cell, ascending, from one eigenproblem.

    With s = (m omega)^(-1/2), rows i = 0..n of the recurrence at g = 2n with
    c_{n+1} = 0 read T(s) c = 0 for T(s) = K0 + 2 M lambda l s + 2 m eta s^3 D,
    where D = diag(2i + theta) and K0 is tridiagonal with zero diagonal,
    sub-diagonal -4(n-i+1) and super-diagonal -2(i+1)(i+theta). Facing entries
    have a positive product, so a diagonal similarity makes K0 symmetric (off-diagonal
    -sqrt(8(n-i+1) i (i-1+theta))); without it the linearization loses roots
    from n ~ 24. D^(-1/2) on both sides turns T into s^3 + c D^(-1) s + K with
    c = M lambda l/(m eta). K couples even indices x only to odd ones z, through
    B = K[even, odd], so P = diag((-1)^i) gives P T(s) P = -T(-s): the roots
    come in pairs +-s and only u = s^2 = 1/(m omega) matters. With z' = z/s and
    y = u z' the cubic becomes the standard eigenproblem

        u x = -c D_e^(-1) x - B z',   u z' = y,   u y = -B^T x - c D_o^(-1) y

    of size (n+1) + floor((n+1)/2), balanced by u = sigma^2 t, whose real
    positive eigenvalues carry every root. That is about an eighth of the
    LAPACK work of the linearization in s of size 3(n+1), which computes each
    root twice; at eta = 0, T is linear in s. The eigenvalues are candidates,
    and quantize decides which are roots.
    """
    return quantize(problem, _candidate_frequencies(problem))


def solve(problem: ReducedProblem) -> list["SpectralSolution"]:
    """All quantized states of the cell, ascending in omega: solve_cubic at n = 1, solve_frequency otherwise."""
    return solve_cubic(problem) if problem.n == 1 else solve_frequency(problem)


def quantize(problem: ReducedProblem, candidates: np.ndarray) -> list["SpectralSolution"]:
    """The cell's states, ascending, from its ascending candidate frequencies; both routes end here.

    A root is a positive candidate whose Sturm count steps by one across omega * (1 -/+ ROOT_RTOL)
    (_node_counts), so c_{n+1} changes sign there. One _cell_rows recurrence tests them all; a
    candidate that passes is a root as it stands, its state and node count read off the same rows.
    One that fails is polished by secant steps capped at half the gap to its neighbours and kept
    only if it passes then; such a cell's roots take _cell_rows again. Raises NoRootInRange if no
    candidate passes.
    """
    candidates = candidates[candidates > 0.0]
    rows, alpha, delta = _cell_rows(problem, candidates)
    nodes = _node_counts(problem, rows)
    ws, kept = candidates.tolist(), []
    for k, (w, count) in enumerate(zip(ws, nodes)):
        if count < 0:
            below = w - ws[k - 1] if k else w
            above = ws[k + 1] - w if k + 1 < len(ws) else math.inf
            w = _polish(problem, w, 0.5 * min(below, above))
            (count,) = _node_counts(problem, _cell_rows(problem, [w])[0])
        if count >= 0:
            kept.append(w)
    roots = _merge_close(kept)
    if not roots:
        raise NoRootInRange(
            f"no sign change of c_{problem.n + 1}(omega) at any of the {len(candidates)} "
            "positive candidate frequencies: the cell has no quantized frequency"
        )
    passed = [k for k, count in enumerate(nodes) if count >= 0]
    if roots != [ws[k] for k in passed]:  # a root was polished or merged
        cell = _cell_rows(problem, roots)
        return _make_solutions(problem, roots, cell, _node_counts(problem, cell[0]))
    cell = rows[:, passed], alpha[passed], delta[passed]
    return _make_solutions(problem, roots, cell, [nodes[k] for k in passed])


def _node_counts(problem: ReducedProblem, rows: np.ndarray) -> list[int]:
    """Node count of each candidate from the Sturm counts in its _cell_rows, or -1 where it is no root.

    At g = 2n, c_j is a positive multiple of the j-th leading principal minor of delta - J,
    with J = -(K0 + alpha*D)/2 the symmetric Jacobi matrix (see solve_frequency), so the sign
    changes of c_0..c_{n+1} count the eigenvalues of J above delta. A candidate is a root when
    those of the rows at omega * (1 -/+ ROOT_RTOL) differ by exactly one and no c_j there is
    zero: as c_0 = 1, c_{n+1} changes sign, and by oscillation theory the smaller count, the
    number of eigenvalues above the one delta matches, is the node count.
    """
    signs = np.sign(rows[:2, :, : problem.n + 2])
    below, above = (signs[..., 1:] != signs[..., :-1]).sum(axis=-1)
    root = (np.abs(below - above) == 1) & (signs != 0).all(axis=(0, 2))
    return np.where(root, np.minimum(below, above), -1).tolist()


def _make_solutions(
    problem: ReducedProblem, roots: list[float], cell: tuple, nodes: list[int]
) -> list[SpectralSolution]:
    """Assemble the solution records of a cell's frequency roots, ascending, from their _cell_rows and counts."""
    rows, alpha, delta = cell
    n, raw = problem.n, rows[2]
    scale = np.abs(raw[:, : n + 1]).max(axis=1, keepdims=True)
    tails = (np.abs(raw[:, n + 1 :]) / scale).tolist()
    coefficients = raw[:, : n + 1].tolist()
    try:
        energies, zetas = _energies(problem, roots), _zeta_squares(problem, roots)
    except (OverflowError, ZeroDivisionError):  # float ** raises past the double range, or 2 m omega^2 gives 0
        raise OverflowGuard(f"energy or zeta^2 leaves the double range at omega = {min(roots):.3e}") from None
    solutions = []
    for k, (omega, a, d) in enumerate(zip(roots, alpha.tolist(), delta.tolist())):
        solutions.append(
            SpectralSolution(
                n=n,
                l=problem.physical.l,
                omega=omega,
                energy=energies[k],
                zeta_sq=zetas[k],
                coefficients=tuple(coefficients[k]),
                node_count=nodes[k],
                residuals={"truncation": tails[k][0], "truncation_next": tails[k][1]},
                problem=problem,
                alpha=a,
                delta=d,
            )
        )
    return solutions
