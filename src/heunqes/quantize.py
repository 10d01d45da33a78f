"""Frequency quantization through quasi-exact solvability.

Separating the azimuthal and axial parts of the wave equation leaves a radial
problem that maps, after xi = sqrt(m*omega)*rho and the ansatz of
series.radial_ansatz, onto the biconfluent Heun equation with

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
quantized. For n = 1 the condition c_2 = 0 is a cubic in omega solved in
closed form; for general n every root of c_{n+1}(omega) is an eigenvalue of
one real companion matrix (solve_frequency), and every state's node count is
read from the Jacobi matrix of the same recurrence (_node_count).

Energies follow as

    E = omega*(n + |l| + 1) - eta^2/(2*m*omega^2) + M^2 lambda^2/(8m) + k^2/(2m).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import series
from .errors import NonPositiveFrequency, NoPositiveRoot, NoRootInRange, WrongDegree
from .model import PhysicalParams, validate
from .series import HeunParams

# Eigenvalues lambda kept as real positive roots: |Im| <= EIG_IMAG_RTOL*|lambda|, and
# Re > EIG_ZERO_RTOL*max|lambda|, which drops the s -> 0 artifacts (omega ~ 1e40 and up).
EIG_IMAG_RTOL = 1e-6
EIG_ZERO_RTOL = 1e-8

# The eigenvalues are good to about 1e-5; secant steps polish each until a step is below
# STEP_RTOL, and it is kept only if c_{n+1} changes sign across omega * (1 -/+ ROOT_RTOL).
SECANT_START_RTOL = 1e-7
SECANT_STEPS = 8
STEP_RTOL = 1e-13
ROOT_RTOL = 1e-11

# Two frequency roots closer than this (relative) are treated as one.
ROOT_MERGE_RTOL = 1e-9


@dataclass(frozen=True)
class ReducedProblem:
    """Radial problem at fixed polynomial degree n.

    Carries the validated physical parameters plus the derived quantities
    every quantization formula needs. Construct through from_params, which
    enforces l != 0, M*lambda != 0 and 1 <= n <= series.MAX_DEGREE.
    """

    physical: PhysicalParams
    n: int
    abs_l: int
    theta: int
    coupling: float  # signed product M*lambda*l

    @classmethod
    def from_params(cls, physical: PhysicalParams, n: int) -> "ReducedProblem":
        validate(physical, require_coulomb=True)
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
    is the absolute cubic residual at omega.
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
    heun: HeunParams

    def __post_init__(self):
        if not (self.omega > 0):
            raise ValueError(f"omega must be positive, got {self.omega}")


def _check_omega(omega: float) -> float:
    if not (math.isfinite(omega) and omega > 0):
        raise NonPositiveFrequency(f"omega must be finite and > 0, got {omega}")
    return omega


def _alpha_delta(problem: ReducedProblem, omega: float) -> tuple[float, float]:
    """Heun (alpha, delta) at frequency omega; theta and g = 2n come from the problem."""
    m_omega = problem.mass * _check_omega(omega)
    return 2.0 * problem.mass * problem.eta / m_omega**1.5, problem.coupling / m_omega**0.5


def energy(problem: ReducedProblem, omega: float) -> float:
    """Energy level E_{n,l} at a (quantized) frequency omega."""
    _check_omega(omega)
    p = problem.physical
    coul_sq = (p.quad * p.lam) ** 2
    return (
        omega * (problem.n + problem.abs_l + 1)
        - p.eta**2 / (2.0 * p.mass * omega**2)
        + coul_sq / (8.0 * p.mass)
        + p.kz**2 / (2.0 * p.mass)
    )


def zeta_squared(problem: ReducedProblem, omega: float) -> float:
    """Radial eigenvalue zeta^2 = m*omega*(2n + 2 + 2|l|) - eta^2/omega^2.

    Algebraically identical to 2mE - k^2 - M^2 lambda^2/4 with E from
    energy(); the identity is exercised as a cross-check in the tests.
    """
    _check_omega(omega)
    return problem.mass * omega * (2 * problem.n + 2 + 2 * problem.abs_l) - problem.eta**2 / omega**2


def cubic_coefficients(problem: ReducedProblem) -> tuple[float, float, float]:
    """Coefficients (a2, a1, a0) of the ground-state cubic omega^3 + a2 omega^2 + a1 omega + a0.

    Obtained by clearing (m*omega)^3 out of c_2 = 0 at g = 2:

        a2 = -(M lambda l)^2 / (2 m theta)
        a1 = -eta M lambda l (1 + theta) / (m theta)
        a0 = -(2 + theta) eta^2 / (2 m)
    """
    if problem.n != 1:
        raise WrongDegree(f"the closed-form cubic exists for n = 1 only, got n = {problem.n}")
    m, eta, coup, theta = problem.mass, problem.eta, problem.coupling, problem.theta
    a2 = -(coup * coup) / (2.0 * m * theta)
    a1 = -eta * coup * (1 + theta) / (m * theta)
    a0 = -(2 + theta) * eta * eta / (2.0 * m)
    return a2, a1, a0


def _cubic_real_roots(a2: float, a1: float, a0: float) -> list[float]:
    """All real roots of omega^3 + a2 omega^2 + a1 omega + a0, multiplicity collapsed.

    Classical discriminant-classified closed form on the depressed cubic
    t^3 + p t + q (omega = t - a2/3): three real roots through the
    trigonometric form when the discriminant is positive, one through the
    radical (Cardano) form when negative, explicit repeated-root formulas on
    the boundary.
    """
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2**3 / 27.0 - a2 * a1 / 3.0 + a0
    shift = -a2 / 3.0
    if p == 0.0 and q == 0.0:
        return [shift]  # triple root
    disc = -4.0 * p**3 - 27.0 * q * q
    if disc > 0.0:
        # three distinct real roots; clamp guards acos against rounding spill
        r = math.sqrt(-p / 3.0)
        phi = math.acos(min(1.0, max(-1.0, 3.0 * q / (2.0 * p * r))))
        return [2.0 * r * math.cos((phi - 2.0 * math.pi * k) / 3.0) + shift for k in range(3)]
    if disc < 0.0:
        half_q = -q / 2.0
        root_term = math.sqrt(q * q / 4.0 + p**3 / 27.0)
        t = _signed_cbrt(half_q + root_term) + _signed_cbrt(half_q - root_term)
        return [t + shift]
    if p == 0.0:
        return [shift]
    return [3.0 * q / p + shift, -3.0 * q / (2.0 * p) + shift]  # simple + double root


def _signed_cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _polish_newton(value: float, a2: float, a1: float, a0: float, steps: int = 4) -> float:
    """One round of Newton polishing on the cubic, kept only while it improves."""
    f = lambda w: ((w + a2) * w + a1) * w + a0
    fp = lambda w: (3.0 * w + 2.0 * a2) * w + a1
    best = value
    for _ in range(steps):
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
    """All positive roots of the n = 1 cubic, ascending, as SpectralSolutions.

    Every positive root is a legitimate quantized frequency; nothing selects
    among them. With eta = 0 the cubic factors exactly as
    omega^2 (omega + a2): the double root at zero is unphysical and only
    -a2 = (M lambda l)^2/(2 m theta) survives, handled as a branch so that
    float cancellation in the general formulas cannot fabricate a tiny
    spurious positive root out of the exact zeros.
    """
    a2, a1, a0 = cubic_coefficients(problem)
    if problem.eta == 0.0:
        candidates = [-a2]
    else:
        candidates = [_polish_newton(w, a2, a1, a0) for w in _cubic_real_roots(a2, a1, a0)]
    roots = _merge_close([w for w in candidates if w > 0.0])
    if not roots:
        raise NoPositiveRoot(
            "cubic has no positive root; requires eta = 0 and M*lambda*l = 0, "
            "which construction of the problem excludes"
        )
    cubic_res = lambda w: abs(((w + a2) * w + a1) * w + a0)
    return [_make_solution(problem, w, cubic_residual=cubic_res(w)) for w in roots]


def _truncation_at(problem: ReducedProblem, omega: float) -> float:
    """c_{n+1}(omega), the quantity whose roots are the allowed frequencies."""
    alpha, delta = _alpha_delta(problem, omega)
    return series._raw_coefficients(alpha, delta, problem.theta, 2.0 * problem.n, problem.n + 1)[-1]


def _jacobi_offdiagonal(n: int, theta: int) -> np.ndarray:
    """Off-diagonal of K0, symmetrized (see solve_frequency), without its minus sign."""
    i = np.arange(1, n + 1, dtype=float)
    return np.sqrt(8.0 * (n - i + 1) * i * (i - 1 + theta))


def _candidate_frequencies(problem: ReducedProblem) -> np.ndarray:
    """Every positive real root of det T(s) = 0 as a frequency, ascending, to about 1e-5."""
    size, theta = problem.n + 1, problem.theta
    k0 = -np.diag(_jacobi_offdiagonal(problem.n, theta), 1)
    k0 += k0.T
    a3, a1 = 2.0 * problem.mass * problem.eta, 2.0 * problem.coupling
    if a3 == 0.0:
        s = np.linalg.eigvalsh(-k0 / a1)
    else:
        d_inv = 1.0 / (2.0 * np.arange(size) + theta)
        k0 *= np.sqrt(np.outer(d_inv, d_inv)) / a3
        sigma = max((abs(a1 / a3) / theta) ** 0.5, np.linalg.norm(k0, np.inf) ** (1.0 / 3.0))
        companion = np.zeros((3 * size, 3 * size))
        companion[: 2 * size, size:] = np.eye(2 * size)
        companion[2 * size :, :size] = -k0 / sigma**3
        companion[2 * size :, size : 2 * size] = np.diag(-a1 / a3 * d_inv / sigma**2)
        s = sigma * np.linalg.eigvals(companion)
    real = np.abs(s.imag) <= EIG_IMAG_RTOL * np.abs(s)
    real &= s.real > EIG_ZERO_RTOL * np.max(np.abs(s))
    return np.sort(1.0 / (problem.mass * s.real[real] ** 2))


def _polish(problem: ReducedProblem, omega: float, cap: float) -> float:
    """Secant steps on c_{n+1} from an eigenvalue estimate, each at most cap long."""
    x0, x1 = omega, omega * (1.0 + SECANT_START_RTOL)
    f0, f1 = _truncation_at(problem, x0), _truncation_at(problem, x1)
    for _ in range(SECANT_STEPS):
        if f1 == f0:
            break
        step = max(-cap, min(cap, -f1 * (x1 - x0) / (f1 - f0)))
        x0, f0 = x1, f1
        x1 += step
        if abs(step) <= STEP_RTOL * x1:
            break
        f1 = _truncation_at(problem, x1)
    return x1


def solve_frequency(problem: ReducedProblem) -> list["SpectralSolution"]:
    """All quantized frequencies of the cell, ascending, from one eigenproblem.

    With s = (m omega)^(-1/2), rows i = 0..n of the recurrence at g = 2n with
    c_{n+1} = 0 read T(s) c = 0 for T(s) = K0 + 2 M lambda l s + 2 m eta s^3 D,
    where D = diag(2i + theta) and K0 is tridiagonal with zero diagonal,
    sub-diagonal -4(n-i+1) and super-diagonal -2(i+1)(i+theta). Facing entries
    have a positive product, so a diagonal similarity makes K0 symmetric (off-diagonal
    -sqrt(8(n-i+1) i (i-1+theta))); without it the linearization loses roots
    from n ~ 24. D^(-1/2) on both sides and s = sigma*t turn T into a monic
    cubic t^3 + A1 t + A0 with coefficients of norm at most one, whose real
    companion matrix of size 3(n+1) carries every root; at eta = 0, T is linear
    in s. Each candidate is polished by secant steps capped at half the gap to
    its neighbours and kept only if c_{n+1} changes sign across it.
    """
    candidates = _candidate_frequencies(problem)
    gaps = np.diff(candidates, prepend=0.0, append=math.inf)
    roots = []
    for w, cap in zip(candidates.tolist(), (0.5 * np.minimum(gaps[:-1], gaps[1:])).tolist()):
        root = _polish(problem, w, cap)
        below = _truncation_at(problem, root * (1.0 - ROOT_RTOL))
        if below * _truncation_at(problem, root * (1.0 + ROOT_RTOL)) <= 0.0:
            roots.append(root)
    roots = _merge_close(roots)
    if not roots:
        raise NoRootInRange(
            f"no sign change of c_{problem.n + 1}(omega) at any of the {len(candidates)} "
            "positive real eigenvalue candidates: the cell has no quantized frequency"
        )
    return [_make_solution(problem, w) for w in roots]


def _node_count(problem: ReducedProblem, alpha: float, delta: float) -> int:
    """Radial node count of a state from the Jacobi matrix of its recurrence.

    At the state's alpha, delta is an eigenvalue of the symmetric tridiagonal
    J = -(K0 + alpha*D)/2 (see solve_frequency). By oscillation theory the
    node count is the number of eigenvalues of J above the one delta matches.
    """
    off = 0.5 * _jacobi_offdiagonal(problem.n, problem.theta)
    diagonal = -0.5 * alpha * (2.0 * np.arange(problem.n + 1) + problem.theta)
    mu = np.linalg.eigvalsh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))
    return int(problem.n - np.argmin(np.abs(mu - delta)))


def _make_solution(
    problem: ReducedProblem, omega: float, cubic_residual: float | None = None
) -> SpectralSolution:
    """Assemble the full solution record at a solved frequency root."""
    alpha, delta = _alpha_delta(problem, omega)
    raw = series._raw_coefficients(alpha, delta, problem.theta, 2.0 * problem.n, problem.n + 2)
    poly = tuple(raw[: problem.n + 1])
    scale = max(abs(c) for c in poly)
    residuals = {
        "truncation": abs(raw[problem.n + 1]) / scale,
        "truncation_next": abs(raw[problem.n + 2]) / scale,
    }
    if cubic_residual is not None:
        residuals["cubic"] = cubic_residual
    return SpectralSolution(
        n=problem.n,
        l=problem.physical.l,
        omega=omega,
        energy=energy(problem, omega),
        zeta_sq=zeta_squared(problem, omega),
        coefficients=poly,
        node_count=_node_count(problem, alpha, delta),
        residuals=residuals,
        problem=problem,
        heun=HeunParams(alpha, delta, problem.theta),
    )
