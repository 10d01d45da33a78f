"""Independent reference routes and frozen regression constants.

Every helper here recomputes quantities through deliberately separate paths
(hand-rolled recurrence, generic bisection, closed forms, the full 3(n+1)
companion of the frequency condition, scipy.linalg's index route to the
oracle's spectrum) so the tests never compare the package
against itself. The straightforward forms of the solver's array glue (dense
companion, list recurrence, per-probe _alpha_delta) are the reference its
optimized forms must match bit for bit. The FROZEN_* constants were produced by
these same routines in a standalone session before the package was written
and are pinned verbatim as regression anchors; DISPLAY_* values are the
coarser hand-rounded figures quoted in documentation.
"""

import math

import numpy as np

from heunqes.oracle import build_operator
from heunqes.quantize import EIG_IMAG_RTOL, EIG_ZERO_RTOL, ROOT_RTOL, _alpha_delta

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

# Hand-rounded display values (4-5 significant figures, rounded from
# evaluations at the already-rounded omega ~ 1.7479, hence the loose DISPLAY_TOL).
DISPLAY_OMEGA = 1.7479
DISPLAY_ENERGY = 5.2051
DISPLAY_ZETA_SQ = 10.1601
DISPLAY_C1 = 0.6849
DISPLAY_TOL = 2.5e-3


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


def packed_cell_rows(problem, omegas):
    """quantize._cell_rows with (alpha, delta) packed from _alpha_delta per probe, through list_recurrence."""
    omegas = np.asarray(omegas, dtype=float)
    probes = np.concatenate([omegas * (1.0 - ROOT_RTOL), omegas * (1.0 + ROOT_RTOL), omegas])
    alpha, delta = np.array([_alpha_delta(problem, w) for w in probes.tolist()]).reshape(-1, 2).T
    raw = list_recurrence(alpha, delta, problem.theta, 2.0 * problem.n, problem.n + 2)
    return raw.reshape(3, len(omegas), problem.n + 3), alpha.reshape(3, -1)[2], delta.reshape(3, -1)[2]
