"""Correctness checks of the benchmark, independent of the package under test.

Nothing here imports heunqes. The truncation recurrence, the n = 1 cubic and
the closed forms for E and zeta^2 are written out again from the paper, so a
state passes only when the program agrees with a second implementation, never
with a copy of the program's own earlier output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

BRACKET_RTOL = 1e-9  # c_{n+1} must change sign across omega * (1 -/+ this)
IDENTITY_RTOL = 1e-10  # E and zeta^2 against their closed forms
CUBIC_RTOL = 1e-9  # n = 1 roots against numpy.roots
NORM_ATOL = 1e-6  # |integral of |N R|^2 rho d rho - 1|
PERTURB = 1.05  # negative control: omega scaled by this must be rejected


@dataclass(frozen=True)
class Claim:
    """One quantized state as the program reports it, in physical parameters."""

    n: int
    l: int
    mass: float
    quad: float
    lam: float
    eta: float
    kz: float
    omega: float
    energy: float
    zeta_sq: float

    @property
    def coupling(self) -> float:
        return self.quad * self.lam * self.l


def _heun_inputs(c: Claim, omega: float) -> tuple[float, float, int]:
    m_omega = c.mass * omega
    return 2.0 * c.mass * c.eta / m_omega**1.5, c.coupling / math.sqrt(m_omega), 2 * abs(c.l) + 1


def series(c: Claim, omega: float, j_max: int) -> list[float]:
    """c_0..c_{j_max} of the biconfluent Heun series at g = 2n."""
    alpha, delta, theta = _heun_inputs(c, omega)
    g = 2.0 * c.n
    coeffs = [1.0, alpha / 2.0 + delta / theta]
    for j in range(j_max - 1):
        denom = (j + 2) * (j + 1 + theta)
        lead = (2.0 * alpha * (j + 1) + theta * alpha + 2.0 * delta) * coeffs[j + 1] / (2.0 * denom)
        coeffs.append(lead - (g - 2.0 * j) * coeffs[j] / denom)
    return coeffs


def bracket_ok(c: Claim) -> bool:
    """c_{n+1} changes sign (or vanishes) across omega * (1 -/+ BRACKET_RTOL)."""
    below = series(c, c.omega * (1.0 - BRACKET_RTOL), c.n + 1)[-1]
    above = series(c, c.omega * (1.0 + BRACKET_RTOL), c.n + 1)[-1]
    return math.isfinite(below) and math.isfinite(above) and below * above <= 0.0


def closed_forms_ok(c: Claim, rtol: float = IDENTITY_RTOL) -> bool:
    """E and zeta^2 equal the paper's closed forms at omega, and 2mE - k^2 - (M lambda)^2/4 = zeta^2."""
    w, m, abs_l = c.omega, c.mass, abs(c.l)
    coul_sq = (c.quad * c.lam) ** 2
    e_terms = (w * (c.n + abs_l + 1), c.eta**2 / (2.0 * m * w * w), coul_sq / (8.0 * m), c.kz**2 / (2.0 * m))
    energy = e_terms[0] - e_terms[1] + e_terms[2] + e_terms[3]
    z_terms = (m * w * (2 * c.n + 2 + 2 * abs_l), c.eta**2 / (w * w))
    zeta_sq = z_terms[0] - z_terms[1]
    e_scale, z_scale = sum(map(abs, e_terms)), sum(map(abs, z_terms))
    return (
        abs(c.energy - energy) <= rtol * e_scale
        and abs(c.zeta_sq - zeta_sq) <= rtol * z_scale
        and abs(2.0 * m * c.energy - c.kz**2 - coul_sq / 4.0 - c.zeta_sq) <= rtol * 2.0 * m * e_scale
    )


def state_ok(c: Claim) -> bool:
    return math.isfinite(c.omega) and c.omega > 0.0 and bracket_ok(c) and closed_forms_ok(c)


def ascending(omegas) -> bool:
    return all(a < b for a, b in zip(omegas, omegas[1:]))


def cubic_roots(c: Claim) -> list[float]:
    """Positive real roots of the n = 1 condition c_2(omega) = 0, by numpy.roots.

    Clearing (m omega)^3 from c_2 = 0 with alpha = 2 m eta (m omega)^(-3/2) and
    delta = M lambda l (m omega)^(-1/2) leaves
    omega^3 - C^2/(2 m theta) omega^2 - eta C (1 + theta)/(m theta) omega
    - (2 + theta) eta^2/(2 m) = 0 with C = M lambda l.
    """
    m, eta, cp, theta = c.mass, c.eta, c.coupling, 2 * abs(c.l) + 1
    roots = np.roots([1.0, -cp * cp / (2 * m * theta), -eta * cp * (1 + theta) / (m * theta), -(2 + theta) * eta**2 / (2 * m)])
    top = max(abs(roots))
    real = [r.real for r in roots if abs(r.imag) <= 1e-9 * top and r.real > 1e-12 * top]
    return sorted(real)


def cubic_match(claims: list[Claim], rtol: float = CUBIC_RTOL) -> bool:
    """The n = 1 root set equals the positive real cubic roots, root by root."""
    reference = cubic_roots(claims[0])
    return len(reference) == len(claims) and all(
        abs(c.omega - r) <= rtol * r for c, r in zip(claims, reference)
    )


def norm_integral(c: Claim, norm_constant: float) -> float:
    """Integral of |N R|^2 rho d rho over [0, inf) with R rebuilt from this module's series."""
    from scipy import integrate  # imported here so spectrum runs never load scipy

    alpha, _, _ = _heun_inputs(c, c.omega)
    h = series(c, c.omega, c.n)[::-1]
    scale = math.sqrt(c.mass * c.omega)
    abs_l = abs(c.l)

    def density(rho: float) -> float:
        xi = scale * rho
        r = math.exp(-0.5 * xi * xi - 0.5 * alpha * xi) * xi**abs_l * np.polyval(h, xi)
        return (norm_constant * r) ** 2 * rho

    cut = (math.sqrt(c.n + abs_l + 1) + 8.0) / scale
    inner, _ = integrate.quad(density, 0.0, cut, limit=400, epsabs=1e-13, epsrel=1e-11)
    outer, _ = integrate.quad(density, cut, math.inf, limit=100, epsabs=1e-13)
    return inner + outer


def normalized_ok(c: Claim, norm_constant: float) -> bool:
    return abs(norm_integral(c, norm_constant) - 1.0) <= NORM_ATOL


def sampled_norm(rho: list[float], amplitude: list[float]) -> tuple[float, float]:
    """Simpson integral of R^2 rho over uniform samples, and its sampling error.

    The error is the change against Simpson's rule on every other sample.
    """
    from scipy import integrate

    x, y = np.asarray(rho), np.asarray(amplitude) ** 2 * np.asarray(rho)
    fine = integrate.simpson(y, x=x)
    coarse = integrate.simpson(y[::2], x=x[::2])
    return float(fine), float(abs(fine - coarse))


def negative_control(cells: list[list[Claim]], norm_constant: float | None = None) -> list[str]:
    """Names of the checks that accept a state whose omega is scaled by PERTURB.

    Each entry of `cells` is the root set of one (n, l) cell; every state in
    it is perturbed in turn. An empty list means every check rejected every
    perturbed state.
    """
    missed = []
    for claims in cells:
        for c in claims:
            bad = replace(c, omega=c.omega * PERTURB)
            tag = f"n={c.n} l={c.l} omega={c.omega:.6g}"
            if bracket_ok(bad):
                missed.append(f"bracket {tag}")
            if closed_forms_ok(bad):
                missed.append(f"closed_forms {tag}")
            if c.n == 1 and cubic_match([bad if x is c else x for x in claims]):
                missed.append(f"cubic {tag}")
            if norm_constant is not None and normalized_ok(bad, norm_constant):
                missed.append(f"normalization {tag}")
    return missed
