"""Radial wavefunctions: assembly, normalization, node counting."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from heunqes.errors import QuadratureFailure
from heunqes.model import PhysicalParams
from heunqes.quantize import ReducedProblem, SpectralSolution, solve_cubic, solve_frequency
from heunqes.wavefunction import (
    count_positive_roots,
    evaluate_R,
    normalize,
    suggested_rho_max,
)


def reference_solution(**overrides):
    base = dict(mass=1.0, quad=1.0, lam=1.0, eta=1.0, kz=0.0, l=1)
    base.update(overrides)
    (sol,) = solve_cubic(ReducedProblem.from_params(PhysicalParams(**base), 1))
    return sol


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


@pytest.fixture(scope="module")
def reference_states():
    """All quantized states for m=M=lambda=eta=1, l in {1,2}, n in {1,2,3}."""
    states = []
    for l in (1, 2):
        for n in (1, 2, 3):
            params = PhysicalParams(mass=1.0, quad=1.0, lam=1.0, eta=1.0, kz=0.0, l=l)
            problem = ReducedProblem.from_params(params, n)
            found = solve_cubic(problem) if n == 1 else solve_frequency(problem)
            states.extend(sorted(found, key=lambda s: s.omega))
    return states


class TestGroundStatePolynomial:
    """The n = 1 polynomial H = 1 + c1 xi carried by the solved state."""

    def test_reference_coefficient(self):
        c0, c1 = reference_solution().coefficients
        assert c0 == 1.0
        assert c1 == pytest.approx(oracles.FROZEN_C1, rel=1e-12)

    def test_agrees_with_series_route(self):
        # c1 = m eta/(m omega)^(3/2) + M lambda l/(theta (m omega)^(1/2)) in physical parameters
        sol = reference_solution(mass=1.8, quad=2.0, lam=-1.1, eta=0.6, l=-3)
        m_omega = 1.8 * sol.omega
        expected = 1.8 * 0.6 / m_omega**1.5 + (2.0 * -1.1 * -3) / (7 * m_omega**0.5)
        assert sol.coefficients[1] == pytest.approx(expected, rel=1e-15)

    def test_pure_coulomb_coefficient(self):
        sol = reference_solution(eta=0.0, quad=oracles.SQRT6)
        assert sol.coefficients[1] == pytest.approx(oracles.FROZEN_SQRT6_OVER_3, rel=1e-10)


class TestEvaluateR:
    def test_vanishes_at_origin_for_nonzero_l(self):
        assert evaluate_R(reference_solution(), 0.0) == 0.0

    def test_nodeless_state_is_positive(self, reference_states):
        sol = reference_states[0]
        rho = np.linspace(1e-6, suggested_rho_max(sol), 1000)
        assert np.all(evaluate_R(sol, rho) > 0.0)

    def test_gaussian_decay(self):
        sol = reference_solution()
        scale = math.sqrt(sol.problem.mass * sol.omega)
        rho = np.linspace(1e-4, suggested_rho_max(sol), 4000)
        peak = np.max(np.abs(evaluate_R(sol, rho)))
        far = abs(evaluate_R(sol, 10.0 / scale))
        assert far < 1e-20 * peak

    def test_vectorized_matches_scalar(self):
        sol = reference_solution()
        rho = np.linspace(0.0, 3.0, 7)
        values = evaluate_R(sol, rho)
        for r, v in zip(rho, values):
            assert v == evaluate_R(sol, float(r))


class TestNormalize:
    def test_unit_norm_against_adaptive_quadrature(self):
        sol = reference_solution()
        wf = normalize(sol)
        integral, _ = quad(lambda r: wf.evaluate(r) ** 2 * r, 0.0, suggested_rho_max(sol), limit=200)
        assert integral == pytest.approx(1.0, abs=1e-8)

    def test_norm_stable_under_tighter_refinement(self):
        # the norm constant against an independent, tighter quadrature over 4x the box
        sol = reference_solution()
        integral, _ = quad(
            lambda r: evaluate_R(sol, r) ** 2 * r, 0.0, 4.0 * suggested_rho_max(sol), epsrel=1e-13, limit=500
        )
        assert normalize(sol).norm_constant == pytest.approx(integral**-0.5, rel=1e-8)

    def test_projective_invariance(self):
        sol = reference_solution()
        scaled = replace(sol, coefficients=tuple(7.0 * c for c in sol.coefficients))
        rho = np.linspace(0.1, 4.0, 50)
        base_values = normalize(sol).evaluate(rho)
        scaled_values = normalize(scaled).evaluate(rho)
        assert np.allclose(base_values, scaled_values, rtol=1e-12, atol=0.0)

    def test_pure_oscillator_norm(self):
        sol = synthetic_solution((1.0,), l=1, n=0)
        wf = normalize(sol)
        assert wf.norm_constant == pytest.approx(oracles.FROZEN_OSC_NORM, rel=1e-8)

    def test_norm_positive_for_excited_states(self, reference_states):
        for sol in reference_states:
            assert normalize(sol).norm_constant > 0.0

    def test_non_finite_coefficients_rejected(self):
        sol = synthetic_solution((math.nan, 1.0))
        with pytest.raises(QuadratureFailure):
            normalize(sol)

    def test_sample_pairs(self):
        wf = normalize(reference_solution())
        pairs = wf.sample(16, 4.0)
        assert len(pairs) == 16
        assert pairs[0] == (0.0, 0.0)
        assert pairs[-1][0] == 4.0


class TestCountPositiveRoots:
    def test_positive_linear(self):
        assert count_positive_roots((1.0, 0.685)) == 0

    def test_single_quadratic_root(self):
        assert count_positive_roots((1.0, 0.0, -0.5)) == 1

    def test_constant(self):
        assert count_positive_roots((1.0,)) == 0

    def test_three_roots(self):
        # (x - 1)(x - 2)(x - 3) expanded
        assert count_positive_roots((-6.0, 11.0, -6.0, 1.0)) == 3

    def test_trailing_zeros_trimmed(self):
        assert count_positive_roots((1.0, 0.0, -0.5, 0.0, 0.0)) == 1

    def test_negative_roots_not_counted(self):
        # (x + 1)(x + 2) has no positive roots
        assert count_positive_roots((2.0, 3.0, 1.0)) == 0

    def test_negative_linear_coefficient(self):
        assert count_positive_roots((1.0, -2.0)) == 1


class TestCountNodes:
    def test_reference_ground_state(self):
        assert count_positive_roots(reference_solution().coefficients) == 0

    def test_degree_three_branches(self, reference_states):
        degree_three = [s for s in reference_states if s.n == 3 and s.l == 1]
        assert [count_positive_roots(s.coefficients) for s in degree_three] == [0, 1]

    def test_matches_dense_sampling(self, reference_states):
        for sol in reference_states:
            rho = np.linspace(0.0, suggested_rho_max(sol), 10_001)[1:]
            changes = oracles.sign_changes(evaluate_R(sol, rho))
            assert changes == sol.node_count == count_positive_roots(sol.coefficients)


class TestContinuity:
    def test_adjacent_samples_shrink_with_step(self):
        sol = reference_solution()
        rho_max = suggested_rho_max(sol)
        coarse = np.max(np.abs(np.diff(evaluate_R(sol, np.linspace(0, rho_max, 2001)))))
        fine = np.max(np.abs(np.diff(evaluate_R(sol, np.linspace(0, rho_max, 4001)))))
        assert coarse / fine == pytest.approx(2.0, abs=0.5)


class TestSuggestedRhoMax:
    def test_envelope_is_dead_at_cutoff(self):
        sol = reference_solution()
        rho = np.linspace(1e-3, suggested_rho_max(sol), 2000)
        values = np.abs(evaluate_R(sol, rho))
        assert values[-1] < 1e-12 * values.max()


class TestNegativeAlpha:
    """eta < 0 shifts the envelope exp(-xi (xi + alpha)) out to xi = -alpha/2."""

    @staticmethod
    def lowest_roots(mass, coupling, eta, l, n):
        params = PhysicalParams(mass=mass, quad=coupling, lam=1.0, eta=eta, kz=0.0, l=l)
        return solve_frequency(ReducedProblem.from_params(params, n))

    def test_unit_norm_beyond_the_box(self):
        sol = self.lowest_roots(0.25, 6.12, -0.148, 1, 14)[0]
        assert sol.alpha < -30.0
        wf = normalize(sol)
        peak = -0.5 * sol.alpha / math.sqrt(sol.problem.mass * sol.omega)
        rho_max = suggested_rho_max(sol)
        integral, _ = quad(
            lambda r: wf.evaluate(r) ** 2 * r, 0.0, 4.0 * rho_max, points=[peak], limit=500
        )
        assert integral == pytest.approx(1.0, abs=1e-8)
        assert peak < rho_max

    def test_large_negative_alpha_has_unit_norm(self):
        # exp(-xi (xi + alpha)/2) peaks at exp(alpha^2/8), past the double range for alpha < -75
        sols = self.lowest_roots(
            0.11837586346593508, 7.791128550344119, -0.1521807528798439, 2, 14
        )
        assert sols[0].alpha < -80.0 and sols[1].alpha < -50.0
        for sol in sols[:2]:
            wf = normalize(sol)
            peak = -0.5 * sol.alpha / math.sqrt(sol.problem.mass * sol.omega)
            integral, _ = quad(
                lambda r: wf.evaluate(r) ** 2 * r, 0.0, 4.0 * suggested_rho_max(sol), points=[peak], limit=500
            )
            assert integral == pytest.approx(1.0, abs=1e-8)

    def test_overflow_is_a_quadrature_failure(self):
        sol = self.lowest_roots(0.11837586346593508, 7.791128550344119, -0.1521807528798439, 2, 14)[0]
        huge = replace(sol, coefficients=tuple(1e300 * c for c in sol.coefficients))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(QuadratureFailure):
                normalize(huge)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestRadialWavefunction:
    def test_evaluate_applies_norm_constant(self):
        sol = reference_solution()
        wf = normalize(sol)
        assert wf.evaluate(1.3) == wf.norm_constant * evaluate_R(sol, 1.3)

    def test_dataclass_carries_solution(self):
        sol = reference_solution()
        assert normalize(sol).solution is sol
