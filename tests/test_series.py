"""Frobenius engine: recurrence, truncation, evaluation, and the ODE check."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from heunqes.errors import OverflowGuard
from heunqes.series import (
    MAX_DEGREE,
    OVERFLOW_LIMIT,
    HeunParams,
    _raw_coefficients,
    evaluate_H,
    radial_ansatz,
)

finite_alpha = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
finite_delta = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
odd_theta = st.sampled_from([1, 3, 5, 7])
finite_g = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestHeunParams:
    def test_theta_must_be_odd(self):
        with pytest.raises(ValueError):
            HeunParams(0.0, 0.0, 2)

    def test_theta_must_be_positive(self):
        with pytest.raises(ValueError):
            HeunParams(0.0, 0.0, -1)

    def test_fields_must_be_finite(self):
        with pytest.raises(ValueError):
            HeunParams(math.nan, 0.0, 3)

    def test_valid_construction(self):
        p = HeunParams(1.0, -2.0, 5)
        assert (p.alpha, p.delta, p.theta) == (1.0, -2.0, 5)


class TestFirstCoefficient:
    def test_mixed_couplings(self):
        assert _raw_coefficients(2.0, 3.0, 3, 0.0, 1)[1] == 2.0

    def test_both_couplings_off(self):
        assert _raw_coefficients(0.0, 0.0, 3, 0.0, 1)[1] == 0.0

    def test_negative_delta(self):
        assert _raw_coefficients(1.0, -1.0, 1, 0.0, 1)[1] == -0.5


class TestGenerateCoefficients:
    def test_truncating_even_case(self):
        assert _raw_coefficients(0.0, 0.0, 3, 4.0, 4) == [1.0, 0.0, -0.5, 0.0, 0.0]

    def test_non_truncating_odd_degree(self):
        c = _raw_coefficients(0.0, 0.0, 3, 2.0, 4)
        assert c[2] == -0.25
        assert c[4] == -1.0 / 48.0

    def test_constant_solution(self):
        assert _raw_coefficients(0.0, 0.0, 3, 0.0, 6) == [1.0] + [0.0] * 6

    def test_normalization_is_one(self):
        assert _raw_coefficients(0.7, -0.3, 5, 6.0, 8)[0] == 1.0

    def test_length_matches_j_max(self):
        assert len(_raw_coefficients(0.3, 0.2, 3, 1.0, 7)) == 8

    def test_overflow_guard_trips(self):
        with pytest.raises(OverflowGuard):
            _raw_coefficients(1e150, 0.0, 1, 2.0, 4)

    def test_overflow_threshold_documented_value(self):
        assert OVERFLOW_LIMIT == 1e250
        assert MAX_DEGREE == 50

    @given(finite_alpha, finite_delta, odd_theta, finite_g)
    def test_matches_independent_recurrence(self, alpha, delta, theta, g):
        coeffs = _raw_coefficients(alpha, delta, theta, g, 12)
        reference = oracles.heun_series(alpha, delta, theta, g, 12)
        for ours, theirs in zip(coeffs, reference):
            assert ours == pytest.approx(theirs, rel=1e-12, abs=1e-280)

    @given(odd_theta, finite_g)
    def test_parity_odd_coefficients_vanish(self, theta, g):
        assert all(c == 0.0 for c in _raw_coefficients(0.0, 0.0, theta, g, 11)[1::2])


class TestArrayRecurrence:
    """Equal-shape arrays alpha, delta run the same recurrence for every element at once."""

    def test_elementwise_bit_identical(self):
        rng = np.random.default_rng(2017)
        alpha = rng.choice([-1.0, 1.0], 400) * 10.0 ** rng.uniform(-3.0, math.log10(80.0), 400)
        delta = rng.choice([-1.0, 1.0], 400) * 10.0 ** rng.uniform(-3.0, 2.0, 400)
        for theta, n in [(1, 2), (3, 11), (7, 30), (11, 50)]:
            batch = _raw_coefficients(alpha, delta, theta, 2.0 * n, n + 2)
            assert batch.shape == (400, n + 3)
            for a, d, row in zip(alpha.tolist(), delta.tolist(), batch.tolist()):
                assert row == _raw_coefficients(a, d, theta, 2.0 * n, n + 2)
                assert row == oracles.heun_series(a, d, theta, 2.0 * n, n + 2)

    def test_floats_give_plain_floats(self):
        assert all(type(c) is float for c in _raw_coefficients(0.4, -0.8, 3, 6.0, 8))

    def test_one_element_past_the_limit_trips_the_guard(self):
        alpha, delta = np.array([0.3, 1e150, -0.7]), np.array([0.1, 0.0, -2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowGuard, match=r"\|c_2\|.*alpha=1e\+150, delta=0\b"):
                _raw_coefficients(alpha, delta, 1, 2.0, 4)

    def test_inf_beside_nan_trips_the_guard(self):
        # c_2 jumps straight to inf in one element while another is nan: np.max would see nan
        alpha, delta = np.array([math.nan, 1e300, 0.5]), np.zeros(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowGuard, match=r"\|c_2\| = inf.*alpha=1e\+300"):
                _raw_coefficients(alpha, delta, 1, 2.0, 4)


class TestTruncationResidual:
    """c_{n+1} at g = 2n, which vanishes exactly when H has degree n."""

    def test_even_truncation_residual_zero(self):
        assert _raw_coefficients(0.0, 0.0, 3, 4.0, 3)[3] == 0.0

    def test_odd_degree_does_not_truncate(self):
        assert _raw_coefficients(0.0, 0.0, 3, 2.0, 2)[2] == -0.25


class TestEvaluateH:
    def test_value_at_origin_is_c0(self):
        assert evaluate_H((1.0, 0.0, -0.5), 0.0) == 1.0

    def test_root_of_truncated_polynomial(self):
        assert evaluate_H((1.0, 0.0, -0.5), math.sqrt(2.0)) == pytest.approx(0.0, abs=5e-16)

    def test_linear_polynomial(self):
        assert evaluate_H((1.0, 2.0), 3.0) == 7.0

    def test_vectorized_matches_scalar(self):
        coeffs = _raw_coefficients(0.4, -0.8, 3, 6.0, 8)
        xi = np.linspace(0.0, 2.5, 11)
        vector = evaluate_H(coeffs, xi)
        assert vector.shape == xi.shape
        for x, v in zip(xi, vector):
            assert v == evaluate_H(coeffs, float(x))


class TestRadialAnsatz:
    def test_centrifugal_zero_at_origin(self):
        assert radial_ansatz((1.0, 0.5), 1.0, 1, 0.0) == 0.0

    def test_s_wave_origin_value_is_c0(self):
        assert radial_ansatz((1.0, 0.5), 1.0, 0, 0.0) == 1.0

    def test_pure_gaussian_envelope(self):
        assert radial_ansatz((1.0,), 0.0, 1, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_vectorized_matches_scalar(self):
        coeffs = _raw_coefficients(0.9, -0.2, 3, 2.0, 3)
        xi = np.linspace(0.0, 4.0, 9)
        vector = radial_ansatz(coeffs, 0.9, 2, xi)
        for x, v in zip(xi, vector):
            assert v == radial_ansatz(coeffs, 0.9, 2, float(x))


class TestDefiningEquation:
    """H must satisfy H'' + [theta/xi - alpha - 2 xi] H' + [g - (theta alpha + 2 delta)/(2 xi)] H = 0.

    Derivatives come from term-wise differentiation of the J = 60 partial sum.
    The property holds where that partial sum has converged, so draws whose
    trailing terms still contribute are discarded (the truncation tail, not
    the recurrence, dominates the residual there), and so are draws whose
    terms fall below 1e-280 (the floor test_matches_independent_recurrence
    uses): subnormal terms carry too few digits for a relative residual.
    """

    @staticmethod
    def _residual_and_tail(alpha, delta, theta, g, xi, j_max=60):
        c = np.array(_raw_coefficients(alpha, delta, theta, g, j_max))
        j = np.arange(len(c))
        h0 = float((c * xi**j).sum())
        h1 = float((j[1:] * c[1:] * xi ** (j[1:] - 1)).sum())
        h2_terms = j[2:] * (j[2:] - 1) * c[2:] * xi ** (j[2:] - 2)
        h2 = float(h2_terms.sum())
        t_second = h2
        t_first = (theta / xi - alpha - 2.0 * xi) * h1
        t_zeroth = (g - (theta * alpha + 2.0 * delta) / (2.0 * xi)) * h0
        scale = max(abs(t_second), abs(t_first), abs(t_zeroth), 1e-300)
        residual = abs(t_second + t_first + t_zeroth) / scale
        magnitudes = np.abs(h2_terms)
        tail = magnitudes[-4:].max() / max(magnitudes.max(), 1e-300)
        return residual, tail, scale

    @settings(max_examples=150, deadline=None)
    @given(
        finite_alpha,
        finite_delta,
        odd_theta,
        finite_g,
        st.floats(min_value=0.05, max_value=3.0),
    )
    def test_series_solves_equation(self, alpha, delta, theta, g, xi):
        residual, tail, scale = self._residual_and_tail(alpha, delta, theta, g, xi)
        assume(tail < 1e-14 and scale > 1e-280)
        assert residual < 1e-8

    def test_reference_parameters_converged_sample(self):
        residual, tail, _ = self._residual_and_tail(
            oracles.FROZEN_ALPHA, oracles.FROZEN_DELTA, 3, 2.0, 1.3
        )
        assert tail < 1e-14
        assert residual < 1e-10
