"""Finite-difference verifier: operator assembly, spectra, pass/fail logic."""

import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from heunqes.errors import InvalidGrid
from heunqes.model import PhysicalParams
from heunqes.oracle import (
    BOX_PADDING,
    EXTRA_STATES,
    OracleSpectrum,
    RadialOperatorSpec,
    build_operator,
    default_rho_max,
    eigenvalues,
    verify_solution,
)
from heunqes.quantize import ReducedProblem, SpectralSolution, solve_cubic, solve_frequency
from heunqes.series import HeunParams


def reference_solution():
    params = PhysicalParams(mass=1.0, quad=1.0, lam=1.0, eta=1.0, kz=0.0, l=1)
    (sol,) = solve_cubic(ReducedProblem.from_params(params, 1))
    return sol


def oscillator_solution():
    """Pure-oscillator ground state assembled by hand (eta = M*lambda = 0)."""
    physical = PhysicalParams(mass=1.0, quad=0.0, lam=0.0, eta=0.0, kz=0.0, l=1)
    problem = ReducedProblem(physical=physical, n=0, abs_l=1, theta=3, coupling=0.0)
    return SpectralSolution(
        n=0,
        l=1,
        omega=1.0,
        energy=2.0,
        zeta_sq=oracles.oscillator_level(1.0, 1.0, 1, 0),
        coefficients=(1.0,),
        node_count=0,
        residuals={},
        problem=problem,
        heun=HeunParams(0.0, 0.0, 3),
    )


def reference_channel(**overrides):
    base = dict(
        m=1.0,
        omega=oracles.FROZEN_OMEGA,
        eta=1.0,
        coulomb_strength=1.0,
        abs_l=1,
        rho_max=8.0,
        n_grid=2000,
    )
    base.update(overrides)
    return RadialOperatorSpec(**base)


class TestRadialOperatorSpec:
    def test_step(self):
        spec = reference_channel(rho_max=10.0, n_grid=999)
        assert spec.step == 10.0 / 1000.0

    @pytest.mark.parametrize(
        "bad",
        [
            dict(m=0.0),
            dict(m=-1.0),
            dict(omega=0.0),
            dict(omega=-2.0),
            dict(omega=math.inf),
            dict(eta=math.nan),
            dict(coulomb_strength=math.inf),
            dict(abs_l=-1),
        ],
    )
    def test_bad_physics_rejected(self, bad):
        with pytest.raises(ValueError):
            reference_channel(**bad)

    @pytest.mark.parametrize(
        "bad",
        [dict(n_grid=99), dict(rho_max=0.0), dict(rho_max=-1.0), dict(rho_max=math.inf)],
    )
    def test_bad_grid_rejected(self, bad):
        with pytest.raises(InvalidGrid):
            reference_channel(**bad)

    def test_invalid_grid_in_package_hierarchy(self):
        from heunqes.errors import HeunQESError

        assert issubclass(InvalidGrid, HeunQESError)


class TestBuildOperator:
    def test_off_diagonal_is_constant_stencil(self):
        spec = reference_channel(n_grid=500)
        _, e = build_operator(spec)
        assert e.shape == (499,)
        assert np.all(e == -1.0 / spec.step**2)

    def test_diagonal_matches_potential(self):
        spec = reference_channel(n_grid=300)
        d, _ = build_operator(spec)
        h = spec.step
        for i in (0, 1, 149, 298, 299):
            rho = (i + 1) * h
            v = (
                (spec.abs_l**2 - 0.25) / rho**2
                + spec.coulomb_strength / rho
                + (spec.m * spec.omega) ** 2 * rho**2
                + 2.0 * spec.m * spec.eta * rho
            )
            assert d[i] == pytest.approx(2.0 / h**2 + v, rel=1e-14)

    def test_dense_matrix_is_symmetric(self):
        d, e = build_operator(reference_channel(n_grid=120))
        dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        assert np.max(np.abs(dense - dense.T)) == 0.0


class TestEigenvalues:
    def test_count_validation(self):
        spec = reference_channel(n_grid=150)
        with pytest.raises(ValueError):
            eigenvalues(spec, 0)
        with pytest.raises(ValueError):
            eigenvalues(spec, 151)

    def test_first_validation(self):
        spec = reference_channel(n_grid=150)
        for bad in (-1, 3):
            with pytest.raises(ValueError):
                eigenvalues(spec, 3, bad)

    def test_window_matches_lowest_eigenvalues(self):
        spec = reference_channel()
        full = eigenvalues(spec, 6).eigenvalues
        window = eigenvalues(spec, 6, 3)
        assert window.first == 3
        assert window.eigenvalues == pytest.approx(full[3:], rel=1e-14)

    def test_strictly_ascending(self):
        spectrum = eigenvalues(reference_channel(), 6)
        assert len(spectrum.eigenvalues) == 6
        assert all(b > a for a, b in zip(spectrum.eigenvalues, spectrum.eigenvalues[1:]))
        assert spectrum.drift is None

    def test_oscillator_ladder(self):
        # eta = coulomb = 0 collapses the channel to the radial oscillator,
        # whose zeta^2 ladder is known in closed form
        rho_max = default_rho_max(1.0, 1.0, 0.0, oracles.oscillator_level(1.0, 1.0, 1, 2) + 10.0)
        spec = RadialOperatorSpec(
            m=1.0, omega=1.0, eta=0.0, coulomb_strength=0.0, abs_l=1, rho_max=rho_max, n_grid=4000
        )
        got = eigenvalues(spec, 3).eigenvalues
        for k, value in enumerate(got):
            assert value == pytest.approx(oracles.oscillator_level(1.0, 1.0, 1, k), rel=1e-3)

    def test_oscillator_ladder_scaled(self):
        m, omega, abs_l = 0.5, 3.0, 2
        rho_max = default_rho_max(
            m, omega, 0.0, oracles.oscillator_level(m, omega, abs_l, 2) + 10.0 * m * omega
        )
        spec = RadialOperatorSpec(
            m=m, omega=omega, eta=0.0, coulomb_strength=0.0, abs_l=abs_l, rho_max=rho_max, n_grid=4000
        )
        got = eigenvalues(spec, 3).eigenvalues
        for k, value in enumerate(got):
            assert value == pytest.approx(oracles.oscillator_level(m, omega, abs_l, k), rel=1e-3)

    def test_reference_state_sits_at_ground_index(self):
        sol = reference_solution()
        rho_max = default_rho_max(1.0, sol.omega, 1.0, sol.zeta_sq + 10.0 * sol.omega)
        spec = reference_channel(omega=sol.omega, rho_max=rho_max, n_grid=4000)
        lowest = eigenvalues(spec, 1).eigenvalues[0]
        assert lowest == pytest.approx(oracles.FROZEN_ZETA_SQ, rel=1e-3)
        assert lowest == pytest.approx(oracles.DISPLAY_ZETA_SQ, rel=oracles.DISPLAY_TOL)


class TestDefaultRhoMax:
    def test_zero_eta_closed_form(self):
        # m^2 w^2 rho^2 = zeta_t  =>  rho_t = sqrt(zeta_t) / (m w)
        assert default_rho_max(2.0, 3.0, 0.0, 9.0) == pytest.approx(BOX_PADDING * 3.0 / 6.0, rel=1e-15)

    def test_monotone_in_target(self):
        lo = default_rho_max(1.0, 1.0, 1.0, 5.0)
        hi = default_rho_max(1.0, 1.0, 1.0, 50.0)
        assert 0.0 < lo < hi

    def test_floor_keeps_root_positive(self):
        assert default_rho_max(1.0, 1.0, 1.0, -100.0) > 0.0


class TestGridConvergence:
    def test_second_order_richardson(self):
        """Deviation from the analytic zeta^2 shrinks ~4x per grid doubling."""
        sol = reference_solution()
        rho_max = default_rho_max(1.0, sol.omega, 1.0, sol.zeta_sq + 10.0 * sol.omega)
        devs = []
        for n_grid in (2000, 4000, 8000):
            spec = reference_channel(omega=sol.omega, rho_max=rho_max, n_grid=n_grid)
            lowest = eigenvalues(spec, 1).eigenvalues[0]
            devs.append(abs(lowest - sol.zeta_sq) / sol.zeta_sq)
        assert 3.0 < devs[0] / devs[1] < 5.0
        assert 3.0 < devs[1] / devs[2] < 5.0


def states_to_degree_twelve():
    """All states of n <= 12 for l in {1, 2, 3} and n <= 7 for l in {-1, -2, -3}."""
    states = []
    for l in (1, 2, 3, -1, -2, -3):
        for n in range(1, 13 if l > 0 else 8):
            problem = ReducedProblem.from_params(PhysicalParams(1.0, 1.0, 1.0, 1.0, 0.0, l), n)
            states += solve_cubic(problem) if n == 1 else solve_frequency(problem)
    return states


@pytest.fixture(scope="module")
def high_index_reports():
    return [(state, verify_solution(state)) for state in states_to_degree_twelve()]


class TestHighIndexStates:
    def test_every_state_passes(self, high_index_reports):
        assert len(high_index_reports) == 183
        failed = [(s.n, s.l, s.node_count) for s, report in high_index_reports if not report.passed]
        assert failed == []

    def test_window_matches_full_request(self, high_index_reports):
        for state, report in high_index_reports:
            k = state.node_count
            spec = RadialOperatorSpec(
                m=state.problem.mass,
                omega=report.omega,
                eta=state.problem.eta,
                coulomb_strength=state.problem.coupling,
                abs_l=state.problem.abs_l,
                rho_max=report.rho_max,
                n_grid=report.grid_n,
            )
            pairs = ((report.grid_n, report.zeta_oracle), (report.grid_n_refined, report.zeta_oracle_refined))
            for grid, value in pairs:
                full = eigenvalues(replace(spec, n_grid=grid), k + 1 + EXTRA_STATES).eigenvalues
                assert value == pytest.approx(full[k], rel=1e-14)


class TestVerifySolution:
    def test_reference_state_passes(self):
        report = verify_solution(reference_solution())
        assert report.passed
        assert report.deviation < 1e-3
        assert report.deviation_refined < report.deviation
        assert 3.0 < report.ratio < 5.0
        assert report.node_index == 0
        assert report.grid_n == 4000 and report.grid_n_refined == 8000
        assert report.zeta_claim == pytest.approx(oracles.FROZEN_ZETA_SQ, rel=1e-12)
        assert report.omega == pytest.approx(oracles.FROZEN_OMEGA, rel=1e-12)

    def test_perturbed_frequency_fails(self):
        report = verify_solution(reference_solution(), perturb_omega=1.05)
        assert not report.passed
        assert report.deviation > 1e-2
        assert report.omega == pytest.approx(1.05 * oracles.FROZEN_OMEGA, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_perturbation_rejected(self, bad):
        with pytest.raises(ValueError):
            verify_solution(reference_solution(), perturb_omega=bad)

    def test_excited_state_checked_at_node_index(self):
        params = PhysicalParams(mass=1.0, quad=1.0, lam=1.0, eta=1.0, kz=0.0, l=1)
        states = sorted(
            solve_frequency(ReducedProblem.from_params(params, 3)), key=lambda s: s.omega
        )
        assert [s.node_count for s in states] == [0, 1]
        report = verify_solution(states[1])
        assert report.node_index == 1
        assert report.passed

    def test_oscillator_state_passes(self):
        report = verify_solution(oscillator_solution())
        assert report.passed
        assert report.zeta_claim == 4.0

    def test_custom_grids_and_box(self):
        report = verify_solution(reference_solution(), grid_n=1000, rho_max=9.0)
        assert report.grid_n == 1000
        assert report.grid_n_refined == 2000
        assert report.rho_max == 9.0
        assert report.passed

    def test_spectrum_dataclass_round_trip(self):
        spec = reference_channel(n_grid=200)
        spectrum = eigenvalues(spec, EXTRA_STATES + 1)
        assert isinstance(spectrum, OracleSpectrum)
        assert spectrum.spec is spec
