"""Finite-difference verifier: operator assembly, spectra, pass/fail logic."""

import importlib.machinery
import math
import sys
import types

import numpy as np
import pytest

import oracles
from heunqes import oracle
from heunqes.errors import ConvergenceFailure, InvalidGrid, OverflowGuard
from heunqes.model import PhysicalParams
from heunqes.oracle import (
    BOX_PADDING,
    PASS_TOL,
    RadialOperatorSpec,
    build_operator,
    default_rho_max,
    eigenvalues,
    verify_solution,
)
from heunqes.quantize import ReducedProblem, SpectralSolution, solve_cubic, solve_frequency
from heunqes.series import HeunParams
from heunqes.wavefunction import suggested_rho_max


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
    def test_window_matches_lowest_eigenvalues(self):
        spec = reference_channel()
        full = oracles.lowest_eigenvalues(spec, 6)
        assert [eigenvalues(spec, k) for k in (3, 4, 5)] == pytest.approx(full[3:], rel=1e-14)

    def test_strictly_ascending(self):
        values = [eigenvalues(reference_channel(), k) for k in range(6)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_oscillator_ladder(self):
        # eta = coulomb = 0 collapses the channel to the radial oscillator,
        # whose zeta^2 ladder is known in closed form
        rho_max = default_rho_max(1.0, 1.0, 0.0, oracles.oscillator_level(1.0, 1.0, 1, 2) + 10.0)
        spec = RadialOperatorSpec(
            m=1.0, omega=1.0, eta=0.0, coulomb_strength=0.0, abs_l=1, rho_max=rho_max, n_grid=4000
        )
        for k in range(3):
            assert eigenvalues(spec, k) == pytest.approx(oracles.oscillator_level(1.0, 1.0, 1, k), rel=1e-3)

    def test_oscillator_ladder_scaled(self):
        m, omega, abs_l = 0.5, 3.0, 2
        rho_max = default_rho_max(
            m, omega, 0.0, oracles.oscillator_level(m, omega, abs_l, 2) + 10.0 * m * omega
        )
        spec = RadialOperatorSpec(
            m=m, omega=omega, eta=0.0, coulomb_strength=0.0, abs_l=abs_l, rho_max=rho_max, n_grid=4000
        )
        for k in range(3):
            assert eigenvalues(spec, k) == pytest.approx(oracles.oscillator_level(m, omega, abs_l, k), rel=1e-3)

    def test_reference_state_sits_at_ground_index(self):
        sol = reference_solution()
        rho_max = default_rho_max(1.0, sol.omega, 1.0, sol.zeta_sq + 10.0 * sol.omega)
        spec = reference_channel(omega=sol.omega, rho_max=rho_max, n_grid=4000)
        lowest = eigenvalues(spec, 0)
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

    @pytest.mark.parametrize("omega", [1e200, 3e153, 1e-200])
    def test_box_overflow_is_typed(self, omega):
        # (m w)^2 raises OverflowError, a * zeta_t overflows to inf, (m w)^2 underflows to 0
        with pytest.raises(OverflowGuard, match="oracle box overflows"):
            default_rho_max(1.0, omega, 1.0, 10.0 * omega)


class TestDefaultBox:
    """The default box also covers the state's own envelope (wavefunction.suggested_rho_max)."""

    @pytest.mark.parametrize("n", range(8, 13))
    def test_negative_l_ground_state_passes(self, n):
        # default_rho_max alone gives rho_max ~ 4.8, where these fail at the box-error floor
        problem = ReducedProblem.from_params(PhysicalParams(1.0, 1.0, 1.0, 1.0, 0.0, -1), n)
        (ground,) = [s for s in solve_frequency(problem) if s.node_count == 0]
        report = verify_solution(ground)
        assert report.passed
        assert report.rho_max == suggested_rho_max(ground)

    def test_negative_zeta_sq_states_pass(self):
        # default_rho_max floors its target at m*omega: rho_max = 0.197 for the lowest root
        params = PhysicalParams(mass=0.453, quad=8.76, lam=1.0, eta=0.16, kz=0.0, l=-3)
        states = solve_frequency(ReducedProblem.from_params(params, 9))
        assert sum(s.zeta_sq < 0.0 for s in states) == 7
        assert [(s.omega, s.node_count) for s in states if not verify_solution(s).passed] == []

    def test_large_positive_alpha_states_pass(self):
        # a box that ignores alpha > 0 spans several times these states (rho_max 59 for the
        # lowest root, alpha = 32), and the 4000-point grid misses PASS_TOL on two of them
        params = PhysicalParams(
            mass=0.1073655501737475, quad=8.254676500349738, lam=1.0, eta=0.8656445537726762, kz=0.0, l=-1
        )
        states = solve_frequency(ReducedProblem.from_params(params, 12))
        assert len(states) == 9 and states[0].heun.alpha > 30.0
        assert [(s.omega, s.node_count) for s in states if not verify_solution(s).passed] == []


class TestGridConvergence:
    def test_second_order_richardson(self):
        """Deviation from the analytic zeta^2 shrinks ~4x per grid doubling."""
        sol = reference_solution()
        rho_max = default_rho_max(1.0, sol.omega, 1.0, sol.zeta_sq + 10.0 * sol.omega)
        devs = []
        for n_grid in (2000, 4000, 8000):
            spec = reference_channel(omega=sol.omega, rho_max=rho_max, n_grid=n_grid)
            lowest = eigenvalues(spec, 0)
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
            assert_oracle_values_are_index_k(state, report, full_request=False)
        # index k alone is the same index bisection as the full request 0..k
        for state, report in high_index_reports[::40]:
            assert_oracle_values_are_index_k(state, report)


def report_channel(state, report, n_grid):
    """The channel verify_solution diagonalized for state on an n_grid-point grid."""
    return RadialOperatorSpec(
        m=state.problem.mass,
        omega=report.omega,
        eta=state.problem.eta,
        coulomb_strength=state.problem.coupling,
        abs_l=state.problem.abs_l,
        rho_max=report.rho_max,
        n_grid=n_grid,
    )


def assert_oracle_values_are_index_k(state, report, full_request=True):
    """Both reported oracle values equal eigenvalue k = node_count bisected with no window.

    The reference (oracles.lowest_eigenvalues) bisects indices 0..k from the
    Gershgorin bounds, or index k alone without full_request, which costs a
    fraction of it at high k.
    """
    k = state.node_count
    first = 0 if full_request else k
    pairs = ((report.grid_n, report.zeta_oracle), (report.grid_n_refined, report.zeta_oracle_refined))
    for grid, value in pairs:
        reference = oracles.lowest_eigenvalues(report_channel(state, report, grid), k + 1, first)[-1]
        assert value == pytest.approx(reference, rel=1e-14), (state.n, state.l, state.omega, grid)


def spy_certified_window(monkeypatch):
    """Record (grid points, window width, certified) for every window eigenvalues tries."""
    calls = []
    certify = oracle._certified_window

    def spy(d, e, k, lo, hi):
        value = certify(d, e, k, lo, hi)
        calls.append((d.size, hi - lo, value is not None))
        return value

    monkeypatch.setattr(oracle, "_certified_window", spy)
    return calls


class TestWindow:
    """_certified_window accepts a window only when it holds index k alone."""

    K = 3

    @pytest.fixture(scope="class")
    def full(self):
        return oracles.lowest_eigenvalues(reference_channel(), self.K + 4)

    @pytest.mark.parametrize(
        "window",
        [
            lambda z, k: (z[k + 1] * (1 - PASS_TOL), z[k + 1] * (1 + PASS_TOL)),  # holds k + 1 only
            lambda z, k: ((z[k - 1] + z[k]) / 2, (z[k + 1] + z[k + 2]) / 2),  # holds k and k + 1
            lambda z, k: (z[k] + 0.25 * (z[k + 1] - z[k]), z[k] + 0.75 * (z[k + 1] - z[k])),  # empty
            lambda z, k: (z[k], z[k]),  # degenerate
            lambda z, k: (z[k + 1], z[k - 1]),  # reversed
            lambda z, k: (-math.inf, z[k]),  # holds 0..k
            lambda z, k: (math.nan, z[k]),
        ],
        ids=["next-index", "two-indices", "empty", "degenerate", "reversed", "unbounded", "nan"],
    )
    def test_window_without_index_k_falls_back(self, full, window):
        d, e = build_operator(reference_channel())
        assert oracle._certified_window(d, e, self.K, *window(full, self.K)) is None

    def test_window_holding_the_indices_is_used(self, full):
        k = self.K
        lo, hi = (full[k - 1] + full[k]) / 2, (full[k] + full[k + 1]) / 2
        value = oracle._certified_window(*build_operator(reference_channel()), k, lo, hi)
        assert value == pytest.approx(full[k], rel=1e-14)

    def test_negative_control_reports_index_k(self):
        # at 1.05 omega no eigenvalue lies within PASS_TOL of the claim
        params = PhysicalParams(mass=1.0, quad=1.0, lam=1.0, eta=1.0, kz=0.0, l=1)
        state = [s for s in solve_frequency(ReducedProblem.from_params(params, 8)) if s.node_count == 3][0]
        report = verify_solution(state, perturb_omega=1.05)
        assert not report.passed
        assert_oracle_values_are_index_k(state, report)

    def test_seeded_parity_sweep(self):
        """Random cells: both oracle values are index k, also for zeta^2 < 0 and alpha < 0.

        The lowest root of each cell is also checked as a 1.05 omega negative control.
        """
        rng = np.random.default_rng(2606)
        reports = []
        for _ in range(30):
            m, quad, abs_eta = 10.0 ** rng.uniform(-1, 1, size=3)
            eta = float(rng.choice([-1.0, 1.0])) * abs_eta
            l = int(rng.choice([-3, -2, -1, 1, 2, 3]))
            n = int(rng.integers(1, 13))
            problem = ReducedProblem.from_params(PhysicalParams(m, quad, 1.0, eta, 0.0, l), n)
            states = solve_cubic(problem) if n == 1 else solve_frequency(problem)
            reports += [(state, verify_solution(state)) for state in states]
            reports.append((states[0], verify_solution(states[0], perturb_omega=1.05)))
        assert any(s.zeta_sq < 0.0 for s, _ in reports)
        assert any(s.heun.alpha < 0.0 for s, _ in reports)
        for state, report in reports:
            assert_oracle_values_are_index_k(state, report, full_request=False)


def verify_workload_cells():
    """The 36 cells of n <= 12, l in {1, -1, 2} at m = M = lambda = eta = 1: 132 states."""
    cells = []
    for n in range(1, 13):
        for l in (1, -1, 2):
            problem = ReducedProblem.from_params(PhysicalParams(1.0, 1.0, 1.0, 1.0, 0.0, l), n)
            cells.append(solve_cubic(problem) if n == 1 else solve_frequency(problem))
    return cells


class TestRayleighWindow:
    """eigenvalues(..., near=shift) bisects a Rayleigh-quotient window, or falls back to index k."""

    K = 3

    @pytest.fixture(scope="class")
    def cells(self):
        return verify_workload_cells()

    @pytest.fixture(scope="class")
    def full(self):
        return oracles.lowest_eigenvalues(reference_channel(), self.K + 2)

    def test_every_window_is_certified(self, cells, monkeypatch):
        # one certified window per grid, each a sliver of the values that can pass
        # (at most 5.0e-7 of it on these states, 7.7e-4 on a 543-state random sweep)
        calls = spy_certified_window(monkeypatch)
        states = [state for cell in cells for state in cell]
        assert len(states) == 132
        for state in states:
            calls.clear()
            report = verify_solution(state)
            assert report.passed
            pass_width = 2.0 * PASS_TOL * abs(state.zeta_sq)
            assert [(grid, certified) for grid, _, certified in calls] == [
                (report.grid_n, True),
                (report.grid_n_refined, True),
            ], (state.n, state.l, state.omega)
            assert all(width < 1e-3 * pass_width for _, width, _ in calls)

    def test_negative_control_windows_certify_index_k(self, cells, monkeypatch):
        # at 1.05 omega the claim is far from every eigenvalue, yet eigenvalue k is still nearest
        calls = spy_certified_window(monkeypatch)
        for state in [cell[0] for cell in cells]:
            calls.clear()
            report = verify_solution(state, perturb_omega=1.05)
            assert not report.passed
            assert [certified for *_, certified in calls] == [True, True]
            assert_oracle_values_are_index_k(state, report)

    def test_shift_at_next_index_falls_back(self, full, monkeypatch):
        # inverse iteration finds eigenvalue k + 1; the count below the window rejects it
        calls = spy_certified_window(monkeypatch)
        value = eigenvalues(reference_channel(), self.K, near=full[self.K + 1])
        assert [certified for *_, certified in calls] == [False]
        assert value == pytest.approx(full[self.K], rel=1e-14)

    def test_singular_factorization_falls_back(self, full, monkeypatch):
        lapack = oracle._flapack()
        singular = types.SimpleNamespace(
            dstebz=lapack.dstebz, dgttrs=lapack.dgttrs, dgttrf=lambda dl, d, du, **_: (dl, d, du, du, None, 1)
        )
        monkeypatch.setattr(oracle, "_flapack", lambda: singular)
        calls = spy_certified_window(monkeypatch)
        value = eigenvalues(reference_channel(), self.K, near=full[self.K])
        assert calls == []
        assert value == pytest.approx(full[self.K], rel=1e-14)


class TestOverflow:
    """Overflow surfaces as OverflowGuard before any LAPACK call (a RuntimeWarning fails the suite)."""

    @pytest.mark.parametrize("near", [None, 0.5], ids=["index", "window"])
    @pytest.mark.parametrize(
        "omega, rho_max", [(3e153, 5.0), (1.0, 1e-200), (1.0, 1e300)], ids=["omega", "tiny-box", "huge-box"]
    )
    def test_operator_overflow_is_typed(self, omega, rho_max, near, monkeypatch):
        spec = RadialOperatorSpec(
            m=1, omega=omega, eta=1, coulomb_strength=1, abs_l=1, rho_max=rho_max, n_grid=200
        )
        monkeypatch.setattr(oracle, "_flapack", lambda: pytest.fail("LAPACK called"))
        with pytest.raises(OverflowGuard, match="finite-difference operator overflows"):
            eigenvalues(spec, 0, near=near)

    @pytest.mark.parametrize("perturb", [1e200, 3e153])
    def test_verify_overflow_is_typed(self, perturb):
        with pytest.raises(OverflowGuard, match="oracle box overflows"):
            verify_solution(reference_solution(), perturb_omega=perturb)


class TestConvergenceFailure:
    """A failed or inconsistent dstebz result raises ConvergenceFailure on either route."""

    K = 3

    def stub_dstebz(self, monkeypatch, info, values):
        """Replace dstebz alone; the Sturm count below a window always reports K values."""
        calls = []

        def dstebz(d, e, select, vl, vu, il, iu, tol, order):
            calls.append(select)
            found = self.K if select == 1 and tol > 1.0 else len(values)
            return found, np.array(values + (0.0,) * (d.size - len(values))), None, None, info

        real = oracle._flapack()
        lapack = types.SimpleNamespace(dstebz=dstebz, dgttrf=real.dgttrf, dgttrs=real.dgttrs)
        monkeypatch.setattr(oracle, "_flapack", lambda: lapack)
        return calls

    @pytest.mark.parametrize(
        "near, info, values, calls, message",
        [
            (None, 1, (1.0,), [2], "dstebz failed on eigenvalue 3: info = 1"),
            # a failed window falls back to the index route, which fails too
            (1.5, 1, (1.0,), [1, 1, 2], "dstebz failed on eigenvalue 3: info = 1"),
        ],
        ids=["index-info", "window-info"],
    )
    def test_failure_raises(self, monkeypatch, near, info, values, calls, message):
        seen = self.stub_dstebz(monkeypatch, info, values)
        with pytest.raises(ConvergenceFailure, match=message):
            eigenvalues(reference_channel(n_grid=200), self.K, near=near)
        assert seen == calls

    def test_lost_states_raise(self, monkeypatch):
        self.stub_dstebz(monkeypatch, 0, ())
        with pytest.raises(ConvergenceFailure, match="info = 0, 0 values"):
            eigenvalues(reference_channel(n_grid=200), self.K)


class TestDstebz:
    def test_index_route_matches_eigh_tridiagonal(self):
        # scipy.linalg's own route to the same LAPACK call is the reference
        from scipy.linalg import eigh_tridiagonal

        spec = reference_channel()
        for k in range(2, 7):
            (expected,) = eigh_tridiagonal(
                *build_operator(spec), eigvals_only=True, select="i", select_range=(k, k), tol=1e-14
            )
            assert eigenvalues(spec, k) == expected

    def test_missing_extension_names_the_directory(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        with pytest.raises(ImportError, match=r"no compiled _flapack extension in .*scipy.linalg"):
            oracle._flapack.__wrapped__()


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
