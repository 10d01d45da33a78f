"""Finite-difference verifier: operator assembly, spectra, pass/fail logic."""

import importlib.machinery
import math
import sys
import types

import numpy as np
import pytest

import oracles
from heunqes import oracle
from heunqes.errors import ConvergenceFailure, OverflowGuard
from heunqes.model import DEFAULT_GRID_N, PhysicalParams
from heunqes.oracle import (
    PASS_TOL,
    RadialOperatorSpec,
    build_operator,
    eigenvalues,
    verify_solution,
)
from heunqes.quantize import ReducedProblem, SpectralSolution, solve, solve_cubic, solve_frequency
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
        alpha=0.0,
        delta=0.0,
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
            dict(abs_l=1.5),
            dict(abs_l=math.inf),
            dict(abs_l=math.nan),
        ],
    )
    def test_bad_physics_rejected(self, bad):
        # the message names the field (m as "mass")
        (field,) = bad
        with pytest.raises(ValueError, match={"m": "mass"}.get(field, field)):
            reference_channel(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(n_grid=99),
            dict(rho_max=0.0),
            dict(rho_max=-1.0),
            dict(rho_max=math.inf),
            dict(n_grid=4000.5),
            dict(n_grid=4000.0),
            dict(n_grid=math.nan),
        ],
    )
    def test_bad_grid_rejected(self, bad):
        if "n_grid" in bad:
            message = "n_grid must be an integer of at least 100"
        else:
            message = "rho_max must be positive and finite"
        with pytest.raises(ValueError, match=message):
            reference_channel(**bad)

    def test_invalid_grid_in_package_hierarchy(self):
        # a bad grid is bad input, so a plain ValueError and none of the HeunQESError outcomes
        for bad in (dict(n_grid=99), dict(rho_max=0.0)):
            with pytest.raises(ValueError) as caught:
                reference_channel(**bad)
            assert caught.type is ValueError


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
        assert [eigenvalues(spec, k)[0] for k in (3, 4, 5)] == pytest.approx(full[3:], rel=1e-14)

    def test_strictly_ascending(self):
        values = [eigenvalues(reference_channel(), k)[0] for k in range(6)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_oscillator_ladder(self):
        # eta = coulomb = 0 collapses the channel to the radial oscillator,
        # whose zeta^2 ladder is known in closed form
        rho_max = oracles.turning_point_box(1.0, 1.0, 0.0, oracles.oscillator_level(1.0, 1.0, 1, 2) + 10.0)
        spec = RadialOperatorSpec(
            m=1.0, omega=1.0, eta=0.0, coulomb_strength=0.0, abs_l=1, rho_max=rho_max, n_grid=4000
        )
        for k in range(3):
            assert eigenvalues(spec, k)[0] == pytest.approx(oracles.oscillator_level(1.0, 1.0, 1, k), rel=1e-3)

    def test_oscillator_ladder_scaled(self):
        m, omega, abs_l = 0.5, 3.0, 2
        rho_max = oracles.turning_point_box(
            m, omega, 0.0, oracles.oscillator_level(m, omega, abs_l, 2) + 10.0 * m * omega
        )
        spec = RadialOperatorSpec(
            m=m, omega=omega, eta=0.0, coulomb_strength=0.0, abs_l=abs_l, rho_max=rho_max, n_grid=4000
        )
        for k in range(3):
            assert eigenvalues(spec, k)[0] == pytest.approx(oracles.oscillator_level(m, omega, abs_l, k), rel=1e-3)

    def test_reference_state_sits_at_ground_index(self):
        sol = reference_solution()
        rho_max = oracles.turning_point_box(1.0, sol.omega, 1.0, sol.zeta_sq + 10.0 * sol.omega)
        spec = reference_channel(omega=sol.omega, rho_max=rho_max, n_grid=4000)
        lowest, _ = eigenvalues(spec, 0)
        assert lowest == pytest.approx(oracles.FROZEN_ZETA_SQ, rel=1e-3)
        assert lowest == pytest.approx(oracles.DISPLAY_ZETA_SQ, rel=oracles.DISPLAY_TOL)


class TestDefaultBox:
    """The default box is the state's own (wavefunction.suggested_rho_max)."""

    @pytest.mark.parametrize("n", range(8, 13))
    def test_negative_l_ground_state_passes(self, n):
        # a turning-point box (oracles.turning_point_box) gives rho_max ~ 4.8, where these fail
        # at the box-error floor
        problem = ReducedProblem.from_params(PhysicalParams(1.0, 1.0, 1.0, 1.0, 0.0, -1), n)
        (ground,) = [s for s in solve_frequency(problem) if s.node_count == 0]
        report = verify_solution(ground)
        assert report.passed
        assert report.rho_max == suggested_rho_max(ground)

    def test_negative_zeta_sq_states_pass(self):
        # a turning-point box floored at m*omega gives rho_max = 0.197 for the lowest root
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
        assert len(states) == 9 and states[0].alpha > 30.0
        assert [(s.omega, s.node_count) for s in states if not verify_solution(s).passed] == []


class TestHighNodeCell:
    """A cell of 40 states at n = 26, l = -5, alpha from 441 down to 6e-5.

    Past the roots of H the density grows like xi^(2n + 2|l| + 1), which moves
    the tail out where alpha > 0 slows the envelope. A box from the Gaussian
    alone ends inside the states of node count 16..26 at alpha 57..29: their
    eigenvectors leave up to 0.42 of their probability beyond it, and all 11
    fail.
    """

    @staticmethod
    def states():
        params = PhysicalParams(mass=0.535365, quad=42.8981, lam=1.0, eta=0.285521, kz=0.0, l=-5)
        states = solve_frequency(ReducedProblem.from_params(params, 26))
        assert len(states) == 40
        return states

    def test_every_state_passes(self):
        assert [(s.omega, s.node_count) for s in self.states() if not verify_solution(s).passed] == []

    def test_eigenvector_dies_inside_the_box(self):
        for s in self.states():
            box = suggested_rho_max(s)
            spec = RadialOperatorSpec(
                m=s.problem.mass, omega=s.omega, eta=s.problem.eta, coulomb_strength=s.problem.coupling,
                abs_l=5, rho_max=3.0 * box, n_grid=12000,
            )
            assert oracles.probability_outside(spec, s.node_count, box) < 1e-10, (s.omega, s.node_count)


class TestGridConvergence:
    def test_second_order_richardson(self):
        """Deviation from the analytic zeta^2 shrinks ~4x per grid doubling."""
        sol = reference_solution()
        rho_max = oracles.turning_point_box(1.0, sol.omega, 1.0, sol.zeta_sq + 10.0 * sol.omega)
        devs = []
        for n_grid in (2000, 4000, 8000):
            spec = reference_channel(omega=sol.omega, rho_max=rho_max, n_grid=n_grid)
            lowest, _ = eigenvalues(spec, 0)
            devs.append(abs(lowest - sol.zeta_sq) / sol.zeta_sq)
        assert 3.0 < devs[0] / devs[1] < 5.0
        assert 3.0 < devs[1] / devs[2] < 5.0


def states_to_degree_twelve():
    """All states of n <= 12 for l in {1, 2, 3} and n <= 7 for l in {-1, -2, -3}."""
    states = []
    for l in (1, 2, 3, -1, -2, -3):
        for n in range(1, 13 if l > 0 else 8):
            problem = ReducedProblem.from_params(PhysicalParams(1.0, 1.0, 1.0, 1.0, 0.0, l), n)
            states += solve(problem)
    return states


@pytest.fixture(scope="module")
def high_index_reports():
    return [verify_recording(state) for state in states_to_degree_twelve()]


class TestHighIndexStates:
    def test_every_state_passes(self, high_index_reports):
        assert len(high_index_reports) == 183
        failed = [(s.n, s.l, s.node_count) for s, report, _ in high_index_reports if not report.passed]
        assert failed == []

    def test_window_matches_full_request(self, high_index_reports):
        assert_oracle_values_are_index_k(high_index_reports, sample=4, seed=183)


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


def verify_recording(state, **kwargs):
    """(state, verify_solution(state, **kwargs), {grid points: whether its window was certified})."""
    with pytest.MonkeyPatch.context() as patch:
        calls = spy_certified_window(patch)
        report = verify_solution(state, **kwargs)
    return state, report, {grid: certified for grid, _, _, certified in calls}


def assert_oracle_values_are_index_k(recorded, sample=0, seed=0):
    """Both oracle values of each verify_recording triple are eigenvalue k = node_count.

    A value from the index fallback must equal index k bisected with no window
    (oracles.lowest_eigenvalues) to rel 1e-14. A certified value must put
    long-double Sturm counts of k and k + 1 at value -/+ CERTIFIED_TOL
    eps ||T||_inf, so eigenvalue k lies that close (assert_within_certified_tol,
    which also measures a seeded sample of `sample` values per grid).
    """
    certified = {}
    for state, report, windows in recorded:
        k = state.node_count
        pairs = ((report.grid_n, report.zeta_oracle), (report.grid_n_refined, report.zeta_oracle_refined))
        for grid, value in pairs:
            spec = report_channel(state, report, grid)
            if windows.get(grid, False):
                certified.setdefault(grid, []).append((build_operator(spec), k, value))
            else:
                reference = oracles.lowest_eigenvalues(spec, k + 1, k)[0]
                assert value == pytest.approx(reference, rel=1e-14), (state.n, state.l, state.omega, grid)
    rng = np.random.default_rng(seed)
    for rows in certified.values():
        assert_within_certified_tol(rows, sample, rng)


def assert_within_certified_tol(rows, sample, rng):
    """Eigenvalue k of each (channel, k, value) row lies within oracles.CERTIFIED_TOL eps_norm of value.

    The rows share one grid size. Long-double Sturm counts (oracles.sturm_counts)
    at value -/+ that distance must read k and k + 1; a sample of rows drawn
    by rng is also measured against the long-double multisection, started
    from value -/+ eps_norm.
    """
    channels = [channel for channel, _, _ in rows]
    ks = np.array([k for _, k, _ in rows])
    values = np.array([value for *_, value in rows], dtype=np.longdouble)
    scale = np.array([oracles.eps_norm(*channel) for channel in channels], dtype=np.longdouble)
    tol = oracles.CERTIFIED_TOL * scale
    counts = oracles.sturm_counts(channels, np.stack([values - tol, values + tol], axis=1))
    assert np.flatnonzero((counts != np.stack([ks, ks + 1], axis=1)).any(axis=1)).tolist() == []
    picked = rng.choice(len(rows), size=min(sample, len(rows)), replace=False)
    if picked.size:
        values, scale, tol = values[picked], scale[picked], tol[picked]
        channels = [channels[i] for i in picked]
        reference = oracles.long_double_eigenvalues(channels, ks[picked], values - scale, values + scale)
        assert np.all(abs(values - reference) <= tol)


def spy_certified_window(monkeypatch):
    """Record (grid points, theta, w, certified) for every window eigenvalues tries."""
    calls = []
    certify = oracle._certified_window

    def spy(d, e, k, window):
        certified = certify(d, e, k, window)
        calls.append((d.size, window.theta, window.w, certified))
        return certified

    monkeypatch.setattr(oracle, "_certified_window", spy)
    return calls


def shifted_window(d, e, theta, w, shift):
    """A window theta -/+ w left by inverse iteration at shift, with the count below shift."""
    *factors, info = oracle._flapack().dgttrf(e, d - shift, e)
    assert info == 0
    return oracle._Window(theta, w, shift, oracle._negative_pivots(*factors), None)


def two_counts(d, e, k, window):
    """The check without the shift's count: k eigenvalues below theta - w, k + 1 below theta + w."""
    lo, hi = window.theta - window.w, window.theta + window.w
    return oracle._count_below(d, e, lo) == k and oracle._count_below(d, e, hi) == k + 1


def closed_by_shift(k, window):
    """Whether the shift lies at least w past theta, with the count that closes that end."""
    lo, hi = window.theta - window.w, window.theta + window.w
    return (window.shift <= lo and window.below == k) or (window.shift >= hi and window.below == k + 1)


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
        # the shift at theta, inside the window, so both of its ends are counted
        d, e = build_operator(reference_channel())
        lo, hi = window(full, self.K)
        theta = (lo + hi) / 2
        shift = theta if math.isfinite(theta) else full[self.K]
        assert not oracle._certified_window(d, e, self.K, shifted_window(d, e, theta, (hi - lo) / 2, shift))

    def test_window_holding_the_indices_is_used(self, full):
        # the Rayleigh window of a shift at eigenvalue k holds it alone, and its theta is the value
        k = self.K
        d, e = build_operator(reference_channel())
        window = oracle._rayleigh_window(d, e, full[k])
        assert oracle._certified_window(d, e, k, window)
        assert_within_certified_tol([((d, e), k, window.theta)], 1, np.random.default_rng(k))

    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    def test_shift_past_an_end_closes_it(self, full, side, monkeypatch):
        # a shift w or more below theta that counts k, or above it that counts k + 1, replaces
        # the count at that end; the other end is still counted, and a wrong count there fails
        k = self.K
        d, e = build_operator(reference_channel())
        theta, w = full[k], 0.25 * min(full[k] - full[k - 1], full[k + 1] - full[k])
        window = shifted_window(d, e, theta, w, theta + 2.0 * side * w)
        assert closed_by_shift(k, window)
        count, ends = oracle._count_below, []
        monkeypatch.setattr(oracle, "_count_below", lambda d, e, x: ends.append(x) or count(d, e, x))
        assert oracle._certified_window(d, e, k, window)
        assert ends == [theta - side * w]
        assert not oracle._certified_window(d, e, k + side, window)

    def test_negative_control_reports_index_k(self):
        # at 1.05 omega no eigenvalue lies within PASS_TOL of the claim
        params = PhysicalParams(mass=1.0, quad=1.0, lam=1.0, eta=1.0, kz=0.0, l=1)
        state = [s for s in solve_frequency(ReducedProblem.from_params(params, 8)) if s.node_count == 3][0]
        recorded = verify_recording(state, perturb_omega=1.05)
        assert not recorded[1].passed
        assert_oracle_values_are_index_k([recorded], sample=1, seed=8)

    def test_failed_first_count_is_the_only_count(self, monkeypatch):
        # the coarse window of this 1.05 omega control has 0 eigenvalues below it, not 3
        params = PhysicalParams(mass=1.0, quad=1.0, lam=1.0, eta=1.0, kz=0.0, l=1)
        state = [s for s in solve_frequency(ReducedProblem.from_params(params, 8)) if s.node_count == 3][0]
        count, real, calls = oracle._count_below, oracle._flapack(), []

        def spy(d, e, x):
            calls.append(("count", count(d, e, x)))
            return calls[-1][1]

        def dstebz(*args):
            calls.append(("index",))
            return real.dstebz(*args)

        def dgttrs(*args, **kwargs):
            calls.append(("solve", args[5].size))
            return real.dgttrs(*args, **kwargs)

        lapack = types.SimpleNamespace(dstebz=dstebz, dgttrf=real.dgttrf, dgttrs=dgttrs)
        monkeypatch.setattr(oracle, "_count_below", spy)
        monkeypatch.setattr(oracle, "_flapack", lambda: lapack)
        verify_solution(state, perturb_omega=1.05)
        # coarse: two solves, one count, then the index route, which leaves no iterate; refined:
        # two solves from all ones, and the shift, within w of theta, closes no end, so both
        # counts certify the window
        assert calls == [
            ("solve", 4000), ("solve", 4000), ("count", 0), ("index",),
            ("solve", 8000), ("solve", 8000), ("count", 3), ("count", 4),
        ]

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
            states = solve(problem)
            reports += [verify_recording(state) for state in states]
            reports.append(verify_recording(states[0], perturb_omega=1.05))
        assert any(s.zeta_sq < 0.0 for s, _, _ in reports)
        assert any(s.alpha < 0.0 for s, _, _ in reports)
        assert_oracle_values_are_index_k(reports, sample=4, seed=2606)


@pytest.fixture(scope="module")
def cells():
    """The 36 cells of n <= 12, l in {1, -1, 2} at m = M = lambda = eta = 1: 132 states."""
    cells = []
    for n in range(1, 13):
        for l in (1, -1, 2):
            problem = ReducedProblem.from_params(PhysicalParams(1.0, 1.0, 1.0, 1.0, 0.0, l), n)
            cells.append(solve(problem))
    return cells


class TestRayleighWindow:
    """eigenvalues(..., near=shift) returns a Rayleigh quotient that Sturm counts certify, or index k."""

    K = 3

    @pytest.fixture(scope="class")
    def full(self):
        return oracles.lowest_eigenvalues(reference_channel(), self.K + 2)

    def test_every_window_is_certified(self, cells, monkeypatch):
        # one certified window per grid, whose theta is the reported value; the half-width
        # r^2/_EIG_ABS_TOL runs from 7e-8 to 1.2 on these states, at most 1.8 times the
        # width 2 PASS_TOL |zeta^2| of the values that pass
        calls = spy_certified_window(monkeypatch)
        states = [state for cell in cells for state in cell]
        assert len(states) == 132
        for state in states:
            calls.clear()
            report = verify_solution(state)
            assert report.passed
            pass_width = 2.0 * PASS_TOL * abs(state.zeta_sq)
            assert [(grid, theta, certified) for grid, theta, _, certified in calls] == [
                (report.grid_n, report.zeta_oracle, True),
                (report.grid_n_refined, report.zeta_oracle_refined, True),
            ], (state.n, state.l, state.omega)
            assert all(oracle._RESIDUAL_FLOOR <= w < 3.0 * pass_width for _, _, w, _ in calls)

    def test_negative_control_windows_certify_index_k(self, cells):
        # at 1.05 omega two inverse-iteration steps at the claim leave a residual whose window
        # spans several eigenvalues, so the coarse value is the index bisection; the refined
        # grid is shifted to that value, and its window holds index k alone
        recorded = [verify_recording(cell[0], perturb_omega=1.05) for cell in cells]
        for state, report, windows in recorded:
            assert not report.passed
            assert windows == {report.grid_n: False, report.grid_n_refined: True}, (state.n, state.l)
        assert_oracle_values_are_index_k(recorded, sample=4, seed=105)

    def test_index_bisection_misses_the_certified_tol(self, cells):
        # CERTIFIED_TOL is finer than the fallback's rounding: the index bisection of the
        # coarse channels of the first 8 states strays past it
        states = [state for cell in cells for state in cell][:8]
        specs = [report_channel(s, verify_solution(s), DEFAULT_GRID_N) for s in states]
        channels = [build_operator(spec) for spec in specs]
        ks = [s.node_count for s in states]
        bisected = np.array([oracles.lowest_eigenvalues(spec, k + 1, k)[0] for spec, k in zip(specs, ks)])
        scale = np.array([oracles.eps_norm(*channel) for channel in channels])
        reference = oracles.long_double_eigenvalues(channels, ks, bisected - scale, bisected + scale)
        assert max(abs(bisected - reference) / scale) > oracles.CERTIFIED_TOL

    def test_shift_at_next_index_falls_back(self, full, monkeypatch):
        # inverse iteration finds eigenvalue k + 1; the count below the window rejects it
        calls = spy_certified_window(monkeypatch)
        value, x = eigenvalues(reference_channel(), self.K, near=full[self.K + 1])
        assert [certified for *_, certified in calls] == [False]
        assert value == pytest.approx(full[self.K], rel=1e-14) and x is None

    def test_shift_between_indices_falls_back(self, full, monkeypatch):
        # midway between eigenvalues k and k + 1 inverse iteration mixes both, and the
        # residual's window holds more than index k
        calls = spy_certified_window(monkeypatch)
        value, x = eigenvalues(reference_channel(), self.K, near=(full[self.K] + full[self.K + 1]) / 2)
        assert [certified for *_, certified in calls] == [False]
        assert value == pytest.approx(full[self.K], rel=1e-14) and x is None

    def test_singular_factorization_falls_back(self, full, monkeypatch):
        lapack = oracle._flapack()
        singular = types.SimpleNamespace(
            dstebz=lapack.dstebz, dgttrs=lapack.dgttrs, dgttrf=lambda dl, d, du, **_: (dl, d, du, du, None, 1)
        )
        monkeypatch.setattr(oracle, "_flapack", lambda: singular)
        calls = spy_certified_window(monkeypatch)
        value, x = eigenvalues(reference_channel(), self.K, near=full[self.K])
        assert calls == []
        assert value == pytest.approx(full[self.K], rel=1e-14) and x is None


@pytest.fixture(scope="module")
def workload_windows(cells):
    """{grid points: [(d, e, k, window)]} of every window verify_solution tries.

    The windows are those of the 132 states, then those of the 64 of n <= 8 at
    1.05 omega, the verify workload's negative controls.
    """
    windows, certify = {}, oracle._certified_window

    def spy(d, e, k, window):
        windows.setdefault(d.size, []).append((d, e, k, window))
        return certify(d, e, k, window)

    states = [state for cell in cells for state in cell]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_certified_window", spy)
        for state in states:
            verify_solution(state)
        for state in states:
            if state.n <= 8:
                verify_solution(state, perturb_omega=1.05)
    return windows


class TestCountBelow:
    """_count_below reads the long-double Sturm count (oracles.sturm_counts) from dgttrf's factors."""

    def test_every_window_end(self, workload_windows):
        # both ends of the 196 windows of each grid, also those a failed first count never reaches
        kept = swapped = 0
        for grid, rows in workload_windows.items():
            assert len(rows) == 132 + 64
            channels = [(d, e) for d, e, *_ in rows]
            ends = np.array([[window.theta - window.w, window.theta + window.w] for *_, window in rows])
            counts = [[oracle._count_below(d, e, x) for x in pair] for (d, e), pair in zip(channels, ends)]
            assert counts == oracles.sturm_counts(channels, ends).tolist(), grid
            for (d, e), pair in zip(channels, ends):
                for x in pair:
                    ipiv = oracle._flapack().dgttrf(e, d - x, e)[4]
                    swaps = np.count_nonzero(ipiv[:-1] != np.arange(1, grid))
                    kept, swapped = kept + grid - 1 - swaps, swapped + swaps
        # both kinds of pivot step, keep and swap, feed the counts
        assert kept > 0 and swapped > 0

    def test_seeded_shifts(self, workload_windows):
        # on every channel of the 132 states, a seeded shift inside the Gershgorin bounds, one
        # below them (count 0) and one above (count N); on a seeded 20 of each grid, the midpoint
        # of eigenvalues j and j + 1 (count j + 1) for a seeded j <= k + 2
        from scipy.linalg import eigh_tridiagonal

        rng = np.random.default_rng(33)
        for grid, rows in workload_windows.items():
            channels = [(d, e) for d, e, *_ in rows[:132]]
            bounds = [(d.min() - 2.0 * abs(e).max(), d.max() + 2.0 * abs(e).max()) for d, e in channels]
            shifts = np.array([[rng.uniform(low, high), low - 1.0, high + 1.0] for low, high in bounds])
            counts = [[oracle._count_below(d, e, x) for x in row] for (d, e), row in zip(channels, shifts)]
            reference = oracles.sturm_counts(channels, shifts)
            assert counts == reference.tolist(), grid
            assert set(reference[:, 1]) == {0} and set(reference[:, 2]) == {grid}
            sample = rng.choice(len(channels), size=20, replace=False)
            picked = [channels[i] for i in sample]
            js = [int(rng.integers(0, rows[i][2] + 3)) for i in sample]
            midpoints = np.array([
                [eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(j, j + 1), tol=1e-14).mean()]
                for (d, e), j in zip(picked, js)
            ])
            counts = [[oracle._count_below(d, e, x)] for (d, e), (x,) in zip(picked, midpoints)]
            assert counts == oracles.sturm_counts(picked, midpoints).tolist() == [[j + 1] for j in js], grid

    def test_either_sign_of_e(self):
        # tridiag(d, s e) is similar to tridiag(d, e) for any signs s, so it has the same counts
        d, e = build_operator(reference_channel())
        rng = np.random.default_rng(5)
        shifts = rng.uniform(d.min() - 2.0 * abs(e).max(), d.max() + 2.0 * abs(e).max(), size=(1, 50))
        (reference,) = oracles.sturm_counts([(d, e)], shifts).tolist()
        for signs in (1.0, -1.0, rng.choice([-1.0, 1.0], e.size)):
            assert [oracle._count_below(d, signs * e, x) for x in shifts[0]] == reference

    def test_zero_pivot_is_no_count(self, monkeypatch):
        # at x = d[0] the first pivot is 0: no count, so a window that ends there is not
        # certified, and the index bisection still gives eigenvalue k
        spec = reference_channel()
        d, e = build_operator(spec)
        assert oracle._count_below(d, e, d[0]) is None
        # eigenvalue k is the first above d[0]
        k = int(oracles.sturm_counts([(d, e)], [[np.nextafter(d[0], math.inf)]])[0, 0])
        (theta,) = oracles.lowest_eigenvalues(spec, k + 1, k)
        w = theta - d[0]  # exact: d[0] < theta < 2 d[0]
        assert w > 0.0 and theta - w == d[0]
        # the shift at theta, inside the window, so theta - w is counted
        window = shifted_window(d, e, theta, w, theta)
        monkeypatch.setattr(oracle, "_rayleigh_window", lambda d, e, shift, start=None: window)
        calls = spy_certified_window(monkeypatch)
        assert eigenvalues(spec, k, near=theta) == (theta, None)
        assert calls == [(spec.n_grid, theta, w, False)]


class TestShiftCount:
    """The count below the shift, read from the window's own factorization, closes one end."""

    def test_shift_count_is_the_sturm_count(self, workload_windows):
        # at the shift of every window of the states and controls, on both grids
        for grid, rows in workload_windows.items():
            channels = [(d, e) for d, e, *_ in rows]
            shifts = np.array([[window.shift] for *_, window in rows])
            counts = [[window.below] for *_, window in rows]
            assert counts == oracles.sturm_counts(channels, shifts).tolist(), grid

    def test_closed_windows_certify_as_both_counts_do(self, workload_windows):
        # every window, the 264 of the 132 states and the 128 of the controls, gives theta
        # exactly when the two counts at theta -/+ w do; the shift closes an end of most state
        # windows, and each of those certifies
        for grid, rows in workload_windows.items():
            closed = 0
            for i, (d, e, k, window) in enumerate(rows):
                certified = oracle._certified_window(d, e, k, window)
                assert certified == two_counts(d, e, k, window), (grid, i)
                if i < 132 and closed_by_shift(k, window):
                    closed += 1
                    assert certified, (grid, i)
            assert closed > 0, grid

    def test_zero_pivot_at_the_shift_counts_both_ends(self, monkeypatch):
        # T - d[0] has a zero first pivot: the shift gives no count, so both ends are counted
        spec = reference_channel()
        d, e = build_operator(spec)
        k = int(oracles.sturm_counts([(d, e)], [[np.nextafter(d[0], math.inf)]])[0, 0])
        theta, following = oracles.lowest_eigenvalues(spec, k + 2, k)
        w = min(theta - d[0], following - theta) / 2
        window = shifted_window(d, e, theta, w, d[0])
        assert window.below is None
        count, ends = oracle._count_below, []
        monkeypatch.setattr(oracle, "_count_below", lambda d, e, x: ends.append(x) or count(d, e, x))
        assert oracle._certified_window(d, e, k, window)
        assert ends == [theta - w, theta + w]


def record_solves(monkeypatch):
    """Log a copy of the right-hand side of every dgttrs call."""
    real, solves = oracle._flapack(), []

    def dgttrs(*args, **kwargs):
        solves.append(args[5].copy())
        return real.dgttrs(*args, **kwargs)

    lapack = types.SimpleNamespace(dstebz=real.dstebz, dgttrf=real.dgttrf, dgttrs=dgttrs)
    monkeypatch.setattr(oracle, "_flapack", lambda: lapack)
    return solves


class TestRefinedStart:
    """The refined grid starts inverse iteration from the coarse grid's certified iterate."""

    def test_iterate_takes_one_solve(self, cells, monkeypatch):
        # two solves from all ones on the coarse grid, one from the interpolated iterate on the
        # refined grid, for each of the 132 states
        states = [state for cell in cells for state in cell]
        solves = record_solves(monkeypatch)
        for state in states:
            solves.clear()
            verify_solution(state)
            assert [b.size for b in solves] == [4000, 4000, 8000], (state.n, state.l, state.omega)
            assert np.array_equal(solves[0], np.ones(4000))
        # the last state's refined start is its coarse iterate, linear between the coarse nodes
        monkeypatch.undo()
        report = verify_solution(state)
        _, x = eigenvalues(report_channel(state, report, 4000), state.node_count, near=state.zeta_sq)
        rho = np.linspace(0.0, report.rho_max, 4002)
        rho_refined = np.linspace(0.0, report.rho_max, 8002)[1:-1]
        expected = np.interp(rho_refined, rho, np.concatenate(([0.0], x, [0.0])))
        assert np.allclose(solves[2], expected, rtol=0.0, atol=1e-12 * abs(x).max())

    def test_no_iterate_takes_two_solves_from_ones(self, cells, monkeypatch):
        # the coarse windows of the 64 controls at 1.05 omega fall back and give no iterate
        controls = [state for cell in cells for state in cell if state.n <= 8]
        assert len(controls) == 64
        solves = record_solves(monkeypatch)
        for state in controls:
            solves.clear()
            verify_solution(state, perturb_omega=1.05)
            assert [b.size for b in solves] == [4000, 4000, 8000, 8000], (state.n, state.l, state.omega)
            assert np.array_equal(solves[0], np.ones(4000)) and np.array_equal(solves[2], np.ones(8000))


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


class TestConvergenceFailure:
    """A failed or inconsistent dstebz result raises ConvergenceFailure on either route."""

    K = 3

    def stub_dstebz(self, monkeypatch, info, values):
        """Replace dstebz, the index route, and log its calls and dgttrf's by name.

        dstebz reports info and values. dgttrf factors as usual for the
        Rayleigh window, its first call, and reports info on every later
        call, the window's eigenvalue counts.
        """
        real, calls = oracle._flapack(), []

        def dstebz(d, e, select, vl, vu, il, iu, tol, order):
            calls.append("dstebz")
            return len(values), np.array(values + (0.0,) * (d.size - len(values))), None, None, info

        def dgttrf(*args, **kwargs):
            calls.append("dgttrf")
            *factors, factored = real.dgttrf(*args, **kwargs)
            return (*factors, factored if calls.count("dgttrf") == 1 else info)

        lapack = types.SimpleNamespace(dstebz=dstebz, dgttrf=dgttrf, dgttrs=real.dgttrs)
        monkeypatch.setattr(oracle, "_flapack", lambda: lapack)
        return calls

    @pytest.mark.parametrize(
        "near, info, values, calls, message",
        [
            (None, 1, (1.0,), ["dstebz"], "dstebz failed on eigenvalue 3: info = 1"),
            # a count whose factorization fails ends the window, which falls back to the index
            # route, which fails too
            (1.5, 1, (1.0,), ["dgttrf", "dgttrf", "dstebz"], "dstebz failed on eigenvalue 3: info = 1"),
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
            assert eigenvalues(spec, k) == (expected, None)

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
