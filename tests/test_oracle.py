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
from heunqes.oracle import RadialOperatorSpec, build_operator, eigenvalues, verify_solution
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
def recording():
    """{pass: [(state, perturb_omega, report, oracle calls)]}: one oracles.record_verify per check of each pass."""
    states = oracles.benchmark_states()
    checks = {
        "states": [(s, 1.0) for s in states],
        "controls": [(s, 1.05) for s in states if s.n <= 8],
        "high-index": [(s, 1.0) for s in states_to_degree_twelve()],
        "sweep": oracles.seeded_sweep(),
    }
    return {name: [(s, p, *oracles.record_verify(s, p)) for s, p in rows] for name, rows in checks.items()}


PASSES = ["states", "controls", "high-index", "sweep"]
GRIDS = [DEFAULT_GRID_N, 2 * DEFAULT_GRID_N]


def recorded_calls(recording, name, grid=None):
    """The oracle calls of one pass, those on a grid of that many points only if grid is given."""
    calls = [call for *_, calls in recording[name] for call in calls]
    return [call for call in calls if grid in (None, call.spec.n_grid)]


@pytest.fixture(scope="module")
def factored(recording):
    """[(call, (d, e), points, counts)] of the 132 states and their controls on both grids.

    points are where the call factored T - x, the shift first, then the
    window ends it counted at; counts their long-double Sturm counts
    (oracles.sturm_counts), one call per pass and grid.
    """
    rows = []
    for name in ("states", "controls"):
        for grid in GRIDS:
            calls = recorded_calls(recording, name, grid)
            channels = [build_operator(call.spec) for call in calls]
            width = max(len(call.factored) for call in calls)
            # the rows of points are padded with their first
            points = np.array([
                [d[0] - head for head in (call.factored * width)[:width]] for call, (d, _) in zip(calls, channels)
            ])
            counts = oracles.sturm_counts(channels, points).tolist()
            for call, channel, row, count in zip(calls, channels, points, counts):
                size = len(call.factored)
                rows.append((call, channel, row[:size].tolist(), count[:size]))
    return rows


@pytest.fixture(scope="module")
def measured(recording):
    """{(pass, grid): errors in eps ||T||_inf of a seeded 4 of the pass's certified values}.

    The long-double multisection (oracles.long_double_eigenvalues), started
    from value -/+ eps_norm, measures them, in one run per grid.
    """
    errors = {}
    for grid in GRIDS:
        rng, sample = np.random.default_rng(grid), []
        for name in PASSES:
            calls = [call for call in recorded_calls(recording, name, grid) if call.x is not None]
            if calls:
                picked = rng.choice(len(calls), size=min(4, len(calls)), replace=False)
                sample += [(name, calls[i]) for i in picked]
        channels = [build_operator(call.spec) for _, call in sample]
        values = np.array([call.value for _, call in sample], dtype=np.longdouble)
        scale = np.array([oracles.eps_norm(*channel) for channel in channels], dtype=np.longdouble)
        ks = [call.k for _, call in sample]
        reference = oracles.long_double_eigenvalues(channels, ks, values - scale, values + scale)
        for (name, _), error in zip(sample, abs(values - reference) / scale):
            errors.setdefault((name, grid), []).append(error)
    return errors


def assert_values_are_index_k(recording, measured, name):
    """Each oracle value of a pass is eigenvalue k of its channel.

    A value without an iterate comes from the index fallback and must equal
    index k bisected with no window (oracles.lowest_eigenvalues) to rel
    1e-14. A certified one must put long-double Sturm counts (oracles.sturm_counts)
    of k and k + 1 at value -/+ oracles.CERTIFIED_TOL eps_norm, so eigenvalue
    k lies that close, as the measured sample must too.
    """
    for grid in GRIDS:
        calls = recorded_calls(recording, name, grid)
        for call in calls:
            if call.x is None:
                reference = oracles.lowest_eigenvalues(call.spec, call.k + 1, call.k)[0]
                assert call.value == pytest.approx(reference, rel=1e-14), call.spec
        certified = [call for call in calls if call.x is not None]
        if certified:
            channels = [build_operator(call.spec) for call in certified]
            ks = np.array([call.k for call in certified])
            values = np.array([call.value for call in certified], dtype=np.longdouble)
            tol = oracles.CERTIFIED_TOL * np.array([oracles.eps_norm(*c) for c in channels], dtype=np.longdouble)
            counts = oracles.sturm_counts(channels, np.stack([values - tol, values + tol], axis=1))
            assert np.flatnonzero((counts != np.stack([ks, ks + 1], axis=1)).any(axis=1)).tolist() == [], grid
            assert max(measured[name, grid]) <= oracles.CERTIFIED_TOL, grid


def assert_verdicts(recording, name, size):
    """The pass holds size checks, and each passes exactly when it is not at 1.05 omega."""
    assert len(recording[name]) == size
    wrong = [(s.n, s.l, s.omega, p) for s, p, report, _ in recording[name] if report.passed != (p == 1.0)]
    assert wrong == []


# LAPACK runs per recorded pass, (grid points, routine) -> runs: what the oracle's speed rests on.
# The 132 states: each window factors T - shift once; the shift's own count closes one end of 90
# coarse and 93 refined windows, so those count once and the others twice; the coarse grid takes
# two solves from all ones, the refined grid one from the interpolated coarse iterate. The 64
# controls: no coarse window certifies (the first count fails and ends the check in 40), so each is
# bisected and leaves no iterate; the refined grid takes two solves from all ones, and the shift
# closes 43 of its windows. A factorization restarts dpttrf past each negative pivot off its last
# row ("restart"), about once per eigenvalue below the point it factors at.
LAPACK_TOTALS = {
    "states": {(4000, "dpttrf"): 306, (4000, "restart"): 789, (4000, "dpttrs"): 264,
               (8000, "dpttrf"): 303, (8000, "restart"): 700, (8000, "dpttrs"): 132},
    "controls": {(4000, "dpttrf"): 152, (4000, "restart"): 94, (4000, "dpttrs"): 128, (4000, "dstebz"): 64,
                 (8000, "dpttrf"): 149, (8000, "restart"): 233, (8000, "dpttrs"): 128},
}


class TestRecordedVerify:
    """verify_solution's oracle calls over the recorded passes keep eigenvalues' contract and cost."""

    @pytest.mark.parametrize("name", PASSES)
    def test_verify_asks_for_index_k_on_both_grids(self, recording, name):
        # coarse: the claim is the shift; refined: the coarse value is, started from an iterate
        # exactly when the coarse call left one
        for state, _, report, (coarse, refined) in recording[name]:
            where, problem = (state.n, state.l, state.omega), state.problem
            physics = (problem.mass, report.omega, problem.eta, problem.coupling, problem.abs_l, report.rho_max)
            assert coarse.spec == RadialOperatorSpec(*physics, report.grid_n), where
            assert refined.spec == RadialOperatorSpec(*physics, report.grid_n_refined), where
            assert coarse.k == refined.k == report.node_index == state.node_count, where
            assert (coarse.near, coarse.value) == (report.zeta_claim, report.zeta_oracle) and coarse.start is None
            assert (refined.near, refined.value) == (report.zeta_oracle, report.zeta_oracle_refined), where
            assert (refined.start is None) == (coarse.x is None), where

    @pytest.mark.parametrize("name", PASSES)
    def test_iterate_is_none_exactly_when_bisected(self, recording, name):
        # otherwise it is a unit vector whose Rayleigh quotient is the value
        for call in recorded_calls(recording, name):
            assert (call.x is None) == ("dstebz" in call.lapack), call.spec
            if call.x is not None:
                d, e = build_operator(call.spec)
                tx = d * call.x + np.append(e * call.x[1:], 0.0) + np.insert(e * call.x[:-1], 0, 0.0)
                assert abs(call.x @ call.x - 1.0) <= 1e-14
                assert abs(call.x @ tx - call.value) <= 1e-3 * oracles.eps_norm(d, e), call.spec

    @pytest.mark.parametrize("name", sorted(LAPACK_TOTALS))
    def test_lapack_totals(self, recording, name):
        assert oracles.lapack_totals(recorded_calls(recording, name)) == LAPACK_TOTALS[name]


class TestHighIndexStates:
    def test_every_state_passes(self, recording):
        assert_verdicts(recording, "high-index", 183)

    def test_window_matches_full_request(self, recording, measured):
        assert_values_are_index_k(recording, measured, "high-index")


def guard_window(case):
    """(d, e, k, window) of a _certified_window guard case on the reference channel.

    Inverse iteration leaves a window centred on a finite Rayleigh quotient
    and at least its residual norm wide, so it holds an eigenvalue; these
    windows are built by hand. A window end or shift on a zero pivot is
    chance: T - d[0] has a zero first pivot.
    """
    spec = reference_channel()
    d, e = build_operator(spec)
    z = oracles.lowest_eigenvalues(spec, 5)
    gap = z[4] - z[3]
    # eigenvalue j is the first above d[0]
    j = int(oracles.sturm_counts([(d, e)], [[np.nextafter(d[0], math.inf)]])[0, 0])
    above, following = oracles.lowest_eigenvalues(spec, j + 2, j)
    k, theta, w, shift = {
        "next-index": (3, z[4], gap / 4, z[4]),
        "two-indices": (3, (z[3] + z[4]) / 2, 0.75 * gap, (z[3] + z[4]) / 2),
        "empty": (3, z[3] + gap / 2, gap / 4, z[3] + gap / 2),
        "degenerate": (3, z[3], 0.0, z[3]),
        "reversed": (3, z[3], -gap, z[3]),
        "unbounded": (3, z[3], math.inf, z[3]),
        "nan": (3, math.nan, gap, z[3]),
        "zero-pivot-end": (j, above, above - d[0], above),
        "zero-pivot-shift": (j, above, min(above - d[0], following - above) / 2, d[0]),
    }[case]
    assert case != "zero-pivot-end" or theta - w == d[0]
    return d, e, k, oracle._Window(theta, w, shift, oracle._count_below(d, e, shift), None)


class TestWindow:
    """A window certifies index k only where Sturm counts show it holds index k alone."""

    @pytest.mark.parametrize(
        "case",
        ["next-index", "two-indices", "empty", "degenerate", "reversed", "unbounded", "nan", "zero-pivot-end"],
    )
    def test_window_without_index_k_falls_back(self, case):
        # the shift inside the window, so both ends are counted; a window end on a zero pivot
        # has no count
        assert not oracle._certified_window(*guard_window(case))

    def test_window_holding_the_indices_is_used(self, recording, measured):
        assert_values_are_index_k(recording, measured, "states")

    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    def test_shift_past_an_end_closes_it(self, factored, side):
        # a certified call that counted one window end has its shift past the other end, below
        # the value with count k or above it with count k + 1; of the states and controls, 93
        # refined and 43 control refined windows are closed below, 90 coarse windows above
        closed = [
            (call, points, counts) for call, _, points, counts in factored
            if call.x is not None and len(points) == 2 and np.sign(points[0] - call.value) == side
        ]
        assert len(closed) == {-1: 93 + 43, 1: 90}[side]
        for call, points, counts in closed:
            assert counts[0] == (call.k if side < 0 else call.k + 1), call.spec
            assert np.sign(points[1] - call.value) == -side, call.spec

    def test_negative_control_reports_index_k(self, recording, measured):
        # at 1.05 omega no eigenvalue lies within PASS_TOL of the claim
        assert_verdicts(recording, "controls", 64)
        assert_values_are_index_k(recording, measured, "controls")

    def test_failed_first_count_is_the_only_count(self, factored):
        # a bisected call counts until a count fails: where it counted both ends, the lower one
        # read k; the 40 coarse controls that count once fail at their first count
        bisected = [(call, counts) for call, _, _, counts in factored if call.x is None]
        assert len(bisected) == 64 and all(call.lapack[-1] == "dstebz" for call, _ in bisected)
        twice = [(call.k, counts[1]) for call, counts in bisected if len(counts) == 3]
        assert len(twice) == 64 - 40 and all(k == count for k, count in twice)

    def test_seeded_parity_sweep(self, recording, measured):
        """Random cells: both oracle values are index k, also for zeta^2 < 0 and alpha < 0.

        The lowest root of each cell is also checked as a 1.05 omega negative control.
        """
        assert_verdicts(recording, "sweep", 145)
        sweep = [s for s, *_ in recording["sweep"]]
        assert any(s.zeta_sq < 0.0 for s in sweep) and any(s.alpha < 0.0 for s in sweep)
        assert_values_are_index_k(recording, measured, "sweep")


class TestRayleighWindow:
    """eigenvalues(..., near=shift) returns a Rayleigh quotient that Sturm counts certify, or index k."""

    K = 3

    @pytest.fixture(scope="class")
    def full(self):
        return oracles.lowest_eigenvalues(reference_channel(), self.K + 2)

    def test_every_window_is_certified(self, recording):
        # both oracle calls of each of the 132 states leave an iterate, so no index bisection ran
        assert_verdicts(recording, "states", 132)
        assert all(call.x is not None for call in recorded_calls(recording, "states"))

    def test_negative_control_windows_certify_index_k(self, recording):
        # at 1.05 omega two inverse-iteration steps at the claim leave a residual whose window
        # spans several eigenvalues, so the coarse value is the index bisection; the refined
        # grid is shifted to that value, and its window holds index k alone
        calls = [(coarse.x is None, refined.x is None) for *_, (coarse, refined) in recording["controls"]]
        assert calls == [(True, False)] * 64

    def test_index_bisection_misses_the_certified_tol(self, recording):
        # CERTIFIED_TOL is finer than the fallback's rounding: the index bisection of the
        # coarse channels of the first 8 states strays past it
        calls = recorded_calls(recording, "states", DEFAULT_GRID_N)[:8]
        channels = [build_operator(call.spec) for call in calls]
        ks = [call.k for call in calls]
        bisected = np.array([oracles.lowest_eigenvalues(call.spec, call.k + 1, call.k)[0] for call in calls])
        scale = np.array([oracles.eps_norm(*channel) for channel in channels])
        reference = oracles.long_double_eigenvalues(channels, ks, bisected - scale, bisected + scale)
        assert max(abs(bisected - reference) / scale) > oracles.CERTIFIED_TOL

    def test_shift_at_next_index_falls_back(self, full):
        # inverse iteration finds eigenvalue k + 1, which the window's counts refuse
        value, x = eigenvalues(reference_channel(), self.K, near=full[self.K + 1])
        assert value == pytest.approx(full[self.K], rel=1e-14) and x is None

    def test_shift_between_indices_falls_back(self, full):
        # midway between eigenvalues k and k + 1 inverse iteration mixes both, and the
        # residual's window holds more than index k
        value, x = eigenvalues(reference_channel(), self.K, near=(full[self.K] + full[self.K + 1]) / 2)
        assert value == pytest.approx(full[self.K], rel=1e-14) and x is None

    def test_singular_factorization_falls_back(self, full, monkeypatch):
        # dpttrf reports a zero first pivot
        def singular_dpttrf(d, e, **_):
            d[0] = 0.0
            return d, e, 1

        lapack = oracle._flapack()
        singular = types.SimpleNamespace(dstebz=lapack.dstebz, dpttrs=lapack.dpttrs, dpttrf=singular_dpttrf)
        monkeypatch.setattr(oracle, "_flapack", lambda: singular)
        value, x = eigenvalues(reference_channel(), self.K, near=full[self.K])
        assert value == pytest.approx(full[self.K], rel=1e-14) and x is None


class TestShiftCount:
    """The count below the shift, read from the window's own factorization, closes one end."""

    def test_shift_count_is_the_sturm_count(self, factored):
        # _count_below at the shift of every call of the states and controls, on both grids
        shifts = [oracle._count_below(d, e, points[0]) for _, (d, e), points, _ in factored]
        assert shifts == [counts[0] for *_, counts in factored]

    def test_closed_windows_certify_as_both_counts_do(self, factored):
        # a certified call that counted both window ends read k at the lower, first, and k + 1 at
        # the upper; the shift closed one end of the other 226 (test_shift_past_an_end_closes_it)
        both = [
            (call, points, counts) for call, _, points, counts in factored if call.x is not None and len(points) == 3
        ]
        assert len(both) == 264 + 64 - 226
        for call, points, counts in both:
            assert counts[1:] == [call.k, call.k + 1] and points[1] < call.value < points[2], call.spec

    def test_zero_pivot_at_the_shift_counts_both_ends(self):
        # T - d[0] has a zero first pivot: the shift gives no count, so both ends are counted
        d, e, k, window = guard_window("zero-pivot-shift")
        assert window.below is None and oracle._certified_window(d, e, k, window)


class TestRefinedStart:
    """The refined grid starts inverse iteration from the coarse grid's certified iterate."""

    def test_iterate_takes_one_solve(self, recording):
        # two solves on the coarse grid, one on the refined grid from the coarse iterate, linear
        # between the coarse nodes, for each check that left one
        started = 0
        for name in PASSES:
            for state, _, report, (coarse, refined) in recording[name]:
                assert coarse.lapack.count("dpttrs") == 2, (state.n, state.l, state.omega)
                if coarse.x is None:
                    continue
                started += 1
                assert refined.lapack.count("dpttrs") == 1, (state.n, state.l, state.omega)
                rho = np.linspace(0.0, report.rho_max, report.grid_n + 2)
                rho_refined = np.linspace(0.0, report.rho_max, report.grid_n_refined + 2)[1:-1]
                expected = np.interp(rho_refined, rho, np.concatenate(([0.0], coarse.x, [0.0])))
                atol = 1e-12 * abs(coarse.x).max()
                assert np.allclose(refined.start, expected, rtol=0.0, atol=atol), (state.n, state.l, state.omega)
        # every check but the 1.05 omega controls: the 132 states, 183 high-index, 115 of the sweep
        assert started == 132 + 183 + 115

    def test_no_iterate_takes_two_solves_from_ones(self, recording):
        # the coarse values of the 64 controls at 1.05 omega are bisected and leave no iterate
        solves = [refined.lapack.count("dpttrs") for *_, (_, refined) in recording["controls"]]
        assert solves == [2] * 64


class TestCountBelow:
    """_count_below reads the long-double Sturm count (oracles.sturm_counts) from the signs of _ldl's pivots."""

    def test_every_window_end(self, factored):
        # every window end at which a call of the 132 states and 64 controls counted
        ends = [
            (oracle._count_below(d, e, x), count)
            for _, (d, e), points, counts in factored for x, count in zip(points[1:], counts[1:])
        ]
        assert [mine for mine, _ in ends] == [reference for _, reference in ends]
        # restarts past a negative pivot occur mid-matrix, and on the last row: a negative pivot on
        # the second-to-last row leaves the last row alone as the tail, and its pivot is negative too
        pivots = [oracle._ldl(d, e, x)[0] for _, (d, e), points, _ in factored for x in points]
        assert any((q[:-2] < 0.0).any() for q in pivots)
        assert any(q[-2] < 0.0 and q[-1] < 0.0 for q in pivots)

    def test_seeded_shifts(self, recording):
        # on every channel of the 132 states, a seeded shift inside the Gershgorin bounds, one
        # below them (count 0) and one above (count N); on a seeded 20 of each grid, the midpoint
        # of eigenvalues j and j + 1 (count j + 1) for a seeded j <= k + 2
        from scipy.linalg import eigh_tridiagonal

        rng = np.random.default_rng(33)
        for grid in (DEFAULT_GRID_N, 2 * DEFAULT_GRID_N):
            calls = recorded_calls(recording, "states", grid)
            channels = [build_operator(call.spec) for call in calls]
            bounds = [(d.min() - 2.0 * abs(e).max(), d.max() + 2.0 * abs(e).max()) for d, e in channels]
            shifts = np.array([[rng.uniform(low, high), low - 1.0, high + 1.0] for low, high in bounds])
            counts = [[oracle._count_below(d, e, x) for x in row] for (d, e), row in zip(channels, shifts)]
            reference = oracles.sturm_counts(channels, shifts)
            assert counts == reference.tolist(), grid
            assert set(reference[:, 1]) == {0} and set(reference[:, 2]) == {grid}
            sample = rng.choice(len(channels), size=20, replace=False)
            picked = [channels[i] for i in sample]
            js = [int(rng.integers(0, calls[i].k + 3)) for i in sample]
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

    def test_zero_pivot_is_no_count(self):
        # at x = d[0] the first pivot of T - x is 0, whatever e[0]
        d, e = build_operator(reference_channel())
        assert oracle._count_below(d, e, d[0]) is None
        assert oracle._count_below(d, np.concatenate(([0.0], e[1:])), d[0]) is None


class TestLdl:
    """_ldl's restarts and stops on hand-made matrices, each count pinned to oracles.sturm_counts."""

    @staticmethod
    def sturm_count(d, e, x):
        return int(oracles.sturm_counts([(d, e)], [[x]])[0, 0])

    @pytest.mark.parametrize("last, count", [(5.0, 1), (-5.0, 2)], ids=["positive", "negative"])
    def test_one_row_tail(self, last, count):
        # the pivot of row 6 is about -3.27, so the tail past it is the last row alone, which
        # scipy's dpttrf wrapper refuses (its e would be empty); its pivot is last + 0.31
        d, e = np.array([4.0] * 6 + [-3.0, last]), np.ones(7)
        pivots, _, below = oracle._ldl(d, e, 0.0)
        assert below == count == self.sturm_count(d, e, 0.0)
        assert pivots[-2] < 0.0 and (pivots[-1] < 0.0) == (last < 0.0)

    @pytest.mark.parametrize(
        "d, e",
        [
            ([1.0, 1.0, 3.0, 3.0, 3.0], [1.0] * 4),  # dpttrf meets it: 1 - (1/1) 1
            ([-1.0, -1.0, 3.0, 3.0, 3.0], [1.0] * 4),  # a restart meets it: -1 - (1/-1) 1
            ([3.0, 3.0, 3.0, 1.0, 1.0], [1.0, 1.0, 0.0, 1.0]),  # dpttrf, on the last row
            ([3.0, 3.0, 3.0, -1.0, -1.0], [1.0, 1.0, 0.0, 1.0]),  # the one-row tail
        ],
        ids=["middle", "middle-after-restart", "last-row", "last-row-tail"],
    )
    def test_exact_zero_pivot_is_none(self, d, e):
        # a zero pivot has no sign; just off it the counts are the Sturm counts
        d, e = np.array(d), np.array(e)
        assert oracle._ldl(d, e, 0.0) is None
        for x in (-1e-3, 1e-3):
            assert oracle._count_below(d, e, x) == self.sturm_count(d, e, x), x

    @pytest.mark.parametrize("tiny", [1e-300, -1e-300, -5e-324])
    def test_overflowing_successor_counts_exactly(self, tiny):
        # e_0^2 / q_0 leaves the double range: after a positive q_0 dpttrf makes the next pivot -inf,
        # after a negative one the restart's Python step makes it +inf; either way the count is
        # exact and no RuntimeWarning leaks (the suite makes one an error)
        d, e = np.array([tiny, 2e6, 5e6, 5e6]), np.full(3, -1e6)
        pivots, _, below = oracle._ldl(d, e, 0.0)
        assert pivots[1] == (-math.inf if tiny > 0.0 else math.inf)
        assert below == self.sturm_count(d, e, 0.0) == 1

    @pytest.mark.parametrize("most", [0, 5, None])
    def test_most_stops_the_count(self, monkeypatch, most):
        # above the Gershgorin bound every pivot is negative: each dpttrf call stops at its first
        # row, so the count takes one call per negative pivot until it passes most
        d, e = build_operator(reference_channel())
        x = d.max() + 2.0 * abs(e).max() + 1.0
        assert self.sturm_count(d, e, x) == d.size
        lapack = oracles.LoggedLapack(oracle._flapack(), d.size)
        monkeypatch.setattr(oracle, "_flapack", lambda: lapack)
        if most is None:
            # the last row is the one-row tail, which takes no call
            assert oracle._count_below(d, e, x) == d.size
            assert lapack.names == ["dpttrf"] + ["restart"] * (d.size - 2)
        else:
            assert oracle._count_below(d, e, x, most) == most + 1
            assert lapack.names == ["dpttrf"] + ["restart"] * most


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
        """Replace dstebz, the index route, and log its calls and dpttrf's by name.

        dstebz reports info and values. dpttrf factors as usual for the
        Rayleigh window, its first call (no pivot of T - 1.5 is negative), and
        on every later call, the window's eigenvalue counts, reports a zero
        first pivot when info is nonzero.
        """
        real, calls = oracle._flapack(), []

        def dstebz(d, e, select, vl, vu, il, iu, tol, order):
            calls.append("dstebz")
            return len(values), np.array(values + (0.0,) * (d.size - len(values))), None, None, info

        def dpttrf(d, e, **kwargs):
            calls.append("dpttrf")
            if calls.count("dpttrf") == 1 or info == 0:
                return real.dpttrf(d, e, **kwargs)
            d[0] = 0.0
            return d, e, 1

        lapack = types.SimpleNamespace(dstebz=dstebz, dpttrf=dpttrf, dpttrs=real.dpttrs)
        monkeypatch.setattr(oracle, "_flapack", lambda: lapack)
        return calls

    @pytest.mark.parametrize(
        "near, info, values, calls, message",
        [
            (None, 1, (1.0,), ["dstebz"], "dstebz failed on eigenvalue 3: info = 1"),
            # a count whose factorization fails ends the window, which falls back to the index
            # route, which fails too
            (1.5, 1, (1.0,), ["dpttrf", "dpttrf", "dstebz"], "dstebz failed on eigenvalue 3: info = 1"),
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
