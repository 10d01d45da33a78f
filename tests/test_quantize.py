"""Frequency quantization: parameter maps, cubic, general root-finder, energies."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from heunqes import quantize
from heunqes.errors import NonPositiveFrequency, NoRootInRange, OverflowGuard
from heunqes.model import PhysicalParams
from heunqes.quantize import (
    ReducedProblem,
    SpectralSolution,
    _cell_rows,
    _cubic_real_roots,
    _energies,
    _node_counts,
    _polish,
    _polish_newton,
    _zeta_squares,
    cubic_coefficients,
    solve,
    solve_cubic,
    solve_frequency,
)
from heunqes.series import _raw_coefficients
from heunqes.wavefunction import evaluate_R, suggested_rho_max


def problem(n=1, **overrides):
    base = dict(mass=1.0, quad=1.0, lam=1.0, eta=1.0, kz=0.0, l=1)
    base.update(overrides)
    return ReducedProblem.from_params(PhysicalParams(**base), n)


def bare_problem(mass=1.0, quad=0.0, lam=0.0, eta=0.0, kz=0.0, l=1, n=1):
    """Direct construction bypassing from_params's Coulomb and degree checks, for formula-level checks."""
    physical = PhysicalParams(mass=mass, quad=quad, lam=lam, eta=eta, kz=kz, l=l)
    return ReducedProblem(
        physical=physical,
        n=n,
        abs_l=abs(l),
        theta=2 * abs(l) + 1,
        coupling=physical.coupling,
    )


def independent_roots(m, coupling, eta, n, theta, lo, hi, points=4000):
    """Root set of c_{n+1}(omega) via the test-side recurrence and bisection."""

    def truncation(w):
        alpha = 2.0 * m * eta / (m * w) ** 1.5
        delta = coupling / (m * w) ** 0.5
        return oracles.heun_series(alpha, delta, theta, 2.0 * n, n + 1)[n + 1]

    grid = np.geomspace(lo, hi, points).tolist()
    values = [truncation(w) for w in grid]
    return [
        oracles.bisect(truncation, a, b)
        for a, b, fa, fb in zip(grid, grid[1:], values, values[1:])
        if fa * fb < 0.0
    ]


class TestReducedProblem:
    def test_reference_fields(self):
        p = problem()
        assert (p.n, p.abs_l, p.theta, p.coupling) == (1, 1, 3, 1.0)
        assert p.mass == 1.0 and p.eta == 1.0

    def test_negative_l(self):
        p = problem(l=-2)
        assert (p.abs_l, p.theta, p.coupling) == (2, 5, -2.0)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            problem(n=0)

    def test_degree_beyond_supported_rejected(self):
        with pytest.raises(ValueError):
            problem(n=51)

    def test_l_zero_rejected(self):
        with pytest.raises(ValueError, match="l must be nonzero"):
            problem(l=0)

    def test_vanishing_coupling_rejected(self):
        with pytest.raises(ValueError, match=r"M\*lambda must be nonzero"):
            problem(quad=0.0)


class TestHeunParamsAt:
    """The omega -> (alpha, delta) map of _cell_rows, which the root test and the states share."""

    def test_alpha_reference(self):
        assert _cell_rows(problem(), [1.0])[1].tolist() == [2.0]

    def test_alpha_vanishes_without_linear_term(self):
        p = problem(eta=0.0, quad=oracles.SQRT6)
        assert _cell_rows(p, [0.3, 1.0, 4.7])[1].tolist() == [0.0, 0.0, 0.0]
        assert {s.alpha for s in solve_frequency(problem(n=3, eta=0.0, quad=oracles.SQRT6))} == {0.0}

    def test_delta_reference(self):
        assert _cell_rows(problem(), [4.0])[2].tolist() == [0.5]

    def test_truncation_condition_imposed(self):
        # the state's polynomial is the recurrence at g = 2n = 6, cut at degree 3
        sol = solve_frequency(problem(n=3))[0]
        assert sol.problem.theta == 3
        assert sol.coefficients == tuple(_raw_coefficients(sol.alpha, sol.delta, 3, 6.0, 3))

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(NonPositiveFrequency):
            _cell_rows(problem(), [0.0])

    def test_frozen_reference_values(self):
        _, alpha, delta = _cell_rows(problem(), [oracles.FROZEN_OMEGA])
        (sol,) = solve_cubic(problem())
        for a, d in ((alpha.item(), delta.item()), (sol.alpha, sol.delta)):
            assert a == pytest.approx(oracles.FROZEN_ALPHA, rel=1e-12)
            assert d == pytest.approx(oracles.FROZEN_DELTA, rel=1e-12)


class TestCubicCoefficients:
    def test_reference_case(self):
        assert cubic_coefficients(problem()) == (-1.0 / 6.0, -4.0 / 3.0, -2.5)

    def test_pure_coulomb_case(self):
        a2, a1, a0 = cubic_coefficients(problem(eta=0.0, quad=oracles.SQRT6))
        assert a2 == pytest.approx(-1.0, rel=1e-15)
        assert a1 == 0.0 and a0 == 0.0

    def test_requires_degree_one(self):
        with pytest.raises(ValueError, match="the closed-form cubic exists for n = 1 only, got n = 2"):
            cubic_coefficients(problem(n=2))

    def test_matches_independent_formula(self):
        p = problem(mass=2.5, quad=3.0, lam=-0.7, eta=1.9, l=-2)
        expected = oracles.cubic_coeffs(2.5, p.coupling, 1.9, 5)
        for ours, theirs in zip(cubic_coefficients(p), expected):
            assert ours == pytest.approx(theirs, rel=1e-14)


class TestSolveCubic:
    def test_reference_root(self):
        (sol,) = solve_cubic(problem())
        assert sol.omega == pytest.approx(oracles.FROZEN_OMEGA, rel=1e-10)
        assert sol.residuals["cubic"] < 1e-12
        assert sol.node_count == 0

    def test_reference_root_against_fresh_bisection(self):
        (sol,) = solve_cubic(problem())
        assert sol.omega == pytest.approx(oracles.reference_cubic_root(), rel=1e-12)

    def test_pure_coulomb_factorization(self):
        (sol,) = solve_cubic(problem(eta=0.0, quad=oracles.SQRT6))
        assert sol.omega == pytest.approx(1.0, rel=1e-10)

    def test_vanishing_coulomb_limit(self):
        (sol,) = solve_cubic(problem(quad=1e-8))
        assert sol.omega == pytest.approx(oracles.FROZEN_LIMIT_ROOT, rel=1e-6)

    def test_three_positive_roots(self):
        roots = [s.omega for s in solve_cubic(problem(quad=10.0, l=-1))]
        assert len(roots) == 3
        for found, frozen in zip(roots, oracles.FROZEN_THREE_ROOTS):
            assert found == pytest.approx(frozen, rel=1e-10)

    def test_roots_ascending(self):
        roots = [s.omega for s in solve_cubic(problem(quad=10.0, l=-1))]
        assert roots == sorted(roots)

    @pytest.mark.parametrize(
        "overrides",
        [dict(mass=1e-60), dict(mass=1e-200), dict(mass=1e-320), dict(eta=1e80)],
        ids=["p-cubed", "a2-cubed", "infinite-coefficients", "q-squared"],
    )
    def test_overflow_is_typed(self, overrides):
        # Python's float ** raises OverflowError, its * gives inf, and inf - inf gives nan
        with pytest.raises(OverflowGuard, match="ground-state cubic overflows"):
            solve_cubic(problem(**overrides))

    @pytest.mark.parametrize("eta", [1e-14, 1e-20])
    def test_tiny_positive_eta_keeps_one_root(self, eta):
        # the cubic tends to omega^2 (omega - 1/6); its pair near zero is no root of c_2
        (sol,) = solve_cubic(problem(eta=eta))
        assert sol.omega == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_tiny_negative_eta_matches_eigen_route(self):
        # for eta < 0 the pair is genuine, near -3 eta and -5 eta, and both routes keep it
        p = problem(eta=-1e-14)
        roots = [s.omega for s in solve_cubic(p)]
        assert roots == pytest.approx([s.omega for s in solve_frequency(p)], rel=1e-9)
        assert roots == pytest.approx([3e-14, 5e-14, 1.0 / 6.0], rel=1e-9)

    def test_underflowed_cubic_has_no_root(self):
        # (M lambda l)^2 underflows, so every coefficient is zero and so is every real root
        with pytest.raises(NoRootInRange, match="^no sign change of c_2") as caught:
            solve_cubic(problem(quad=1e-170, eta=0.0))
        assert caught.type is NoRootInRange

    def test_every_root_is_quantized(self):
        for sol in solve_cubic(problem(quad=10.0, l=-1)):
            assert sol.residuals["truncation"] < 1e-10
            assert sol.residuals["truncation_next"] < 1e-10


class TestCubicRealRoots:
    @pytest.mark.parametrize(
        "roots",
        [(6.4e5, 0.004, 0.006), (1.0, 1.0, 1.0), (2.0, 2.0, -1.0)],
        ids=["wide-separation", "triple", "double"],
    )
    def test_polished_roots(self, roots):
        # the largest root comes from the closed form, the other two from the deflated quadratic
        r0, r1, r2 = roots
        a2, a1, a0 = -(r0 + r1 + r2), r0 * r1 + r0 * r2 + r1 * r2, -r0 * r1 * r2
        found = sorted(_polish_newton(w, a2, a1, a0) for w in _cubic_real_roots(a2, a1, a0))
        assert found == pytest.approx(sorted(roots), rel=1e-14)


class TestSolveFrequency:
    def test_matches_cubic_at_reference(self):
        scanned = solve_frequency(problem())
        closed = solve_cubic(problem())
        assert len(scanned) == len(closed) == 1
        assert scanned[0].omega == pytest.approx(closed[0].omega, rel=1e-10)

    def test_pure_coulomb_root(self):
        roots = [s.omega for s in solve_frequency(problem(eta=0.0, quad=oracles.SQRT6))]
        assert len(roots) == 1
        assert roots[0] == pytest.approx(1.0, rel=1e-10)

    def test_degree_two_reference(self):
        sols = solve_frequency(problem(n=2))
        assert len(sols) == 1
        assert sols[0].omega == pytest.approx(1.07197961541, rel=1e-9)
        assert sols[0].residuals["truncation"] < 1e-10

    def test_degree_three_has_two_branches(self):
        sols = solve_frequency(problem(n=3))
        assert [s.node_count for s in sols] == [0, 1]

    @pytest.mark.parametrize("l,n", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_matches_independent_scan(self, l, n):
        sols = solve_frequency(problem(n=n, l=l))
        reference = independent_roots(1.0, float(l), 1.0, n, 2 * l + 1, 0.2, 8.0)
        assert len(sols) == len(reference)
        for sol, ref in zip(sols, reference):
            assert sol.omega == pytest.approx(ref, rel=1e-10)

    def test_no_root_reports_scan_interval(self, monkeypatch):
        def no_sign_change(p, omegas):
            rows, alpha, delta = _cell_rows(p, omegas)
            rows[:2, :, p.n + 1] = 1.0  # c_{n+1} below and above every candidate
            return rows, alpha, delta

        monkeypatch.setattr("heunqes.quantize._cell_rows", no_sign_change)
        with pytest.raises(NoRootInRange, match="sign change"):
            solve_frequency(problem())

    def test_polish_fallback_matches_reference(self, monkeypatch):
        # small m, large M lambda: two eigenvalue candidates miss the sign test as they stand
        m, quad, eta, l, n = 0.0072299880932191205, 46.22974400571821, 0.22263579792399868, 4, 10
        polished = []
        monkeypatch.setattr(
            "heunqes.quantize._polish", lambda *args: polished.append(args[1]) or _polish(*args)
        )
        sols = solve_frequency(problem(n=n, mass=m, quad=quad, eta=eta, l=l))
        assert len(polished) == 2
        reference = oracles.reference_spectrum(m, quad * l, eta, n, 2 * l + 1)
        assert len(sols) == len(reference)
        for sol, (omega, nodes) in zip(sols, reference):
            assert sol.omega == pytest.approx(omega, rel=1e-9)
            assert sol.node_count == nodes

    def test_existence_for_nonzero_eta(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m, x, eta = 10.0 ** rng.uniform(-1, 1, size=3)
            l = int(rng.choice([-3, -2, -1, 1, 2, 3]))
            assert solve_cubic(problem(mass=m, quad=x, eta=eta, l=l))


class TestSolve:
    """solve picks a cell's route: the closed-form cubic at n = 1, the companion otherwise."""

    @pytest.mark.parametrize("n, route", [(1, solve_cubic), (2, solve_frequency)])
    def test_returns_the_states_of_its_route(self, n, route):
        p = problem(n=n, quad=10.0, l=-1)
        states = solve(p)
        # the records compare whole: omega, node_count, coefficients and every other field
        assert len(states) > 1 and states == route(p)
        # only the cubic route adds its residual
        assert all(("cubic" in s.residuals) == (n == 1) for s in states)


class TestScaleLaw:
    """A cell's roots depend on n, |l|, sign(M lambda l) and gamma = 2 m eta / |M lambda l|^3 alone.

    With m omega = (M lambda l)^2 X, the c_j depend on omega only through
    alpha = gamma X^(-3/2) and delta = sign(M lambda l) X^(-1/2). So a cell and its image at
    m = M lambda = 1, with eta = gamma |l|^3 / 2, have the same roots X = m omega / (M lambda l)^2.
    """

    def test_seeded_cells_match_the_unit_chart(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 31))
            l = int(rng.choice([-3, -2, -1, 1, 2, 3]))
            m, quad = 10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-1, 1)
            eta = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-1, 1)
            gamma = 2.0 * m * eta / abs(quad * l) ** 3
            cell = solve(problem(n=n, mass=m, quad=quad, eta=eta, l=l))
            # lam = 1 and quad > 0, so l carries the sign of M lambda l on both sides
            chart = solve(problem(n=n, eta=gamma * abs(l) ** 3 / 2.0, l=l))
            assert [s.node_count for s in cell] == [s.node_count for s in chart], (n, l, m, quad, eta)
            for s, u in zip(cell, chart):
                x, y = m * s.omega / (quad * l) ** 2, u.omega / l**2
                worst = max(worst, abs(x - y) / y)
        # 1.2e-12 measured at this seed
        assert worst < 1e-10


class TestCompleteness:
    """The eigenproblem finds every root that a dense independent scan brackets."""

    @pytest.mark.parametrize("n,l,eta", [(40, 1, 1.0), (50, 1, 1.0), (50, -1, 1.0), (50, 3, -1.0)])
    def test_matches_dense_log_scan(self, n, l, eta):
        sols = solve_frequency(problem(n=n, l=l, eta=eta))
        reference = independent_roots(1.0, float(l), eta, n, 2 * abs(l) + 1, 1e-4, 1e4, points=20_000)
        assert len(sols) == len(reference)
        for sol, ref in zip(sols, reference):
            assert sol.omega == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("n", [20, 30, 40, 50])
    def test_high_degree_emits_no_warning(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_frequency(problem(n=n))

    @pytest.mark.parametrize("eta", [1e-300, 1e-250, 1e-210, 5e-324, -5e-324])
    def test_tiny_eta_overflow_is_typed(self, eta):
        # the balancing scale sigma ~ (|M lambda l / (m eta)| / theta)^(1/2) has a cube past the
        # double range; at 5e-324 the scaled off-diagonal of K0 overflows as well
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowGuard, match="frequency companion overflows"):
                solve_frequency(problem(n=4, eta=eta))

    @pytest.mark.parametrize(
        "n,mass,quad,eta,l,error,message",
        [
            # m eta near 1e358: c and the scaled off-diagonal of K0 underflow, and sigma^2 with them
            (6, 9.392263089218397e211, 1.368307824923521e-12, 1.731383107406301e146, 1,
             OverflowGuard, "frequency companion overflows"),
            # an eigenvalue u with m u below the double range gives omega = 1/(m u) = inf
            (2, 2.473241998978134e-287, 5.341722406817056e89, 3.333981093116267e-295, 5,
             NonPositiveFrequency, "omega must be finite and > 0, got inf"),
        ],
        ids=["sigma-underflow", "m-u-underflow"],
    )
    def test_extreme_scale_is_typed(self, n, mass, quad, eta, l, error, message):
        # the pytest RuntimeWarning gate fails this test if either leaks a warning first
        with pytest.raises(error, match=message):
            solve_frequency(problem(n=n, mass=mass, quad=quad, eta=eta, l=l))


class TestAgainstFullCompanion:
    """The u = s^2 companion keeps every root of the full 3(n+1) companion of T(s)."""

    def test_seeded_sweep(self):
        rng = np.random.default_rng(1603)
        for _ in range(60):
            n = int(rng.integers(2, 51))
            m, coupling = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-2, 2)
            eta = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-1, 1)
            l = int(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]))
            sols = solve_frequency(problem(n=n, mass=m, quad=coupling, eta=eta, l=l))
            reference = oracles.reference_spectrum(m, coupling * l, eta, n, 2 * abs(l) + 1)
            cell = (n, m, coupling, eta, l)
            assert len(sols) == len(reference), cell
            for sol, (omega, nodes) in zip(sols, reference):
                assert sol.omega == pytest.approx(omega, rel=1e-9), cell
                assert sol.node_count == nodes, cell


class TestAgainstStraightforwardGlue:
    """The solver's array glue reproduces its straightforward form (tests/oracles.py) bit for bit."""

    def test_seeded_sweep(self, monkeypatch):
        rng = np.random.default_rng(1603_03078)
        problems = []
        for _ in range(50):
            n = int(rng.integers(2, 51))
            m, coupling = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-2, 2)
            eta = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-1, 1)
            l = int(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]))
            problems.append(problem(n=n, mass=m, quad=coupling, eta=eta, l=l))
        solved = [solve_frequency(p) for p in problems]
        monkeypatch.setattr(quantize, "_candidate_frequencies", oracles.dense_companion_candidates)
        monkeypatch.setattr(quantize, "_cell_rows", oracles.packed_cell_rows)
        fields = lambda s: (s.omega, s.energy, s.zeta_sq, s.coefficients, s.node_count, s.residuals, s.alpha, s.delta)
        for p, sols in zip(problems, solved):
            assert [fields(s) for s in sols] == [fields(s) for s in solve_frequency(p)], p
            phys = p.physical
            for s in sols:
                assert s.energy == oracles.energy_formula(
                    p.mass, phys.quad * phys.lam, p.eta, phys.kz, p.n, p.abs_l, s.omega
                )
                assert s.zeta_sq == oracles.zeta_sq_formula(p.mass, p.eta, p.n, p.abs_l, s.omega)


class TestNodeCount:
    @pytest.mark.parametrize("l", [1, -1, 2, -2, 3, -3])
    def test_matches_sampled_sign_changes(self, l):
        for n in range(1, 13):
            p = problem(n=n, l=l)
            for sol in solve(p):
                rho = np.linspace(0.0, suggested_rho_max(sol), 100_001)[1:]
                assert oracles.sign_changes(evaluate_R(sol, rho)) == sol.node_count, (n, sol.omega)

    @pytest.mark.parametrize("n,l,alpha", [(6, 1, 0.8), (12, -2, -3.1), (30, 3, 7.5)])
    def test_uncertified_probes_are_not_roots(self, n, l, alpha):
        # probe rows at delta -/+ 1e-8 of a bound on |J|, delta a quarter and three quarters of
        # the way between neighbouring eigenvalues of J, and from one such quarter point to the
        # second next: no eigenvalue or two lie between the probes, so their Sturm counts agree
        # or step by two, c_{n+1} keeps its sign and no root is made
        p = problem(n=n, l=l)
        i = np.arange(1, n + 1)
        off = np.sqrt(2.0 * (n - i + 1) * i * (i - 1 + p.theta))
        diagonal = -0.5 * alpha * (2.0 * np.arange(n + 1) + p.theta)
        mu = np.linalg.eigvalsh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))
        quarter, three_quarters = mu[:-1] + 0.25 * np.diff(mu), mu[:-1] + 0.75 * np.diff(mu)
        h = 1e-8 * (np.abs(diagonal).max() + 2.0 * off.max())
        below = np.concatenate([quarter - h, three_quarters - h, quarter[:-2], mu - h])
        above = np.concatenate([quarter + h, three_quarters + h, quarter[2:], mu + h])
        probes = np.concatenate([below, above])
        rows = _raw_coefficients(np.full(probes.shape, alpha), probes, p.theta, 2.0 * n, n + 2)
        rows = rows.reshape(2, len(below), -1)
        counts, misses = _node_counts(p, rows), 3 * n - 2
        assert counts[:misses] == [-1] * misses
        assert (np.sign(rows[0, :misses, n + 1]) == np.sign(rows[1, :misses, n + 1])).all()
        # the probes that straddle one eigenvalue of J are roots, counted from the top
        assert counts[misses:] == list(range(n, -1, -1))
        assert counts[misses:] == [oracles.dense_node_count(p, alpha, d) for d in mu.tolist()]

    def test_exact_zero_coefficient_is_not_a_root(self):
        # at theta = 3, alpha = 1 and delta = -1.5, c_1 = alpha/2 + delta/theta is exactly 0: it adds a
        # sign change, so the count steps by one towards delta = -1.25 though no eigenvalue of J lies between
        p = problem(n=6, l=1)
        rows = _raw_coefficients(np.ones(2), np.array([-1.5, -1.25]), p.theta, 12.0, 8).reshape(2, 1, -1)
        assert rows[0, 0, 1] == 0.0
        signs = np.sign(rows[:, 0, :8])
        assert (signs[:, 1:] != signs[:, :-1]).sum(axis=1).tolist() == [4, 3]
        assert _node_counts(p, rows) == [-1]

    def test_probe_counts_match_dense_on_a_seeded_sweep(self):
        rng = np.random.default_rng(1603_0309)
        states = []
        for _ in range(200):
            n = int(rng.integers(1, 51))
            m, coupling = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-2, 2)
            eta = float(rng.choice([-1.0, 0.0, 1.0])) * 10.0 ** rng.uniform(-1, 1)
            l = int(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]))
            p = problem(n=n, mass=m, quad=coupling, eta=eta, l=l)
            states += solve(p)
        assert len(states) > 1000
        for sol in states:
            assert sol.node_count == oracles.dense_node_count(sol.problem, sol.alpha, sol.delta), sol

    def test_root_decision_is_a_sign_change_of_the_truncation(self, monkeypatch):
        # every decision of the Sturm rule, on first-pass, polished and recomputed candidates, is
        # whether c_{n+1} changes sign across them in the straightforward rows of the same probes
        probed, decided, polished = {}, [], []

        def recorded_rows(p, ws):
            cell = _cell_rows(p, ws)
            probed[id(cell[0])] = (cell[0], p, ws)
            return cell

        def recorded_counts(p, rows):
            decided.append((rows, _node_counts(p, rows)))
            return decided[-1][1]

        monkeypatch.setattr(quantize, "_cell_rows", recorded_rows)
        monkeypatch.setattr(quantize, "_node_counts", recorded_counts)
        monkeypatch.setattr(quantize, "_polish", lambda *args: polished.append(args[1]) or _polish(*args))
        rng = np.random.default_rng(1603_0310)
        cells = [problem(n=n, eta=eta) for n, eta in [(10, 5e-13), (34, 5e-15)]]
        for _ in range(40):
            n = int(rng.integers(1, 51))
            m, coupling = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-2, 2)
            eta = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-1, 1)
            l = int(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]))
            cells.append(problem(n=n, mass=m, quad=coupling, eta=eta, l=l))
        for p in cells:
            solve(p)
        # the two ladder cells polish 5 and 17 candidates; each cell whose roots moved is counted again
        assert len(polished) >= 22
        assert len(decided) > len(cells) + len(polished)
        for rows, counts in decided:
            _, p, ws = probed[id(rows)]
            below, above = oracles.packed_cell_rows(p, ws)[0][:2, :, p.n + 1]
            assert [count >= 0 for count in counts] == (np.sign(below) * np.sign(above) < 0.0).tolist(), (p, ws)

    def test_negative_eta_reverses_order(self):
        # ascending omega is not ascending node count: rank would give [0, 1]
        sols = solve_frequency(problem(n=3, eta=-1.0))
        assert [round(s.omega, 3) for s in sols] == [0.677, 1.328]
        assert [s.node_count for s in sols] == [3, 2]


def energy(p, omega):
    return _energies(p, [omega])[0]


def zeta_squared(p, omega):
    return _zeta_squares(p, [omega])[0]


class TestEnergy:
    def test_pure_oscillator_formula_level(self):
        assert energy(bare_problem(), 2.0) == 6.0

    def test_reference_energy(self):
        assert energy(problem(), oracles.FROZEN_OMEGA) == pytest.approx(
            oracles.FROZEN_ENERGY, rel=1e-12
        )

    def test_axial_momentum_shift(self):
        base = energy(problem(), oracles.FROZEN_OMEGA)
        shifted = energy(problem(kz=2.0), oracles.FROZEN_OMEGA)
        assert shifted == pytest.approx(base + 2.0, rel=1e-14)

    def test_rejects_nonpositive_omega(self):
        # every energy is taken at roots whose rows _cell_rows has built, and it checks omega
        with pytest.raises(NonPositiveFrequency):
            _cell_rows(problem(), [-1.0])


class TestZetaSquared:
    def test_reference_value(self):
        assert zeta_squared(problem(), oracles.FROZEN_OMEGA) == pytest.approx(
            oracles.FROZEN_ZETA_SQ, rel=1e-12
        )

    def test_pure_oscillator_value(self):
        assert zeta_squared(problem(eta=0.0, quad=oracles.SQRT6), 1.0) == 6.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.1, max_value=10.0),
    )
    def test_identity_with_energy(self, m, x, eta, kz, l, n, omega):
        p = problem(mass=m, quad=x, eta=eta, kz=kz, l=l, n=n)
        e = energy(p, omega)
        lhs = zeta_squared(p, omega)
        rhs = 2.0 * m * e - kz**2 - (x * 1.0) ** 2 / 4.0
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestPolynomializedResidual:
    """c2(omega) * (m omega)^3 equals -m^3 p(omega)/(1 + theta) identically.

    This ties the series route to the cubic route at arbitrary omega, not
    just at roots, so agreement at the solved frequencies cannot be a
    coincidence of the root-finder.
    """

    @pytest.mark.parametrize("omega", [0.37, 1.0, 2.3, 7.9])
    def test_series_cubic_identity(self, omega):
        p = problem(mass=1.7, quad=2.2, lam=0.9, eta=-1.3, l=-2)
        alpha, delta = oracles.alpha_delta(p, omega)
        c2 = oracles.heun_series(alpha, delta, p.theta, 2.0 * p.n, 2)[2]
        a2, a1, a0 = cubic_coefficients(p)
        m_omega = p.mass * omega
        lhs = c2 * m_omega**3
        rhs = -p.mass**3 * oracles.cubic_value(omega, a2, a1, a0) / (1 + p.theta)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_polynomialized_root_residual_small(self):
        for sol in solve_cubic(problem(quad=10.0, l=-1)):
            p = sol.problem
            m_omega = p.mass * sol.omega
            coeffs = oracles.heun_series(sol.alpha, sol.delta, p.theta, 2.0 * p.n, p.n + 1)
            scaled = [abs(c) * m_omega ** (1.5 * j) for j, c in enumerate(coeffs)]
            assert scaled[p.n + 1] < 1e-10 * max(scaled[: p.n + 1])


class TestSymmetries:
    def test_coupling_product_invariance_exact(self):
        a = solve_cubic(problem(quad=2.0, lam=3.0))
        b = solve_cubic(problem(quad=3.0, lam=2.0))
        assert [s.omega for s in a] == [s.omega for s in b]
        assert [s.energy for s in a] == [s.energy for s in b]

    def test_sign_symmetry_exact(self):
        a = solve_cubic(problem(lam=0.8, l=2))
        b = solve_cubic(problem(lam=-0.8, l=-2))
        assert [s.omega for s in a] == [s.omega for s in b]
        assert [s.energy for s in a] == [s.energy for s in b]


class TestSpectralSolution:
    def test_rejects_nonpositive_omega(self):
        (sol,) = solve_cubic(problem())
        with pytest.raises(ValueError):
            replace(sol, omega=-1.0)

    def test_records_quantum_numbers(self):
        (sol,) = solve_cubic(problem(l=-2, quad=3.0))
        assert (sol.n, sol.l) == (1, -2)
        assert len(sol.coefficients) == 2
        assert sol.coefficients[0] == 1.0
