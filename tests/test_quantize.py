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
from heunqes.errors import (
    NonPositiveFrequency,
    NoRootInRange,
    OverflowGuard,
    VanishingCoupling,
    WrongDegree,
    ZeroAngularMomentum,
)
from heunqes.model import PhysicalParams
from heunqes.quantize import (
    ReducedProblem,
    SpectralSolution,
    _alpha_delta,
    _cell_rows,
    _energies,
    _node_count,
    _node_counts,
    _polish,
    _zeta_squares,
    cubic_coefficients,
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
    """Direct construction bypassing validation, for formula-level checks."""
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
        with pytest.raises(ZeroAngularMomentum):
            problem(l=0)

    def test_vanishing_coupling_rejected(self):
        with pytest.raises(VanishingCoupling):
            problem(quad=0.0)


class TestHeunParamsAt:
    """The omega -> (alpha, delta) map shared by the root solver and the states."""

    def test_alpha_reference(self):
        assert _alpha_delta(problem(), 1.0)[0] == 2.0

    def test_alpha_vanishes_without_linear_term(self):
        p = problem(eta=0.0, quad=oracles.SQRT6)
        for omega in (0.3, 1.0, 4.7):
            assert _alpha_delta(p, omega)[0] == 0.0

    def test_delta_reference(self):
        assert _alpha_delta(problem(), 4.0)[1] == 0.5

    def test_truncation_condition_imposed(self):
        # the state's polynomial is the recurrence at g = 2n = 6, cut at degree 3
        sol = solve_frequency(problem(n=3))[0]
        hp = sol.heun
        assert hp.theta == 3
        assert sol.coefficients == tuple(_raw_coefficients(hp.alpha, hp.delta, 3, 6.0, 3))

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(NonPositiveFrequency):
            _alpha_delta(problem(), 0.0)

    def test_frozen_reference_values(self):
        alpha, delta = _alpha_delta(problem(), oracles.FROZEN_OMEGA)
        assert alpha == pytest.approx(oracles.FROZEN_ALPHA, rel=1e-12)
        assert delta == pytest.approx(oracles.FROZEN_DELTA, rel=1e-12)


class TestCubicCoefficients:
    def test_reference_case(self):
        assert cubic_coefficients(problem()) == (-1.0 / 6.0, -4.0 / 3.0, -2.5)

    def test_pure_coulomb_case(self):
        a2, a1, a0 = cubic_coefficients(problem(eta=0.0, quad=oracles.SQRT6))
        assert a2 == pytest.approx(-1.0, rel=1e-15)
        assert a1 == 0.0 and a0 == 0.0

    def test_requires_degree_one(self):
        with pytest.raises(WrongDegree):
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

    def test_every_root_is_quantized(self):
        for sol in solve_cubic(problem(quad=10.0, l=-1)):
            assert sol.residuals["truncation"] < 1e-10
            assert sol.residuals["truncation_next"] < 1e-10


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

    def test_probe_values_near_the_overflow_limit_emit_no_warning(self):
        # c_{n+1} nears OVERFLOW_LIMIT at both probes here, so their product overflowed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_frequency(problem(n=34, mass=6.13e-4, quad=1603.4, eta=-0.286, l=5))

    @pytest.mark.parametrize("eta", [1e-300, 1e-250, 1e-210, 5e-324, -5e-324])
    def test_tiny_eta_overflow_is_typed(self, eta):
        # the balancing scale sigma ~ (|M lambda l / (m eta)| / theta)^(1/2) has a cube past the
        # double range; at 5e-324 the scaled off-diagonal of K0 overflows as well
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowGuard, match="frequency companion overflows"):
                solve_frequency(problem(n=4, eta=eta))


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
        fields = lambda s: (s.omega, s.energy, s.zeta_sq, s.coefficients, s.node_count, s.residuals, s.heun)
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
            for sol in solve_cubic(p) if n == 1 else solve_frequency(p):
                rho = np.linspace(0.0, suggested_rho_max(sol), 100_001)[1:]
                assert oracles.sign_changes(evaluate_R(sol, rho)) == sol.node_count, (n, sol.omega)

    @pytest.mark.parametrize("n,l,alpha", [(6, 1, 0.8), (12, -2, -3.1), (30, 3, 7.5)])
    def test_uncertified_counts_fall_back_to_dense(self, n, l, alpha, monkeypatch):
        # probe rows at delta -/+ 1e-8 of a bound on |J|, delta a quarter and three quarters of
        # the way between neighbouring eigenvalues of J: no eigenvalue lies between the probes,
        # so their Sturm counts agree and cannot certify the state
        p = problem(n=n, l=l)
        i = np.arange(1, n + 1)
        off = np.sqrt(2.0 * (n - i + 1) * i * (i - 1 + p.theta))
        diagonal = -0.5 * alpha * (2.0 * np.arange(n + 1) + p.theta)
        mu = np.linalg.eigvalsh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))
        delta = np.concatenate([mu[:-1] + 0.25 * np.diff(mu), mu[:-1] + 0.75 * np.diff(mu), mu])
        h = 1e-8 * (np.abs(diagonal).max() + 2.0 * off.max())
        probes = np.concatenate([delta - h, delta + h])
        rows = _raw_coefficients(np.full(probes.shape, alpha), probes, p.theta, 2.0 * n, n + 2)
        dense = []
        monkeypatch.setattr(
            "heunqes.quantize._node_count", lambda *args: dense.append(args) or _node_count(*args)
        )
        counts = _node_counts(p, (rows.reshape(2, len(delta), -1), np.full(delta.shape, alpha), delta))
        assert len(dense) == 2 * n
        assert counts == [_node_count(p, alpha, d) for d in delta.tolist()]
        assert counts[2 * n :] == list(range(n, -1, -1))

    def test_probe_counts_match_dense_on_a_seeded_sweep(self, monkeypatch):
        # every state's count comes from its probe rows: the dense fallback never fires
        dense = []
        monkeypatch.setattr(
            "heunqes.quantize._node_count", lambda *args: dense.append(args) or _node_count(*args)
        )
        rng = np.random.default_rng(1603_0309)
        states = []
        for _ in range(200):
            n = int(rng.integers(1, 51))
            m, coupling = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-2, 2)
            eta = float(rng.choice([-1.0, 0.0, 1.0])) * 10.0 ** rng.uniform(-1, 1)
            l = int(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]))
            p = problem(n=n, mass=m, quad=coupling, eta=eta, l=l)
            states += solve_cubic(p) if n == 1 else solve_frequency(p)
        assert not dense
        assert len(states) > 1000
        for sol in states:
            assert sol.node_count == _node_count(sol.problem, sol.heun.alpha, sol.heun.delta), sol

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
        alpha, delta = _alpha_delta(p, omega)
        c2 = oracles.heun_series(alpha, delta, p.theta, 2.0 * p.n, 2)[2]
        a2, a1, a0 = cubic_coefficients(p)
        m_omega = p.mass * omega
        lhs = c2 * m_omega**3
        rhs = -p.mass**3 * oracles.cubic_value(omega, a2, a1, a0) / (1 + p.theta)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_polynomialized_root_residual_small(self):
        for sol in solve_cubic(problem(quad=10.0, l=-1)):
            p, hp = sol.problem, sol.heun
            m_omega = p.mass * sol.omega
            coeffs = oracles.heun_series(hp.alpha, hp.delta, hp.theta, 2.0 * p.n, p.n + 1)
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
