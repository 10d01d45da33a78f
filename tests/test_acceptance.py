"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Run `pytest -s tests/test_acceptance.py` to see the `[criterion N]` lines;
each test prints its line and then asserts, so a failure both shows FAIL and
fails the suite.
"""

import math
import time

import numpy as np
import pytest

import oracles
from heunqes.cli import CONFIG_ENV_VAR, main
from heunqes.model import PhysicalParams
from heunqes.oracle import (
    RadialOperatorSpec,
    default_rho_max,
    eigenvalues,
    verify_solution,
)
from heunqes.quantize import ReducedProblem, solve_cubic, solve_frequency
from heunqes.series import _raw_coefficients, evaluate_H


@pytest.fixture(autouse=True)
def _isolated_env(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


def _report(criterion: int, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {criterion}] {status}{suffix}")
    assert not failures, f"criterion {criterion}: " + "; ".join(str(f) for f in failures[:5])


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _solve_states(mass, quad, lam, eta, l, n, kz=0.0):
    params = PhysicalParams(mass=mass, quad=quad, lam=lam, eta=eta, kz=kz, l=l)
    problem = ReducedProblem.from_params(params, n)
    states = solve_cubic(problem) if n == 1 else solve_frequency(problem)
    return sorted(states, key=lambda s: s.omega)


@pytest.fixture(scope="module")
def dual_route_draws():
    """200 seeded degree-1 parameter draws solved by both frequency routes."""
    rng = np.random.default_rng(20260814)
    draws = []
    start = time.perf_counter()
    for _ in range(200):
        mass = 10.0 ** rng.uniform(-1.0, 1.0)
        product = 10.0 ** rng.uniform(-1.0, 1.0)  # the coupling product M*lambda*l
        eta = 10.0 ** rng.uniform(-1.0, 1.0)
        l = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        problem = ReducedProblem.from_params(
            PhysicalParams(mass=mass, quad=1.0, lam=product / l, eta=eta, kz=0.0, l=l), 1
        )
        closed = sorted(solve_cubic(problem), key=lambda s: s.omega)
        scanned = sorted(solve_frequency(problem), key=lambda s: s.omega)
        draws.append((problem, closed, scanned))
    elapsed = time.perf_counter() - start
    return draws, elapsed


@pytest.fixture(scope="module")
def reference_states():
    """m = M = lambda = eta = 1, l in {1, 2}, n in {1, 2, 3}: all 8 states."""
    states = []
    for l in (1, 2):
        for n in (1, 2, 3):
            states.extend(_solve_states(1.0, 1.0, 1.0, 1.0, l, n))
    return states


def test_criterion_1_dual_route_agreement(dual_route_draws):
    draws, elapsed = dual_route_draws
    failures = []
    for i, (problem, closed, scanned) in enumerate(draws):
        if len(closed) != len(scanned):
            failures.append(f"draw {i}: {len(closed)} closed-form vs {len(scanned)} scanned roots")
            continue
        for a, b in zip(closed, scanned):
            if _rel(a.omega, b.omega) > 1e-10:
                failures.append(f"draw {i}: omega mismatch {a.omega} vs {b.omega}")
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _report(1, failures, f"200 draws, both routes, {elapsed:.2f}s")


def test_criterion_2_truncation_property(dual_route_draws):
    draws, _ = dual_route_draws
    failures = []
    checked = 0
    for i, (_, closed, scanned) in enumerate(draws):
        for state in closed + scanned:
            checked += 1
            for key in ("truncation", "truncation_next"):
                if not state.residuals[key] < 1e-10:
                    failures.append(f"draw {i}: {key} = {state.residuals[key]:.3e}")
    _report(2, failures, f"{checked} states, |c_n+1|, |c_n+2| < 1e-10 * max|c_j|")


def test_criterion_3_oracle_cross_validation(reference_states):
    assert len(reference_states) == 8
    failures = []
    start = time.perf_counter()
    for state in reference_states:
        report = verify_solution(state)
        tag = f"n={state.n} l={state.l} omega={state.omega:.6f}"
        if not report.deviation < 1e-3:
            failures.append(f"{tag}: deviation {report.deviation:.3e}")
        if not 3.0 <= report.ratio <= 5.0:
            failures.append(f"{tag}: doubling ratio {report.ratio:.3f} outside [3, 5]")
        if not report.passed:
            failures.append(f"{tag}: oracle comparison did not pass")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(3, failures, f"8 states, N=4000 vs 8000, {elapsed:.1f}s")


def test_criterion_4_negative_control(reference_states):
    failures = []
    for state in reference_states:
        report = verify_solution(state, perturb_omega=1.05)
        tag = f"n={state.n} l={state.l}"
        if report.passed:
            failures.append(f"{tag}: perturbed frequency still passes")
        if not report.deviation > 1e-2:
            failures.append(f"{tag}: perturbed deviation {report.deviation:.3e} <= 1e-2")
    _report(4, failures, "omega x1.05 breaks every oracle match by > 10x tolerance")


def test_criterion_5_oscillator_regression():
    failures = []
    rho_max = default_rho_max(1.0, 1.0, 0.0, oracles.oscillator_level(1.0, 1.0, 1, 2) + 10.0)
    channel = RadialOperatorSpec(
        m=1.0, omega=1.0, eta=0.0, coulomb_strength=0.0, abs_l=1, rho_max=rho_max, n_grid=4000
    )
    for k, expected in enumerate((4.0, 8.0, 12.0)):
        got = eigenvalues(channel, k)
        if _rel(got, expected) > 1e-3:
            failures.append(f"oscillator zeta^2[{k}] = {got:.6f}, want {expected}")
    coeffs = _raw_coefficients(0.0, 0.0, 3, 4.0, 4)  # alpha = delta = 0, theta = 3, g = 2n = 4
    if coeffs != [1.0, 0.0, -0.5, 0.0, 0.0]:
        failures.append(f"series coefficients {coeffs} != (1, 0, -1/2, 0, 0)")
    if coeffs[3] != 0.0:
        failures.append("truncation residual at degree 2 not exactly zero")
    if abs(evaluate_H(coeffs, math.sqrt(2.0))) > 1e-15:
        failures.append("H(sqrt(2)) != 0 for H = 1 - xi^2/2")
    _report(5, failures, "oracle ladder {4, 8, 12} and exact series truncation")


def test_criterion_6_reference_numbers():
    (state,) = _solve_states(1.0, 1.0, 1.0, 1.0, 1, 1)
    c1 = state.coefficients[1]
    failures = []
    tight = [
        ("omega", state.omega, oracles.FROZEN_OMEGA),
        ("energy", state.energy, oracles.FROZEN_ENERGY),
        ("zeta_sq", state.zeta_sq, oracles.FROZEN_ZETA_SQ),
        ("c1", c1, oracles.FROZEN_C1),
    ]
    for name, got, frozen in tight:
        if _rel(got, frozen) > 1e-10:
            failures.append(f"{name} = {got!r} drifted from frozen {frozen!r}")
    display = [
        ("omega", state.omega, oracles.DISPLAY_OMEGA),
        ("energy", state.energy, oracles.DISPLAY_ENERGY),
        ("zeta_sq", state.zeta_sq, oracles.DISPLAY_ZETA_SQ),
        ("c1", c1, oracles.DISPLAY_C1),
    ]
    for name, got, rounded in display:
        if _rel(got, rounded) > oracles.DISPLAY_TOL:
            failures.append(f"{name} = {got!r} does not round to {rounded}")
    if not state.residuals["cubic"] < 1e-12:
        failures.append(f"cubic residual {state.residuals['cubic']:.3e}")
    if state.node_count != 0:
        failures.append(f"node count {state.node_count} != 0")
    _report(6, failures, "omega 1.7479, E 5.2051, zeta^2 10.1601, c1 0.6849, 0 nodes")


def test_criterion_7_symmetry_suite():
    rng = np.random.default_rng(715)
    failures = []
    solved = 0
    for i in range(100):
        mass = 10.0 ** rng.uniform(-1.0, 1.0)
        product = 10.0 ** rng.uniform(-1.0, 1.0)  # M*lambda, sign carried by lam
        eta = 10.0 ** rng.uniform(-1.0, 1.0)
        split = 10.0 ** rng.uniform(-0.3, 0.3)
        l = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        n = 2 if i % 10 == 0 else 1
        base = _solve_states(mass, product, 1.0, eta, l, n)
        variants = {
            "factor swap": _solve_states(mass, 1.0, product, eta, l, n),
            "factor split": _solve_states(mass, product / split, split, eta, l, n),
            "sign mirror": _solve_states(mass, product, -1.0, eta, -l, n),
        }
        solved += len(base)
        for label, states in variants.items():
            if len(states) != len(base):
                failures.append(f"draw {i} {label}: root count changed")
                continue
            for a, b in zip(base, states):
                if _rel(a.omega, b.omega) > 1e-12 or _rel(a.energy, b.energy) > 1e-12:
                    failures.append(f"draw {i} {label}: omega/energy moved")
    _report(7, failures, f"100 draws x 3 symmetry variants, {solved} base states")


def test_criterion_8_energy_identity(dual_route_draws, reference_states):
    draws, _ = dual_route_draws
    states = [s for _, closed, scanned in draws for s in closed + scanned]
    states += reference_states
    states += _solve_states(1.0, 1.0, 1.0, 1.0, 1, 1, kz=2.0)
    failures = []
    for state in states:
        p = state.problem.physical
        shifted = 2.0 * p.mass * state.energy - p.kz**2 - (p.quad * p.lam) ** 2 / 4.0
        scale = max(
            abs(2.0 * p.mass * state.energy), p.kz**2, (p.quad * p.lam) ** 2 / 4.0,
            abs(state.zeta_sq), 1e-300,
        )
        if abs(state.zeta_sq - shifted) / scale > 1e-12:
            failures.append(
                f"n={state.n} l={state.l} kz={p.kz}: zeta^2 off by "
                f"{abs(state.zeta_sq - shifted) / scale:.3e}"
            )
    _report(8, failures, f"{len(states)} states incl. kz=2, zeta^2 = 2mE - k^2 - (M lambda)^2/4")


def test_criterion_9_scan_determinism(tmp_path):
    args = ["scan", "--n-max", "3", "--l-list", "1,2,-1,-2", "--format", "csv"]
    first = tmp_path / "scan_a.csv"
    second = tmp_path / "scan_b.csv"
    failures = []
    if main(args + ["--output", str(first)]) != 0:
        failures.append("first scan exited nonzero")
    if main(args + ["--output", str(second)]) != 0:
        failures.append("second scan exited nonzero")
    blob_a, blob_b = first.read_bytes(), second.read_bytes()
    if blob_a != blob_b:
        failures.append("scan outputs are not byte-identical")
    rows = [line for line in blob_a.decode().splitlines() if not line.startswith("#")]
    if len(rows) < 1 + 12:  # header row + at least one root per (n, l) cell
        failures.append(f"scan produced only {len(rows)} rows")
    _report(9, failures, "n <= 3, l in {+-1, +-2}, byte-identical across runs")
