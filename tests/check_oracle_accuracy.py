"""Check every oracle value of the verify benchmark states against a long-double reference.

Runs verify_solution on the 132 states of n <= 12, l in {1, -1, 2} at
m = M = lambda = eta = 1, and at 1.05 omega on the 64 of them with n <= 8
(the negative controls), and measures both oracle values of each, 392 in
all, against a long-double Sturm multisection of the same channel
(oracles.long_double_eigenvalues), in units of eps ||T||_inf
(oracles.eps_norm). A certified value, a Rayleigh quotient, must lie within
oracles.CERTIFIED_TOL of eigenvalue k; a value of the index-bisection
fallback within 1. Prints the largest error of each kind and exits 1 when
one is exceeded. Also prints how many windows the shift's own count closed
and how many refined windows started from the coarse grid's iterate. Where
long double is no wider than double (eps >= 1e-18) there is no reference,
and it exits 0 saying so.

From the repository root:

    PYTHONPATH=src:tests python tests/check_oracle_accuracy.py
"""

import sys

import numpy as np

import oracles
from heunqes import oracle
from heunqes.model import PhysicalParams
from heunqes.oracle import RadialOperatorSpec, build_operator, verify_solution
from heunqes.quantize import ReducedProblem, solve


def checked_states():
    """(state, perturb_omega): the 132 states at their frequency, then those of n <= 8 at 1.05 omega."""
    states = []
    for n in range(1, 13):
        for l in (1, -1, 2):
            states += solve(ReducedProblem.from_params(PhysicalParams(1.0, 1.0, 1.0, 1.0, 0.0, l), n))
    return [(state, 1.0) for state in states] + [(state, 1.05) for state in states if state.n <= 8]


def closed_by_shift(k, window):
    """Whether the shift's own count closes an end of the window, so one new count is made."""
    lo, hi = window.theta - window.w, window.theta + window.w
    return (window.shift <= lo and window.below == k) or (window.shift >= hi and window.below == k + 1)


def recorded_values():
    """(spec, k, value, certified, control) for both oracle values of every checked state.

    Also counts the windows whose shift's own count closed an end, and the
    refined windows that started from the coarse grid's iterate.
    """
    certify, rayleigh, certified = oracle._certified_window, oracle._rayleigh_window, {}
    tally = {"closed": 0, "started": 0}

    def spy(d, e, k, window):
        certified[d.size] = certify(d, e, k, window)
        tally["closed"] += closed_by_shift(k, window)
        return certified[d.size]

    def started(d, e, shift, start=None):
        tally["started"] += start is not None
        return rayleigh(d, e, shift, start)

    oracle._certified_window, oracle._rayleigh_window = spy, started
    rows = []
    try:
        for state, perturb in checked_states():
            certified.clear()
            report = verify_solution(state, perturb_omega=perturb)
            problem = state.problem
            for grid, value in (
                (report.grid_n, report.zeta_oracle),
                (report.grid_n_refined, report.zeta_oracle_refined),
            ):
                spec = RadialOperatorSpec(
                    m=problem.mass,
                    omega=report.omega,
                    eta=problem.eta,
                    coulomb_strength=problem.coupling,
                    abs_l=problem.abs_l,
                    rho_max=report.rho_max,
                    n_grid=grid,
                )
                rows.append((spec, state.node_count, value, certified.get(grid, False), perturb != 1.0))
    finally:
        oracle._certified_window, oracle._rayleigh_window = certify, rayleigh
    return rows, tally


def main() -> int:
    if np.finfo(np.longdouble).eps >= 1e-18:
        print(f"skipped: long double has eps {np.finfo(np.longdouble).eps:.3g}, no reference")
        return 0
    rows, tally = recorded_values()
    errors = np.empty(len(rows))
    for grid in sorted({spec.n_grid for spec, *_ in rows}):
        picked = [i for i, (spec, *_) in enumerate(rows) if spec.n_grid == grid]
        channels = [build_operator(rows[i][0]) for i in picked]
        values = np.array([rows[i][2] for i in picked], dtype=np.longdouble)
        scale = np.array([oracles.eps_norm(*channel) for channel in channels], dtype=np.longdouble)
        ks = [rows[i][1] for i in picked]
        # a bracket that does not hold index k alone fails here, as an AssertionError
        reference = oracles.long_double_eigenvalues(channels, ks, values - scale, values + scale)
        errors[picked] = np.asarray(abs(values - reference) / scale, dtype=float)
    certified = np.array([row[3] for row in rows])
    control = np.array([row[4] for row in rows])
    print(f"{len(rows)} oracle values, {certified.sum()} certified; error in eps ||T||_inf:")
    print(f"  {tally['closed']} windows closed by the shift's own count,"
          f" {tally['started']} refined windows started from the coarse iterate")
    kinds = (("certified", certified, oracles.CERTIFIED_TOL), ("bisected", ~certified, 1.0))
    for name, share in (("states", ~control), ("controls", control)):
        for kind, mask, bound in kinds:
            chosen = errors[share & mask]
            worst = f"max {chosen.max():.4f}, median {np.median(chosen):.4f}" if chosen.size else "none"
            print(f"  {name}, {kind} ({chosen.size}): {worst} (bound {bound})")
    failed = (errors[certified] > oracles.CERTIFIED_TOL).sum() + (errors[~certified] > 1.0).sum()
    print(f"largest error {errors.max():.4f}; {failed} values out of bound")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
