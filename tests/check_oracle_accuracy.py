"""Check every oracle value of the verify benchmark states against a long-double reference.

Runs verify_solution on the 132 states of n <= 12, l in {1, -1, 2} at
m = M = lambda = eta = 1, and at 1.05 omega on the 64 of them with n <= 8
(the negative controls), recording its oracle calls (oracles.record_verify),
and measures the value of each, 392 in all, against a long-double Sturm
multisection of the same channel (oracles.long_double_eigenvalues), in units
of eps ||T||_inf (oracles.eps_norm). A certified value, one that comes with
its iterate, must lie within oracles.CERTIFIED_TOL of eigenvalue k; a value
of the index-bisection fallback within 1. Prints the largest error of each
kind and exits 1 when one is exceeded. Also prints the LAPACK runs of each
pass by grid (dpttrf factorizations, their restarts past a negative pivot,
dpttrs and dstebz), and how many windows of the seeded 30-cell sweep
(oracles.seeded_sweep) certify. Where long double is no wider than double
(eps >= 1e-18) there is no reference, and it exits 0 saying so.

From the repository root:

    PYTHONPATH=src:tests python tests/check_oracle_accuracy.py
"""

import sys

import numpy as np

import oracles
from heunqes.oracle import build_operator


def main() -> int:
    if np.finfo(np.longdouble).eps >= 1e-18:
        print(f"skipped: long double has eps {np.finfo(np.longdouble).eps:.3g}, no reference")
        return 0
    states = oracles.benchmark_states()
    passes = {"states": [(s, 1.0) for s in states], "controls": [(s, 1.05) for s in states if s.n <= 8]}
    calls = {name: [c for s, p in checks for c in oracles.record_verify(s, p)[1]] for name, checks in passes.items()}
    every = calls["states"] + calls["controls"]
    errors = np.empty(len(every))
    for grid in sorted({call.spec.n_grid for call in every}):
        picked = [i for i, call in enumerate(every) if call.spec.n_grid == grid]
        channels = [build_operator(every[i].spec) for i in picked]
        values = np.array([every[i].value for i in picked], dtype=np.longdouble)
        scale = np.array([oracles.eps_norm(*channel) for channel in channels], dtype=np.longdouble)
        ks = [every[i].k for i in picked]
        # a bracket that does not hold index k alone fails here, as an AssertionError
        reference = oracles.long_double_eigenvalues(channels, ks, values - scale, values + scale)
        errors[picked] = np.asarray(abs(values - reference) / scale, dtype=float)
    certified = np.array([call.x is not None for call in every])
    control = np.arange(len(every)) >= len(calls["states"])
    print(f"{len(every)} oracle values, {certified.sum()} certified; error in eps ||T||_inf:")
    for name, pass_calls in calls.items():
        totals = oracles.lapack_totals(pass_calls)
        for grid in sorted({grid for grid, _ in totals}):
            routines = ("dpttrf", "restart", "dpttrs", "dstebz")
            runs = ", ".join(f"{routine} {totals[grid, routine]}" for routine in routines)
            print(f"  LAPACK runs, {name} at {grid} points: {runs}")
    sweep = [c for s, p in oracles.seeded_sweep() for c in oracles.record_verify(s, p)[1]]
    print(f"  seeded sweep: {sum(c.x is not None for c in sweep)} of {len(sweep)} windows certified")
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
