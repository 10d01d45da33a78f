"""Attribute every failure of the verify workload to one of its two known causes.

    python3 perfbench/faults.py

Runs the 132 states of the verify workload once (n = 1..12, l in {1, -1, 2},
m = M = lambda = eta = 1, default 4000/8000 grids) and, for each state whose
oracle check fails, tests two causes:

- node count: the state's node_count differs from the number of positive
  real roots of H found by numpy.roots, and the check passes when the oracle
  is compared at that index instead;
- box: the node count is right, and the check passes with rho_max = 6
  instead of oracle.default_rho_max.

Prints every failure with its cause and the split, and exits 1 if a failure
has neither cause.
"""

from __future__ import annotations

import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from heunqes import PhysicalParams, ReducedProblem, solve_cubic, solve_frequency  # noqa: E402
from heunqes.oracle import verify_solution  # noqa: E402

BOX_RHO_MAX = 6.0


def positive_roots(coefficients) -> int:
    roots = np.roots(list(reversed(coefficients)))
    return int(sum(abs(r.imag) <= 1e-9 * max(1.0, abs(r)) and r.real > 0.0 for r in roots))


def cause(state) -> str:
    nodes = positive_roots(state.coefficients)
    if nodes != state.node_count:
        return "node count" if verify_solution(replace(state, node_count=nodes)).passed else "unattributed"
    return "box" if verify_solution(state, rho_max=BOX_RHO_MAX).passed else "unattributed"


def main() -> int:
    warnings.simplefilter("ignore", RuntimeWarning)
    split, states = Counter(), 0
    for n in range(1, 13):
        for l in (1, -1, 2):
            problem = ReducedProblem.from_params(PhysicalParams(1.0, 1.0, 1.0, 1.0, l=l), n)
            for i, state in enumerate(solve_cubic(problem) if n == 1 else solve_frequency(problem)):
                states += 1
                if verify_solution(state).passed:
                    continue
                why = cause(state)
                split[why] += 1
                print(f"FAIL n={n} l={l} root={i} node_count={state.node_count}: {why}")
    print(f"{states} states, {sum(split.values())} fail: " + ", ".join(f"{v} {k}" for k, v in sorted(split.items())))
    return 1 if split["unattributed"] else 0


if __name__ == "__main__":
    sys.exit(main())
