"""Quasi-exactly-solvable spectra for a magnetic-quadrupole atom in a trap.

A neutral atom carrying a magnetic quadrupole moment, moving in a radial
electric field with Coulomb-type, linear, and harmonic confinement, admits
polynomial bound states only at quantized oscillator frequencies. This
package computes those frequencies and the matching energies and radial
wavefunctions from the power-series termination conditions (`quantize`,
`series`, `wavefunction`) and cross-checks every state against an
independent finite-difference eigensolver (`oracle`). The `heunqes` console
script exposes solve/scan/wavefunction/verify workflows.

The numpy-backed exports load their module, and numpy, at their first use,
so that the console script can set up numpy's threads before it loads.
"""

import importlib

from .errors import (
    ConvergenceFailure,
    HeunQESError,
    NonPositiveFrequency,
    NoRootInRange,
    OverflowGuard,
    QuadratureFailure,
)
from .model import PhysicalParams

__version__ = "0.1.0"

# each numpy-backed export and the module that defines it
_LAZY_EXPORTS = {
    "ReducedProblem": "quantize",
    "SpectralSolution": "quantize",
    "solve": "quantize",
    "solve_cubic": "quantize",
    "solve_frequency": "quantize",
    "RadialWavefunction": "wavefunction",
    "normalize": "wavefunction",
}


def __getattr__(name):
    if name not in _LAZY_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "ConvergenceFailure",
    "HeunQESError",
    "NonPositiveFrequency",
    "NoRootInRange",
    "OverflowGuard",
    "QuadratureFailure",
    "PhysicalParams",
    "ReducedProblem",
    "SpectralSolution",
    "solve",
    "solve_cubic",
    "solve_frequency",
    "RadialWavefunction",
    "normalize",
    "__version__",
]
