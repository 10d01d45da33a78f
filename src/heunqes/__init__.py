"""Quasi-exactly-solvable spectra for a magnetic-quadrupole atom in a trap.

A neutral atom carrying a magnetic quadrupole moment, moving in a radial
electric field with Coulomb-type, linear, and harmonic confinement, admits
polynomial bound states only at quantized oscillator frequencies. This
package computes those frequencies and the matching energies and radial
wavefunctions from the power-series termination conditions (`quantize`,
`series`, `wavefunction`) and cross-checks every state against an
independent finite-difference eigensolver (`oracle`). The `heunqes` console
script exposes solve/scan/wavefunction/verify workflows.
"""

from .errors import (
    ConvergenceFailure,
    HeunQESError,
    NonPositiveFrequency,
    NoRootInRange,
    OverflowGuard,
    QuadratureFailure,
)
from .model import PhysicalParams
from .quantize import (
    ReducedProblem,
    SpectralSolution,
    solve,
    solve_cubic,
    solve_frequency,
)
from .wavefunction import RadialWavefunction, normalize

__version__ = "0.1.0"

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
