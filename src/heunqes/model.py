"""Physical configuration of a moving neutral particle with a magnetic
quadrupole moment.

The particle carries a magnetic quadrupole tensor whose only nonzero
components, in cylindrical axes (rho, phi, z), are M_rho_z = M_z_rho = -M.
It moves through a radial electric field E = (lambda*rho/2) rho_hat with no
magnetic field. The moment couples to the field motionally: the cross
product of the moment vector with E produces an effective vector potential

    A_eff = M x E = -(M*lambda/2) phi_hat,

a constant azimuthal gauge-like term. Together with a linear confinement of
strength eta and a harmonic trap of frequency omega (introduced downstream),
this yields the radial problem whose quantized frequencies the rest of the
package computes. The tensor and A_eff enter that problem only through the
signed product M*lambda*l (PhysicalParams.coupling), so neither is built here.

Units: hbar = c = 1 throughout; every quantity is already dimensionless in
that system and no unit conversion layer exists.
"""

from dataclasses import dataclass
import math

# The oracle's coarse grid in interior points (oracle.RadialOperatorSpec.n_grid), which is
# verify's --grid: its default and least value. They live in this module, which every
# command loads, so that the command line checks --grid without loading the oracle.
DEFAULT_GRID_N = 4000
MIN_GRID_N = 100


@dataclass(frozen=True)
class PhysicalParams:
    """Full parameter set of the confined particle, checked on construction.

    The Coulomb-type term that quantization needs (l != 0, M*lambda != 0) is
    not required here; ReducedProblem.from_params checks it.

    Attributes:
        mass: particle mass m > 0.
        quad: quadrupole magnitude M >= 0 (sign conventions live in lam).
        lam: electric field gradient lambda, any sign.
        eta: linear confinement strength, any sign (the harmonic term
            dominates at large rho, so bound states exist regardless).
        kz: axial wavenumber of the separated plane wave along z.
        l: azimuthal quantum number, integer, may be negative.

    Raises:
        ValueError: a non-finite entry, named by its field, a mass <= 0, a
            negative quadrupole magnitude or a non-integral l.
    """

    mass: float
    quad: float
    lam: float
    eta: float
    kz: float = 0.0
    l: int = 1

    def __post_init__(self):
        for name in ("mass", "quad", "lam", "eta", "kz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.mass <= 0:
            raise ValueError(f"mass must be > 0, got {self.mass}")
        if self.quad < 0:
            raise ValueError(f"quadrupole magnitude must be >= 0, got {self.quad}")
        if self.l != int(self.l):
            raise ValueError(f"l must be an integer, got {self.l!r}")

    @property
    def coupling(self) -> float:
        """Signed Coulomb-type strength M*lambda*l."""
        return self.quad * self.lam * self.l
