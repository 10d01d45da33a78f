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

from .errors import NonPositiveMass, VanishingCoupling, ZeroAngularMomentum


@dataclass(frozen=True)
class PhysicalParams:
    """Full parameter set of the confined particle.

    Attributes:
        mass: particle mass m > 0.
        quad: quadrupole magnitude M >= 0 (sign conventions live in lam).
        lam: electric field gradient lambda, any sign.
        eta: linear confinement strength, any sign (the harmonic term
            dominates at large rho, so bound states exist regardless).
        kz: axial wavenumber of the separated plane wave along z.
        l: azimuthal quantum number, integer, may be negative.
    """

    mass: float
    quad: float
    lam: float
    eta: float
    kz: float = 0.0
    l: int = 1

    @property
    def coupling(self) -> float:
        """Signed Coulomb-type strength M*lambda*l."""
        return self.quad * self.lam * self.l


def validate(params: PhysicalParams, require_coulomb: bool = False) -> PhysicalParams:
    """Check physical preconditions and return the params unchanged.

    Args:
        params: candidate parameter set.
        require_coulomb: when set, additionally require the Coulomb-type term
            to be present (l != 0 and M*lambda != 0), which every frequency
            quantization operation needs.

    Returns:
        The same object, so validation is idempotent and chainable.

    Raises:
        NonPositiveMass: mass <= 0.
        ZeroAngularMomentum: l == 0 with require_coulomb.
        VanishingCoupling: M*lambda == 0 with require_coulomb.
        ValueError: non-finite entries, negative quadrupole magnitude, or a
            non-integral l.
    """
    fields = (params.mass, params.quad, params.lam, params.eta, params.kz)
    if not all(math.isfinite(v) for v in fields):
        raise ValueError(f"non-finite physical parameter in {params}")
    if params.mass <= 0:
        raise NonPositiveMass(f"mass must be > 0, got {params.mass}")
    if params.quad < 0:
        raise ValueError(f"quadrupole magnitude must be >= 0, got {params.quad}")
    if params.l != int(params.l):
        raise ValueError(f"l must be an integer, got {params.l!r}")
    if require_coulomb:
        if params.l == 0:
            raise ZeroAngularMomentum(
                "l must be nonzero: the Coulomb-type term M*lambda*l/rho vanishes "
                "at l = 0 and the frequency quantization is undefined"
            )
        if params.quad * params.lam == 0.0:
            raise VanishingCoupling(
                "M*lambda must be nonzero for the quantized problem"
            )
    return params
