"""Physical configuration: parameters, coupling product, validation."""

import math

import pytest

from heunqes.errors import NonPositiveMass, VanishingCoupling, ZeroAngularMomentum
from heunqes.model import PhysicalParams, validate


def params(**overrides):
    base = dict(mass=1.0, quad=1.0, lam=1.0, eta=1.0, kz=0.0, l=1)
    base.update(overrides)
    return PhysicalParams(**base)


class TestValidate:
    def test_reference_accepted(self):
        p = params()
        assert validate(p, require_coulomb=True) is p

    def test_idempotent(self):
        p = params()
        assert validate(validate(p)) is p

    def test_zero_angular_momentum(self):
        with pytest.raises(ZeroAngularMomentum, match="l must be nonzero"):
            validate(params(l=0), require_coulomb=True)

    def test_zero_l_allowed_without_coulomb(self):
        p = params(l=0)
        assert validate(p) is p

    def test_negative_mass(self):
        with pytest.raises(NonPositiveMass):
            validate(params(mass=-1.0))

    def test_zero_mass(self):
        with pytest.raises(NonPositiveMass):
            validate(params(mass=0.0))

    def test_vanishing_quadrupole_coupling(self):
        with pytest.raises(VanishingCoupling):
            validate(params(quad=0.0), require_coulomb=True)

    def test_vanishing_gradient_coupling(self):
        with pytest.raises(VanishingCoupling):
            validate(params(lam=0.0), require_coulomb=True)

    def test_coupling_not_required_by_default(self):
        p = params(quad=0.0)
        assert validate(p) is p

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            validate(params(eta=math.nan))

    def test_negative_quad_magnitude_rejected(self):
        with pytest.raises(ValueError):
            validate(params(quad=-1.0))

    def test_fractional_l_rejected(self):
        with pytest.raises(ValueError):
            validate(params(l=1.5))


class TestPhysicalParams:
    def test_coupling_product(self):
        assert params(quad=2.0, lam=3.0, l=-2).coupling == -12.0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            params().mass = 2.0
