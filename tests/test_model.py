"""Physical configuration: parameters, coupling product, validation.

PhysicalParams checks its fields on construction; the Coulomb-type term that
quantization needs is checked by ReducedProblem.from_params.
"""

import math

import pytest

from heunqes.model import PhysicalParams
from heunqes.quantize import ReducedProblem


def params(**overrides):
    base = dict(mass=1.0, quad=1.0, lam=1.0, eta=1.0, kz=0.0, l=1)
    base.update(overrides)
    return PhysicalParams(**base)


def quantized(p):
    return ReducedProblem.from_params(p, 1)


class TestValidate:
    def test_reference_accepted(self):
        p = params()
        assert quantized(p).physical is p

    def test_zero_angular_momentum(self):
        with pytest.raises(ValueError, match="l must be nonzero"):
            quantized(params(l=0))

    def test_zero_l_allowed_without_coulomb(self):
        assert params(l=0).coupling == 0.0

    def test_negative_mass(self):
        with pytest.raises(ValueError, match=r"mass must be > 0, got -1.0"):
            params(mass=-1.0)

    def test_zero_mass(self):
        with pytest.raises(ValueError, match=r"mass must be > 0, got 0.0"):
            params(mass=0.0)

    def test_vanishing_quadrupole_coupling(self):
        with pytest.raises(ValueError, match=r"M\*lambda must be nonzero"):
            quantized(params(quad=0.0))

    def test_vanishing_gradient_coupling(self):
        with pytest.raises(ValueError, match=r"M\*lambda must be nonzero"):
            quantized(params(lam=0.0))

    def test_coupling_not_required_by_default(self):
        assert params(quad=0.0).coupling == 0.0

    def test_non_finite_rejected(self):
        # the message names the field, as the CLI reports it
        for field in ("mass", "quad", "lam", "eta", "kz"):
            with pytest.raises(ValueError, match=f"^{field} must be finite, got nan$"):
                params(**{field: math.nan})

    def test_negative_quad_magnitude_rejected(self):
        with pytest.raises(ValueError):
            params(quad=-1.0)

    def test_fractional_l_rejected(self):
        with pytest.raises(ValueError):
            params(l=1.5)


class TestPhysicalParams:
    def test_coupling_product(self):
        assert params(quad=2.0, lam=3.0, l=-2).coupling == -12.0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            params().mass = 2.0
