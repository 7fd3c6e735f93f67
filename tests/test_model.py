import cmath
import dataclasses
import math

import pytest

from qbm import (
    HbarZero,
    NonPositiveCurvature,
    NonPositiveMass,
    NonPositiveTemperature,
    derive,
)


class TestDeriveValidation:
    def test_rejects_nonpositive_mass(self):
        with pytest.raises(NonPositiveMass):
            derive(0.0, 1.0, 0.16, 1.0)
        with pytest.raises(NonPositiveMass):
            derive(-2.0, 1.0, 0.16, 1.0)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(NonPositiveTemperature):
            derive(1.0, 1.0, 0.16, 0.0)

    def test_rejects_nonpositive_curvature(self):
        with pytest.raises(NonPositiveCurvature):
            derive(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(NonPositiveCurvature):
            derive(1.0, 1.0, -0.1, 1.0)

    def test_rejects_negative_gamma_and_hbar(self):
        with pytest.raises(ValueError):
            derive(1.0, -0.5, 0.16, 1.0)
        with pytest.raises(ValueError):
            derive(1.0, 1.0, 0.16, 1.0, hbar=-1.0)

    def test_rejects_unknown_unit_mode(self):
        with pytest.raises(ValueError):
            derive(1.0, 1.0, 0.16, 1.0, unit_mode="cgs")

    def test_params_frozen(self):
        p = derive(1.0, 1.0, 0.16, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.gamma = 2.0


class TestRateRoots:
    def test_overdamped_roots_explicit(self, p_over):
        assert p_over.regime == "overdamped"
        assert p_over.lambda1 == pytest.approx(0.8, abs=1e-15)
        assert p_over.lambda2 == pytest.approx(0.2, abs=1e-15)
        assert p_over.omega == pytest.approx(0.6, abs=1e-15)

    @pytest.mark.parametrize(
        "gamma,omega0_sq,M",
        [(1.0, 0.16, 1.0), (0.5, 1.0, 1.0), (2.0, 1.0, 1.0), (3.0, 0.7, 2.5)],
    )
    def test_root_sum_and_product(self, gamma, omega0_sq, M):
        p = derive(M, gamma, omega0_sq, 1.0)
        assert p.lambda1 + p.lambda2 == pytest.approx(gamma, rel=1e-14)
        # the second root is constructed from the product identity, so the
        # product holds to roundoff even when the roots are wildly separated
        assert p.lambda1 * p.lambda2 == pytest.approx(omega0_sq / M, rel=1e-14)

    def test_roots_satisfy_characteristic_equation(self, p_under):
        for lam in (p_under.lambda1, p_under.lambda2):
            val = lam * lam - p_under.gamma * lam + p_under.omega0_sq / p_under.M
            assert abs(val) < 1e-14

    def test_underdamped_conjugate_pair(self, p_under):
        assert p_under.regime == "underdamped"
        assert p_under.lambda1 == pytest.approx(p_under.lambda2.conjugate(), rel=1e-14)
        assert p_under.omega.real == 0.0
        assert p_under.omega.imag > 0.0

    def test_critical_classification_window(self):
        p = derive(1.0, 2.0, 1.0, 1.0)
        assert p.regime == "critical"
        # relative discriminant below the 1e-12*gamma^2 window is critical
        p2 = derive(1.0, 2.0, 1.0 - 1e-14, 1.0)
        assert p2.regime == "critical"
        p3 = derive(1.0, 2.0, 1.0 - 1e-9, 1.0)
        assert p3.regime == "overdamped"

    def test_principal_root_has_larger_real_part(self):
        p = derive(1.0, 3.0, 0.5, 1.0)
        assert p.lambda1.real > p.lambda2.real


class TestMatsubara:
    def test_nu_value(self, pq_over):
        beta = 1.0 / pq_over.kT
        assert pq_over.matsubara_nu() == pytest.approx(
            2.0 * math.pi / (pq_over.hbar * beta), rel=1e-15
        )

    def test_classical_params_raise(self, p_over):
        assert p_over.is_classical
        with pytest.raises(HbarZero):
            p_over.matsubara_nu()

    def test_si_units_scale_kt(self):
        p = derive(1e-20, 1.0, 0.16, 300.0, unit_mode="si")
        assert p.k_B == pytest.approx(1.380649e-23)
        assert p.kT == pytest.approx(300.0 * 1.380649e-23)

