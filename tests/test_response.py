import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq

from qbm import (
    PoleAtChiQZero,
    chi_q,
    chi_q_dot,
    chi_v,
    chi_v_dot,
    derive,
    drift_velocity,
    omega_drift,
    pole_times,
)
from qbm.response import (
    _SERIES_CUT,
    _chi_all,
    _real_cast,
    coshm1c,
    omega_drift_closed,
    sinhc,
    tanhc,
)

mp.mp.dps = 30


def _mp_chi_v(p, t):
    """Talbot inversion of the velocity-response transform 1/(s^2+gamma*s+w0^2/M)."""
    f = lambda s: 1 / (s * s + p.gamma * s + p.omega0_sq / p.M)
    return float(mp.invertlaplace(f, t, method="talbot"))


def _mp_chi_q(p, t):
    f = lambda s: (s + p.gamma) / (s * s + p.gamma * s + p.omega0_sq / p.M)
    return float(mp.invertlaplace(f, t, method="talbot"))


class TestHyperbolicHelpers:
    @pytest.mark.parametrize("z", [1e-9, 1e-5, 9e-5, 2e-4, 0.1, 2.0, 0.3j, 1e-5j])
    def test_sinhc_against_mpmath(self, z):
        want = complex(mp.sinh(mp.mpc(z)) / mp.mpc(z)) if z != 0 else 1.0
        assert complex(sinhc(complex(z))) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("z", [1e-6, 5e-4, 2e-3, 0.5, 3.0, 0.8j])
    def test_coshm1c_against_mpmath(self, z):
        zc = mp.mpc(z)
        want = complex(2 * (mp.cosh(zc) - 1) / (zc * zc))
        assert complex(coshm1c(complex(z))) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("z", [1e-8, 5e-5, 3e-4, 1.0, 10.0, 0.5j])
    def test_tanhc_against_mpmath(self, z):
        zc = mp.mpc(z)
        want = complex(mp.tanh(zc) / zc)
        assert complex(tanhc(complex(z))) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("fn", [sinhc, tanhc])
    def test_mixed_arrays_equal_one_point_values(self, fn):
        # arguments below and above the series cut in one array: each takes
        # its own branch, bit for bit as it does alone
        z = np.array([0.0, 1e-9, 5e-5 + 2e-5j, 9.99e-5, 1e-4, 2e-4, 0.3j, 1.0, 2.5 - 1.0j, 20.0])
        small = np.abs(z) < _SERIES_CUT
        assert small.any() and not small.all()
        got = fn(z)
        for x, g in zip(z.tolist(), got.tolist()):
            alone = np.array([fn(np.array([x]))[0], fn(x)])
            assert alone.tobytes() == np.array([g, g]).tobytes(), x


class TestSusceptibilities:
    @pytest.mark.parametrize("regime", ["over", "under", "crit"])
    @pytest.mark.parametrize("t", [0.05, 0.7, 3.0, 12.0])
    def test_chi_v_against_laplace_inversion(self, regime, t, request):
        p = request.getfixturevalue(f"p_{regime}")
        assert chi_v(p, t) == pytest.approx(_mp_chi_v(p, t), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("regime", ["over", "under", "crit"])
    @pytest.mark.parametrize("t", [0.05, 0.7, 3.0])
    def test_chi_q_against_laplace_inversion(self, regime, t, request):
        p = request.getfixturevalue(f"p_{regime}")
        assert chi_q(p, t) == pytest.approx(_mp_chi_q(p, t), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("regime", ["over", "under", "crit"])
    def test_initial_conditions(self, regime, request):
        p = request.getfixturevalue(f"p_{regime}")
        assert chi_q(p, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert chi_v(p, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert chi_q_dot(p, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert chi_v_dot(p, 0.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("regime", ["over", "under", "crit"])
    def test_chi_q_dot_is_minus_curvature_times_chi_v(self, regime, request):
        p = request.getfixturevalue(f"p_{regime}")
        t = np.linspace(0.0, 8.0, 33)
        np.testing.assert_allclose(
            chi_q_dot(p, t),
            -(p.omega0_sq / p.M) * chi_v(p, t),
            rtol=1e-14,
            atol=1e-300,
        )

    @pytest.mark.parametrize("regime", ["over", "under", "crit"])
    def test_ode_residual_by_finite_differences(self, regime, request):
        # chi_v solves x'' + gamma x' + (w0^2/M) x = 0; check with a 5-point
        # stencil well away from t = 0
        p = request.getfixturevalue(f"p_{regime}")
        h = 1e-3
        for t0 in (0.8, 2.5):
            ts = t0 + h * np.arange(-2, 3)
            x = np.atleast_1d(chi_v(p, ts))
            d1 = (x[0] - 8 * x[1] + 8 * x[3] - x[4]) / (12 * h)
            d2 = (-x[0] + 16 * x[1] - 30 * x[2] + 16 * x[3] - x[4]) / (12 * h * h)
            resid = d2 + p.gamma * d1 + (p.omega0_sq / p.M) * x[2]
            assert abs(resid) < 1e-8

    def test_scalar_and_array_shapes(self, p_over):
        assert np.ndim(chi_q(p_over, 1.0)) == 0
        assert chi_q(p_over, np.ones((2, 3))).shape == (2, 3)

    def test_rejects_negative_time(self, p_over):
        with pytest.raises(ValueError):
            chi_q(p_over, -0.5)

    def test_large_time_folded_branch_is_finite(self, p_over):
        # far beyond where cosh/sinh would overflow; slowest decay e^{-0.2 t}
        for t in (1200.0, 2500.0):
            val = chi_q(p_over, t)
            assert math.isfinite(val)
            lam2 = p_over.lambda2.real
            dom = p_over.lambda1.real / (p_over.lambda1.real - lam2)
            assert val == pytest.approx(dom * math.exp(-lam2 * t), rel=1e-10)

    def test_branch_seam_continuity(self, p_over):
        # the direct/folded switchover must be seamless to near-roundoff
        seam = 2.0 * 350.0 / p_over.omega.real
        below, above = seam * 0.999, seam * 1.001
        ratio = chi_q(p_over, above) / chi_q(p_over, below)
        expected = math.exp(-p_over.lambda2.real * (above - below))
        assert ratio == pytest.approx(expected, rel=1e-9)

    def test_critical_equals_overdamped_limit(self):
        # continuity across the regime boundary
        pc = derive(1.0, 2.0, 1.0, 1.0)
        po = derive(1.0, 2.0, 1.0 - 1e-9, 1.0)
        for t in (0.5, 2.0):
            assert chi_q(pc, t) == pytest.approx(chi_q(po, t), rel=1e-8)
            assert chi_v(pc, t) == pytest.approx(chi_v(po, t), rel=1e-8)


class TestImaginaryResidueGuard:
    """chi_q, chi_v and chi_v_dot are cast to real only once each one's
    imaginary part is a rounding residue at its own scale."""

    @pytest.mark.parametrize("branch, t", [("direct", 1.0), ("folded", 40.0)])
    def test_inconsistent_parameters_raise_naming_the_column(self, branch, t):
        # strongly overdamped: the folded exponentials take over past t = 35.2
        p = derive(1.0, 20.0, 1.0, 1.0)
        assert (p.omega.real * t / 2.0 < 350.0) == (branch == "direct")
        bad = (dataclasses.replace(p, omega=p.omega + 0.5j) if branch == "direct"
               else dataclasses.replace(p, lambda1=p.lambda1 + 0.5j))
        assert np.all(np.isfinite(_chi_all(p, np.array([t]))))
        with pytest.raises(ArithmeticError, match=r"^imaginary residue .* in chi_q$"):
            _chi_all(bad, np.array([t]))
        with pytest.raises(ArithmeticError, match="in chi_q$"):
            chi_q(bad, t)

    def test_each_column_at_its_own_scale(self):
        names = ("chi_q", "chi_v", "chi_v_dot")
        # a residue of 1e-9 is round-off next to 1e6 but not next to 1
        with pytest.raises(ArithmeticError, match=r"^imaginary residue 1\.000e-09 in chi_v$"):
            _real_cast(np.array([[1e6 + 0j], [1.0 + 1e-9j], [1.0 + 0j]]), *names)
        rows = _real_cast(np.array([[1e6 + 1e-9j], [1.0 + 0j], [-2.0 + 0j]]), *names)
        assert rows.tolist() == [[1e6], [1.0], [-2.0]] and rows.flags.c_contiguous


class TestPoleTimes:
    def test_no_poles_outside_underdamped(self, p_over, p_crit):
        assert pole_times(p_over, 100.0).size == 0
        assert pole_times(p_crit, 100.0).size == 0

    def test_poles_are_roots_of_chi_q(self, p_under):
        poles = pole_times(p_under, 12.0)
        assert poles.size >= 3
        for tp in poles:
            root = brentq(lambda t: chi_q(p_under, t), tp - 0.3, tp + 0.3)
            assert tp == pytest.approx(root, abs=1e-12)

    def test_pole_spacing_is_period(self, p_under):
        poles = pole_times(p_under, 20.0)
        w_abs = abs(p_under.omega.imag)
        np.testing.assert_allclose(np.diff(poles), 2.0 * math.pi / w_abs, rtol=1e-12)


class TestOmegaDrift:
    @pytest.mark.parametrize("regime", ["over", "under", "crit"])
    def test_ratio_equals_closed_form(self, regime, request):
        p = request.getfixturevalue(f"p_{regime}")
        t = np.array([0.1, 0.6, 1.4])
        np.testing.assert_allclose(
            omega_drift(p, t), omega_drift_closed(p, t), rtol=1e-12
        )

    def test_negative_for_positive_time(self, p_over):
        t = np.linspace(0.05, 10.0, 50)
        assert np.all(np.atleast_1d(omega_drift(p_over, t)) < 0.0)
        assert omega_drift(p_over, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_overdamped_saturation(self, p_over):
        limit = -2.0 * p_over.omega0_sq / (p_over.M * (p_over.gamma + p_over.omega.real))
        assert omega_drift(p_over, 60.0) == pytest.approx(limit, rel=1e-10)

    def test_raises_at_pole_with_location(self, p_under):
        tp = float(pole_times(p_under, 5.0)[0])
        with pytest.raises(PoleAtChiQZero) as ei:
            omega_drift(p_under, tp)
        assert ei.value.pole_time == pytest.approx(tp, abs=1e-6)

    def test_array_call_near_pole_raises(self, p_under):
        tp = float(pole_times(p_under, 5.0)[0])
        with pytest.raises(PoleAtChiQZero):
            omega_drift(p_under, np.array([0.5, tp, 2.0]))


class TestDriftVelocity:
    def test_matches_mean_position_derivative(self, p_over):
        q0, v0 = 0.7, -0.4
        h = 1e-4
        for t in (0.5, 2.0):
            mean = lambda s: chi_q(p_over, s) * q0 + chi_v(p_over, s) * v0
            fd = (mean(t + h) - mean(t - h)) / (2 * h)
            assert drift_velocity(p_over, t, q0, v0) == pytest.approx(fd, rel=1e-7)

    def test_initial_value_is_v0(self, p_over):
        assert drift_velocity(p_over, 0.0, 3.0, -1.7) == pytest.approx(-1.7, rel=1e-14)
