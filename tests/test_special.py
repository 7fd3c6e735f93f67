import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import digamma

from qbm import (
    NoConvergence,
    TailNotBounded,
    d1_quantum_detail,
    derive,
    noise_kernel_closed,
    noise_kernel_modes,
    xi_q0_closed,
    xi_q0_sum,
)
from qbm.special import X_MAX, ModeExpansion, _hyp2f1_1b, phi1, phi1_dd, phi1_deriv, root_dd

mp.mp.dps = 40


def _mp_phi1(z):
    z = mp.mpc(z)
    if z == 0:
        return mp.mpc(1)
    return (mp.e**z - 1) / z


def _mp_phi1p(z):
    z = mp.mpc(z)
    if z == 0:
        return mp.mpc("0.5")
    return (mp.e**z * (z - 1) + 1) / (z * z)


class TestPhiKit:
    # points straddling the series/closed-form switchover at |z| = 0.5
    POINTS = [1e-12, 1e-4, 0.3, 0.499, 0.501, 2.0, -0.499, -3.0,
              0.3 + 0.4j, -0.2 - 0.45j, 4.0 - 1.0j, -700.0]

    @pytest.mark.parametrize("z", POINTS)
    def test_phi1_against_mpmath(self, z):
        got = phi1(z)
        want = complex(_mp_phi1(z))
        assert got == pytest.approx(want, rel=5e-15, abs=1e-300)

    def test_phi1_at_zero(self):
        assert phi1(0.0) == pytest.approx(1.0, rel=1e-15)

    def test_phi1_vectorized(self):
        z = np.array([0.1, -0.3, 2.0 + 1.0j])
        out = phi1(z)
        for zi, oi in zip(z, np.atleast_1d(out)):
            assert oi == pytest.approx(complex(_mp_phi1(zi)), rel=1e-14)

    @pytest.mark.parametrize("z", [0.0, 1e-10, 0.5, 0.999, -0.999, 3.0, -5.0, 0.4 + 0.3j])
    def test_phi1_deriv_against_mpmath(self, z):
        got = phi1_deriv(z)
        want = complex(_mp_phi1p(z))
        assert got == pytest.approx(want, rel=2e-14)

    @pytest.mark.parametrize(
        "x,y",
        [(0.3, -0.4), (2.0, -1.0), (-3.0, -3.0 + 1e-9), (0.2, 0.2), (1.0 + 1j, 1.0 + 1j + 1e-8)],
    )
    def test_phi1_divided_difference(self, x, y):
        got = phi1_dd(x, y)
        if x == y:
            want = complex(_mp_phi1p(x))
        else:
            want = complex((_mp_phi1(x) - _mp_phi1(y)) / (mp.mpc(x) - mp.mpc(y)))
        assert got == pytest.approx(want, rel=1e-9)

    def test_phi1_dd_symmetric(self):
        assert phi1_dd(0.7, -0.2) == pytest.approx(phi1_dd(-0.2, 0.7), rel=1e-15)


def _mp_phi1_dd(x, y):
    if x == y:
        return _mp_phi1p(x)
    return (_mp_phi1(x) - _mp_phi1(y)) / (mp.mpc(x) - mp.mpc(y))


def _phi1_scattered(arr):
    """phi1 with each branch gathered from and scattered back to its own
    entries, the form phi1 had when it evaluated everything in complex128."""
    out = np.empty_like(arr)
    small = np.abs(arr) < 0.5
    acc = np.full_like(arr[small], 1.0 / math.factorial(23))
    for k in range(21, -1, -1):
        acc = acc * arr[small] + 1.0 / math.factorial(k + 1)
    out[small] = acc
    out[~small] = np.expm1(arr[~small]) / arr[~small]
    return out


class TestPhiKitDtype:
    # x = 0, the series branches of phi1 (|x| < 0.5) and phi1_deriv (|x| < 1),
    # the direct forms, and far down the negative axis
    REAL = [0.0, 1e-12, -0.3, 0.499, 0.9, -0.999, 2.0, -3.0, -700.0, -1e5]

    @pytest.mark.parametrize("fn,ref", [(phi1, _mp_phi1), (phi1_deriv, _mp_phi1p)])
    def test_real_argument_stays_real(self, fn, ref):
        out = fn(np.array(self.REAL))
        assert out.dtype == np.float64
        for x, got in zip(self.REAL, out):
            assert got == pytest.approx(float(ref(x).real), rel=1e-14, abs=0.0), x
            assert type(fn(x)) is float

    @pytest.mark.parametrize(
        "x,y",
        [(0.3, -0.4), (2.0, -1.0), (-1e5, -3.0), (0.0, 0.0),
         # near branch: |x - y| inside the 1e-6 relative window
         (0.2, 0.2 + 1e-9), (-3.0, -3.0 + 1e-9), (-700.0, -700.0 + 1e-5), (-1e5, -1e5 + 1e-3)],
    )
    def test_real_divided_difference_stays_real(self, x, y):
        got = phi1_dd(x, y)
        assert type(got) is float
        assert got == pytest.approx(float(_mp_phi1_dd(x, y).real), rel=1e-14, abs=0.0)
        arr = phi1_dd(np.array([x, y]), y)
        assert arr.dtype == np.float64
        assert arr[0] == got

    def test_complex_argument_unchanged(self):
        # complex input evaluates exactly as in the all-complex128 kit, and
        # the whole-array direct form equals the gathered one in either dtype
        z = np.array([0.0, 1e-12, 0.3 + 0.4j, -0.2 - 0.45j, 0.5, 4.0 - 1.0j, -700.0, -1e5 + 3j])
        np.testing.assert_array_equal(phi1(z), _phi1_scattered(z))
        x = z.real.copy()
        np.testing.assert_array_equal(phi1(x), _phi1_scattered(x))
        assert phi1(z).dtype == np.complex128
        assert type(phi1(0.3 + 0.0j)) is complex

    def test_mixed_arguments_promote(self):
        # a real array against a complex root promotes where they combine
        x = np.array([-0.3, -2.0, -50.0])
        out = phi1_dd(x, -0.4 + 0.3j)
        assert out.dtype == np.complex128
        for xi, got in zip(x, out):
            assert got == pytest.approx(complex(_mp_phi1_dd(xi, -0.4 + 0.3j)), rel=1e-14)


class TestHyp2F1:
    """2F1(1, b; b + 1; x), the one hypergeometric case of xi_q0's closed route."""

    @pytest.mark.parametrize(
        "b,x",
        [
            (1.3, 0.5),
            (1.5 + 0.8j, 0.73),
            (2.0, 0.9),
            (7.0, 0.05),
            (1.0 + 2.0j, 0.95),
            (1.3, 0.99),
            (1.0 + 2.0j, 0.99),
        ],
    )
    def test_against_mpmath(self, b, x):
        got = _hyp2f1_1b(b, x, 1e-15)
        want = complex(mp.hyp2f1(1, b, b + 1, x))
        assert got == pytest.approx(want, rel=1e-13)

    def test_tail_bound_is_honest(self):
        # the rest is below tol*x/(n + Re b), and the sum rounds to a few ulp
        for b in (1.5, 1.2 + 0.7j):
            want = complex(mp.hyp2f1(1, b, b + 1, 0.9))
            assert abs(_hyp2f1_1b(b, 0.9, 1e-10) - want) <= 1e-10 * 0.9 + 1e-14 * abs(want)

    def test_rejects_x_above_cutoff(self):
        # xi_q0_closed refuses x = exp(-nu*t) past X_MAX, and answers below it
        p = derive(1.0, 1.0, 0.16, 1.0, hbar=1.0)
        nu = p.matsubara_nu()
        with pytest.raises(NoConvergence):
            xi_q0_closed(p, -math.log(0.995) / nu)
        assert xi_q0_closed(p, -math.log(X_MAX) / nu * 1.001) < 0.0

    def test_deterministic(self):
        b = 1.2 + 0.3j
        assert _hyp2f1_1b(b, 0.8, 1e-12) == _hyp2f1_1b(b, 0.8, 1e-12)


# independent mpmath reference values for the bath correlation sum,
# 40-digit direct summation of nu_n e^{-nu_n t} / (nu_n^2 + gamma nu_n + w0^2/M)
_XI_ORACLE = {
    # (gamma, omega0_sq): {nu*t: value}
    (1.0, 0.16): {0.5: -0.26354286512322441314, 3.0: -0.014002151192212959535},
    (0.5, 1.0): {0.5: -0.13746830381515157962, 3.0: -0.0073666770022201159085},
    (2.0, 1.0): {0.5: -0.47102437099106350999, 3.0: -0.024290764615672731929},
}


class TestXiQ0:
    @pytest.mark.parametrize("gamma,w0sq", [(1.0, 0.16), (0.5, 1.0), (2.0, 1.0)])
    @pytest.mark.parametrize("nut", [0.5, 3.0])
    def test_sum_matches_oracle(self, gamma, w0sq, nut):
        p = derive(1.0, gamma, w0sq, 1.0, hbar=1.0)
        t = nut / p.matsubara_nu()
        want = _XI_ORACLE[(gamma, w0sq)][nut]
        assert xi_q0_sum(p, t) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("gamma,w0sq", [(1.0, 0.16), (0.5, 1.0), (2.0, 1.0)])
    @pytest.mark.parametrize("nut", [0.5, 3.0])
    def test_closed_matches_oracle(self, gamma, w0sq, nut):
        p = derive(1.0, gamma, w0sq, 1.0, hbar=1.0)
        t = nut / p.matsubara_nu()
        want = _XI_ORACLE[(gamma, w0sq)][nut]
        assert xi_q0_closed(p, t, 1e-13) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("gamma,w0sq", [(1.0, 0.16), (0.5, 1.0), (2.0, 1.0)])
    def test_routes_agree_on_grid(self, gamma, w0sq):
        p = derive(1.0, gamma, w0sq, 1.0, hbar=1.0)
        nu = p.matsubara_nu()
        for nut in np.geomspace(0.1, 50.0, 12):
            t = nut / nu
            a = xi_q0_closed(p, t, 1e-13)
            b = xi_q0_sum(p, t)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-280)

    def test_near_critical_perturbation_branch(self):
        # roots separated by ~1e-7*gamma: forces the degenerate-limit branch
        p = derive(1.0, 2.0, 1.0 - 1e-14, 1.0, hbar=1.0)
        pc = derive(1.0, 2.0, 1.0, 1.0, hbar=1.0)
        t = 0.8 / p.matsubara_nu()
        a = xi_q0_closed(p, t, 1e-12)
        b = xi_q0_sum(pc, t)
        assert a == pytest.approx(b, rel=1e-8)

    def test_tail_refusal_at_tiny_time(self):
        p = derive(1.0, 1.0, 0.16, 1.0, hbar=1.0)
        with pytest.raises(TailNotBounded):
            xi_q0_sum(p, 1e-9 / p.matsubara_nu())

    def test_tail_refusal_where_one_minus_exp_rounds_to_zero(self):
        # at nu*t < 1.1e-16, 1 - exp(-nu*t) is 0.0 but -expm1(-nu*t) is not:
        # the tail is refused by type, not by a ZeroDivisionError
        p = derive(1.0, 1.0, 0.16, 1.0, hbar=1.0)
        with pytest.raises(TailNotBounded):
            d1_quantum_detail(p, 1e-18)

    def test_rejects_nonpositive_time(self):
        p = derive(1.0, 1.0, 0.16, 1.0, hbar=1.0)
        with pytest.raises(ValueError):
            xi_q0_sum(p, 0.0)
        with pytest.raises(ValueError):
            xi_q0_closed(p, -1.0)

    def test_value_is_negative_and_decaying(self):
        p = derive(1.0, 1.0, 0.16, 1.0, hbar=1.0)
        nu = p.matsubara_nu()
        vals = [xi_q0_closed(p, nut / nu, 1e-12) for nut in (0.2, 1.0, 5.0)]
        assert all(v < 0 for v in vals)
        assert abs(vals[0]) > abs(vals[1]) > abs(vals[2])


class TestRootDD:
    """root_dd, the one rule for divided differences over the roots."""

    def test_real_roots_give_a_float(self, p_over):
        # lambda**3 over 0.8, 0.2: l1**2 + l1*l2 + l2**2
        got = root_dd(p_over, lambda lam: lam**3)
        assert type(got) is float
        assert got == pytest.approx(0.84, rel=1e-15)

    def test_conjugate_roots_give_a_real_value(self, p_under):
        t = 0.7
        got = root_dd(p_under, lambda lam: np.exp(-lam * t))
        assert abs(got.imag) <= 1e-15 * abs(got.real)
        # -t*exp(-gamma*t/2)*sin(w t)/(w t) with w = Im(lambda1 - lambda2)/2
        w = (p_under.lambda1 - p_under.lambda2).imag / 2.0
        want = -t * math.exp(-p_under.gamma * t / 2.0) * math.sin(w * t) / (w * t)
        assert got.real == pytest.approx(want, rel=1e-14)

    def test_double_root_gives_the_derivative(self, pq_crit):
        # F'(gamma/2) for F = exp(-lam*t), and for the digamma of the sigma1 tail
        t = 0.7
        got = root_dd(pq_crit, lambda lam: np.exp(-lam * t))
        assert got == pytest.approx(-t * math.exp(-pq_crit.gamma * t / 2.0), rel=1e-15)
        nu = pq_crit.matsubara_nu()
        got = root_dd(pq_crit, lambda lam: digamma(65 + lam / nu))
        with mp.workdps(30):
            want = float(mp.psi(1, 65 + mp.mpf(pq_crit.gamma / 2.0) / nu) / nu)
        assert got == pytest.approx(want, rel=1e-14)

    def test_continuous_across_the_degenerate_threshold(self):
        # lambda1 - lambda2 = 0.99e-5*gamma (confluent limit) and 1.01e-5*gamma
        # (difference quotient) at gamma = 2, omega0_sq = 1 - frac**2.  The
        # confluent limit's bias grows like (t*(lambda1 - lambda2))**2/24
        t = 2.0
        vals = []
        for frac in (0.99e-5, 1.01e-5):
            p = derive(1.0, 2.0, 1.0 - frac**2, 1.0, hbar=1.0)
            assert abs(p.lambda1 - p.lambda2) == pytest.approx(2.0 * frac, rel=1e-5)
            vals.append(root_dd(p, lambda lam: np.exp(-lam * t) * digamma(65 + lam)))
        assert vals[0] == pytest.approx(vals[1], rel=1e-9)


class TestNoiseKernel:
    def test_closed_against_mpmath(self, pq_over):
        p = pq_over
        nu = p.matsubara_nu()
        for nut in (0.3, 1.0, 4.0):
            tau = nut / nu
            want = complex(
                -(2 * p.gamma * p.M * nu / p.beta)
                * mp.nsum(lambda n: n * mp.e ** (-n * nu * tau), [1, mp.inf])
            ).real
            assert noise_kernel_closed(p, tau) == pytest.approx(want, rel=1e-13)

    def test_modes_plus_exact_tail_equals_closed(self, pq_over):
        p = pq_over
        nu = p.matsubara_nu()
        tau = 1.0 / nu
        exp_ = noise_kernel_modes(p, n_max=7, t_min=tau)
        y = math.exp(-nu * tau)
        scale = 2.0 * p.gamma * p.M * nu / p.beta
        dropped = -scale * y**8 * (8.0 - 7.0 * y) / (1.0 - y) ** 2
        assert exp_.evaluate(tau) + dropped == pytest.approx(
            noise_kernel_closed(p, tau), rel=1e-13
        )

    def test_tail_bound_monotone_in_t(self, pq_over):
        nu = pq_over.matsubara_nu()
        a = noise_kernel_modes(pq_over, n_max=10, t_min=0.5 / nu)
        b = noise_kernel_modes(pq_over, n_max=10, t_min=2.0 / nu)
        assert abs(b.tail_bound) < abs(a.tail_bound)

    def test_tail_bound_finite_where_one_minus_y_rounds_to_zero(self, pq_over):
        # y = exp(-nu*t_min) is 1.0 at t_min = 1e-18; the bound stays finite
        tail = noise_kernel_modes(pq_over, 5, 1e-18).tail_bound
        assert math.isfinite(tail) and tail > 0.0

    def test_mode_prefactors_and_rates(self, pq_over):
        p = pq_over
        nu = p.matsubara_nu()
        exp_ = noise_kernel_modes(p, n_max=4, t_min=1.0 / nu)
        scale = 2.0 * p.gamma * p.M * nu / p.beta
        np.testing.assert_allclose(exp_.rates, nu * np.arange(1, 5))
        np.testing.assert_allclose(exp_.prefactors, -scale * np.arange(1, 5))

    def test_rejects_bad_arguments(self, pq_over):
        with pytest.raises(ValueError):
            noise_kernel_modes(pq_over, n_max=0, t_min=0.1)
        with pytest.raises(ValueError):
            noise_kernel_modes(pq_over, n_max=5, t_min=0.0)
        with pytest.raises(ValueError):
            noise_kernel_closed(pq_over, 0.0)

    def test_mode_expansion_rejects_unsorted_rates(self):
        with pytest.raises(ValueError):
            ModeExpansion(
                prefactors=np.ones(3),
                rates=np.array([1.0, 3.0, 2.0]),
                n_max=3,
                tail_bound=0.0,
                t_min=0.1,
            )
