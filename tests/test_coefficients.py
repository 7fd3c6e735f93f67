import inspect
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qbm import (
    CoefficientTable,
    HbarZero,
    InvalidInput,
    TailNotBounded,
    build_table,
    chi_q,
    chi_v,
    chi_v_dot,
    d1_classical,
    d1_quantum_detail,
    d_cl_closed,
    derive,
    sigma1_classical,
    sigma1_quantum,
    sigma_cl_closed,
    xi_q0_sum,
)
import qbm.coefficients
import qbm.special
from qbm.coefficients import (
    _mode_parts,
    _mode_r,
    _mode_sums,
    _series_count,
    _sigma1_corr,
)
from qbm.response import _chi_all

from mode_sum_reference import FIXTURES as REFERENCE_FIXTURES


class TestClassicalClosedForms:
    @pytest.mark.parametrize("regime", ["over", "under", "crit"])
    def test_sigma1_integrates_d1(self, regime, request):
        p = request.getfixturevalue(f"p_{regime}")
        for t in (0.4, 1.5, 4.0):
            want, err = quad(lambda u: d1_classical(p, u), 0.0, t, epsabs=1e-12, limit=200)
            assert sigma1_classical(p, t) == pytest.approx(want, abs=max(1e-10, 4 * err))

    @pytest.mark.parametrize("regime", ["over", "under", "crit"])
    def test_variance_route_identity(self, regime, request):
        p = request.getfixturevalue(f"p_{regime}")
        t = np.linspace(0.0, 12.0, 100)
        lhs = np.atleast_1d(sigma1_classical(p, t)) + (p.kT / p.M) * np.atleast_1d(
            chi_v(p, t)
        ) ** 2
        rhs = np.atleast_1d(sigma_cl_closed(p, t))
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * p.kT / p.omega0_sq)

    def test_d_cl_equals_chi_ratio(self, p_over):
        for t in (0.2, 1.0, 5.0):
            want = (2.0 * p_over.kT / p_over.M) * chi_v(p_over, t) / chi_q(p_over, t)
            assert d_cl_closed(p_over, t) == pytest.approx(want, rel=1e-13)

    def test_d_cl_saturation_value(self, p_over):
        # 4*kT/(M*(gamma+w)) = 4/1.6 = 2.5 on the overdamped benchmark
        assert d_cl_closed(p_over, 80.0) == pytest.approx(2.5, rel=1e-12)

    def test_sigma_cl_long_time_is_equilibrium(self, p_over):
        assert sigma_cl_closed(p_over, 100.0) == pytest.approx(
            p_over.kT / p_over.omega0_sq, rel=1e-12
        )

    def test_very_large_time_no_overflow(self, p_over):
        # the folded branch must keep everything finite far beyond
        # where cosh/sinh of w*t would overflow
        for t in (700.0, 2000.0, 1e5):
            v = sigma1_classical(p_over, t)
            assert math.isfinite(v)
        assert sigma1_classical(p_over, 2000.0) == pytest.approx(
            p_over.kT / p_over.omega0_sq * (1.0 - math.exp(-2.0 * 0.2 * 2000.0) * (0.8 / 0.6) ** 2),
            rel=1e-10,
        )

    @pytest.mark.parametrize(
        "args, want",
        [((1.0, 1.0, 0.16, 1.0),
          (6.666166687866011127404e-13, 6.661668786011274010217e-10, 6.616878012737027370252e-7)),
         ((1.0, 2.0, 1.0, 1.0),
          (1.333133349332444482538e-12, 1.331334932444825263532e-9, 1.313492448240674325451e-6)),
         ((1.0, 20.0, 1.0, 1.0),
          (1.331335196005227034395e-11, 1.313518412234798442781e-8, 1.150718944695169899382e-5))],
    )
    def test_sigma1_at_small_time(self, args, want):
        # 40-digit quadratures of (2*gamma*k_B*T/M)*int_0^t chi_v**2 at t = 1e-4,
        # 1e-3, 0.01; the closed form 1 - exp(-gamma*t)*B cancels there and
        # missed them by up to 1.4e-3 relative
        got = sigma1_classical(derive(*args), np.array([1e-4, 1e-3, 0.01]))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize(
        "t, want",
        [(0.0506, 8.641950311706145574996e-4), (0.5, 0.04169118494637259444457),
         (3.0, 0.2541366445372147921266)],
    )
    def test_sigma1_under_strong_overdamping(self, t, want):
        # 50-digit (2*gamma*k_B*T/M)*int_0^t chi_v**2 on lambda1 = 19.95,
        # lambda2 = 0.05, just past the series threshold |lambda1|*t = 1 and
        # beyond; 1 - exp(-gamma*t)*B missed them by 2.3e-13, 2.9e-15, 1.2e-14
        assert sigma1_classical(derive(1.0, 20.0, 1.0, 1.0), t) == pytest.approx(want, rel=1e-14)

    def test_d1_zero_at_origin(self, p_over):
        assert d1_classical(p_over, 0.0) == 0.0
        assert sigma1_classical(p_over, 0.0) == 0.0


def _quad_mode_term(p, nu_n, t):
    """R_n(t) by quadrature, with the quadrature's error estimate.

    Each mode applies delta(tau) - (nu_n/2)*exp(-nu_n*|tau|) to the
    chi_v(t-u)*chi_v(t-v) double integral; the time derivative of that
    reduces to a single convolution, which scipy can check directly.
    """
    conv, err = quad(lambda s: chi_v(p, t - s) * math.exp(-nu_n * s), 0.0, t, epsabs=1e-14)
    cv = chi_v(p, t)
    return cv * cv / 2.0 - nu_n / 2.0 * cv * conv, err


def _mp_mode_term(p, k, t):
    """-(chi_v/2)*g[lambda1, lambda2] in 50-digit arithmetic, with
    g(lam) = exp(-lam*t)*(1 - X*phi1((lam - nu_k)*t)) and X = nu_k*t; the
    confluent limit (derivative in lam) at critical damping."""
    with mp.workdps(50):
        nu = mp.mpf(p.matsubara_nu())
        gam, w0 = mp.mpf(p.gamma), mp.mpf(p.omega0_sq) / mp.mpf(p.M)
        om = mp.sqrt(mp.mpc(gam * gam - 4 * w0))
        l1, l2 = (gam + om) / 2, (gam - om) / 2
        t = mp.mpf(t)
        X = k * nu * t

        def g(lam):
            a = lam * t - X
            return mp.e ** (-lam * t) * (1 - X * (mp.expm1(a) / a if a != 0 else 1))

        if l1 == l2:
            cv, g_dd = t * mp.e ** (-l1 * t), mp.diff(g, l1)
        else:
            cv = (mp.e ** (-l2 * t) - mp.e ** (-l1 * t)) / (l1 - l2)
            g_dd = (g(l1) - g(l2)) / (l1 - l2)
        return mp.re(-cv / 2 * g_dd)


class TestQuantumModeTerms:
    @pytest.mark.parametrize("regime", ["over", "under", "crit", "resonant"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_mode_term_against_quadrature(self, regime, n, request):
        p = request.getfixturevalue(f"pq_{regime}")
        nu_n = n * p.matsubara_nu()
        for t in (1e-4, 0.7, 8.0):
            want, err = _quad_mode_term(p, nu_n, t)
            got = float(_mode_r(p, np.array([nu_n]), t)[0])
            assert got == pytest.approx(want, rel=1e-10, abs=max(1e-13, 4 * err)), t

    def test_resonant_mode_sits_on_a_root(self, pq_resonant):
        assert pq_resonant.matsubara_nu() == pq_resonant.lambda1.real == 0.8

    @pytest.mark.parametrize("regime", ["over", "under", "crit", "resonant"])
    def test_mode_term_against_mpmath(self, regime, request):
        # low modes and modes far past every root, at times from 1e-8 to
        # where chi_v has decayed by e**-10 or more
        p = request.getfixturevalue(f"pq_{regime}")
        nu = p.matsubara_nu()
        for t in (1e-8, 8.0, 50.0):
            r = _mode_r(p, np.array([1.0, 3.0, 1000.0, 20000.0]) * nu, t)
            assert r.dtype == np.float64
            for k, got in zip((1, 3, 1000, 20000), r.tolist()):
                want = float(_mp_mode_term(p, k, t))
                assert got == pytest.approx(want, rel=1e-9, abs=0.0), (k, t)

    def test_mode_below_a_root_at_long_times(self):
        # strong overdamping: modes 1-3 lie below lambda1 = 19.95, and phi1 at
        # (lambda1 - nu_n)*t > ~700 once overflowed to NaN with a RuntimeWarning
        p = derive(1.0, 20.0, 1.0, 1.0, hbar=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (60.0, 200.0):
                r = _mode_r(p, np.array([1.0, 2.0, 3.0, 4.0]) * p.matsubara_nu(), t)
                for k, got in zip((1, 2, 3, 4), r.tolist()):
                    assert got == pytest.approx(float(_mp_mode_term(p, k, t)), rel=1e-9), (k, t)

    def test_mode_term_large_n_asymptote(self, pq_over):
        # R_n -> chi_v_dot*chi_v/(2*nu_n) for large n
        p = pq_over
        t = 0.9
        a = chi_v_dot(p, t) * chi_v(p, t) / 2.0
        n = np.array([200.0, 400.0, 800.0]) * p.matsubara_nu()
        r = _mode_r(p, n, t)
        np.testing.assert_allclose(r * n, a, rtol=5e-3)

    def test_critical_split_is_finite_and_smooth(self, pq_crit):
        r = _mode_r(pq_crit, np.arange(1, 50, dtype=float) * pq_crit.matsubara_nu(), 0.6)
        assert np.all(np.isfinite(r))


class TestClosedFormModeSum:
    """_mode_sums, the production route: sum_{n <= N} R_n in closed form."""

    @pytest.mark.parametrize("regime", ["over", "under", "crit", "resonant"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_against_quadrature(self, regime, n, request):
        # at critical damping the closed form takes its confluent limit, and
        # with a mode on a root (resonant) that mode enters separately
        p = request.getfixturevalue(f"pq_{regime}")
        nu = p.matsubara_nu()
        for t in (1e-4, 0.7, 8.0):
            parts = [_quad_mode_term(p, k * nu, t) for k in range(1, n + 1)]
            want = math.fsum(v for v, _ in parts)
            err = sum(e for _, e in parts)
            got = float(_mode_sums(p, n, t)[0][0])
            assert got == pytest.approx(want, rel=1e-10, abs=max(1e-13, 4 * err)), t

    @pytest.mark.parametrize("regime", ["over", "under", "crit", "resonant"])
    @pytest.mark.parametrize("n", [64, 2000])
    def test_matches_explicit_sum(self, regime, n, request):
        p = request.getfixturevalue(f"pq_{regime}")
        nu_n = np.arange(1, n + 1, dtype=np.float64) * p.matsubara_nu()
        t = np.array([1e-4, 0.05, 0.7, 8.0])
        got, _ = _mode_sums(p, n, t)
        want = [math.fsum(_mode_r(p, nu_n, ti).tolist()) for ti in t.tolist()]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    def test_exact_at_default_cutoff(self, pq_over):
        # 40-digit mpmath sums of the 20000 elementary mode terms.  The
        # explicit fsum of _mode_r misses the t = 8 value by 1.5e-12 relative:
        # its high modes are small differences of large cancelling terms
        got, _ = _mode_sums(pq_over, 20000, np.array([8.0, 0.05]))
        assert got[0] == pytest.approx(-0.018197298261650919, rel=1e-14, abs=0.0)
        assert got[1] == pytest.approx(0.034017619693985446, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("regime", ["over", "under", "crit", "near_crit", "resonant"])
    def test_tail_bound_covers_the_value_at_the_cutoff(self, regime, request):
        # against 50-digit sums of the 64 mode terms; near critical damping
        # the bound carries root_dd's cancellation, and it stays below the
        # default tol everywhere
        p = request.getfixturevalue(f"pq_{regime}")
        pref = 8.0 * p.gamma * p.kT / p.M
        for t in (1e-4, 0.05, 0.7, 8.0):
            with mp.workdps(50):
                want = float(mp.fsum(_mp_mode_term(p, k, t) for k in range(1, 65)))
            got = float(_mode_sums(p, 64, t)[0][0])
            bound = d1_quantum_detail(p, t, n_max=64).tail_bound
            assert pref * abs(got - want) <= bound <= 1e-8, t

    def test_continuous_through_critical_damping(self):
        # the closed form lies midway between its neighbours at
        # omega0_sq = 1 -+ 1e-6, an overdamped and an underdamped one
        # (N = 2000, t = 8)
        lo, crit, hi = (
            float(_mode_sums(derive(1.0, 2.0, w0, 1.0, hbar=1.0), 2000, 8.0)[0][0])
            for w0 in (1.0 - 1e-6, 1.0, 1.0 + 1e-6)
        )
        assert crit == pytest.approx((lo + hi) / 2.0, rel=1e-8)
        assert crit == pytest.approx(-4.2262e-6, rel=1e-4)

    def test_finite_at_long_times_with_a_mode_below_a_root(self):
        # strong overdamping: mode k = 2, taken out as the one nearest gamma/2,
        # lies 7.4 below lambda1, so a growing exponential of its term
        # overflowed once t > ~96 and D1 and sigma1 came out NaN
        p = derive(1.0, 20.0, 1.0, 1.0, hbar=1.0)
        for t in (200.0, 700.0):
            assert math.isfinite(d1_quantum_detail(p, t, n_max=64).value), t
        assert sigma1_quantum(p, 700.0, n_max=64) == pytest.approx(
            sigma1_quantum(p, 600.0, n_max=64), rel=1e-14)

    def test_production_routes_do_not_call_the_explicit_kernel(self, pq_over, monkeypatch):
        def explicit(*args, **kwargs):
            raise AssertionError("_mode_r called")

        monkeypatch.setattr(qbm.coefficients, "_mode_r", explicit)
        assert math.isfinite(d1_quantum_detail(pq_over, 0.5).value)
        assert math.isfinite(sigma1_quantum(pq_over, 0.5))
        build_table(pq_over, np.array([0.5]), mode="quantum")


#: Sums at the cutoff N of R_n(t) and of int_0^t R_n, to 20 digits, from the
#: mpmath evaluation in tests/mode_sum_reference.py (110-digit working
#: precision): {(fixture, N, t): (D1 mode sum, sigma1 mode part)}
MODE_SUM_REFERENCE = {
    ('over', 64, 0.0001): (3.1673021785021036827e-7, 1.0584775486210818316e-11),
    ('over', 2000, 0.0001): (7.5624158041971782959e-6, 2.6935881208412124240e-10),
    ('over', 64, 0.001): (0.000028976536320372189597, 9.8976858738859330919e-9),
    ('over', 2000, 0.001): (0.00024681854530441808545, 1.0387009527511181260e-7),
    ('over', 64, 0.05): (0.012835158570683151048, 0.00028457681293929816537),
    ('over', 2000, 0.05): (0.025519890650898601939, 0.00060955870847177396418),
    ('over', 64, 0.7): (0.094233371344404583593, 0.047342102013325917073),
    ('over', 2000, 0.7): (0.15836438237182897650, 0.081110581753254888952),
    ('over', 64, 8.0): (-0.0082808717893352827509, 0.030483833742972698912),
    ('over', 2000, 8.0): (-0.014217831320770287621, 0.045800176718403606419),
    ('over', 64, 50.0): (-4.3711802663777958685e-10, 0.0092369404151049908100),
    ('over', 2000, 50.0): (-7.5012141040084651235e-10, 0.0093318323476322607372),
    ('under', 64, 0.0001): (3.1674608053122230846e-7, 1.0585172736140814918e-11),
    ('under', 2000, 0.0001): (7.5628116462470379523e-6, 2.6936915189409627049e-10),
    ('under', 64, 0.001): (0.000028991256575224361411, 9.9014266094368034836e-9),
    ('under', 2000, 0.001): (0.00024696707947923154793, 1.0391353954610709349e-7),
    ('under', 64, 0.05): (0.013225855185080010508, 0.00029054220244752528161),
    ('under', 2000, 0.05): (0.026371545329435389576, 0.00062336206983576242003),
    ('under', 64, 0.7): (0.11442801925030403268, 0.056506960786975819362),
    ('under', 2000, 0.7): (0.19147746320945137062, 0.096925087624066831276),
    ('under', 64, 8.0): (-0.00066401316893168630433, 0.022468492311528147854),
    ('under', 2000, 8.0): (-0.0014258717237687232400, 0.025293904537555098209),
    ('under', 64, 50.0): (4.5742885498674618373e-13, 0.019212811041714950718),
    ('under', 2000, 50.0): (5.7558865043018559427e-13, 0.019402713707810335295),
    ('crit', 64, 0.0001): (3.1669849260018983071e-7, 1.0583980988590901624e-11),
    ('crit', 2000, 0.0001): (7.5616241235444207281e-6, 2.6933813253364789136e-10),
    ('crit', 64, 0.001): (0.000028947096924008894305, 9.8902046258441653353e-9),
    ('crit', 2000, 0.001): (0.00024652149382192133017, 1.0378321053337549803e-7),
    ('crit', 64, 0.05): (0.012054963025819437845, 0.00027266258654352250064),
    ('crit', 2000, 0.05): (0.023818434131816424150, 0.00058198164591876376430),
    ('crit', 64, 0.7): (0.024904926368353690261, 0.024505411711206749496),
    ('crit', 2000, 0.7): (0.039100967316203511138, 0.041048291224995116550),
    ('crit', 64, 8.0): (-2.5028265177814863321e-6, 0.0041654471450000204165),
    ('crit', 2000, 8.0): (-4.2262265879944441321e-6, 0.0042138172431997582524),
    ('crit', 64, 50.0): (-3.6495926704826750163e-41, 0.0041640159894826368388),
    ('crit', 2000, 50.0): (-6.1422623358941618277e-41, 0.0042114012807511523420),
    ('near_crit', 64, 0.0001): (3.1674608152357435373e-7, 1.0585172756013207662e-11),
    ('near_crit', 2000, 0.0001): (7.5628116715877335677e-6, 2.6936915241763629134e-10),
    ('near_crit', 64, 0.001): (0.000028991265860589187340, 9.9014284890621371170e-9),
    ('near_crit', 2000, 0.001): (0.00024696718369278863655, 1.0391356293592511126e-7),
    ('near_crit', 64, 0.05): (0.013240691258942482376, 0.00029071259377363017526),
    ('near_crit', 2000, 0.05): (0.026406650287472477230, 0.00062378577133242417087),
    ('near_crit', 64, 0.7): (0.15786802624881409233, 0.064847869320844389173),
    ('near_crit', 2000, 0.7): (0.26913511724361101300, 0.11205115435256782306),
    ('near_crit', 64, 8.0): (-0.055290359109532786599, 0.24185324826480529925),
    ('near_crit', 2000, 8.0): (-0.095336697140787920332, 0.40223895139549849155),
    ('near_crit', 64, 50.0): (-3.0532554946317088246e-9, 0.019487549769765796599),
    ('near_crit', 2000, 50.0): (-5.2361136607657137127e-9, 0.019677457552207030428),
    ('resonant', 64, 0.0001): (3.1955251287752598784e-7, 1.0655476925877781137e-11),
    ('resonant', 2000, 0.0001): (9.6126488583919616377e-6, 3.2358167683184790915e-10),
    ('resonant', 64, 0.001): (0.000031557084282958937482, 1.0555685162741015242e-8),
    ('resonant', 2000, 0.001): (0.00070758056310552983237, 2.5573751179819784720e-7),
    ('resonant', 64, 0.05): (0.045213319162175020376, 0.00085922163773848940540),
    ('resonant', 2000, 0.05): (0.14462759581221920864, 0.0033226635746754628980),
    ('resonant', 64, 0.7): (0.68885844595370000226, 0.29443717064388544255),
    ('resonant', 2000, 0.7): (1.1953722406598929914, 0.56092781827771436772),
    ('resonant', 64, 8.0): (-0.068380083510728357580, 0.51208984806672932005),
    ('resonant', 2000, 8.0): (-0.11504880119317734458, 0.63755125624079304841),
    ('resonant', 64, 50.0): (-3.7563470550649584907e-9, 0.33266753683077858202),
    ('resonant', 2000, 50.0): (-6.2170178380731834127e-9, 0.33847036934309618861),
    ('strong', 64, 0.0001): (3.1612808725711344841e-7, 1.0569693032386976661e-11),
    ('strong', 2000, 0.0001): (7.5473905820061374495e-6, 2.6896624551590767479e-10),
    ('strong', 64, 0.001): (0.000028423229330183088085, 9.7567664156194655409e-9),
    ('strong', 2000, 0.001): (0.00024124330337734815252, 1.0223474334936672355e-7),
    ('strong', 64, 0.05): (0.0042428896163956729190, 0.00013607011471042165857),
    ('strong', 2000, 0.05): (0.0074591265264740235231, 0.00027417534737805841453),
    ('strong', 64, 0.7): (-0.000022128205209317877604, 0.00062409394531856671239),
    ('strong', 2000, 0.7): (-0.000054368334861977279100, 0.00095043618428857563221),
    ('strong', 64, 8.0): (-0.000021487030019113947244, 0.00039636978440530501577),
    ('strong', 2000, 8.0): (-0.000037000966683308841423, 0.00055575376395080274621),
    ('strong', 64, 50.0): (-3.1882805557195863691e-7, 0.00018521829948829525563),
    ('strong', 2000, 50.0): (-5.4902637783947433043e-7, 0.00019214794911294357639),
    ('cold', 64, 0.001): (0.000031958225994703172072, 1.0656221777572263590e-8),
    ('cold', 2000, 0.001): (0.00098965729570709113558, 3.3074333846507290485e-7),
    ('cold', 64, 0.05): (0.074944518617752807140, 0.0012697218248505164732),
    ('cold', 2000, 0.05): (1.5948375325023041674, 0.029556197451719331106),
    ('cold', 64, 50.0): (-6.7244892591281573346e-6, 22.067883969821283341),
    ('cold', 2000, 50.0): (-6.8341066191545668970e-6, 29.530809857968984169),
}


def _sigma1_modes(p, n, t):
    """The mode part of sigma1 at one time, and the bound on what sigma1
    drops of its two Matsubara sums there."""
    cq, cv, cvd = (float(a[0]) for a in _chi_all(p, t))
    _, _, integral, modes = _mode_parts(p, n, t, cv, cvd, float(sigma1_classical(p, t)), {})
    return integral, 8.0 * p.gamma * p.kT / p.M * modes + _sigma1_corr(p, t, cq, cv, {})[1]


def _reference_params(name):
    return derive(*REFERENCE_FIXTURES[name], hbar=1.0)


class TestRootFreeModeSums:
    """The production mode sums against 60-digit sums, and their bounds."""

    @pytest.mark.parametrize("key", sorted(MODE_SUM_REFERENCE, key=repr), ids=repr)
    def test_against_60_digit_sums(self, key):
        name, n, t = key
        want_d1, want_s1 = MODE_SUM_REFERENCE[key]
        p = _reference_params(name)
        rel = 1e-11 if name == "cold" else 1e-12 if t < 0.05 else 1e-13
        got_d1, bound_d1 = (float(a[0]) for a in _mode_sums(p, n, t))
        got_s1, bound_s1 = _sigma1_modes(p, n, t)
        assert got_d1 == pytest.approx(want_d1, rel=rel, abs=0.0)
        assert got_s1 == pytest.approx(want_s1, rel=rel, abs=0.0)
        # each bound covers the error of its value
        pref = 8.0 * p.gamma * p.kT / p.M
        assert abs(got_d1 - want_d1) <= bound_d1
        assert pref * abs(got_s1 - want_s1) <= bound_s1

    def test_production_path_takes_no_root_rule(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("root_dd, hyp2f1 or xi_q0_closed called")

        monkeypatch.setattr(qbm.special, "root_dd", refused)
        monkeypatch.setattr(qbm.special, "hyp2f1", refused)
        monkeypatch.setattr(qbm.coefficients, "xi_q0_closed", refused)
        grid = np.array([1e-4, 0.05, 8.0, 50.0])
        for name in ("over", "under", "crit", "near_crit", "resonant", "strong"):
            p = _reference_params(name)
            table = build_table(p, grid, mode="quantum")
            assert np.all(np.isfinite(table.d1)) and np.all(np.isfinite(table.sigma1)), name
            for t in grid.tolist():
                assert math.isfinite(d1_quantum_detail(p, t).value), (name, t)
                assert math.isfinite(sigma1_quantum(p, t)), (name, t)
        source = inspect.getsource(qbm.coefficients)
        assert "root_dd" not in source and "root_dd_sep" not in source


def _fine_mode_integral(p, n, t, panels=100, ratio=0.75):
    """int_0^t of the closed-form mode sum by 24-point Gauss-Legendre on
    ``panels`` panels graded geometrically toward 0 (the last ends at
    ratio**panels * t, 3e-13*t), plus [0, ratio**panels * t]."""
    x, w = np.polynomial.legendre.leggauss(24)
    edges = np.concatenate([[0.0], t * ratio ** np.arange(panels, -1, -1.0)])
    half = (edges[1:] - edges[:-1])[:, None] / 2.0
    u = (edges[1:] + edges[:-1])[:, None] / 2.0 + half * x
    return math.fsum((half * w * _mode_sums(p, n, u.ravel())[0].reshape(u.shape)).ravel().tolist())


class TestD1Quantum:
    def test_requires_quantum_params(self, p_over):
        with pytest.raises(HbarZero):
            d1_quantum_detail(p_over, 1.0)

    def test_requires_positive_time(self, pq_over):
        with pytest.raises(ValueError):
            d1_quantum_detail(pq_over, 0.0)

    def test_decomposition_sums_to_value(self, pq_over):
        det = d1_quantum_detail(pq_over, 0.8, n_max=500)
        assert det.value == pytest.approx(det.white + det.modes + det.correlation, rel=1e-14)
        assert det.white == pytest.approx(d1_classical(pq_over, 0.8), rel=1e-14)
        assert det.n_modes == 500

    def test_doubling_matches_log_coefficient(self, pq_over):
        # the n_max -> 2*n_max shift is dominated by log_coefficient * ln(2)
        a = d1_quantum_detail(pq_over, 1.0, n_max=4000)
        b = d1_quantum_detail(pq_over, 1.0, n_max=8000)
        h = sum(1.0 / k for k in range(4001, 8001))
        assert (b.value - a.value) == pytest.approx(a.log_coefficient * h, rel=0.02)

    def test_frictionless_limit_is_white_only(self):
        p = derive(1.0, 0.0, 1.0, 1.0, hbar=1.0)
        det = d1_quantum_detail(p, 1.0)
        assert det.value == 0.0
        assert det.modes == 0.0
        assert det.correlation == 0.0

    def test_correlation_term_uses_sum_fallback_at_small_time(self, pq_over):
        # nu*t < 0.01 puts the hypergeometric argument beyond its cutoff, so
        # the spectral-sum route must take over transparently
        p = pq_over
        t = 0.001 / p.matsubara_nu()
        det = d1_quantum_detail(p, t, n_max=64)
        xi = xi_q0_sum(p, t, tol=1e-10)
        want_corr = 2.0 * chi_q(p, t) * xi
        assert det.correlation == pytest.approx(want_corr, rel=1e-6)

    def test_classical_collapse(self):
        p = derive(1.0, 1.0, 0.16, 1.0, hbar=1e-4)
        for t in (0.5, 2.0):
            dq = d1_quantum_detail(p, t).value
            dc = d1_classical(p, t)
            assert dq == pytest.approx(dc, rel=1e-3)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-8])
    @pytest.mark.parametrize("fn", [d1_quantum_detail])
    def test_direct_calls_refuse_bad_tol(self, pq_over, fn, tol):
        # a nan tol would run the 2F1 series to its term cap, an inf one
        # would loosen the correlation series silently
        with pytest.raises(InvalidInput, match="tol"):
            fn(pq_over, 0.5, tol=tol)

    @pytest.mark.parametrize("fn", [
        d1_quantum_detail, sigma1_quantum,
        pytest.param(lambda p, t: build_table(p, np.array([t / 2.0, t]), mode="quantum"),
                     id="build_table")])
    def test_one_response_evaluation_per_point(self, pq_over, monkeypatch, fn):
        # one chi evaluation per point, and one per table with Omega included
        real, calls = qbm.response._chi_all, []

        def counting(p, t):
            calls.append(t)
            return real(p, t)

        monkeypatch.setattr(qbm.response, "_chi_all", counting)
        monkeypatch.setattr(qbm.coefficients, "_chi_all", counting)
        for t in (0.05, 8.0):
            calls.clear()
            fn(pq_over, t)
            assert len(calls) == 1, t

    def test_takes_no_sigma1_work(self, monkeypatch):
        # at kT = 1e-4 under strong overdamping 8*|lambda1|/nu is about 2.5e5,
        # past the head that sigma1's correlation part sums; D1 needs none of
        # sigma1's parts, and its xi_q0 series certifies there
        def refused(*args, **kwargs):
            raise AssertionError("sigma1 work done")

        for name in ("_sigma1_corr", "sigma1_classical"):
            monkeypatch.setattr(qbm.coefficients, name, refused)
        det = d1_quantum_detail(derive(1.0, 20.0, 1.0, 1e-4, hbar=1.0), 1.0)
        assert det.value == -0.4752080199932469

    def test_rejects_bad_n_max(self, pq_over):
        with pytest.raises(ValueError):
            d1_quantum_detail(pq_over, 1.0, n_max=0)
        with pytest.raises(ValueError):
            build_table(pq_over, np.array([1.0]), mode="quantum", n_max=0)

    def test_tol_does_not_move_the_cutoff(self, pq_over):
        # the mode count is the cutoff N, whatever tol: a loose tol sums the
        # same 20000 modes; it only loosens the correlation series, within
        # its certified bound
        loose = d1_quantum_detail(pq_over, 0.5, tol=1e-2)
        default = d1_quantum_detail(pq_over, 0.5)
        assert loose.n_modes == default.n_modes == qbm.coefficients.N_MODES == 20000
        assert loose.modes == default.modes
        assert loose.white == default.white
        # the mode part, 1.5787441942738794, agrees with a 40-digit mpmath sum
        # of the 20000 mode terms (1.5787441942738792), and the correlation
        # term with a 40-digit sum of xi_q0 (-0.012108867860733258)
        assert default.value == pytest.approx(1.8604845751780172, rel=1e-14)
        assert loose.value == pytest.approx(default.value, abs=1e-2)


class TestSigma1Quantum:
    def test_zero_at_origin(self, pq_over):
        assert sigma1_quantum(pq_over, 0.0) == 0.0

    def test_integral_identity_with_matched_modes(self, request):
        # sigma1(t2) - sigma1(t1) must equal the integral of D1 between them
        # when both use the same frozen mode count: real roots, complex roots
        # and a mode on a root (near windows)
        n = 200
        t1, t2 = 0.3, 1.0
        for regime in ("over", "under", "resonant"):
            p = request.getfixturevalue(f"pq_{regime}")
            want, err = quad(
                lambda u: d1_quantum_detail(p, u, n_max=n).value, t1, t2, epsabs=1e-10, limit=60
            )
            got = sigma1_quantum(p, t2, n_max=n) - sigma1_quantum(p, t1, n_max=n)
            assert got == pytest.approx(want, abs=max(5e-9, 10 * err)), regime

    @pytest.mark.parametrize(
        "t, want",
        [(0.05, -0.1215608314442851442), (0.7, -0.2650009861163533475),
         (8.0, -0.2664663839625845865)],
    )
    def test_correlation_part_at_critical_damping(self, pq_crit, t, want):
        # 25-digit values of 2*int_0^t chi_q*xi_q0; the bound covers the error
        cq, cv, _ = (float(a[0]) for a in _chi_all(pq_crit, t))
        got, bound = _sigma1_corr(pq_crit, t, cq, cv, {})
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert abs(got - want) <= bound

    @pytest.mark.parametrize(
        "regime, t, want",
        [("near_crit", 1e-3, -0.0018931852310414867), ("near_crit", 0.05, -0.034098201331025149),
         ("near_crit", 8.0, -0.078660342149957806), ("over", 1e-4, -0.0005178384219566134)],
    )
    def test_correlation_part_against_30_digits(self, regime, t, want, request):
        # a direct head plus an Euler-Maclaurin tail in 30-digit arithmetic;
        # the closed form needs no root, so near critical damping is no edge
        p = request.getfixturevalue(f"pq_{regime}")
        cq, cv, _ = (float(a[0]) for a in _chi_all(p, t))
        got, bound = _sigma1_corr(p, t, cq, cv, {})
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert abs(got - want) <= bound

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        gamma=st.floats(0.05, 20.0),
        omega0_sq=st.floats(0.01, 4.0),
        temp=st.floats(0.003, 10.0),
        t=st.floats(0.01, 20.0),
    )
    def test_correlation_part_derivative(self, gamma, omega0_sq, temp, t):
        # d/dt of 2*int_0^t chi_q*xi_q0 is 2*chi_q*xi_q0, over and under and
        # near critical damping; h resolves the fastest of t, 1/|lambda1|, 1/nu
        p = derive(1.0, gamma, omega0_sq, temp, hbar=1.0)
        h = 1e-4 * min(t, 1.0 / abs(p.lambda1), 1.0 / p.matsubara_nu())

        def corr(u):
            cq, cv, _ = (float(a[0]) for a in _chi_all(p, u))
            return _sigma1_corr(p, u, cq, cv, {})[0]

        xi = xi_q0_sum(p, t, tol=1e-14)
        diff = (corr(t + h) - corr(t - h)) / (2.0 * h)
        # rel 1e-6 of 2*|xi| (chi_q passes through 0 when underdamped), and
        # the difference's round-off where xi is exponentially small
        slack = 1e-6 * 2.0 * abs(xi) + 1e-14 * abs(corr(t)) / h
        assert abs(diff - 2.0 * chi_q(p, t) * xi) <= slack

    def test_correlation_tail_refused_past_the_head_cap(self):
        # 8*|lambda1|/nu > 2**17 direct terms: TailNotBounded, not a value; a
        # one-point call names no grid index, a table row does
        p = derive(1.0, 20.0, 1.0, 1e-4, hbar=1.0)
        assert math.ceil(8.0 * abs(p.lambda1) / p.matsubara_nu()) > 1 << 17
        with pytest.raises(TailNotBounded, match=r"^correlation-part tail needs"):
            sigma1_quantum(p, 1.0)
        with pytest.raises(TailNotBounded, match=r"^t_grid\[0\] = 1\.0: correlation-part tail"):
            build_table(p, np.array([1.0]), mode="quantum")

    @pytest.mark.parametrize("regime", ["over", "under", "crit", "near_crit", "resonant", "strong"])
    @pytest.mark.parametrize("n", [64, 20000])
    def test_mode_part_against_fine_quadrature(self, regime, n, request):
        # the closed form at t alone against a 100-panel quadrature of the
        # closed-form mode sum; near critical damping and at t = 1e-4, where
        # the value is O(t**2) against round-off of the t-independent parts,
        # the reported bound must cover the difference
        p = (derive(1.0, 20.0, 1.0, 1.0, hbar=1.0) if regime == "strong"
             else request.getfixturevalue(f"pq_{regime}"))
        pref = 8.0 * p.gamma * p.kT / p.M
        for t in (1e-4, 0.05, 8.0, 50.0):
            got, bound = _sigma1_modes(p, n, t)
            want = _fine_mode_integral(p, n, t)
            if regime == "near_crit" or t < 0.05:
                assert pref * abs(got - want) <= bound, t
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), t

    def test_bound_at_low_temperature(self):
        # at kT = 0.003 (nu/|lambda1| = 0.024) the bound once grew like
        # (|lambda1|/nu)**2/nu**3 and read 1e-7, a false "tol not met"
        p = derive(1.0, 1.0, 0.16, 0.003, hbar=1.0)
        for t in (0.05, 1.2, 8.0):
            assert _sigma1_modes(p, 20000, t)[1] <= 1e-10, t

    def test_no_mode_sum_on_nodes(self, pq_over, monkeypatch):
        def no_mode_sums(*args, **kwargs):
            raise AssertionError("_mode_sums called")

        monkeypatch.setattr(qbm.coefficients, "_mode_sums", no_mode_sums)
        assert math.isfinite(sigma1_quantum(pq_over, 0.5))

    def test_takes_no_correlation_series_of_d1(self, pq_over, monkeypatch):
        # sigma1 has its own correlation part; D1's xi_q0 series, whose tail
        # bound divides by 1 - exp(-nu*t), is not summed, so t = 1e-18 works
        def no_xi(*args, **kwargs):
            raise AssertionError("xi_q0_sum called")

        monkeypatch.setattr(qbm.coefficients, "xi_q0_sum", no_xi)
        for t in (1e-18, 0.5):
            assert math.isfinite(sigma1_quantum(pq_over, t))

    def test_exceeds_classical_variance(self, pq_over):
        # quantum bath adds fluctuation on top of the white-noise part
        assert sigma1_quantum(pq_over, 1.0, n_max=2000) > sigma1_classical(pq_over, 1.0)


class TestSigmaQAndDFpe:
    def test_classical_mode_matches_closed(self, p_over):
        # the table's sigma_q column (closed form 1 - chi_q**2) against its
        # sigma1 column (independent closed form) plus the thermal drift
        t = np.linspace(0.0, 5.0, 20)
        table = build_table(p_over, t)
        np.testing.assert_allclose(
            table.sigma_q, table.sigma1 + (p_over.kT / p_over.M) * chi_v(p_over, t) ** 2,
            rtol=1e-12, atol=1e-14,
        )

    def test_classical_d_fpe_equals_closed_form(self, p_over):
        t = np.linspace(0.05, 8.0, 40)
        np.testing.assert_allclose(
            build_table(p_over, t).d_fpe, d_cl_closed(p_over, t), rtol=1e-11
        )


class TestCoefficientTable:
    def test_classical_columns_and_csv(self, p_over, tmp_path):
        grid = np.linspace(0.0, 5.0, 21)
        table = build_table(p_over, grid, mode="classical")
        assert np.all(np.isfinite(table.d1))
        assert np.all(np.isfinite(table.d_fpe))
        path = tmp_path / "t.csv"
        table.to_csv(path)
        text = path.read_text().splitlines()
        assert text[0] == "t,omega,d1,sigma1,sigma_q,d_fpe"
        data = np.genfromtxt(path, delimiter=",", names=True)
        np.testing.assert_allclose(data["d_fpe"], table.d_fpe, rtol=1e-15)
        np.testing.assert_allclose(data["t"], grid, rtol=1e-15)

    @pytest.mark.parametrize("regime", ["p_over", "p_under", "p_crit"])
    def test_classical_columns_equal_the_closed_forms_bit_for_bit(self, regime, request):
        # the table takes d1 and sigma_q from its own chi, not by calling
        # d1_classical and sigma_cl_closed; the values must be theirs
        p = request.getfixturevalue(regime)
        grid = np.linspace(0.0, 6.0, 301)
        table = build_table(p, grid, mode="classical")
        assert table.d1.tobytes() == d1_classical(p, grid).tobytes()
        assert table.sigma_q.tobytes() == sigma_cl_closed(p, grid).tobytes()

    def test_manifest_contents(self, p_over):
        table = build_table(p_over, np.linspace(0.0, 2.0, 5))
        m = table.manifest()
        assert m["params"]["gamma"] == 1.0
        assert m["mode"] == "classical"
        assert m["columns"] == ["t", "omega", "d1", "sigma1", "sigma_q", "d_fpe"]
        assert m["n_points"] == 5

    def test_underdamped_pole_windows_are_nan(self, p_under):
        grid = np.linspace(0.0, 6.0, 301)
        table = build_table(p_under, grid, mode="classical")
        assert len(table.pole_windows) >= 1
        a, b = table.pole_windows[0]
        inside = (grid >= a) & (grid <= b)
        assert inside.any()
        assert np.all(np.isnan(table.omega[inside]))
        assert np.all(np.isnan(table.d_fpe[inside]))
        outside = ~inside & (grid < table.pole_windows[1][0] if len(table.pole_windows) > 1 else ~inside)
        assert np.all(np.isfinite(table.sigma_q))
        assert table.in_pole_window(a + 1e-6, a + 1e-5)
        assert not table.in_pole_window(0.0, a - 0.1)

    def test_grid_validation(self, p_over, pq_over):
        with pytest.raises(ValueError):
            build_table(p_over, np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            build_table(p_over, np.array([-1.0, 0.5]))
        with pytest.raises(ValueError):
            build_table(p_over, np.array([0.0, 1.0]), mode="wkb")
        with pytest.raises(ValueError):
            build_table(pq_over, np.array([0.0, 1.0]), mode="quantum")

    def test_quantum_table_thread_determinism(self, pq_over):
        grid = np.linspace(0.2, 1.0, 5)
        a = build_table(pq_over, grid, mode="quantum", n_max=300)
        b = build_table(pq_over, grid, mode="quantum", n_max=300, threads=3)
        np.testing.assert_array_equal(a.d1, b.d1)
        np.testing.assert_array_equal(a.sigma_q, b.sigma_q)
        assert "d1_tail_bound_max" in a.diagnostics

    @staticmethod
    def _assert_columns_equal_one_point(p, grid):
        # the table's one pass over the grid and the one-point entry points
        # agree byte for byte at every row, and the diagnostics are the
        # maxima of the one-point bounds
        table = build_table(p, np.array(grid), mode="quantum")
        dets = [d1_quantum_detail(p, t) for t in grid]
        assert table.d1.tobytes() == np.array([d.value for d in dets]).tobytes()
        assert table.sigma1.tobytes() == np.array([sigma1_quantum(p, t) for t in grid]).tobytes()
        s1_bounds = [_sigma1_modes(p, qbm.coefficients.N_MODES, t)[1] for t in grid]
        assert table.diagnostics["d1_tail_bound_max"] == max(d.tail_bound for d in dets)
        assert table.diagnostics["sigma1_tail_bound_max"] == max(s1_bounds)
        assert table.diagnostics["d1_log_coefficient_max"] == max(
            abs(d.log_coefficient) for d in dets)

    @pytest.mark.parametrize("name", ["over", "under", "crit", "near_crit", "strong", "cold"])
    def test_columns_equal_the_one_point_functions(self, name, request):
        p = (derive(1.0, 20.0, 1.0, 1.0, hbar=1.0) if name == "strong"
             else derive(1.0, 1.0, 0.16, 0.003, hbar=1.0) if name == "cold"
             else request.getfixturevalue(f"pq_{name}"))
        self._assert_columns_equal_one_point(p, [1e-3, 0.05, 0.3, 1.2, 8.0, 50.0])

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(
        gamma=st.floats(0.2, 20.0),
        ratio=st.one_of(st.floats(0.01, 0.9), st.just(1.0), st.floats(1.0 - 1e-5, 1.0 + 1e-5),
                        st.floats(1.1, 25.0)),
        temp=st.floats(0.01, 10.0),
    )
    @example(gamma=20.0, ratio=0.01, temp=1.0)
    @example(gamma=1.0, ratio=0.64, temp=0.003)
    def test_columns_equal_the_one_point_functions_at_drawn_parameters(self, gamma, ratio, temp):
        # omega0_sq = ratio*gamma**2/4 spans over, under and (near) critical
        # damping, and t_s has series modes
        p = derive(1.0, gamma, ratio * gamma**2 / 4.0, temp, hbar=1.0)
        nu, n = p.matsubara_nu(), qbm.coefficients.N_MODES
        t_s = 0.5 / (nu + abs(p.lambda1))
        assert _series_count(p, nu, n, t_s) > 0
        self._assert_columns_equal_one_point(p, sorted({t_s, 1e-3, 0.05, 0.3, 1.2, 8.0, 50.0}))

    @pytest.mark.parametrize("grid", [None, [0.05], np.geomspace(1e-3, 8.0, 201).tolist()],
                             ids=["sigma1_quantum", "1-row", "201-row"])
    def test_one_head_per_series_count(self, pq_over, monkeypatch, grid):
        # D1 and sigma1 take their sums over the modes past the series from
        # the row's head: one build per distinct series count n_s, and none
        # over every mode besides (n_s = 3 at t = 0.05)
        real, built = qbm.coefficients._head_sums, []

        def counting(p, nu, n_s, n_modes, heads):
            if n_s not in heads:
                built.append(n_s)
            return real(p, nu, n_s, n_modes, heads)

        monkeypatch.setattr(qbm.coefficients, "_head_sums", counting)
        if grid is None:
            grid = [0.05]
            sigma1_quantum(pq_over, 0.05)
        else:
            build_table(pq_over, np.array(grid), mode="quantum")
        nu, n = pq_over.matsubara_nu(), qbm.coefficients.N_MODES
        assert sorted(built) == sorted({_series_count(pq_over, nu, n, t) for t in grid})

    def test_quantum_csv_roundtrip(self, pq_over, tmp_path):
        grid = np.linspace(0.2, 1.0, 4)
        table = build_table(pq_over, grid, mode="quantum", n_max=200)
        path = tmp_path / "q.csv"
        table.to_csv(path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        np.testing.assert_allclose(data["sigma_q"], table.sigma_q, rtol=1e-15)

    def test_threaded_failure_names_grid_point(self, pq_over, monkeypatch):
        # a row of the table's one pass fails inside the correlation series
        real = qbm.coefficients.xi_q0_sum

        def failing_at_06(p, t, n_max=None, tol=1e-12):
            if t == 0.6:
                raise TailNotBounded("cannot certify")
            return real(p, t, n_max, tol)

        monkeypatch.setattr(qbm.coefficients, "xi_q0_sum", failing_at_06)
        grid = np.array([0.2, 0.6, 1.0])
        with pytest.raises(TailNotBounded, match=r"^t_grid\[1\] = 0\.6: cannot certify$") as exc:
            build_table(pq_over, grid, mode="quantum", n_max=50)
        assert isinstance(exc.value.__cause__, TailNotBounded)

    def test_tol_met_at_default_settings(self, pq_over):
        # the value at the default 20000-mode cutoff meets the default tol
        table = build_table(pq_over, np.array([0.05, 0.5, 8.0]), mode="quantum")
        assert table.diagnostics["n_modes_max"] == 20000
        assert table.diagnostics["d1_tail_bound_max"] <= 1e-8
        assert 0.0 < table.diagnostics["sigma1_tail_bound_max"] <= 1e-8
        assert table.diagnostics["tol_met"] is True
        assert table.manifest()["diagnostics"]["tol_met"] is True

    def test_tol_met_needs_the_sigma1_bound(self, pq_over, monkeypatch):
        real = qbm.coefficients._sigma1_corr
        monkeypatch.setattr(qbm.coefficients, "_sigma1_corr", lambda *args: (real(*args)[0], 1.0))
        table = build_table(pq_over, np.array([0.5]), mode="quantum")
        assert table.diagnostics["d1_tail_bound_max"] <= 1e-8
        assert table.diagnostics["sigma1_tail_bound_max"] > 1e-8
        assert table.diagnostics["tol_met"] is False

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-8])
    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_rejects_tol_before_any_row(self, pq_over, monkeypatch, mode, tol):
        def no_rows(*args, **kwargs):
            raise AssertionError("a row was computed")

        for name in ("d1_quantum_detail", "sigma1_quantum", "d1_classical", "_quantum_columns",
                     "_mode_parts"):
            monkeypatch.setattr(qbm.coefficients, name, no_rows)
        with pytest.raises(InvalidInput, match="tol"):
            build_table(pq_over, np.array([0.5, 1.0]), mode=mode, tol=tol)

    def test_tol_met_true_when_bound_reaches_tol(self, pq_over):
        table = build_table(pq_over, np.array([0.5]), mode="quantum", tol=1e-2)
        assert table.diagnostics["d1_tail_bound_max"] <= 1e-2
        assert table.diagnostics["tol_met"] is True
        assert table.manifest()["diagnostics"]["tol_met"] is True
