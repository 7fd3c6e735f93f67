"""Unit covariance: every quantity transforms as its dimension says.

Rescale time by a and mass by m: gamma -> gamma/a, omega0_sq -> m*omega0_sq/a**2,
M -> m*M and hbar -> a*hbar at fixed T.  At the time a*t, Omega must scale by
1/a, D1 and D by a/m, sigma1 and sigma_q by a**2/m, a position by a/sqrt(m)
and a density by sqrt(m)/a.  An SI run and a reduced run of the same system
agree once converted with the time unit 1/gamma and the length**2 unit
k_B*T/(M*gamma**2).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbm import GaussianDensity, build_table, d1_quantum_detail, density, derive, sigma1_classical
from qbm import sigma1_quantum
from qbm.coefficients import _exp_terms, _heads, _mode_parts
from qbm.response import _chi_all

COLUMN_POWERS = {"omega": (-1, 0), "d1": (1, -1), "sigma1": (2, -1), "sigma_q": (2, -1),
                 "d_fpe": (1, -1)}  # (power of a, power of m)


def _rescaled(p, a, m):
    return derive(m * p.M, p.gamma / a, m * p.omega0_sq / a**2, p.T, hbar=a * p.hbar)


def _draw_params(gamma, ratio, temp, hbar=0.0):
    # omega0_sq = ratio*gamma**2/4 spans over, under and critical damping
    return derive(1.0, gamma, ratio * gamma**2 / 4.0, temp, hbar=hbar)


PARAMS = dict(
    gamma=st.floats(0.2, 5.0),
    ratio=st.one_of(st.floats(0.05, 0.9), st.just(1.0), st.floats(1.1, 20.0)),
    temp=st.floats(0.3, 3.0),
    a=st.floats(0.25, 4.0),
    m=st.floats(0.25, 4.0),
)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(**PARAMS)
def test_classical_columns(gamma, ratio, temp, a, m):
    p = _draw_params(gamma, ratio, temp)
    t = np.linspace(0.0, 6.0 / gamma, 41)
    base, scaled = build_table(p, t), build_table(_rescaled(p, a, m), a * t)
    assert len(base.pole_windows) == len(scaled.pole_windows)
    for name, (pa, pm) in COLUMN_POWERS.items():
        want = a**pa * m**pm * base.column(name)
        # D = sigma_dot - 2*Omega*sigma_q cancels: its slack is its parts' size
        parts = a**pa * m**pm * (np.abs(base.d1) + 2.0 * np.abs(base.omega * base.sigma_q)
                                 if name == "d_fpe" else np.abs(base.column(name)))
        ok = np.isnan(want) == np.isnan(scaled.column(name))
        assert ok.all(), name
        np.testing.assert_allclose(scaled.column(name), want, rtol=1e-10,
                                   atol=1e-12 * np.nanmax(parts), equal_nan=True, err_msg=name)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(**PARAMS, kind=st.sampled_from(["conditional", "averaged"]))
def test_propagator_densities(gamma, ratio, temp, a, m, kind):
    p = _draw_params(gamma, ratio, temp)
    q_unit = a / math.sqrt(m)
    q0, v0 = 0.7, -0.4
    base = GaussianDensity(p, kind, q0, v0)
    scaled = GaussianDensity(_rescaled(p, a, m), kind, q_unit * q0, q_unit / a * v0)
    for t in (0.5 / gamma, 2.0 / gamma):
        q = np.linspace(-3.0, 3.0, 31) * math.sqrt(base.variance(t)) + base.mean(t)
        np.testing.assert_allclose(density(scaled, q_unit * q, a * t), density(base, q, t) / q_unit,
                                   rtol=1e-10, atol=1e-14 * np.max(density(base, q, t)))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(**PARAMS)
def test_quantum_omega_and_d1_white_and_mode_parts(gamma, ratio, temp, a, m):
    # with the same mode cutoff N the Matsubara modes nu_n*t are the same
    # numbers at a*t, so the white and mode parts of D1 and the mode part of
    # sigma1 scale exactly; each certified bound covers its value's error
    p = _draw_params(gamma, ratio, temp, hbar=1.0)
    r, n = _rescaled(p, a, m), 64
    t = np.array([0.05, 0.7, 4.0]) / gamma
    base, scaled = build_table(p, t, mode="quantum", n_max=n), build_table(r, a * t, mode="quantum", n_max=n)
    np.testing.assert_allclose(scaled.omega, base.omega / a, rtol=1e-10, equal_nan=True)
    for ti in t.tolist():
        d, ds = d1_quantum_detail(p, ti, n_max=n), d1_quantum_detail(r, a * ti, n_max=n)
        assert ds.white == pytest.approx(a / m * d.white, rel=1e-10, abs=1e-300)
        assert abs(ds.modes - a / m * d.modes) <= ds.tail_bound + a / m * d.tail_bound
        s, ss = _sigma1_parts(p, ti, n), _sigma1_parts(r, a * ti, n)
        assert ss[1] == pytest.approx(a * a / m * s[1], rel=1e-9, abs=1e-14 * a * a / m)


def _sigma1_parts(p, t, n):
    """sigma1's classical base, its mode part and its correlation part."""
    _, cv, cvd = (float(x[0]) for x in _chi_all(p, t))
    base = float(sigma1_classical(p, t))
    block = _exp_terms(p.matsubara_nu(), t, 0, n)
    heads = _heads(p, n, [t], False)
    modes = 8.0 * p.gamma * p.kT / p.M * _mode_parts(p, n, t, cv, cvd, base, heads, block)[2]
    return base, modes, sigma1_quantum(p, t, n_max=n) - base - modes


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1: sigma1's correlation part "
                   "2*int_0^t chi_q*xi_q0 has the dimension of energy*time, not length**2")
def test_sigma1_correlation_part():
    p, a, m = derive(1.0, 1.0, 0.16, 1.0, hbar=1.0), 2.0, 3.0
    corr = _sigma1_parts(p, 1.0, 64)[2]
    assert _sigma1_parts(_rescaled(p, a, m), a, 64)[2] == pytest.approx(a * a / m * corr, rel=1e-6)


HBAR_SI = 1.054571817e-34  # J*s
SI_POWERS = {"omega": (-1, 0), "d1": (-1, 1), "sigma1": (0, 1), "sigma_q": (0, 1),
             "d_fpe": (-1, 1)}  # (power of the time unit, power of the length**2 unit)


def _si_pair(mode):
    """A 1e-26 kg particle at T = 1 K with gamma = 1e9/s and omega0**2/M = 0.16 gamma**2,
    tabulated in SI and in reduced units at t*gamma in {0.05, 0.5, 1, 8}: the SI
    columns converted to reduced units, and the reduced table."""
    mass, gamma, temp = 1e-26, 1e9, 1.0
    si = derive(mass, gamma, 0.16 * gamma**2 * mass, temp, hbar=HBAR_SI, unit_mode="si")
    reduced = derive(1.0, 1.0, 0.16, 1.0, hbar=HBAR_SI * gamma / si.kT)
    tau = np.array([0.05, 0.5, 1.0, 8.0])
    table = build_table(si, tau / gamma, mode=mode, n_max=2000)
    length_sq = si.kT / (mass * gamma**2)
    converted = {name: table.column(name) / ((1.0 / gamma) ** pt * length_sq**pl)
                 for name, (pt, pl) in SI_POWERS.items()}
    return converted, build_table(reduced, tau, mode=mode, n_max=2000)


def test_si_classical_columns():
    converted, base = _si_pair("classical")
    for name, column in converted.items():
        np.testing.assert_allclose(column, base.column(name), rtol=1e-13, err_msg=name)


def test_si_quantum_run_is_finite_and_omega_d1_convert():
    # the SI sums neither overflow nor refuse; Omega and D1 convert exactly
    converted, base = _si_pair("quantum")
    for name, column in converted.items():
        assert np.isfinite(column).all(), name
    for name in ("omega", "d1"):
        np.testing.assert_allclose(converted[name], base.column(name), rtol=1e-13, err_msg=name)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1: sigma1's correlation part "
                   "2*int_0^t chi_q*xi_q0 has the dimension of energy*time, not length**2")
def test_si_quantum_variance_columns():
    converted, base = _si_pair("quantum")
    for name in ("sigma1", "sigma_q", "d_fpe"):
        np.testing.assert_allclose(converted[name], base.column(name), rtol=1e-10, err_msg=name)
