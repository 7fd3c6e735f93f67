"""Time-dependent diffusion coefficients and variances.

Classical closed forms (exact in every damping regime, overflow-free):

* ``d1_classical``   — conditional diffusion function, (2*gamma*k_B*T/M)*chi_v**2;
* ``sigma1_classical`` — its running integral, in an independent closed form;
* ``sigma_cl_closed``  — thermal-initial-velocity variance (k_B*T/omega0_sq)*(1 - chi_q**2);
* ``d_cl_closed``      — diffusion coefficient of the position-space FPE,
  in the algebraic form (2*k_B*T*t/M)*tanhc(w*t/2)/(1 + (gamma*t/2)*tanhc(w*t/2)).

Quantum coefficients decompose the bath noise correlation into a white-noise
part plus Matsubara modes ``(4*gamma*M/beta)*[delta(tau) -
(nu_n/2)*exp(-nu_n|tau|)]``.  The white part reproduces the classical
coefficient.  Each mode's contribution R_n is elementary in chi_v(t) and
chi_v_dot(t), and so are its sum over n <= N and that sum's time integral,
the mode part of sigma1 (both from ``_mode_parts``): t-independent
real sums plus a fast-decaying exponential series, at t alone, exact at the
cutoff up to round-off and independent of N in cost.  No value is taken at a
root, so critical damping is no edge.  The explicit sum of the per-mode
kernel ``_mode_r`` is the second route, checked by ``qbm validate``.  R_n
behaves like ``chi_v_dot*chi_v/(2*nu_n)`` at large n — a logarithmically
divergent series, the strictly-Ohmic ultraviolet pathology of this model.
The mode count N is therefore a physical ultraviolet cutoff, ``n_max``
(``N_MODES`` by default), not a tolerance: D1 and sigma1 each carry a
certified bound on what the value at N drops (the exponential terms cut
below round-off, and round-off), and D1 the coefficient of the residual
log(N) sensitivity.  The initial system/bath correlation enters D1 as
``2*chi_q(t)*xi_q0(t)``, from the Matsubara series of xi_q0, and sigma1 as its
integral, a root-free sum at t alone.

``build_table`` is the one assembly of the derived columns: sigma_q = sigma1
+ (k_B*T/M)*chi_v**2 and D = sigma_dot - 2*Omega*sigma_q with the exact
derivative sigma_dot = D1 + (2*k_B*T/M)*chi_v*chi_v_dot (no numerical
differentiation).  Its quantum columns come from one pass over the grid
(``_quantum_columns``), whose rows ``d1_quantum_detail`` and ``sigma1_quantum``
take at one time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import bernoulli, digamma, factorial, zeta

from .errors import (
    CFLViolation,
    GridMismatch,
    InvalidInput,
    NegativeDiffusion,
    NonFiniteCoefficient,
    PoleWindow,
    QbmError,
    TailNotBounded,
)
from .model import PhysicalParams
from .response import (
    _chi_all,
    _omega_from_chi,
    chi_q,
    chi_v,
    coshm1c,
    pole_times,
    sinhc,
    tanhc,
    _real_cast,
    _shaped,
    _time_array,
)
from .special import (
    phi1,
    phi1_dd,
    phi1_deriv,  # unused here: perfbench/workloads.py TARGETS traces coefficients.phi1_deriv
    xi_q0_closed,  # unused here: perfbench/workloads.py TARGETS traces coefficients.xi_q0_closed
    xi_q0_sum,
)

__all__ = [
    "d1_classical",
    "sigma1_classical",
    "sigma_cl_closed",
    "d_cl_closed",
    "N_MODES",
    "D1Result",
    "d1_quantum_detail",
    "sigma1_quantum",
    "CoefficientTable",
    "build_table",
    "step_plan",
    "write_csv",
]

_FOLD_CUT = 350.0


# ---------------------------------------------------------------------------
# classical closed forms


def d1_classical(p: PhysicalParams, t):
    """White-noise (classical) diffusion function (2*gamma*k_B*T/M)*chi_v**2.

    Equivalently (4*gamma*k_B*T/(M*w**2))*exp(-gamma*t)*(cosh(w*t) - 1);
    satisfies d/dt sigma1_classical = d1_classical exactly.
    """
    cv = np.atleast_1d(np.asarray(chi_v(p, t), dtype=np.float64))
    out = (2.0 * p.gamma * p.kT / p.M) * cv * cv
    return _shaped(out, t)


def sigma1_classical(p: PhysicalParams, t):
    """Closed form of the integral of d1_classical from 0 to t.

    (k_B*T/omega0_sq) * (1 - exp(-gamma*t)*[1 + gamma*t*sinhc(w*t)
    + (gamma*t)**2 * coshm1c(w*t)/2]), folded into the decaying exponentials
    exp(-2*lambda_i*t) for |Re(w)*t| >= 350.  For well-separated real roots
    (w >= gamma/2), chi_v**2 = (exp(-2*lambda2*t) - 2*exp(-gamma*t) +
    exp(-2*lambda1*t))/w**2 integrated term by term, which cancels at most
    threefold.  For |lambda1|*t < 1, where both cancel, the Taylor series of
    (2*gamma*k_B*T/M)*int_0^t chi_v**2 from chi_v's equation of motion, to as
    many terms as the largest |lambda1|*t needs.
    """
    ta = _time_array(t)
    w, g = p.omega, p.gamma
    out = np.empty(ta.shape)
    series = abs(p.lambda1) * ta < 1.0  # there |Re(w)|*t < 2: never folded
    if (~series).any() and w.imag == 0.0 and w.real >= g / 2.0:
        l1, l2, tc = p.lambda1.real, p.lambda2.real, ta[~series]
        out[~series] = (2.0 * g * p.kT / p.M) / w.real**2 * (
            -np.expm1(-2.0 * l2 * tc) / (2.0 * l2) + 2.0 * np.expm1(-g * tc) / g
            - np.expm1(-2.0 * l1 * tc) / (2.0 * l1))
    elif (~series).any():
        z = w * ta
        bracket = np.zeros(ta.shape, dtype=np.complex128)  # exp(-gamma*t)*B(t)
        folded = np.abs(z.real) >= _FOLD_CUT
        direct = ~(series | folded)
        if direct.any():
            gt, zd = g * ta[direct], z[direct]
            bracket[direct] = np.exp(-gt) * (1.0 + gt * sinhc(zd) + gt * gt * coshm1c(zd) / 2.0)
        if folded.any():
            tf, zf = ta[folded], z[folded]
            gt, eg = g * tf, np.exp(-g * tf)
            E1, E2 = np.exp(-2.0 * p.lambda1 * tf), np.exp(-2.0 * p.lambda2 * tf)
            bracket[folded] = (
                eg + gt * (E2 - E1) / (2.0 * zf) + gt * gt * ((E1 + E2) / 2.0 - eg) / (zf * zf)
            )
        out = (p.kT / p.omega0_sq) * (1.0 - _real_cast(bracket, "sigma1_classical"))
    if series.any():
        # chi_v**2 = t**2*sum_k b_k*t**k with |b_k| <= (2*|lambda1|)**k/k!, and
        # int_0^t chi_v**2 >= 0.7*exp(-2*rho)*t**3/3 at rho = |lambda1|*t < 1:
        # n terms with (2*rho)**n*exp(4*rho)/n! <= 2**-56 leave < 1e-17 of it
        ts = ta[series]
        rho = abs(p.lambda1) * float(ts.max())
        n, term = 0, math.exp(4.0 * rho)
        while term > 2.0**-56:
            n += 1
            term *= 2.0 * rho / n
        a = _chi_v_taylor(p, n + 1, 1.0)[1:]
        # the integral of t**2*b_k*t**k takes b_k/(k + 3)
        b = np.convolve(a, a)[:n] / np.arange(3, n + 3)
        acc = 0.0
        for bk in b[::-1].tolist():
            acc = acc * ts + bk
        out[series] = (2.0 * g * p.kT / p.M) * ts**3 * acc
    return _shaped(out, t)


def _chi_v_taylor(p: PhysicalParams, n: int, t: float) -> list:
    """a_i*t**i for i < n, where chi_v = sum_i a_i*u**i, from chi_v's equation of
    motion chi_v'' = -gamma*chi_v' - (omega0_sq/M)*chi_v, chi_v(0) = 0, chi_v'(0) = 1."""
    g, w2, a = p.gamma, p.omega0_sq / p.M, [0.0, t]
    for k in range(n - 2):
        a.append(-(g * t * (k + 1) * a[k + 1] + w2 * t * t * a[k]) / ((k + 1) * (k + 2)))
    return a


def sigma_cl_closed(p: PhysicalParams, t):
    """Thermal-initial-velocity variance (k_B*T/omega0_sq)*(1 - chi_q(t)**2)."""
    cq = np.atleast_1d(np.asarray(chi_q(p, t), dtype=np.float64))
    out = (p.kT / p.omega0_sq) * (1.0 - cq * cq)
    return _shaped(out, t)


def d_cl_closed(p: PhysicalParams, t):
    """Algebraic closed form of the classical FPE diffusion coefficient.

    (2*k_B*T*t/M) * tanhc(w*t/2) / (1 + (gamma*t/2)*tanhc(w*t/2)); equals
    (2*k_B*T/M)*chi_v/chi_q and saturates at 4*k_B*T/(M*(gamma+w)).
    Diverges with Omega at the underdamped zeros of chi_q.
    """
    ta = _time_array(t)
    tc = tanhc(p.omega * ta / 2.0)
    out = (2.0 * p.kT / p.M) * ta * tc / (1.0 + (p.gamma * ta / 2.0) * tc)
    out = _real_cast(out, "d_cl_closed")
    return _shaped(out, t)


# ---------------------------------------------------------------------------
# quantum per-mode kernel, summed explicitly by the second route
# (``qbm validate``, tests)
#
# R_n = -(chi_v/2)*g[lambda1, lambda2] with g(lam) = (mu*E)[lam, nu_n],
# E(mu) = exp(-mu*t).  By the Leibniz rule, g[lambda1, lambda2] =
# lambda2*E[nu_n, lambda1, lambda2] + E[lambda1, nu_n]: two terms of size
# 1/nu_n that cancel only as chi_v_dot does.  Each divided difference of E is
# based at its point of smallest real part, so no phi1 argument is positive,
# and phi1_dd is stable as its arguments meet, so critical damping needs no
# branch.


def _roots(p: PhysicalParams):
    """(lambda1, lambda2), as floats when they are real."""
    l1, l2 = p.lambda1, p.lambda2
    if l1.imag == 0.0 and l2.imag == 0.0:
        return l1.real, l2.real
    return l1, l2


def _mode_r(p: PhysicalParams, nu_n: np.ndarray, t: float) -> np.ndarray:
    """Per-mode reduced integral R_n(t) for an array of mode rates nu_n.

    R_n -> chi_v_dot*chi_v/(2*nu_n) as nu_n grows.  Real roots are used as
    floats, so the kernel runs in real arithmetic unless they are complex.
    """
    l1, l2 = _roots(p)
    nu_n = np.asarray(nu_n, dtype=np.float64)
    below = nu_n < l2.real  # E[nu_n, lambda1, lambda2] is based at nu_n there, else at lambda2
    b, u, v = np.where(below, nu_n, l2), np.where(below, l1, nu_n), np.where(below, l2, l1)
    e3 = t * t * np.exp(-b * t) * phi1_dd(-(u - b) * t, -(v - b) * t)
    below = nu_n < l1.real  # E[lambda1, nu_n] likewise
    b, u = np.where(below, nu_n, l1), np.where(below, l1, nu_n)
    e2 = -t * np.exp(-b * t) * phi1(-(u - b) * t)
    cv = t * np.exp(-l2 * t) * phi1(-(l1 - l2) * t)
    return (-cv / 2.0 * (l2 * e3 + e2)).real


# ---------------------------------------------------------------------------
# quantum mode sums at the cutoff N, with no value taken at a root
#
# The divided differences of exp(-lam*t) and lam*exp(-lam*t) over the roots
# are -chi_v and chi_v_dot.  With w2 = omega0_sq/M, L_(mu) = 1/(mu**2 -
# gamma*mu + w2), L(mu) = 1/(mu**2 + gamma*mu + w2), A = int_0^t chi_v**2,
# J(mu) = int_0^t chi_v*exp(-mu*u) du = L(mu)*(1 - exp(-mu*t)*Pt(mu)) and
# Pt(mu) = (mu + gamma)*chi_v + chi_v_dot, that gives
#   R_n = (chi_v/2)*L_(nu_n)*(w2*chi_v + nu_n*chi_v_dot - nu_n*exp(-nu_n*t)),
#   int_0^t R_n = (L_(nu_n)/2)*(w2*A + nu_n*chi_v**2/2 - nu_n*J(nu_n)).
# Summed over n they take the t-independent S0 = sum L_(nu_n), S1 = sum
# nu_n*L_(nu_n) and sum -nu_n*L_(nu_n)*L(nu_n) (``_head_sums``), each a
# direct head and a Hurwitz zeta tail, and exponential series cut where
# nu_n*t > _EXP_CUT.  The modes with (nu_n + |lambda1|)*t < 1, where J(nu_n)
# cancels, take their Taylor series in t (``_series_modes``); past them, a
# mode within nu/2 of a root, a pole of L_, takes its exact second divided
# difference over [nu_k, lambda1, lambda2] (``_excluded_int`` for the integral).

_EXP_CUT = 40.0
_ROUNDOFF = 4.0 * np.finfo(np.float64).eps
_ZETA_POWERS = np.arange(2.0, 26.0)
_SIGNS = (-1.0) ** np.arange(25)
_SERIES_TERMS = 21
_SERIES_CUT = math.e / math.factorial(_SERIES_TERMS - 1)
_SERIES_K = np.arange(float(_SERIES_TERMS))
_SERIES_IDX = np.add.outer(np.arange(_SERIES_TERMS), np.arange(_SERIES_TERMS))
# _SERIES_H[m, i] = i!/(i + m)!: what a term a_i*u**i of chi_v leaves at
# (-nu_n*u)**m in y'_n (see _series_modes), kept while i + m < _SERIES_TERMS
_SERIES_H = np.where(_SERIES_IDX < _SERIES_TERMS,
                     factorial(_SERIES_K) / factorial(_SERIES_IDX), 0.0)
# sum_{n <= M} n**m = M**(m + 1)*sum_j _FAULHABER[m, j]*M**-j, with the
# Bernoulli numbers B_j (B_1 = +1/2)
_BERNOULLI = np.append([1.0, 0.5], bernoulli(_SERIES_TERMS - 1)[2:])
_FAULHABER = np.array([[math.comb(m + 1, j) * _BERNOULLI[j] / (m + 1) if j <= m else 0.0
                        for j in range(_SERIES_TERMS)] for m in range(_SERIES_TERMS)])


def _series_count(p: PhysicalParams, nu: float, n_modes: int, t: float) -> int:
    """n_s: the modes n <= n_s, and only they, have (nu_n + |lambda1|)*t < 1."""
    return min(n_modes, max(0, math.ceil((1.0 / t - abs(p.lambda1)) / nu) - 1))


def _excluded_modes(p: PhysicalParams, nu: float, n_s: int, n_modes: int) -> list:
    """The modes n_s < k <= N within nu/2 of a root, at most one per root."""
    roots = (p.lambda1, p.lambda2)
    return sorted(k for k in {round(lam.real / nu) for lam in roots}
                  if n_s < k <= n_modes and min(abs(k * nu - lam) for lam in roots) < nu / 2.0)


def _series_modes(p: PhysicalParams, nu: float, n_s: int, t: float):
    """Sums over the modes n <= n_s of y'_n(t), with the absolute size of its
    terms, and of int_0^t chi_v*y'_n du: R_n = chi_v*y'_n/2, where y'_n =
    chi_v - nu_n*y_n, y_n = chi_v convolved with exp(-nu_n*u).  With chi_v =
    sum_i a_i*u**i (:func:`_chi_v_taylor`), y'_n's Taylor coefficients
    c_k = sum_{i <= k} a_i*(-nu_n)**(k - i)*i!/k! times t**k are polynomials
    in nu_n*t, summed over n by power sums.  While (nu_n + |lambda1|)*t < 1,
    |c_k|*t**k <= t/(k - 1)!: the terms past _SERIES_TERMS drop at most
    _SERIES_CUT*t per mode, _SERIES_CUT*e*t**3 from the integral."""
    if n_s == 0:
        return 0.0, 0.0, 0.0
    K = _SERIES_TERMS
    a = np.array(_chi_v_taylor(p, K, t))
    # int_0^t chi_v*u**j du = t**(j + 1)*beta_j, beta_j = sum_i a_i*t**i/(i + j + 1)
    beta = np.append(a @ (1.0 / (_SERIES_IDX + 1.0)), np.zeros(K))
    hb = _SERIES_H * beta[_SERIES_IDX]
    # sum_n (nu_n*t)**m, by Faulhaber's formula
    power = (n_s * nu * t) ** _SERIES_K * n_s * (_FAULHABER @ float(n_s) ** -_SERIES_K)
    signed, ab = power * _SIGNS[:K], np.abs(a)
    return (_SERIES_H @ a) @ signed, t * ((hb @ a) @ signed), (_SERIES_H @ ab) @ power


def _rates(nu: float, n_lo: int, n_hi: int, excluded: list) -> np.ndarray:
    """nu_n over n_lo < n <= n_hi outside ``excluded``."""
    n = np.arange(n_lo + 1.0, n_hi + 1.0)
    return np.delete(n, [k - n_lo - 1 for k in excluded if k <= n_hi]) * nu if excluded else n * nu


def _l_minus(p: PhysicalParams, nu_n: np.ndarray):
    """L_(nu_n), and |L_(nu_n)| times (nu_n**2 + gamma*nu_n + w2)*|L_(nu_n)|,
    the factor by which its denominator magnifies one rounding."""
    lm = 1.0 / (nu_n * (nu_n - p.gamma) + p.omega0_sq / p.M)
    return lm, lm * lm * (nu_n * (nu_n + p.gamma) + p.omega0_sq / p.M)


def _zeta_tail(c, zs) -> float:
    """sum over a tail of sum_s c_s*nu_n**-s, s = 2..25, from the sums ``zs``
    of nu_n**-s over it (:func:`_tail_zetas`)."""
    return math.fsum((c * zs).tolist())


def _tail_zetas(nu: float, n0: int, n_top: float = math.inf) -> np.ndarray:
    """sum_{n0 < n <= n_top} nu_n**-s at s = 2..25, by Hurwitz zeta values."""
    z = zeta(_ZETA_POWERS[:, None], np.array([n0 + 1.0, n_top + 1.0]))
    return nu**-_ZETA_POWERS * (z[:, 0] - z[:, 1])


def _l_series(p: PhysicalParams) -> np.ndarray:
    """u_k, k < 25, with 1/(1 - gamma*x + w2*x**2) = sum_k u_k*x**k: L_(nu) =
    sum_k u_k*x**(k + 2) at x = 1/nu, and L(nu) takes u_k*_SIGNS.  The radius
    is 1/|lambda1|, so past n0 >= 8*|lambda1|/nu the terms shrink like 8**-k."""
    g, w2 = p.gamma, p.omega0_sq / p.M
    u = [1.0, g]
    for _ in range(23):
        u.append(g * u[-1] - w2 * u[-2])
    return np.array(u)


def _head_sums(p: PhysicalParams, nu: float, n_s: int, n_modes: int, heads: dict):
    """The t-independent sums over the modes n_s < n <= N, built once per n_s
    in ``heads``: the modes E excluded near a root (:func:`_excluded_modes`),
    and over the others S0 = sum L_(nu_n), S1 = sum nu_n*L_(nu_n) and the
    static sum, sum -nu_n*L_(nu_n)*L(nu_n) = -nu_n/((nu_n**2 -
    lambda1**2)(nu_n**2 - lambda2**2)) (real coefficients, no difference over
    the roots), each with the absolute size of its terms (:func:`_l_minus`).
    Each is a direct head up to n0 = min(N, max(n_s, ceil(8*|lambda1|/nu)))
    plus a tail from one shared set of zeta sums; S1's harmonic part is a
    digamma difference."""
    if n_s not in heads:
        excluded = _excluded_modes(p, nu, n_s, n_modes)
        n0 = min(n_modes, max(n_s, math.ceil(8.0 * abs(p.lambda1) / nu)))
        nu_n = _rates(nu, n_s, n0, excluded)
        (lm, lm_size), zs, u = _l_minus(p, nu_n), _tail_zetas(nu, n0, n_modes), _l_series(p)
        tail0 = _zeta_tail(u[:24], zs)
        tail1 = (digamma(n_modes + 1.0) - digamma(n0 + 1.0)) / nu + _zeta_tail(u[1:], zs)
        f = nu_n / (nu_n * (nu_n + p.gamma) + p.omega0_sq / p.M)  # nu_n*L(nu_n)
        tail_st = -_zeta_tail(np.append(0.0, np.convolve(u, u * _SIGNS)[:23]), zs)
        heads[n_s] = (excluded, math.fsum(lm.tolist()) + tail0,
                      math.fsum((nu_n * lm).tolist()) + tail1, float(lm_size.sum()) + tail0,
                      float(nu_n @ lm_size) + tail1, math.fsum((-f * lm).tolist()) + tail_st,
                      float(f @ lm_size) - tail_st)
    return heads[n_s]


def _exp_dd(t: float, *points):
    """Divided difference of exp(-mu*t) over two or three points, based at the
    one of smallest real part, so that no phi1 argument is positive."""
    b, *rest = sorted(points, key=lambda z: z.real)
    if len(rest) == 1:
        return -t * np.exp(-b * t) * phi1(-(rest[0] - b) * t)
    return t * t * np.exp(-b * t) * phi1_dd(-(rest[0] - b) * t, -(rest[1] - b) * t)


def _envelopes(p: PhysicalParams, t: float):
    """The sizes of the terms of which chi_v and chi_v_dot are evaluated at t,
    which the bounds take for |chi_v| and |chi_v_dot|, and the relative error
    against them of the values and the sums they enter: it grows with t as
    the rounding of lambda*t does."""
    env, w = math.exp(-p.lambda2.real * t), abs(p.omega)
    inv_w = 1.0 / w if w > 0.0 else math.inf
    return (env * min(t, 2.0 * inv_w), env * (1.0 + min(p.gamma * t / 2.0, p.gamma * inv_w)),
            _ROUNDOFF * (2.0 + (p.gamma + w) * t / 2.0))


def _excluded_int(p: PhysicalParams, nu_k: float, t: float, cv: float, cvd: float,
                  vt: float, vd: float):
    """int_0^t R_k = -K[nu_k, lambda1, lambda2]/2 of an excluded mode, and the
    size of its terms: K(mu) = mu*J(mu) = r(mu)*s(mu), r = mu/(mu**2 + gamma*mu
    + w2), s = 1 - E(mu)*Pt(mu), by the Leibniz rule over x = nu_k, y =
    lambda1, z = lambda2; Pt is linear in mu, and E[y, z] = -chi_v."""
    g, w2 = p.gamma, p.omega0_sq / p.M
    x, (y, z) = nu_k, _roots(p)
    qx, qy, qz = (mu * (mu + g) + w2 for mu in (x, y, z))
    pz, ey, ez = (z + g) * cv + cvd, np.exp(-y * t), np.exp(-z * t)
    exy, exyz = _exp_dd(t, x, y), _exp_dd(t, x, y, z)
    r = (x / qx, (w2 - x * y) / (qx * qy), (x * y * z - w2 * (x + y + z + g)) / (qx * qy * qz))
    s = (-(exy * cv + exyz * pz), cv * (pz - ey), 1.0 - ez * pz)
    pz_size = abs(z + g) * vt + vd
    s_size = (abs(exy) * vt + abs(exyz) * pz_size, vt * (pz_size + abs(ey)),
              1.0 + abs(ez) * pz_size)
    return (-float(np.real(sum(ri * si for ri, si in zip(r, s)))) / 2.0,
            sum(abs(ri) * si for ri, si in zip(r, s_size)) / 2.0)


def _mode_parts(p: PhysicalParams, n_modes: int, t: float, cv: float, cvd: float,
                sigma1_cl: Optional[float], heads: dict):
    """sum_{n <= N} R_n(t) at one time t > 0 (gamma > 0), given chi_v and
    chi_v_dot, a bound on what it drops, and, given sigma1_classical(t), whose
    A = int_0^t chi_v**2 = sigma1_cl*M/(2*gamma*k_B*T) it takes,
    int_0^t sum_{n <= N} R_n and a bound on that (else None, None).  The
    bounds are the exponential terms cut at nu_n*t > _EXP_CUT and the series
    terms past _SERIES_TERMS, plus the relative error of :func:`_envelopes`
    times the absolute sizes of the terms summed, those over the modes past
    the series from the row's head (``heads``, :func:`_head_sums`)."""
    nu = p.matsubara_nu()
    g, w2 = p.gamma, p.omega0_sq / p.M
    vt, vd, eps_t = _envelopes(p, t)
    n_s = _series_count(p, nu, n_modes, t)
    ys, yi, size = _series_modes(p, nu, n_s, t)
    d, s, cut, r_k = [ys], [yi / 2.0], 0.0, 0.0  # d: parts of sum R_n/(chi_v/2)
    m, excluded, excluded_size = n_modes, [], 0.0
    size0 = size1 = static_size = 0.0  # no modes past the series
    if n_s < n_modes:
        excluded, s0, s1, size0, size1, static, static_size = _head_sums(
            p, nu, n_s, n_modes, heads)
        m = min(n_modes, math.ceil(_EXP_CUT / (nu * t)) + 1)
        nu_n = _rates(nu, n_s, m, excluded)
        lm, lm_size = _l_minus(p, nu_n)
        e = nu_n * np.exp(nu_n * -t)
        d += [w2 * cv * s0, cvd * s1, -math.fsum((lm * e).tolist())]
        size += w2 * vt * size0 + vd * size1 + float(e @ lm_size)
        if sigma1_cl is not None:
            cv2_int = sigma1_cl * p.M / (2.0 * g * p.kT)
            pe = lm * e * ((nu_n + g) * cv + cvd) / (nu_n * (nu_n + g) + w2)
            s += [math.fsum([w2 * s0 * cv2_int, s1 * cv * cv / 2.0, static,
                             math.fsum(pe.tolist())]) / 2.0]
            parts = [_excluded_int(p, k * nu, t, cv, cvd, vt, vd) for k in excluded]
            s += [v for v, _ in parts]
            excluded_size = sum(v for _, v in parts)
        if m < n_modes:
            # |nu_n*L_(nu_n)| <= 4n/nu once the mode nearest each root is out
            x = math.exp(-nu * t)
            cut = 4.0 / nu * x ** (m + 1) * (m + 1 - m * x) / math.expm1(-nu * t) ** 2
        for k in excluded:  # R_k = -(chi_v/2)*(nu_k*E[nu_k, lambda1, lambda2] - chi_v)
            e3 = k * nu * _exp_dd(t, k * nu, *_roots(p))
            r_k, size = r_k + float(np.real(-cv / 2.0 * (e3 - cv))), size + abs(e3) + vt
    value = cv / 2.0 * math.fsum(d) + r_k
    bound = abs(cv) / 2.0 * (cut + n_s * _SERIES_CUT * t) + eps_t * vt / 2.0 * size
    if sigma1_cl is None:
        return value, bound, None, None
    # an exponential term is at most (|L_|*|chi_v| + |nu_n*L_*L|*|chi_v_dot|)*
    # exp(-nu_n*t), as nu_n*(nu_n + gamma)*L(nu_n) <= 1, and past the series
    # |L_| <= 4/nu**2; A <= min(t**3/3, A(inf) = 1/(2*gamma*w2)); a series
    # mode's terms are at most e**2*t**3/2 and drop at most _SERIES_CUT*e*t**3
    cut = 0.0 if m >= n_modes else (4.0 / nu**2 * (abs(cv) + abs(cvd) / nu)
                                    * math.exp(-nu * t * (m + 1)) / -math.expm1(-nu * t))
    size = ((w2 * min(t**3 / 3.0, 0.5 / (g * w2)) + vt) * size0 + vt * vt / 2.0 * size1
            + (1.0 + vd) * static_size + n_s * math.e**2 * t**3 / 2.0) / 2.0 + excluded_size
    return (value, bound, math.fsum(s),
            (cut + n_s * _SERIES_CUT * math.e * t**3) / 2.0 + eps_t * size)


def _mode_sums(p: PhysicalParams, n_modes: int, t) -> tuple[np.ndarray, np.ndarray]:
    """sum_{n <= N} R_n(t) at each time of the array t > 0, in closed form, and
    a bound on what each value drops (:func:`_mode_parts`; the times share heads)."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    (cv, cvd), heads = _chi_all(p, t)[1:], {}
    parts = [_mode_parts(p, n_modes, ti, c, cd, None, heads)[:2]
             for ti, c, cd in zip(t.tolist(), cv.tolist(), cvd.tolist())]
    return np.array([v for v, _ in parts]), np.array([b for _, b in parts])


#: Default Matsubara mode cutoff N of the quantum coefficients.
N_MODES = 20_000


def _check_tol(tol: float) -> None:
    """Refuse a tol that is not a positive finite number (InvalidInput)."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidInput(f"tol must be a positive finite number, got {tol}")


def _n_modes(n_max: Optional[int]) -> int:
    """The mode cutoff N: ``n_max``, or ``N_MODES`` when it is None."""
    if n_max is None:
        return N_MODES
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return int(n_max)


@dataclass(frozen=True)
class D1Result:
    """Quantum diffusion function with its decomposition and error budget.

    ``tail_bound`` bounds what the mode sum at the cutoff N drops: the
    exponential terms cut below round-off, and round-off itself.
    ``log_coefficient`` is the prefactor of the residual log(n_max)
    sensitivity, which is intrinsic to the strictly-Ohmic kernel and cannot
    be summed away.
    """

    value: float
    white: float
    modes: float
    correlation: float
    n_modes: int
    tail_bound: float
    log_coefficient: float


_NO_BATH = D1Result(0.0, 0.0, 0.0, 0.0, 0, 0.0, 0.0)  # D1 at gamma = 0


def d1_quantum_detail(
    p: PhysicalParams,
    t: float,
    n_max: Optional[int] = None,
    tol: float = 1e-8,
) -> D1Result:
    """Quantum diffusion function D1(t) with diagnostics.

    D1 = d1_classical + (8*gamma/(M*beta)) * sum_{n <= N} R_n + 2*chi_q*xi_q0,
    with the cutoff N = ``n_max`` (``N_MODES`` if None).  The mode sum is
    taken in closed form at N (:func:`_mode_parts`), so its cost does not grow
    with N.  ``tol`` does not change N: it is the tolerance of the
    correlation-term series and the target that ``tail_bound`` is held to.
    The row of :func:`_quantum_columns`, ``build_table``'s pass, at one time."""
    p.matsubara_nu()  # HbarZero for classical parameters
    _check_tol(tol)
    if not (t > 0.0):
        raise ValueError(f"t must be positive, got {t}")
    n_modes = _n_modes(n_max)
    if p.gamma == 0.0:
        return _NO_BATH
    cq, cv, cvd = (float(a[0]) for a in _chi_all(p, t))
    sums, bound, _, _ = _mode_parts(p, n_modes, t, cv, cvd, None, {})
    return _d1_row(p, n_modes, t, cq, cv, cvd, tol, sums, bound)


def _d1_row(p: PhysicalParams, n_modes: int, t: float, cq: float, cv: float, cvd: float,
            tol: float, sums: float, bound: float) -> D1Result:
    """D1 at one time t > 0 (gamma > 0), given chi_q, chi_v and chi_v_dot
    there and the mode sum at the cutoff with its bound (:func:`_mode_parts`)."""
    pref, white = 8.0 * p.gamma * p.kT / p.M, (2.0 * p.gamma * p.kT / p.M) * cv * cv
    corr = 2.0 * cq * xi_q0_sum(p, t, tol=tol / (2.0 * abs(cq) + 1.0))
    modes = pref * sums
    return D1Result(white + modes + corr, white, modes, corr, n_modes, float(pref * bound),
                    pref * (cvd * cv / 2.0) / p.matsubara_nu())


# ---------------------------------------------------------------------------
# quantum variance: both Matsubara sums integrated in closed form at t alone,
# the mode part by ``_mode_parts`` with A from sigma1_classical, the
# correlation part (``_sigma1_corr``) with no root either

_CORR_HEAD_CAP = 1 << 17  # most terms that ``_sigma1_corr`` sums directly


def _sigma1_corr(p: PhysicalParams, t: float, cq: float, cv: float, tails: dict) -> tuple:
    """2*int_0^t chi_q*xi_q0 du at one time t > 0, from chi_q(t), chi_v(t), and
    a bound on what it drops.

    xi_q0 = -2*gamma*k_B*T*sum_n nu_n*L(nu_n)*exp(-nu_n*u) with L(mu) =
    1/(mu**2 + gamma*mu + omega0_sq/M), and chi_q's equation of motion gives
    K(mu) = int_0^t chi_q*exp(-mu*u) du = L(mu)*((mu + gamma)*(1 -
    exp(-mu*t)*chi_q(t)) + exp(-mu*t)*(omega0_sq/M)*chi_v(t)).  So the part is
    -4*gamma*k_B*T*sum_n nu_n*L(nu_n)*K(nu_n): no root, and no pole at nu_n.
    Terms n <= n_h are summed directly: past them nu_n*t > _EXP_CUT unless
    _CORR_HEAD_CAP cuts, and nu_n >= 8*|lambda1|, where only the t-independent
    nu_n*(nu_n + gamma)*L(nu_n)**2 is left (:func:`_zeta_tail`), summed
    once per n_h in ``tails``.  What a term drops then is at most
    exp(-nu_n*t)*(|chi_q| + w2*|chi_v|/nu_n)/nu_n**2, summed geometrically
    from nu_(n_h + 1); round-off is of terms at most 3/nu_n**2 +
    w2*|chi_v|/nu_n**3 in magnitude.
    """
    nu = p.matsubara_nu()
    g, w2 = p.gamma, p.omega0_sq / p.M
    n_alg = math.ceil(8.0 * abs(p.lambda1) / nu)
    if n_alg > _CORR_HEAD_CAP:
        raise TailNotBounded(f"correlation-part tail needs {n_alg} > {_CORR_HEAD_CAP} terms")
    n_h = max(min(math.ceil(_EXP_CUT / (nu * t)) + 1, _CORR_HEAD_CAP), n_alg)
    nu_n = np.arange(1, n_h + 1, dtype=np.float64) * nu
    e = np.exp(nu_n * -t)
    L = 1.0 / (nu_n * (nu_n + g) + w2)
    terms = nu_n * L * L * ((nu_n + g) * (e * (1.0 - cq) - np.expm1(nu_n * -t)) + e * w2 * cv)
    if n_h not in tails:
        v = _l_series(p) * _SIGNS
        vv = np.convolve(v, v)[:24]  # 1/(1 + gamma*x + w2*x**2)**2
        tails[n_h] = _zeta_tail(vv + g * np.append(0.0, vv[:23]), _tail_zetas(nu, n_h))
    nu_h = nu * (n_h + 1)
    cut = (abs(cq) + w2 * abs(cv) / nu_h) / nu_h**2 * math.exp(-nu_h * t) / -math.expm1(-nu * t)
    roundoff = _ROUNDOFF * (4.94 / nu**2 + 1.21 * w2 * abs(cv) / nu**3)  # zeta(2), zeta(3)
    return (-4.0 * g * p.kT * (math.fsum(terms.tolist()) + tails[n_h]),
            4.0 * g * p.kT * (cut + roundoff))


def sigma1_quantum(p: PhysicalParams, t: float, n_max: Optional[int] = None) -> float:
    """Quantum conditional variance sigma1(t), the integral of D1 from 0 to t.

    Assembled as sigma1_classical + the integral of the mode sum + the
    correlation part 2*int_0^t chi_q*xi_q0, each in closed form at t alone.
    The mode part integrates the same cutoff-N sum as
    :func:`d1_quantum_detail`, so sigma1' = D1 holds at the truncated level;
    the correlation part takes the whole series of xi_q0
    (:func:`_sigma1_corr`).  The row of :func:`_quantum_columns`,
    ``build_table``'s pass, at one time; the table reports the bound on both
    sums as ``sigma1_tail_bound_max``."""
    p.matsubara_nu()  # HbarZero for classical parameters
    if not (t >= 0.0):
        raise ValueError(f"t must be >= 0, got {t}")
    n_modes = _n_modes(n_max)
    base = float(sigma1_classical(p, t))
    if t == 0.0 or p.gamma == 0.0:
        return base
    cq, cv, cvd = (float(a[0]) for a in _chi_all(p, t))
    integral = _mode_parts(p, n_modes, t, cv, cvd, base, {})[2]
    return base + 8.0 * p.gamma * p.kT / p.M * integral + _sigma1_corr(p, t, cq, cv, {})[0]


def _quantum_columns(p: PhysicalParams, n_modes: int, t: np.ndarray, cq: np.ndarray,
                     cv: np.ndarray, cvd: np.ndarray, tol: float) -> tuple:
    """D1 (a :class:`D1Result` a time), sigma1 and sigma1's bound at every
    time of the array t > 0, given chi_q, chi_v and chi_v_dot there.  One
    :func:`_mode_parts` call a time serves D1 (:func:`_d1_row`) and sigma1,
    whose bound adds that of :func:`_sigma1_corr`; each t-independent sum is
    built once per call (``heads``, ``tails``)."""
    base = np.atleast_1d(sigma1_classical(p, t))
    if p.gamma == 0.0:
        return [_NO_BATH] * len(t), base, np.zeros(len(t))
    pref, heads, tails, rows = 8.0 * p.gamma * p.kT / p.M, {}, {}, []
    for i, (ti, q, c, cd, b) in enumerate(zip(*(a.tolist() for a in (t, cq, cv, cvd, base)))):
        try:
            sums, bound, integral, mode_bound = _mode_parts(p, n_modes, ti, c, cd, b, heads)
            det = _d1_row(p, n_modes, ti, q, c, cd, tol, sums, bound)
            corr, corr_bound = _sigma1_corr(p, ti, q, c, tails)
        except QbmError as exc:
            raise type(exc)(f"t_grid[{i}] = {ti}: {exc}") from exc
        rows.append((det, b + pref * integral + corr, pref * mode_bound + corr_bound))
    dets, s1, s1_bounds = zip(*rows)
    return dets, np.array(s1), np.array(s1_bounds)


# ---------------------------------------------------------------------------
# coefficient table


def step_plan(t0: float, t_final: float, dt: float, stops=()) -> tuple:
    """The steps of a run from t0 to t_final: (t_lo, t_hi, at).

    The one time grid of the FPE solver and both path simulators.  Step ends
    are t0 + k*dt and t_final, with every stop inserted; a stop or t_final
    within 1e-12*max(1, |t|) of a grid end replaces it, and of a later stop
    joins it, so no step is degenerate.  ``at[i]`` indexes the step that
    reaches stops[i].  A stop outside (t0, t_final] raises ValueError.
    """
    if not (dt > 0.0):
        raise ValueError("dt must be positive")
    if not (t_final > t0):
        raise ValueError(f"t_final must exceed the start time {t0}")
    want = np.asarray(stops, dtype=np.float64).ravel()
    out = ~((want > t0) & (want <= t_final))
    if out.any():
        raise ValueError(f"stop time {want[out][0]} outside ({t0}, {t_final}]")
    fixed = np.unique(np.append(want, t_final))
    near = 1e-12 * np.maximum(1.0, np.abs(fixed))
    fixed, near = (x[np.append(np.diff(fixed) > near[:-1], True)] for x in (fixed, near))
    grid = t0 + dt * np.arange(1, math.ceil((t_final - t0) / dt) + 1)
    free = grid < t_final
    for ts, tol in zip(fixed.tolist(), near.tolist()):
        free &= np.abs(grid - ts) > tol
    t_hi = np.sort(np.concatenate((grid[free], fixed)))
    return np.concatenate(([t0], t_hi[:-1])), t_hi, np.searchsorted(t_hi, want)


def _refuse_unstable(unstable: np.ndarray, t_lo: np.ndarray, limit: str) -> None:
    """Raise CFLViolation naming the first step flagged ``unstable``, if any."""
    if unstable.any():
        raise CFLViolation(f"step from t={t_lo[np.argmax(unstable)]} breaks {limit}")


def write_csv(path, names, columns) -> None:
    """Equal-length columns as CSV: a header row of ``names``, then one row
    per index, every value round-trip exact (%.17g), LF line endings."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    with open(path, "w", newline="") as f:
        f.write(",".join(names) + "\n")
        f.writelines(",".join("%.17g" % x for x in row) + "\n" for row in rows)


_CSV_COLUMNS = ("t", "omega", "d1", "sigma1", "sigma_q", "d_fpe")


@dataclass(frozen=True)
class CoefficientTable:
    """Sampled coefficients on an increasing time grid.

    Inside annotated pole windows the omega/d_fpe columns hold NaN; solvers
    must refuse to step there.  A quantum table records its mode cutoff N as
    ``n_max``.  Serializes to CSV (columns t, omega, d1, sigma1, sigma_q,
    d_fpe) plus a JSON manifest.
    """

    t: np.ndarray
    omega: np.ndarray
    d1: np.ndarray
    sigma1: np.ndarray
    sigma_q: np.ndarray
    d_fpe: np.ndarray
    mode: str
    params: PhysicalParams
    n_max: Optional[int]
    tol: float
    pole_windows: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        if name not in _CSV_COLUMNS:
            raise KeyError(name)
        return getattr(self, name)

    def _pad(self) -> float:
        return float(self.t[1] - self.t[0]) if len(self.t) > 1 else 0.0

    def in_pole_window(self, t_lo: float, t_hi: float) -> bool:
        """Whether [t_lo, t_hi] overlaps a pole window padded by one table
        spacing: the rule on which ``step_coeffs`` refuses a step."""
        pad = self._pad()
        return any(t_lo <= b + pad and t_hi >= a - pad for a, b in self.pole_windows)

    def _in_range(self, t):
        return (t >= self.t[0] - 1e-12) & (t <= self.t[-1] + 1e-12)

    def _check_range(self, t) -> None:
        ok = self._in_range(t)
        if not np.all(ok):
            raise GridMismatch(
                f"t={np.ravel(t)[~np.ravel(ok)][0]} outside coefficient table range"
                f" [{self.t[0]}, {self.t[-1]}]"
            )

    def at(self, t, name: str):
        """Column ``name`` linearly interpolated at t (scalar or array); any t
        outside the table range, with 1e-12 slack, raises GridMismatch."""
        self._check_range(t)
        return np.interp(t, self.t, self.column(name))

    def step_coeffs(self, t_lo, t_hi, t_mid):
        """(Omega, D) of the steps [t_lo, t_hi], interpolated at t_mid.

        The one lookup and guard policy of the FPE and SDE steppers,
        vectorised over steps.  A step is refused, in this order of checks,
        if it overlaps a pole window padded by one table spacing
        (PoleWindow), if t_mid is out of range as in ``at`` (GridMismatch),
        if Omega or D is not finite (NonFiniteCoefficient) or if D < 0
        (NegativeDiffusion).  The earliest refused step raises.
        """
        pad = self._pad()
        om = np.interp(t_mid, self.t, self.omega)
        dc = np.interp(t_mid, self.t, self.d_fpe)
        ok = self._in_range(t_mid) & np.isfinite(om) & np.isfinite(dc) & (dc >= 0)
        for a, b in self.pole_windows:
            ok = ok & ((t_lo > b + pad) | (t_hi < a - pad))
        if not np.all(ok):
            k = int(np.argmin(np.ravel(ok)))
            lo, hi, tm, o, d = (
                float(np.ravel(np.broadcast_to(x, np.shape(ok)))[k])
                for x in (t_lo, t_hi, t_mid, om, dc)
            )
            if self.in_pole_window(lo, hi):
                raise PoleWindow(f"step [{lo}, {hi}] overlaps a drift pole window padded by {pad}")
            self._check_range(tm)
            if not (math.isfinite(o) and math.isfinite(d)):
                raise NonFiniteCoefficient(f"omega/d_fpe not finite at t={tm}")
            raise NegativeDiffusion(f"D(t={tm}) = {d} < 0")
        return om, dc

    def to_csv(self, path) -> None:
        write_csv(path, _CSV_COLUMNS, [self.column(c) for c in _CSV_COLUMNS])

    def manifest(self) -> dict:
        pp = self.params
        return {
            "params": {
                "M": pp.M,
                "gamma": pp.gamma,
                "omega0_sq": pp.omega0_sq,
                "T": pp.T,
                "hbar": pp.hbar,
                "unit_mode": pp.unit_mode,
                "regime": pp.regime,
            },
            "mode": self.mode,
            "n_max": self.n_max,
            "tol": self.tol,
            "t_range": [float(self.t[0]), float(self.t[-1])],
            "n_points": int(len(self.t)),
            "pole_windows": [[float(a), float(b)] for a, b in self.pole_windows],
            "diagnostics": {
                k: (
                    v if isinstance(v, bool)
                    else float(v) if np.ndim(v) == 0
                    else list(map(float, v))
                )
                for k, v in self.diagnostics.items()
            },
            "columns": list(_CSV_COLUMNS),
        }


def _pole_windows_for(p: PhysicalParams, t_max: float) -> list:
    """Intervals around underdamped chi_q zeros where |Omega| exceeds ~1/delta."""
    if p.regime != "underdamped":
        return []
    delta = 1.0 / (50.0 * p.gamma + 10.0 * abs(p.omega.imag))
    return [(float(tp - delta), float(tp + delta)) for tp in pole_times(p, t_max + delta)]


def build_table(
    p: PhysicalParams,
    t_grid,
    mode: str = "classical",
    n_max: Optional[int] = None,
    tol: float = 1e-8,
    threads: int = 1,
) -> CoefficientTable:
    """Evaluate all coefficient columns on a time grid.

    Classical columns are vectorized closed forms.  Quantum columns come from
    one pass over the grid (:func:`_quantum_columns`) at the mode cutoff N =
    ``n_max`` (``N_MODES`` if None), which the table records.  The response
    functions are evaluated once on the grid; sigma_q and d_fpe are assembled
    here from them, d1 and sigma1.  Points inside pole windows get NaN
    omega/d_fpe and the window is annotated; any other per-point failure
    aborts with the grid index named.  ``threads`` is ignored: the table is
    built on the calling thread.
    """
    t_arr = np.asarray(t_grid, dtype=np.float64)
    if t_arr.ndim != 1 or len(t_arr) == 0:
        raise ValueError("t_grid must be a nonempty 1-D array")
    if np.any(np.diff(t_arr) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    if t_arr[0] < 0.0:
        raise ValueError("t_grid must be nonnegative")
    if mode not in ("classical", "quantum"):
        raise ValueError(f"mode must be 'classical' or 'quantum', got {mode!r}")
    _check_tol(tol)
    if mode == "quantum":
        p.matsubara_nu()
        if t_arr[0] <= 0.0:
            raise ValueError("quantum-mode tables require t_grid[0] > 0")
        n_max = _n_modes(n_max)

    windows = _pole_windows_for(p, float(t_arr[-1]))
    in_window = np.zeros(len(t_arr), dtype=bool)
    for a, b in windows:
        in_window |= (t_arr >= a) & (t_arr <= b)

    omega = np.full(len(t_arr), np.nan)
    dq = np.full(len(t_arr), np.nan)
    cq, cv, cvd = _chi_all(p, t_arr)
    ok = ~in_window
    if ok.any():
        omega[ok] = _omega_from_chi(p, t_arr[ok], cq[ok], cv[ok])

    diagnostics: dict = {}
    if mode == "classical":  # d1_classical and sigma_cl_closed from this chi
        d1 = (2.0 * p.gamma * p.kT / p.M) * cv * cv
        s1 = np.atleast_1d(sigma1_classical(p, t_arr))
        sq = (p.kT / p.omega0_sq) * (1.0 - cq * cq)
    else:
        dets, s1, s1_tails = _quantum_columns(p, n_max, t_arr, cq, cv, cvd, tol)
        d1 = np.array([det.value for det in dets])
        tails = np.array([det.tail_bound for det in dets])
        sq = s1 + (p.kT / p.M) * cv * cv
        diagnostics = {
            "d1_tail_bound_max": float(np.max(tails)),
            "sigma1_tail_bound_max": float(np.max(s1_tails)),
            "d1_log_coefficient_max": float(np.max(np.abs([det.log_coefficient for det in dets]))),
            "n_modes_max": float(n_max if p.gamma > 0.0 else 0),
            # whether every value at the cutoff met tol; reported, not hidden
            "tol_met": bool(max(np.max(tails), np.max(s1_tails)) <= tol),
        }
    sdot = d1 + (2.0 * p.kT / p.M) * cv * cvd
    dq[ok] = sdot[ok] - 2.0 * omega[ok] * sq[ok]

    if not np.all(np.isfinite(d1)) or not np.all(np.isfinite(s1)):
        bad = int(np.flatnonzero(~(np.isfinite(d1) & np.isfinite(s1)))[0])
        raise QbmError(f"non-finite coefficient at t_grid[{bad}] = {t_arr[bad]}")

    return CoefficientTable(
        t=t_arr,
        omega=omega,
        d1=d1,
        sigma1=s1,
        sigma_q=sq,
        d_fpe=dq,
        mode=mode,
        params=p,
        n_max=n_max,
        tol=tol,
        pole_windows=windows,
        diagnostics=diagnostics,
    )
