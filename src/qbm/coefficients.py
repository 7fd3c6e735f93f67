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
``2*chi_q(t)*xi_q0(t)`` and sigma1 as its integral, a root-free sum at t
alone, from the whole Matsubara series of xi_q0 and a t-independent sum C
that only sigma1 builds.  ``xi_q0_sum`` is that series as the rows sum it
at a cutoff N <= 2**22 (past that, a row at small nu*t may sum more of its
terms), and ``qbm validate`` checks it against the hypergeometric closed form
(``qbm.special.xi_q0_closed``).  ``tol`` changes no value.

``build_table`` is the one assembly of the derived columns: sigma_q = sigma1
+ (k_B*T/M)*chi_v**2 and D = sigma_dot - 2*Omega*sigma_q with the exact
derivative sigma_dot = D1 + (2*k_B*T/M)*chi_v*chi_v_dot (no numerical
differentiation).  Its quantum rows (``_quantum_columns``, which
``d1_quantum_detail`` and ``sigma1_quantum`` take at one time) are admitted by
one gate (``_quantum_gate``: hbar > 0, every t > 0, N >= 1) before any
response function is formed, and form exp(-nu_n*t) once for the mode sums and
both correlation parts.  Each call forms its t-independent sums once
(``_heads``), before any row, and keeps none;
their Hurwitz zeta and harmonic tails are summed here (``zeta``), with a bound
on what they drop, so no quantum row loads scipy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

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
    _FOLD_CUT,
    _chi_all,
    _omega_from_chi,
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
    "xi_q0_sum",
    "CoefficientTable",
    "build_table",
    "step_plan",
    "write_csv",
]


# ---------------------------------------------------------------------------
# classical closed forms


def d1_classical(p: PhysicalParams, t):
    """White-noise (classical) diffusion function (2*gamma*k_B*T/M)*chi_v**2.

    Equivalently (4*gamma*k_B*T/(M*w**2))*exp(-gamma*t)*(cosh(w*t) - 1);
    satisfies d/dt sigma1_classical = d1_classical exactly.
    """
    cv = _chi_all(p, t)[1]
    return _shaped((2.0 * p.gamma * p.kT / p.M) * cv * cv, t)


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
    taylor = series.any()
    closed = ~series if taylor else slice(None)  # no mask where no time is a series time
    some = not taylor or closed.any()
    if some and w.imag == 0.0 and w.real >= g / 2.0:
        l1, l2, tc = p.lambda1.real, p.lambda2.real, ta[closed]
        out[closed] = (2.0 * g * p.kT / p.M) / w.real**2 * (
            -np.expm1(-2.0 * l2 * tc) / (2.0 * l2) + 2.0 * np.expm1(-g * tc) / g
            - np.expm1(-2.0 * l1 * tc) / (2.0 * l1))
    elif some:
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
    if taylor:
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
        x, acc = (float(ts[0]) if len(ts) == 1 else ts), 0.0  # one time: a float per term
        for bk in b[::-1].tolist():
            acc = acc * x + bk
        out[series] = (2.0 * g * p.kT / p.M) * x**3 * acc
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
    cq = _chi_all(p, t)[0]
    return _shaped((p.kT / p.omega0_sq) * (1.0 - cq * cq), t)


def d_cl_closed(p: PhysicalParams, t):
    """Algebraic closed form of the classical FPE diffusion coefficient.

    (2*k_B*T*t/M) * tanhc(w*t/2) / (1 + (gamma*t/2)*tanhc(w*t/2)); equals
    (2*k_B*T/M)*chi_v/chi_q and saturates at 4*k_B*T/(M*(gamma+w)).
    Diverges with Omega at the underdamped zeros of chi_q.
    """
    ta = _time_array(t)
    tc = tanhc(p.omega * ta / 2.0)
    out = (2.0 * p.kT / p.M) * ta * tc / (1.0 + (p.gamma * ta / 2.0) * tc)
    return _shaped(_real_cast(out, "d_cl_closed"), t)


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
_EXP_CAP = 1 << 22  # most exponential terms a row sums, however small nu*t
_CHUNK = 1 << 20  # exponential terms formed at once
_ROUNDOFF = 4.0 * np.finfo(np.float64).eps
_SIGNS = (-1.0) ** np.arange(25)
_SERIES_TERMS = 21
_SERIES_CUT = math.e / math.factorial(_SERIES_TERMS - 1)
_SERIES_K = np.arange(float(_SERIES_TERMS))
_SERIES_IDX = np.add.outer(np.arange(_SERIES_TERMS), np.arange(_SERIES_TERMS))
_SERIES_INV = 1.0 / (_SERIES_IDX + 1.0)
# _SERIES_H[m, i] = i!/(i + m)!: what a term a_i*u**i of chi_v leaves at
# (-nu_n*u)**m in y'_n (see _series_modes), kept while i + m < _SERIES_TERMS
_SERIES_H = np.array([[math.factorial(i) / math.factorial(i + m) if i + m < _SERIES_TERMS else 0.0
                       for i in range(_SERIES_TERMS)] for m in range(_SERIES_TERMS)])
# sum_{n <= M} n**m = M**(m + 1)*sum_j _FAULHABER[m, j]*M**-j, with the
# Bernoulli numbers B_j (B_1 = +1/2), each the float nearest the exact rational
_BERNOULLI = np.array([1, 1 / 2, 1 / 6, 0, -1 / 30, 0, 1 / 42, 0, -1 / 30, 0, 5 / 66, 0,
                       -691 / 2730, 0, 7 / 6, 0, -3617 / 510, 0, 43867 / 798, 0, -174611 / 330])
_FAULHABER = np.array([[math.comb(m + 1, j) * _BERNOULLI[j] / (m + 1) if j <= m else 0.0
                        for j in range(_SERIES_TERMS)] for m in range(_SERIES_TERMS)])
# zeta(s, q) = sum_{j >= q} j**-s, s = 1 standing for -digamma(q): a table of the
# sums over q <= j < _EM_A (of -digamma(q) whole at s = 1), plus Euler-Maclaurin at
# a = max(q, _EM_A), a**(1 - s)/(s - 1) (-log(a) at s = 1) + a**-s*(1/2 + sum_k
# _EM_COEF[s, k]*a**(1 - 2k)), k <= 9, _EM_COEF[s, k] = B_2k*C(s + 2k - 2, 2k - 1)/(2k):
# it omits less than its next term, k = 10 (summands completely monotone), 1e-19 relative
_EM_A = 48
_EM_S = np.arange(1.0, 26.0)[:, None]
_EM_LEAD = np.append(0.0, 1.0 / np.arange(1.0, 25.0))[:, None]
_EM_COEF = np.array([[_BERNOULLI[2 * k] * math.comb(s + 2 * k - 2, 2 * k - 1) / (2 * k)
                      for k in range(1, 11)] for s in range(1, 26)])
_EM_HEAD = np.array([[math.fsum(row[q:]) for q in range(_EM_A)]  # column q - 1
                     for row in (np.arange(1.0, _EM_A) ** -_EM_S).tolist()])
_EM_HEAD[0, :-1] = [math.fsum([0.5772156649015329, *(-1.0 / j for j in range(1, q))])
                    for q in range(1, _EM_A)]  # -digamma(q) = Euler's gamma - H_(q - 1)


def zeta(q: np.ndarray) -> tuple:
    """zeta(s, q) at s = 1..25 (rows) and the integers q >= 1 (columns), and
    the first Euler-Maclaurin term it omits, which bounds its truncation."""
    a = np.maximum(q, float(_EM_A))
    x = a ** -_EM_S  # its rows s = 2k - 1 are the powers a**(1 - 2k)
    em = x * (a * _EM_LEAD + 0.5 + _EM_COEF[:, :9] @ x[:17:2])
    em[0] = np.where(q < _EM_A, 0.0, em[0] - np.log(a))
    return _EM_HEAD[:, np.minimum(q, _EM_A) - 1] + em, x * np.abs(_EM_COEF[:, 9:]) * x[18]


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
    beta = np.concatenate((a @ _SERIES_INV, np.zeros(K)))
    hb = _SERIES_H * beta[_SERIES_IDX]
    # sum_n (nu_n*t)**m, by Faulhaber's formula
    power = (n_s * nu * t) ** _SERIES_K * n_s * (_FAULHABER @ float(n_s) ** -_SERIES_K)
    signed, ab = power * _SIGNS[:K], np.abs(a)
    return (_SERIES_H @ a) @ signed, t * ((hb @ a) @ signed), (_SERIES_H @ ab) @ power


def _kept(a: np.ndarray, n_s: int, n_hi: int, excluded: list) -> np.ndarray:
    """a over the modes n_s < n <= n_hi outside ``excluded``, a[0] being n = 1."""
    drop = [k - n_s - 1 for k in excluded if k <= n_hi]
    return np.delete(a[n_s:n_hi], drop) if drop else a[n_s:n_hi]


def _l_minus(p: PhysicalParams, nu_n: np.ndarray):
    """L_(nu_n), |L_(nu_n)|*q*|L_(nu_n)|, the factor by which its denominator
    magnifies one rounding, and q = 1/L(nu_n) = nu_n**2 + gamma*nu_n + w2."""
    lm = 1.0 / (nu_n * (nu_n - p.gamma) + p.omega0_sq / p.M)
    q = nu_n * (nu_n + p.gamma) + p.omega0_sq / p.M
    return lm, lm * lm * q, q


def _l_series(p: PhysicalParams) -> np.ndarray:
    """u_k, k < 25, with 1/(1 - gamma*x + w2*x**2) = sum_k u_k*x**k: L_(nu) =
    sum_k u_k*x**(k + 2) at x = 1/nu, and L(nu) takes u_k*_SIGNS.  The radius
    is 1/|lambda1|, so past n0 >= 8*|lambda1|/nu the terms shrink like 8**-k."""
    g, w2 = p.gamma, p.omega0_sq / p.M
    u = [1.0, g]
    for _ in range(23):
        u.append(g * u[-1] - w2 * u[-2])
    return np.array(u)


def _heads(p: PhysicalParams, n_modes: int, times, corr: bool) -> dict:
    """The t-independent sums of one call, each formed once: the head
    (:func:`_head_sums`) of the series count of each time in ``times`` and,
    given ``corr``, sigma1's correlation sum C (key "C", :func:`_corr_sum`),
    refused (TailNotBounded) before any work past _CHUNK direct terms.  A tail
    is sum_s c_s*nu_n**-s, s = 1..25, from the sums of nu_n**-s over it: all
    from one L series and one :func:`zeta` call at every n0 + 1, N + 1, n_c + 1.
    What zeta drops of a tail (n0 < N) enters the sizes divided by _ROUNDOFF,
    as each size is taken at a relative error of at least 2*_ROUNDOFF."""
    nu = p.matsubara_nu()
    n_c = math.ceil(8.0 * abs(p.lambda1) / nu)
    if corr and n_c > _CHUNK:
        raise TailNotBounded(f"sigma1's correlation sum needs {n_c} > {_CHUNK} direct terms")
    n0 = {n_s: min(n_modes, max(n_s, n_c))
          for n_s in {_series_count(p, nu, n_modes, t) for t in times}}
    points = sorted({n_modes, *n0.values(), *([n_c] if corr else [])})
    z, r = (dict(zip(points, a.T)) for a in zeta(np.array(points) + 1))
    u = _l_series(p)
    v, inv = u * _SIGNS, nu**-_EM_S[:, 0]  # L's series, and the zeta sums' factor
    # c_s of S0, S1 (s = 1 its harmonic part) and the static sum
    coef = np.zeros((3, 25))
    coef[0, 1:], coef[1], coef[2, 2:] = u[:24], u, np.convolve(u, v)[:23]
    heads = {n_s: _head_sums(p, nu, n_s, n, n_modes, coef * (inv * (z[n] - z[n_modes])),
                             np.abs(coef) @ (inv * (r[n] + r[n_modes])) / _ROUNDOFF * (n < n_modes))
             for n_s, n in n0.items()}
    if corr:
        heads["C"] = _corr_sum(p, nu, n_c, v, inv[1:] * z[n_c][1:], inv[1:] * r[n_c][1:])
    return heads


def _head_sums(p: PhysicalParams, nu: float, n_s: int, n0: int, n_modes: int,
               tails: np.ndarray, dropped: np.ndarray) -> tuple:
    """The t-independent sums over the modes n_s < n <= N: the modes E excluded
    near a root (:func:`_excluded_modes`), and over the others S0 = sum
    L_(nu_n), S1 = sum nu_n*L_(nu_n) and the static sum, sum -nu_n*L_(nu_n)*
    L(nu_n) = -nu_n/((nu_n**2 - lambda1**2)(nu_n**2 - lambda2**2)) (real
    coefficients, no difference over the roots), each with the absolute size
    of its terms (:func:`_l_minus`): a direct head to n0 = min(N, max(n_s,
    ceil(8*|lambda1|/nu))), plus the row sums of ``tails``, whose sizes take
    ``dropped`` besides."""
    excluded = _excluded_modes(p, nu, n_s, n_modes)
    nu_n = _kept(np.arange(1.0, n0 + 1.0) * nu, n_s, n0, excluded)
    tail0, tail1, tail_st = (math.fsum(row) for row in tails.tolist())
    size0, size1, size_st = (x + d for x, d in zip((tail0, tail1, tail_st), dropped.tolist()))
    head = (0.0,) * 6
    if len(nu_n):
        lm, lm_size, q = _l_minus(p, nu_n)
        f = nu_n / q  # nu_n*L(nu_n)
        head = (math.fsum(lm.tolist()), math.fsum((nu_n * lm).tolist()), float(lm_size.sum()),
                float(nu_n @ lm_size), math.fsum((-f * lm).tolist()), float(f @ lm_size))
    return excluded, *(h + x for h, x in zip(head, (tail0, tail1, size0, size1, -tail_st, size_st)))


def _corr_sum(p: PhysicalParams, nu: float, n_c: int, v: np.ndarray, zc: np.ndarray,
              dropped: np.ndarray) -> tuple:
    """sigma1's t-independent correlation sum C = sum_{n >= 1} nu_n*(nu_n +
    gamma)*L(nu_n)**2, and what it drops: direct up to n_c = ceil(8*|lambda1|/nu),
    past it from L's series v (:func:`_l_series` times _SIGNS) and the zeta sums
    ``zc`` of nu_n**-s over n > n_c, s >= 2, which drop at most ``dropped``."""
    g, nu_n = p.gamma, np.arange(1.0, n_c + 1.0) * nu
    lv = 1.0 / (nu_n * (nu_n + g) + p.omega0_sq / p.M)
    vv = np.convolve(v, v)[:24]  # 1/(1 + gamma*x + w2*x**2)**2
    c = vv + g * np.concatenate(([0.0], vv[:23]))
    return (math.fsum((nu_n * (nu_n + g) * lv * lv).tolist()) + math.fsum((c * zc).tolist()),
            float(np.abs(c) @ dropped))


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


def _exp_count(nu: float, t: float) -> int:
    """The exponential series' cut: past this n, nu_n*t > _EXP_CUT."""
    return math.ceil(_EXP_CUT / (nu * t)) + 1


def _exp_terms(nu: float, t: float, lo: int, hi: int) -> tuple:
    """nu_n and exp(-nu_n*t) over lo < n <= hi."""
    nu_n = np.arange(lo + 1.0, hi + 1.0) * nu
    return nu_n, np.exp(nu_n * -t)


def _mode_parts(p: PhysicalParams, n_modes: int, t: float, cv: float, cvd: float,
                sigma1_cl: Optional[float], heads: dict, block: tuple):
    """sum_{n <= N} R_n(t) at one time t > 0 (gamma > 0), given chi_v and
    chi_v_dot, a bound on what it drops, and, given sigma1_classical(t), whose
    A = int_0^t chi_v**2 = sigma1_cl*M/(2*gamma*k_B*T) it takes,
    int_0^t sum_{n <= N} R_n and a bound on that (else None, None).  The
    bounds are the exponential terms cut at nu_n*t > _EXP_CUT and the series
    terms past _SERIES_TERMS, plus the relative error of :func:`_envelopes`
    times the absolute sizes of the terms summed past the series, from the
    row's head (:func:`_heads`) and exponential terms: ``block`` holds nu_n
    and exp(-nu_n*t) from n = 1 over at least min(N, :func:`_exp_count`) terms."""
    nu = p.matsubara_nu()
    g, w2 = p.gamma, p.omega0_sq / p.M
    vt, vd, eps_t = _envelopes(p, t)
    n_s = _series_count(p, nu, n_modes, t)
    ys, yi, size = _series_modes(p, nu, n_s, t)
    excluded, s0, s1, size0, size1, static, static_size = heads[n_s]
    m = min(n_modes, _exp_count(nu, t))  # n_s <= m: nu_(n_s)*t < 1
    nu_n, ex = (_kept(a, n_s, m, excluded) for a in block)
    (lm, lm_size, q), e = _l_minus(p, nu_n), nu_n * ex
    le = lm * e  # the exponential terms of sum L_*nu_n*exp(-nu_n*t)
    d = [ys, w2 * cv * s0, cvd * s1, -math.fsum(le.tolist())]  # parts of sum R_n/(chi_v/2)
    size += w2 * vt * size0 + vd * size1 + float(e @ lm_size)
    s, cut, r_k, excluded_size = [yi / 2.0], 0.0, 0.0, 0.0
    if sigma1_cl is not None:
        cv2_int = sigma1_cl * p.M / (2.0 * g * p.kT)
        pe = le * ((nu_n + g) * cv + cvd) / q
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
    t, nu = np.atleast_1d(np.asarray(t, dtype=np.float64)), p.matsubara_nu()
    (cv, cvd), heads = _chi_all(p, t)[1:], _heads(p, n_modes, t.tolist(), False)
    parts = [_mode_parts(p, n_modes, ti, c, cd, None, heads,
                         _exp_terms(nu, ti, 0, min(n_modes, _exp_count(nu, ti))))[:2]
             for ti, c, cd in zip(t.tolist(), cv.tolist(), cvd.tolist())]
    return np.array([v for v, _ in parts]), np.array([b for _, b in parts])


#: Default Matsubara mode cutoff N of the quantum coefficients.
N_MODES = 20_000


def _check_tol(tol: float) -> None:
    """Refuse a tol that is not a positive finite number (InvalidInput)."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidInput(f"tol must be a positive finite number, got {tol}")


def _quantum_gate(p: PhysicalParams, t, n_max: Optional[int]) -> tuple:
    """The times t as a 1-D array and the mode cutoff N of their quantum rows
    (``n_max``, or ``N_MODES`` if None), once the rows are admitted: HbarZero
    for classical parameters, else ValueError for a time not > 0, named by its
    index, or for n_max < 1.  Every quantum entry point runs it before it
    forms any response function or head."""
    p.matsubara_nu()  # HbarZero for classical parameters
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    bad = np.flatnonzero(~(ts > 0.0))
    if len(bad):
        raise ValueError(f"t_grid[{bad[0]}] = {ts[bad[0]]}: t must be positive")
    if n_max is not None and n_max < 1:
        raise ValueError("n_max must be >= 1")
    return ts, N_MODES if n_max is None else int(n_max)


@dataclass(frozen=True)
class D1Result:
    """Quantum diffusion function with its decomposition and error budget.

    ``tail_bound`` bounds what the mode sum at the cutoff N and the series of
    xi_q0 drop: the exponential terms cut below round-off, and round-off
    itself.  ``log_coefficient`` is the prefactor of the residual log(n_max)
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


def _correlation(p: PhysicalParams, t: float, cq: float, cv: float,
                 c_sum: Optional[tuple], first: tuple, last: int) -> tuple:
    """xi_q0(t) and a bound on what it drops, and, given C and what it drops
    (:func:`_corr_sum`), sigma1's correlation part 2*int_0^t chi_q*xi_q0 du and
    a bound on that (else None, None), from chi_q(t), chi_v(t) and the terms
    n <= last, the first ``first``.

    xi_q0 = -2*gamma*k_B*T*sum_n nu_n*L(nu_n)*exp(-nu_n*t), and chi_q's
    equation of motion makes the part -4*gamma*k_B*T*[C - sum_n
    nu_n*L(nu_n)**2*exp(-nu_n*t)*((nu_n + gamma)*chi_q - w2*chi_v)], no root.
    Past n = last their terms are at most exp(-nu_n*t)/nu_n and (|chi_q| +
    w2*|chi_v|/nu_n)*exp(-nu_n*t)/nu_n**2, summed geometrically; round-off is
    of xi_q0's positive terms, also moved by the rounding of nu_n*t, and of
    terms at most 3/nu_n**2 + w2*|chi_v|/nu_n**3.  Where the bound on xi_q0
    exceeds |xi_q0| (at nu*t of order 1e-8, past _EXP_CAP terms), no digit of
    either value is kept, and it is refused (TailNotBounded)."""
    nu, g, w2 = p.matsubara_nu(), p.gamma, p.omega0_sq / p.M
    xs, cs = [], []
    for nu_n, ex in itertools.chain([first], (_exp_terms(nu, t, lo, min(lo + _CHUNK, last))
                                              for lo in range(len(first[0]), last, _CHUNK))):
        lv = 1.0 / (nu_n * (nu_n + g) + w2)
        w = nu_n * lv * ex
        xs.append(math.fsum(w.tolist()))
        if c_sum is not None:
            cs.append(math.fsum((w * lv * ((nu_n + g) * cq - w2 * cv)).tolist()))
    xi, nu_h, pref = math.fsum(xs), nu * (last + 1), 2.0 * g * p.kT
    decay = math.exp(-nu_h * t) / -math.expm1(-nu * t)
    xi_bound = pref * (decay / nu_h + _ROUNDOFF * (2.0 + (_EXP_CUT + 2.0 * nu * t) / 4.0) * xi)
    if xi_bound > pref * xi:
        raise TailNotBounded(f"xi_q0 = {-pref * xi:.3g} cut at {last} terms drops up to "
                             f"{xi_bound:.3g}")
    if c_sum is None:
        return -pref * xi, xi_bound, None, None
    corr_round = _ROUNDOFF * (4.94 / nu**2 + 1.21 * w2 * abs(cv) / nu**3)  # zeta(2), zeta(3)
    return (-pref * xi, xi_bound, -2.0 * pref * (c_sum[0] - math.fsum(cs)), 2.0 * pref
            * ((abs(cq) + w2 * abs(cv) / nu_h) / nu_h**2 * decay + corr_round + c_sum[1]))


def xi_q0_sum(p: PhysicalParams, t: float) -> float:
    """The initial noise/position correlation xi_q0(t) from its Matsubara
    series, summed as a quantum row sums it (:func:`_correlation`): to nu_n*t
    > _EXP_CUT, at most _EXP_CAP terms, and refused (TailNotBounded) where
    that cut keeps no digit.  A row at cutoff N sums up to max(N, _EXP_CAP)
    terms, so it matches only for N <= _EXP_CAP (at t = 1e-6 on (1, 1, 0.16,
    1, hbar=1), bit for bit at N = 20000, in 14 digits at N = 5e6).
    ``qbm.special.xi_q0_closed`` is the other route."""
    nu = p.matsubara_nu()
    if not (t > 0.0):
        raise ValueError(f"t must be positive, got {t}")
    last = min(_exp_count(nu, t), _EXP_CAP)
    return _correlation(p, t, 0.0, 0.0, None, _exp_terms(nu, t, 0, min(last, _CHUNK)), last)[0]


def _quantum_row(p: PhysicalParams, n_modes: int, t: float, cq: float, cv: float, cvd: float,
                 sigma1_cl: Optional[float], heads: dict) -> tuple:
    """D1 (a :class:`D1Result`) at one time t > 0, gamma > 0, from chi_q, chi_v
    and chi_v_dot there and the call's :func:`_heads`, and, given
    sigma1_classical(t), sigma1 and a bound on what it drops (else None, None):
    exp(-nu_n*t) is formed once, to nu_n*t > _EXP_CUT or max(N, _EXP_CAP) terms,
    for the mode sums and both correlation parts.  Where that cap leaves xi_q0
    no digit, :func:`_correlation` refuses the row, whichever value is asked for."""
    nu = p.matsubara_nu()
    n_cut = _exp_count(nu, t)
    m, last = min(n_modes, n_cut), min(n_cut, max(n_modes, _EXP_CAP))
    c_sum = None if sigma1_cl is None else heads["C"]
    first = _exp_terms(nu, t, 0, max(m, min(last, _CHUNK)))
    sums, bound, integral, int_bound = _mode_parts(p, n_modes, t, cv, cvd, sigma1_cl, heads, first)
    xi, xi_bound, corr, corr_bound = _correlation(p, t, cq, cv, c_sum, first, last)
    pref, white = 8.0 * p.gamma * p.kT / p.M, (2.0 * p.gamma * p.kT / p.M) * cv * cv
    det = D1Result(white + pref * sums + 2.0 * cq * xi, white, pref * sums, 2.0 * cq * xi, n_modes,
                   float(pref * bound + 2.0 * abs(cq) * xi_bound), pref * (cvd * cv / 2.0) / nu)
    if sigma1_cl is None:
        return det, None, None
    return det, sigma1_cl + pref * integral + corr, float(pref * int_bound + corr_bound)


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
    with N, and xi_q0 from its whole series (:func:`_correlation`); sigma1's
    correlation sum C is not built.  ``tol`` is checked but changes no value.
    The row of ``build_table``'s pass (:func:`_quantum_columns`) at one time,
    so refused where that row is."""
    _check_tol(tol)
    ts, n_modes = _quantum_gate(p, t, n_max)
    return _quantum_columns(p, n_modes, ts, *_chi_all(p, ts), False)[0][0]


def sigma1_quantum(p: PhysicalParams, t: float, n_max: Optional[int] = None) -> float:
    """Quantum conditional variance sigma1(t), the integral of D1 from 0 to t.

    Assembled as sigma1_classical + the integral of the mode sum + the
    correlation part 2*int_0^t chi_q*xi_q0, each in closed form at t alone.
    The mode part integrates the same cutoff-N sum as
    :func:`d1_quantum_detail`, so sigma1' = D1 holds at the truncated level;
    the correlation part takes the whole series of xi_q0 and the sum C
    (:func:`_corr_sum`).  The row of ``build_table``'s pass
    (:func:`_quantum_columns`) at one time, so refused where that row is; the
    table reports the bound on both sums as ``sigma1_tail_bound_max``.  At
    t = 0 it is the classical value, 0."""
    if t == 0.0:  # once the parameters and the cutoff are admitted
        _quantum_gate(p, (), n_max)
        return float(sigma1_classical(p, t))
    ts, n_modes = _quantum_gate(p, t, n_max)
    return _quantum_columns(p, n_modes, ts, *_chi_all(p, ts))[1][0]


def _quantum_columns(p: PhysicalParams, n_modes: int, t: np.ndarray, cq: np.ndarray,
                     cv: np.ndarray, cvd: np.ndarray, sigma1: bool = True) -> tuple:
    """D1 (a :class:`D1Result` a time) and, given ``sigma1``, sigma1 and its
    bound (else None) at every time of the array t admitted by
    :func:`_quantum_gate`, given chi_q, chi_v and chi_v_dot there: one
    :func:`_quantum_row` a time, all from one :func:`_heads`, whose refusal
    names the first time.  At gamma = 0, D1 is 0 and sigma1 classical."""
    ts, i, rows = t.tolist(), 0, []
    base = sigma1_classical(p, t).tolist() if sigma1 else [None] * len(ts)
    if p.gamma == 0.0:
        return [_NO_BATH] * len(ts), base, [0.0] * len(ts)
    try:
        heads = _heads(p, n_modes, ts, sigma1)
        for i, (ti, q, c, cd, b) in enumerate(zip(ts, *(a.tolist() for a in (cq, cv, cvd)), base)):
            rows.append(_quantum_row(p, n_modes, ti, q, c, cd, b, heads))
    except QbmError as exc:
        raise type(exc)(f"t_grid[{i}] = {ts[i]}: {exc}") from exc
    return tuple(zip(*rows))


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
        clear = True
        for a, b in self.pole_windows:
            clear = clear & ((t_lo > b + pad) | (t_hi < a - pad))
        masks = np.broadcast_arrays(
            clear, self._in_range(t_mid), np.isfinite(om) & np.isfinite(dc), dc >= 0
        )
        ok = np.logical_and.reduce(masks)
        if not np.all(ok):
            k = int(np.argmin(np.ravel(ok)))
            lo, hi, tm, d = (
                float(np.ravel(np.broadcast_to(x, np.shape(ok)))[k])
                for x in (t_lo, t_hi, t_mid, dc)
            )
            failed = next(i for i, m in enumerate(masks) if not np.ravel(m)[k])
            if failed == 0:
                raise PoleWindow(f"step [{lo}, {hi}] overlaps a drift pole window padded by {pad}")
            self._check_range(tm)
            if failed == 2:
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
                k: v if isinstance(v, bool) else float(v) for k, v in self.diagnostics.items()
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
    ``n_max`` (``N_MODES`` if None), which the table records, once
    :func:`_quantum_gate` admits the grid.  The response functions are
    evaluated once on the grid; sigma_q and d_fpe are assembled here from
    them, d1 and sigma1.  Points inside pole windows get NaN omega/d_fpe and
    the window is annotated; any other per-point failure aborts with the grid
    index named.  ``threads`` is ignored: the table is built on the calling
    thread.
    """
    t_arr = np.asarray(t_grid, dtype=np.float64)
    if t_arr.ndim != 1 or len(t_arr) == 0:
        raise ValueError("t_grid must be a nonempty 1-D array")
    if (t_arr[1:] <= t_arr[:-1]).any():
        raise ValueError("t_grid must be strictly increasing")
    if mode not in ("classical", "quantum"):
        raise ValueError(f"mode must be 'classical' or 'quantum', got {mode!r}")
    _check_tol(tol)
    if mode == "quantum":
        t_arr, n_max = _quantum_gate(p, t_arr, n_max)

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
        s1 = sigma1_classical(p, t_arr)
        sq = (p.kT / p.omega0_sq) * (1.0 - cq * cq)
    else:
        dets, s1, s1_tails = _quantum_columns(p, n_max, t_arr, cq, cv, cvd)
        d1, s1 = np.array([det.value for det in dets]), np.array(s1)
        sq = s1 + (p.kT / p.M) * cv * cv
        d1_tail, s1_tail = max(det.tail_bound for det in dets), max(s1_tails)
        diagnostics = {
            "d1_tail_bound_max": d1_tail,
            "sigma1_tail_bound_max": s1_tail,
            "d1_log_coefficient_max": max(abs(det.log_coefficient) for det in dets),
            "n_modes_max": float(n_max if p.gamma > 0.0 else 0),
            # whether every value at the cutoff met tol; reported, not hidden
            "tol_met": max(d1_tail, s1_tail) <= tol,
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
