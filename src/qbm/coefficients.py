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
coefficient.  Each mode's contribution R_n is elementary in the two
exponentials of chi_v, and so is its sum over n <= N: digamma values at the
roots plus a fast-decaying exponential series (``_mode_sums``), exact at the
cutoff up to round-off and independent of N in cost.  The time integral of
that sum, the mode part of sigma1, is elementary too (``_sigma1_modes``): a
t-independent constant, the same digamma values and an exponential series,
evaluated at t alone, with no quadrature.  Every closed form is a divided
difference over the two roots, taken by ``special.root_dd``, the one rule
for the critical-damping limit.  The explicit sum of the per-mode kernel
``_mode_r`` is kept as the second route, checked by ``qbm validate``.  R_n
behaves like ``chi_v_dot*chi_v/(2*nu_n)`` at large n — a logarithmically
divergent series, the strictly-Ohmic ultraviolet pathology of this model.
The mode count N is therefore a physical ultraviolet cutoff, ``n_max``
(``N_MODES`` by default), not a tolerance: D1 and sigma1 each carry a
certified bound on what the value at N drops (the exponential terms cut
below round-off, and round-off), and D1 the coefficient of the residual
log(N) sensitivity.  The initial system/bath correlation enters D1 as
``2*chi_q(t)*xi_q0(t)`` and sigma1 as its integral, a root-free sum at t alone.

``build_table`` is the one assembly of the derived columns: sigma_q = sigma1
+ (k_B*T/M)*chi_v**2 and D = sigma_dot - 2*Omega*sigma_q with the exact
derivative sigma_dot = D1 + (2*k_B*T/M)*chi_v*chi_v_dot (no numerical
differentiation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import digamma, zeta

from .errors import (
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
    chi_q,
    chi_v,
    coshm1c,
    omega_drift,
    pole_times,
    sinhc,
    tanhc,
    _real_cast,
    _shaped,
    _time_array,
)
from .special import (
    NoConvergence,
    phi1,
    phi1_dd,
    phi1_deriv,  # unused here: perfbench/workloads.py TARGETS traces coefficients.phi1_deriv
    root_dd,
    root_dd_sep,
    xi_q0_closed,
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
]

_FOLD_CUT = 350.0
_CL_SERIES_TERMS = 30


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
    + (gamma*t)**2 * coshm1c(w*t)/2]).  For |Re(w)*t| >= 350 the bracketed
    product is folded into the decaying exponentials exp(-2*lambda_i*t) so
    no intermediate overflows.  For |lambda1|*t < 1, where 1 - exp(-gamma*t)*B
    cancels, it is the Taylor series of (2*gamma*k_B*T/M)*int_0^t chi_v**2
    instead: chi_v's coefficients from its equation of motion, squared by
    convolution and integrated term by term.
    """
    ta = _time_array(t)
    w = p.omega
    z = w * ta
    bracket = np.zeros(ta.shape, dtype=np.complex128)  # exp(-gamma*t)*B(t)
    series = abs(p.lambda1) * ta < 1.0  # there |Re(w)|*t < 2: never folded
    folded = np.abs(z.real) >= _FOLD_CUT
    direct = ~(series | folded)
    if direct.any():
        gt, zd = p.gamma * ta[direct], z[direct]
        bracket[direct] = np.exp(-gt) * (1.0 + gt * sinhc(zd) + gt * gt * coshm1c(zd) / 2.0)
    if folded.any():
        tf, zf = ta[folded], z[folded]
        gt, eg = p.gamma * tf, np.exp(-p.gamma * tf)
        E1, E2 = np.exp(-2.0 * p.lambda1 * tf), np.exp(-2.0 * p.lambda2 * tf)
        bracket[folded] = (
            eg + gt * (E2 - E1) / (2.0 * zf) + gt * gt * ((E1 + E2) / 2.0 - eg) / (zf * zf)
        )
    out = (p.kT / p.omega0_sq) * (1.0 - _real_cast(bracket, "sigma1_classical"))
    if series.any():
        # chi_v = sum_k a_k*t**k from a_0 = 0, a_1 = 1 and its equation of motion
        g, w2, a = p.gamma, p.omega0_sq / p.M, [0.0, 1.0]
        for k in range(_CL_SERIES_TERMS - 2):
            a.append(-(g * (k + 1) * a[k + 1] + w2 * a[k]) / ((k + 1) * (k + 2)))
        # chi_v**2 = t**2*sum_k b_k*t**k, and its integral takes b_k/(k + 3)
        b = np.convolve(a[1:], a[1:])[: _CL_SERIES_TERMS - 2] / np.arange(3, _CL_SERIES_TERMS + 1)
        ts, acc = ta[series], 0.0
        for bk in b[::-1].tolist():
            acc = acc * ts + bk
        out[series] = (2.0 * g * p.kT / p.M) * ts**3 * acc
    return _shaped(out, t)


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
# R_n = -(chi_v/2)*g[lambda1, lambda2], the divided difference over the roots
# of g(lam) = exp(-lam*t)*(1 - X*phi1((lam - nu_n)*t)), X = nu_n*t, taken by
# the Leibniz rule with chi_v = t*exp(-lambda2*t)*phi1(-(lambda1 - lambda2)*t)
# and a_j = lambda_j*t - X.  phi1_dd is stable as a1 -> a2, so critical
# damping needs no branch.


def _mode_r(p: PhysicalParams, nu_n: np.ndarray, t: float) -> np.ndarray:
    """Per-mode reduced integral R_n(t) for an array of mode rates nu_n.

    R_n -> chi_v_dot*chi_v/(2*nu_n) as nu_n grows.  Real roots are used as
    floats, so the kernel runs in real arithmetic unless they are complex.
    A mode below lambda1 overflows to NaN once (lambda1 - nu_n)*t > ~700.
    """
    l1, l2 = p.lambda1, p.lambda2
    if l1.imag == 0.0 and l2.imag == 0.0:
        l1, l2 = l1.real, l2.real
    X = np.asarray(nu_n, dtype=np.float64) * t
    a1, a2 = l1 * t - X, l2 * t - X
    cv = t * np.exp(-l2 * t) * phi1(-(l1 - l2) * t)
    g_dd = -cv * (1.0 - X * phi1(a2)) - X * t * np.exp(-l1 * t) * phi1_dd(a1, a2)
    return (-cv / 2.0 * g_dd).real


# ---------------------------------------------------------------------------
# quantum mode sum at the cutoff N, in closed form
#
# With chi_v = sum_j c_j exp(-lambda_j t) and c = (-1, +1)/(lambda1 - lambda2),
# the convolution in R_n is elementary:
#   R_n(t) = (chi_v(t)/2) * sum_j c_j g(nu_n, lambda_j),
#   g(nu, lam) = (nu*exp(-nu*t) - lam*exp(-lam*t))/(nu - lam)
#              = exp(-lam*t) * (1 - nu*t*phi1(-(nu - lam)*t)).
# Summed over n <= N it splits into
#   * an exponential part sum_n w_n exp(-nu_n t), where the root weights
#     combine exactly, w_n = -nu_n/((nu_n - lambda1)(nu_n - lambda2)) (real,
#     no cancellation); terms with nu_n*t > _EXP_CUT are below round-off;
#   * a rational part -sum_j c_j lambda_j exp(-lambda_j t) H(lambda_j), with
#     H(lam) = sum_n 1/(nu_n - lam) = [psi(N+1-lam/nu) - psi(1-lam/nu)]/nu,
#     which does not depend on t.
# The mode nearest each root, a pole of H when lambda_j = k*nu, leaves both
# parts and enters through the stable form of g.  With F(lam) = lam*exp(-lam
# t)*H(lam) minus those modes' g, the rest is -sum_j c_j F(lambda_j), the
# divided difference F[lambda1, lambda2] (``root_dd``, with its confluent
# limit at critical damping).

_EXP_CUT = 40.0
_ROUNDOFF = 4.0 * np.finfo(np.float64).eps


def _psi_sum(a, n_modes: int, excluded) -> complex:
    """sum of 1/(n - a) over n = 1..N outside ``excluded``, via digamma.

    The nearest mode k = round(Re a) splits the range so that every digamma
    argument has real part >= 1/2, away from the poles.
    """
    k = round(a.real)
    if k < 1:
        s = digamma(n_modes + 1 - a) - digamma(1 - a)
    elif k > n_modes:
        s = digamma(a - n_modes) - digamma(a)
    else:  # k is in ``excluded``: the sums below and above it
        s = digamma(a + 1 - k) - digamma(a) + digamma(n_modes + 1 - a) - digamma(k + 1 - a)
    for m in excluded:
        if m != k:
            s -= 1.0 / (m - a)
    return s


def _excluded_modes(p: PhysicalParams, nu: float, n_modes: int) -> list:
    """The modes nearest the points at which ``root_dd`` evaluates F
    (Re lambda1, Re lambda2 and gamma/2), which leave the digamma sums."""
    points = (p.lambda1.real, p.lambda2.real, p.gamma / 2.0)
    return sorted({k for k in (round(x / nu) for x in points) if 1 <= k <= n_modes})


def _exp_dd(lam, mu: float, t: float):
    """(exp(-lam*t) - exp(-mu*t))/(mu - lam), with phi1 at a decaying
    argument so that neither factor overflows."""
    if lam.real <= mu:
        return t * np.exp(-lam * t) * phi1(-(mu - lam) * t)
    return t * np.exp(-mu * t) * phi1(-(lam - mu) * t)


def _mode_sums(p: PhysicalParams, n_modes: int, t, cv=None) -> tuple[np.ndarray, np.ndarray]:
    """sum_{n <= N} R_n(t) at each time of the array t > 0, in closed form,
    and a bound on what each value drops.

    ``cv`` is chi_v at those times, if the caller has it.  The digamma values
    are taken once per call.  The bound covers the exponential terms cut at
    nu_n*t > _EXP_CUT (n <= N) and round-off, in O(1) per time.
    """
    nu = p.matsubara_nu()
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    excluded = _excluded_modes(p, nu, n_modes)

    n_top = min(n_modes, math.ceil(_EXP_CUT / (nu * float(t.min()))) + 1)
    nu_n = np.arange(1, n_top + 1, dtype=np.float64) * nu
    w = -nu_n / (nu_n * (nu_n - p.gamma) + p.omega0_sq / p.M)
    w[[k - 1 for k in excluded if k <= n_top]] = 0.0
    m = np.minimum(n_top, np.ceil(_EXP_CUT / (nu * t)) + 1.0)
    exp_part = np.empty(t.shape)
    for i, (ti, mi) in enumerate(zip(t.tolist(), m.astype(int).tolist())):
        e = np.exp(nu_n[:mi] * -ti)
        e *= w[:mi]
        exp_part[i] = e.sum()

    def F(lam):
        el = np.exp(-lam * t)
        out = lam * el * (_psi_sum(lam / nu, n_modes, excluded) / nu)
        for k in excluded:
            out -= el - k * nu * _exp_dd(lam, k * nu, t)
        return out

    half_cv = np.atleast_1d(chi_v(p, t) if cv is None else cv) / 2.0
    # |w_n| <= 4n/nu once the mode nearest each root is out, so the terms cut
    # past m sum to at most (4/nu)*x**(m+1)*((m+1) - m*x)/(1 - x)**2
    x = np.exp(-nu * t)
    cut = np.where(m < n_modes, 4.0 / nu * x ** (m + 1.0) * (m + 1.0 - m * x)
                   / np.expm1(-nu * t) ** 2, 0.0)
    # round-off: |F| and its intermediates stay below 4*psi_max*|lambda1|/nu *
    # exp(-Re(lambda2)*t) + 2 per excluded mode, and root_dd magnifies them
    psi_max = 2.0 + math.log(n_modes + abs(p.lambda1) / nu)
    f_max = 4.0 * psi_max * abs(p.lambda1) / nu * np.exp(-p.lambda2.real * t) + 2 * len(excluded)
    roundoff = _ROUNDOFF * (np.abs(exp_part) + 2.0 * f_max / root_dd_sep(p))
    return half_cv * (exp_part + np.real(root_dd(p, F))), np.abs(half_cv) * (cut + roundoff)


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


def _xi_q0(p: PhysicalParams, t: float, tol: float) -> float:
    try:
        return xi_q0_closed(p, t, tol)
    except NoConvergence:
        return xi_q0_sum(p, t, tol=tol)


def d1_quantum_detail(
    p: PhysicalParams,
    t: float,
    n_max: Optional[int] = None,
    tol: float = 1e-8,
) -> D1Result:
    """Quantum diffusion function D1(t) with diagnostics.

    D1 = d1_classical + (8*gamma/(M*beta)) * sum_{n <= N} R_n + 2*chi_q*xi_q0,
    with the cutoff N = ``n_max`` (``N_MODES`` if None).  The mode sum is
    taken in closed form at N (:func:`_mode_sums`), so its cost does not grow
    with N.  ``tol`` does not change N: it is the tolerance of the
    correlation-term series and the target that ``tail_bound`` is held to.
    """
    nu = p.matsubara_nu()
    _check_tol(tol)
    if not (t > 0.0):
        raise ValueError(f"t must be positive, got {t}")
    n_modes = _n_modes(n_max)
    cq, cv, cvd = (float(a[0]) for a in _chi_all(p, t))
    white = (2.0 * p.gamma * p.kT / p.M) * cv * cv  # d1_classical
    if p.gamma == 0.0:
        return D1Result(white, white, 0.0, 0.0, 0, 0.0, 0.0)

    pref = 8.0 * p.gamma * p.kT / p.M
    sums, bounds = _mode_sums(p, n_modes, t, cv)

    xi = _xi_q0(p, t, tol / (2.0 * abs(cq) + 1.0))
    corr = 2.0 * cq * xi

    a = cvd * cv / 2.0
    modes = pref * float(sums[0])
    return D1Result(
        value=white + modes + corr,
        white=white,
        modes=modes,
        correlation=corr,
        n_modes=n_modes,
        tail_bound=pref * float(bounds[0]),
        log_coefficient=pref * a / nu,
    )


# ---------------------------------------------------------------------------
# quantum variance: both Matsubara sums integrated in closed form at t alone
#
# With J(mu) = int_0^t chi_v(u)*exp(-mu*u) du, the integral of R_n over [0, t]
# is (1/2)*sum_j c_j*(nu_n*J(nu_n) - lambda_j*J(lambda_j))/(nu_n - lambda_j),
# so the integral of the mode sum splits as in ``_mode_sums``:
#   * an exponential part sum_n w_n*J(nu_n), J(mu) = L(mu)*(1 -
#     exp(-mu*t)*Pt(mu)) with L(mu) = 1/((mu + lambda1)(mu + lambda2)) and
#     Pt(mu) = (mu + gamma)*chi_v(t) + chi_v_dot(t): the w_n*L(nu_n) terms sum
#     to a constant (``_static_sum``), the rest is cut at nu_n*t > _EXP_CUT;
#   * a rational part (1/2)*G[lambda1, lambda2], G(lam) = lam*J(lam)*H(lam),
#     less the modes nearest the roots, which enter through the divided
#     difference of K(mu) = mu*J(mu) (Leibniz rule on L*(1 - exp(-mu*t)*Pt)).
# J(lam) comes from chi_v(t), chi_v_dot(t) alone (``_chi_v_transform``), so
# near critical damping the only cancellation is the one root_dd carries.
# The correlation part (``_sigma1_corr``) takes no root at all.

_ZETA_POWERS = np.arange(2.0, 26.0)
_J_SERIES_TERMS = 22
_CORR_HEAD_CAP = 1 << 17  # most terms that ``_sigma1_corr`` sums directly


def _zeta_tail(num, den, nu: float, n0: int, n_top: float = math.inf) -> float:
    """sum over n0 < n <= n_top of r(1/nu_n), r = num/den = O(x**2) given by
    polynomial coefficients in x = 1/nu_n from x**0 up (den[0] = 1): r's
    power series, by series division, summed with Hurwitz zeta values at the
    powers 2..25.  Its radius is 1/|lambda1|, so past n0 >= 8*|lambda1|/nu its
    terms shrink like 8**-k."""
    d, c = np.asarray(den, dtype=np.float64).tolist(), [0.0, 0.0]
    for k in range(2, 26):
        ck = num[k] if k < len(num) else 0.0
        for j in range(1, min(k + 1, len(d))):
            ck -= d[j] * c[k - j]
        c.append(ck)
    z = zeta(_ZETA_POWERS, n0 + 1.0) - zeta(_ZETA_POWERS, n_top + 1.0)
    return math.fsum((np.array(c[2:]) * nu**-_ZETA_POWERS * z).tolist())


def _static_sum(p: PhysicalParams, nu: float, n_modes: int, excluded: list) -> float:
    """sum over n <= N outside ``excluded`` of w_n*L(nu_n) = -nu_n/((nu_n**2
    - lambda1**2)(nu_n**2 - lambda2**2)): directly up to n0 >= 8*|lambda1|/nu,
    past n0 by :func:`_zeta_tail` (real coefficients, no difference over the
    roots)."""
    g, w2 = p.gamma, p.omega0_sq / p.M
    n0 = min(n_modes, max(excluded + [math.ceil(8.0 * abs(p.lambda1) / nu)]))
    nu_n = np.arange(1, n0 + 1, dtype=np.float64) * nu
    f = -nu_n / ((nu_n * (nu_n - g) + w2) * (nu_n * (nu_n + g) + w2))
    f[[k - 1 for k in excluded]] = 0.0
    return math.fsum(f.tolist()) + _zeta_tail(
        (0.0, 0.0, 0.0, -1.0), (1.0, 0.0, 2.0 * w2 - g * g, 0.0, w2 * w2), nu, n0, n_modes)


def _j_by_series(p: PhysicalParams, t):
    """Whether ``_chi_v_transform`` sums its Taylor series at t: there
    |lam + lambda_j|*t <= 1, and past it the closed form cancels little."""
    return 2.0 * abs(p.lambda1) * t <= 1.0


def _chi_v_transform(p: PhysicalParams, lam, t: float, cv: float, cvd: float):
    """J(lam) = int_0^t chi_v(u)*exp(-lam*u) du, for lam at a root or at gamma/2.

    Closed form L(lam)*(1 - exp(-lam*t)*Pt(lam)), or at small t, where that
    cancels, the Taylor series of y = chi_v*exp(-lam*u), which solves y'' +
    (gamma + 2*lam)*y' + y/L(lam) = 0 with y(0) = 0, y'(0) = 1.
    """
    c = lam * (lam + p.gamma) + p.omega0_sq / p.M  # 1/L(lam)
    if not _j_by_series(p, t):
        return (1.0 - np.exp(-lam * t) * ((lam + p.gamma) * cv + cvd)) / c
    bt, ct2 = (p.gamma + 2.0 * lam) * t, c * t * t
    prev, cur, acc = 0.0, t, t / 2.0  # coefficients y^(k)(0)*t**k/k!, k = 0, 1
    for k in range(1, _J_SERIES_TERMS):
        prev, cur = cur, -(bt * k * cur + ct2 * prev) / (k * (k + 1))
        acc += cur / (k + 2)
    return t * acc


def _sigma1_modes(p: PhysicalParams, n_modes: int, t: float, cv: float, cvd: float) -> float:
    """int_0^t sum_{n <= N} R_n(u) du in closed form at one time t > 0.

    ``cv`` and ``cvd`` are chi_v(t) and chi_v_dot(t).  The exponential series
    takes min(N, ceil(_EXP_CUT/(nu*t)) + 1) terms at t alone;
    :func:`_sigma1_mode_bound` bounds what the value drops.
    """
    nu = p.matsubara_nu()
    g, w2 = p.gamma, p.omega0_sq / p.M
    excluded = _excluded_modes(p, nu, n_modes)

    m = min(n_modes, math.ceil(_EXP_CUT / (nu * t)) + 1)
    nu_n = np.arange(1, m + 1, dtype=np.float64) * nu
    e = -nu_n * np.exp(nu_n * -t) * ((nu_n + g) * cv + cvd)
    e /= (nu_n * (nu_n - g) + w2) * (nu_n * (nu_n + g) + w2)
    e[[k - 1 for k in excluded if k <= m]] = 0.0

    def G(lam):
        j = _chi_v_transform(p, lam, t, cv, cvd)
        out = lam * j * (_psi_sum(lam / nu, n_modes, excluded) / nu)
        for k in excluded:
            kn = k * nu
            q_dd = _exp_dd(lam, kn, t) * ((lam + g) * cv + cvd) - math.exp(-kn * t) * cv
            out -= ((w2 - kn * lam) * j + kn * q_dd) / (kn * (kn + g) + w2)
        return out

    static = _static_sum(p, nu, n_modes, excluded)
    return 0.5 * (static - float(e.sum()) + float(np.real(root_dd(p, G))))


def _sigma1_corr(p: PhysicalParams, t: float, cq: float, cv: float) -> float:
    """2*int_0^t chi_q*xi_q0 du at one time t > 0, from chi_q(t), chi_v(t).

    xi_q0 = -2*gamma*k_B*T*sum_n nu_n*L(nu_n)*exp(-nu_n*u) with L(mu) =
    1/(mu**2 + gamma*mu + omega0_sq/M), and chi_q's equation of motion gives
    K(mu) = int_0^t chi_q*exp(-mu*u) du = L(mu)*((mu + gamma)*(1 -
    exp(-mu*t)*chi_q(t)) + exp(-mu*t)*(omega0_sq/M)*chi_v(t)).  So the part is
    -4*gamma*k_B*T*sum_n nu_n*L(nu_n)*K(nu_n): no root, and no pole at nu_n.
    Terms n <= n_h are summed directly: past them nu_n*t > _EXP_CUT unless
    _CORR_HEAD_CAP cuts, and nu_n >= 8*|lambda1|, where only the t-independent
    nu_n*(nu_n + gamma)*L(nu_n)**2 is left (:func:`_zeta_tail`).
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
    tail = _zeta_tail((0.0, 0.0, 1.0, g), np.convolve((1.0, g, w2), (1.0, g, w2)), nu, n_h)
    return -4.0 * g * p.kT * (math.fsum(terms.tolist()) + tail)


def _sigma1_mode_bound(p: PhysicalParams, n_modes: int, t, cq, cv, cvd) -> np.ndarray:
    """Bound on what :func:`sigma1_quantum` drops of its two Matsubara sums
    at each time of the array t (gamma > 0), given chi_q, chi_v, chi_v_dot.

    Mode part: the exponential terms cut at nu_n*t > _EXP_CUT, and round-off
    of the terms summed and of the rational part.  Correlation part: the
    exponential terms past its head, and round-off of terms at most
    3/nu_n**2 + (omega0_sq/M)*|chi_v|/nu_n**3 in magnitude.
    """
    nu = p.matsubara_nu()
    t, cq, cv, cvd = (np.abs(np.atleast_1d(a).astype(np.float64)) for a in (t, cq, cv, cvd))
    g, w2 = p.gamma, p.omega0_sq / p.M
    l1, re2 = abs(p.lambda1), p.lambda2.real
    excluded = _excluded_modes(p, nu, n_modes)
    m = np.minimum(n_modes, np.ceil(_EXP_CUT / (nu * t)) + 1.0)
    # term n of the exponential part is at most (cv + cvd/nu)*exp(-nu_n*t)/
    # |(nu_n - lambda1)(nu_n - lambda2)|; once the modes nearest Re(lambda_j)
    # are out, |nu_n - lambda_j| >= nu/2, and those n sum to at most pi**2/nu**2
    e_max = math.pi**2 / nu**2 * (cv + cvd / nu)
    cut = np.where(m < n_modes, e_max * np.exp(-nu * t * (m + 1.0)), 0.0)
    # |J(lam)| <= int_0^t u*exp(-2*Re(lambda2)*u) du; its closed form adds
    # 2*|L(lam)| <= 1/(gamma*Re(lambda2)), its series terms at most e*t**2
    j_max = np.minimum(t * t / 2.0, 1.0 / (2.0 * re2) ** 2) + np.where(
        _j_by_series(p, t), math.e * t * t, 1.0 / (g * re2))
    psi_max = 2.0 + math.log(n_modes + l1 / nu)
    g_max = l1 * j_max * (4.0 * psi_max + 2.0 * len(excluded)) / nu
    for k in excluded:
        kn = k * nu
        g_max = g_max + ((w2 + kn * l1) * j_max + kn * (cv + t * ((l1 + g) * cv + cvd))) / kn**2
    modes = 0.5 * (cut + _ROUNDOFF * (e_max + 2.0 * g_max / root_dd_sep(p)))
    # a correlation term n is at most exp(-nu_n*t)*(cq + w2*cv/nu_n)/nu_n**2; the
    # terms past the head, which has at least nu_h/nu - 1 terms, sum geometrically
    nu_h = nu * (np.minimum(np.ceil(_EXP_CUT / (nu * t)) + 1.0, _CORR_HEAD_CAP) + 1.0)
    corr_cut = (cq + w2 * cv / nu_h) / nu_h**2 * np.exp(-nu_h * t) / -np.expm1(-nu * t)
    corr = corr_cut + _ROUNDOFF * (4.94 / nu**2 + 1.21 * w2 * cv / nu**3)  # zeta(2), zeta(3)
    return 8.0 * g * p.kT / p.M * modes + 4.0 * g * p.kT * corr


def sigma1_quantum(p: PhysicalParams, t: float, n_max: Optional[int] = None) -> float:
    """Quantum conditional variance sigma1(t), the integral of D1 from 0 to t.

    Assembled as sigma1_classical + the integral of the mode sum + the
    correlation part 2*int_0^t chi_q*xi_q0, each in closed form at t alone.
    The mode part integrates the same cutoff-N sum as
    :func:`d1_quantum_detail` (:func:`_sigma1_modes`), so sigma1' = D1 holds
    at the truncated level; the correlation part takes the whole series of
    xi_q0 (:func:`_sigma1_corr`).  ``build_table`` reports the bound on both
    as ``sigma1_tail_bound_max``.
    """
    p.matsubara_nu()  # HbarZero for classical parameters
    if not (t >= 0.0):
        raise ValueError(f"t must be >= 0, got {t}")
    n_modes = _n_modes(n_max)
    base = float(sigma1_classical(p, t))
    if t == 0.0 or p.gamma == 0.0:
        return base

    cq, cv, cvd = (float(a[0]) for a in _chi_all(p, t))
    modes = 8.0 * p.gamma * p.kT / p.M * _sigma1_modes(p, n_modes, t, cv, cvd)
    return base + modes + _sigma1_corr(p, t, cq, cv)


# ---------------------------------------------------------------------------
# coefficient table


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
        cols = [self.column(c) for c in _CSV_COLUMNS]
        with open(path, "w", newline="") as f:
            f.write(",".join(_CSV_COLUMNS) + "\n")
            f.writelines(",".join("%.17g" % c[i] for c in cols) + "\n" for i in range(len(self.t)))

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


def _ordered_map(threads: int, fn, *iterables) -> list:
    """list(map(fn, *iterables)), over a thread pool when threads > 1; the
    first failing call in order raises, whatever the thread count."""
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # not loaded by a single-thread run

        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, *iterables))
    return list(map(fn, *iterables))


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

    Classical columns are vectorized closed forms.  Quantum columns evaluate
    pointwise (optionally across a thread pool — the computations are pure)
    at the mode cutoff N = ``n_max`` (``N_MODES`` if None), which the table
    records.  sigma_q and d_fpe are assembled here, in both modes, from d1,
    sigma1 and the response functions.  Points inside pole windows get NaN
    omega/d_fpe and the window is annotated; any other per-point failure
    aborts with the grid index named.
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
    ok = ~in_window
    if ok.any():
        omega[ok] = np.atleast_1d(omega_drift(p, t_arr[ok]))

    diagnostics: dict = {}
    cq, cv, cvd = _chi_all(p, t_arr)
    if mode == "classical":
        d1 = np.atleast_1d(d1_classical(p, t_arr))
        s1 = np.atleast_1d(sigma1_classical(p, t_arr))
        sq = np.atleast_1d(sigma_cl_closed(p, t_arr))
    else:
        def one(i: int):
            try:
                return (d1_quantum_detail(p, float(t_arr[i]), n_max, tol),
                        sigma1_quantum(p, float(t_arr[i]), n_max))
            except QbmError as exc:
                raise type(exc)(f"t_grid[{i}] = {t_arr[i]}: {exc}") from exc

        dets, s1 = zip(*_ordered_map(threads, one, range(len(t_arr))))
        d1 = np.array([det.value for det in dets])
        s1 = np.array(s1)
        sq = s1 + (p.kT / p.M) * cv * cv
        tails = np.array([det.tail_bound for det in dets])
        s1_tails = (_sigma1_mode_bound(p, n_max, t_arr, cq, cv, cvd) if p.gamma > 0.0
                    else np.zeros(len(t_arr)))
        diagnostics = {
            "d1_tail_bound_max": float(np.max(tails)),
            "sigma1_tail_bound_max": float(np.max(s1_tails)),
            "d1_log_coefficient_max": float(np.max(np.abs([det.log_coefficient for det in dets]))),
            "n_modes_max": float(np.max([det.n_modes for det in dets])),
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
