"""Special-function kernel.

Three groups of tools:

* the closed route of the noise/position initial-correlation function
  ``xi_q0``: the one hypergeometric case it takes, 2F1(1, b; b + 1; x), at
  ``x = exp(-nu*t)``, summed to a certified geometric stopping rule, and a
  divided difference over the characteristic roots (``root_dd``, the one rule
  for their critical-damping limit).  Its Matsubara series, the other route,
  is ``qbm.coefficients.xi_q0_sum``, the series the coefficient rows sum at
  a cutoff N <= 2**22 (past that, a row at small nu*t may sum more terms);
* the exponential-mode decomposition of the stationary bath noise kernel
  ``-(gamma*M*nu/(2*beta)) / sinh(nu*tau/2)**2`` with an exact dropped-tail
  formula;
* the phi-function family ``phi1(z) = (exp(z) - 1)/z``, its derivative and
  divided difference, used to evaluate exponential integrals without
  cancellation.  All three are vectorized and keep the dtype of their
  arguments: real arguments give float64, and complex arithmetic happens only
  where a complex argument enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .model import PhysicalParams

__all__ = [
    "phi1",
    "phi1_deriv",
    "phi1_dd",
    "xi_q0_closed",
    "root_dd",
    "ModeExpansion",
    "noise_kernel_modes",
    "noise_kernel_closed",
]

_FACT = [math.factorial(k) for k in range(40)]


def _as_array(z) -> np.ndarray:
    """z as a float64 array, or complex128 if z is complex."""
    return np.asarray(z, dtype=np.complex128 if np.iscomplexobj(z) else np.float64)


def phi1(z):
    """(exp(z) - 1)/z, the first phi function; phi1(0) = 1.

    Series branch for |z| < 0.5 avoids the subtractive cancellation of the
    direct form near zero; the direct form is taken over the whole array and
    the series entries overwrite it.  Accepts real or complex scalars or
    arrays and returns the same kind.
    """
    arr = np.atleast_1d(_as_array(z))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.expm1(arr) / arr
    small = np.abs(arr) < 0.5
    if small.any():
        zs = arr[small]
        acc = np.full_like(zs, 1.0 / _FACT[23])
        for k in range(21, -1, -1):
            acc = acc * zs + 1.0 / _FACT[k + 1]
        out[small] = acc
    return out[0].item() if np.ndim(z) == 0 else out.reshape(np.shape(z))


def phi1_deriv(z):
    """d/dz of phi1(z); phi1_deriv(0) = 1/2."""
    arr = np.atleast_1d(_as_array(z))
    out = np.empty_like(arr)
    small = np.abs(arr) < 1.0
    if small.any():
        zs = arr[small]
        acc = np.full_like(zs, 30.0 / _FACT[32])
        for k in range(29, 0, -1):
            acc = acc * zs + k / _FACT[k + 1]
        out[small] = acc
    big = ~small
    if big.any():
        zb = arr[big]
        out[big] = (np.exp(zb) * (zb - 1.0) + 1.0) / (zb * zb)
    return out[0].item() if np.ndim(z) == 0 else out.reshape(np.shape(z))


def phi1_dd(x, y):
    """Divided difference (phi1(x) - phi1(y))/(x - y), stable as x -> y."""
    xa, ya = np.broadcast_arrays(np.atleast_1d(_as_array(x)), np.atleast_1d(_as_array(y)))
    out = np.empty(xa.shape, dtype=np.result_type(xa, ya))
    near = np.abs(xa - ya) < 1e-6 * (1.0 + np.abs(xa) + np.abs(ya))
    if near.any():
        out[near] = phi1_deriv((xa[near] + ya[near]) / 2.0)
    far = ~near
    if far.any():
        out[far] = (phi1(xa[far]) - phi1(ya[far])) / (xa[far] - ya[far])
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    return out[0].item() if scalar else out.reshape(np.broadcast_shapes(np.shape(x), np.shape(y)))


# ---------------------------------------------------------------------------
# noise/position initial correlation, closed route

#: Above this argument the closed route refuses (NoConvergence): its series
#: slows as x -> 1, where the rows' Matsubara series converges fastest.
X_MAX = 0.99


def _hyp2f1_1b(b: complex, x: float, tol: float) -> complex:
    """2F1(1, b; b + 1; x) = b*sum_{k >= 0} x**k/(k + b), for Re b >= 1 and
    0 < x < 1, from its first n terms: n - 1 is the first count at which
    |b|*x**(n - 1)/(1 - x), a bound on the terms from the last one kept on,
    falls below tol, so the rest is below tol*x/(n + Re b).  The real and
    imaginary parts are each summed by fsum."""
    n = max(0, math.ceil(math.log(tol * (1.0 - x) / abs(b)) / math.log(x))) + 1
    k = np.arange(float(n))
    terms = b * x**k / (k + b)
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


#: Root-separation threshold below which ``root_dd`` takes the confluent
#: limit at the double root gamma/2.
_DEGENERATE_FRAC = 1e-5
_CS_H = 1e-120  # complex-step size; no subtractive cancellation, so tiny is safe


def root_dd(p: PhysicalParams, F):
    """F[lambda1, lambda2] = (F(lambda1) - F(lambda2))/(lambda1 - lambda2).

    The divided difference over the characteristic roots, the one rule for
    their critical-damping limit.  Real roots enter F as floats, complex
    roots as complex (the result is then real up to rounding when F is real
    on the real axis).  Within _DEGENERATE_FRAC*gamma of the double root it
    returns the confluent limit F'(gamma/2), by a complex step, so F must be
    analytic and accept a complex argument: the limit's bias is
    O((lambda1 - lambda2)**2) and the divided difference's round-off
    O(eps/(lambda1 - lambda2)), and the two meet near 1e-5.  F may return an
    array.
    """
    l1, l2 = p.lambda1, p.lambda2
    if abs(l1 - l2) < _DEGENERATE_FRAC * p.gamma:
        return F(complex(p.gamma / 2.0, _CS_H)).imag / _CS_H
    if l1.imag == 0.0:
        l1, l2 = l1.real, l2.real
    return (F(l1) - F(l2)) / (l1 - l2)


def xi_q0_closed(p: PhysicalParams, t: float, tol: float = 1e-12) -> float:
    """Closed form of the initial correlation via two 2F1 evaluations.

    Evaluates 2F1(1, b; b + 1; x) (:func:`_hyp2f1_1b`) at x = exp(-nu*t); for
    x > X_MAX it refuses (NoConvergence), and ``qbm.coefficients.xi_q0_sum``,
    the rows' series, is the route there.  The value is the divided
    difference of a one-root building block over the roots (:func:`root_dd`,
    which takes its limit at critical damping).
    """
    nu = p.matsubara_nu()
    if not (t > 0.0):
        raise ValueError(f"t must be positive, got {t}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    pref = 2.0 * p.gamma * p.kT
    if pref == 0.0:
        return 0.0
    x = math.exp(-nu * t)
    if x == 0.0:
        return 0.0
    if x > X_MAX:
        raise NoConvergence(f"x = {x} > {X_MAX}: series too slow; use the mode-sum form")

    def g(mu: complex) -> complex:
        # one-root building block: xi = -(2*gamma/beta) * g[lambda1, lambda2]
        return mu * x * _hyp2f1_1b((mu + nu) / nu, x, tol) / (nu + mu)

    val = -pref * root_dd(p, g)
    if abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
        raise ArithmeticError(
            f"imaginary residue {val.imag:.3e} in xi_q0_closed at t = {t}"
        )
    return float(val.real)


# ---------------------------------------------------------------------------
# bath noise kernel modes


@dataclass(frozen=True)
class ModeExpansion:
    """Exponential-mode decomposition sum_n prefactors[n] * exp(-rates[n]*tau).

    ``tail_bound`` is a rigorous absolute bound on the dropped remainder,
    valid for every tau >= t_min.
    """

    prefactors: np.ndarray
    rates: np.ndarray
    n_max: int
    tail_bound: float
    t_min: float

    def __post_init__(self):
        if not np.all(np.diff(self.rates) > 0):
            raise ValueError("rates must be strictly increasing")

    def evaluate(self, tau):
        """Truncated mode sum at tau (scalar or array), tau >= t_min."""
        tau_arr = np.atleast_1d(np.asarray(tau, dtype=np.float64))
        terms = self.prefactors[None, :] * np.exp(
            -np.outer(tau_arr, self.rates)
        )
        out = np.array([math.fsum(row.tolist()) for row in terms])
        return float(out[0]) if np.ndim(tau) == 0 else out.reshape(np.shape(tau))


def noise_kernel_closed(p: PhysicalParams, tau):
    """Stationary part of the bath noise correlation at separation tau > 0.

    -(gamma*M*nu/(2*beta)) / sinh(nu*tau/2)**2, computed in the
    overflow-free equivalent form -(2*gamma*M*nu/beta) * y/(1-y)**2 with
    y = exp(-nu*tau).
    """
    nu = p.matsubara_nu()
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=np.float64))
    if np.any(tau_arr <= 0.0):
        raise ValueError("tau must be positive")
    y = np.exp(-nu * tau_arr)
    one_minus_y = -np.expm1(-nu * tau_arr)
    out = -(2.0 * p.gamma * p.M * nu / p.beta) * y / one_minus_y**2
    return float(out[0]) if np.ndim(tau) == 0 else out.reshape(np.shape(tau))


def noise_kernel_modes(p: PhysicalParams, n_max: int, t_min: float) -> ModeExpansion:
    """Truncated decomposition of the stationary noise kernel.

    Mode n carries prefactor -(2*gamma*M*nu/beta)*n and rate nu_n = n*nu.
    The dropped tail sum_{n>n_max} n*y**n (y = exp(-nu*t_min)) has the exact
    value y**(N+1)*((N+1) - N*y)/(1-y)**2, which is returned (scaled) as
    ``tail_bound``.
    """
    nu = p.matsubara_nu()
    if not (t_min > 0.0):
        raise ValueError(f"t_min must be positive, got {t_min}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    scale = 2.0 * p.gamma * p.M * nu / p.beta
    n = np.arange(1, n_max + 1, dtype=np.float64)
    y = math.exp(-nu * t_min)
    tail = scale * y ** (n_max + 1) * ((n_max + 1) - n_max * y) / math.expm1(-nu * t_min) ** 2
    return ModeExpansion(
        prefactors=-scale * n,
        rates=n * nu,
        n_max=n_max,
        tail_bound=tail,
        t_min=t_min,
    )
