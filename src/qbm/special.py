"""Special-function kernel.

Four groups of tools:

* the Gauss hypergeometric series ``2F1(A, B; C; x)`` for complex parameters
  and real ``x`` in [0, 1), summed directly with compensated arithmetic and a
  certified geometric stopping rule;
* the noise/position initial-correlation function ``xi_q0`` in its two
  representations — a Matsubara mode sum with a certified geometric tail
  bound, and a closed form built from two hypergeometric evaluations at
  ``x = exp(-nu*t)``, a divided difference over the characteristic roots
  (``root_dd``, the one rule for their critical-damping limit);
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
from typing import NamedTuple

import numpy as np

from .errors import HbarZero, InvalidC, NoConvergence, TailNotBounded
from .model import PhysicalParams

__all__ = [
    "phi1",
    "phi1_deriv",
    "phi1_dd",
    "Hyp2F1Args",
    "Hyp2F1Sum",
    "hyp2f1",
    "hyp2f1_ex",
    "xi_q0_sum",
    "xi_q0_sum_ex",
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
# Gauss hypergeometric series


@dataclass(frozen=True)
class Hyp2F1Args:
    """Parameters of 2F1(A, B; C; x) with real x in [0, 1)."""

    A: complex
    B: complex
    C: complex
    x: float

    def validate(self) -> None:
        if not (0.0 <= self.x < 1.0):
            raise ValueError(f"x must lie in [0, 1), got {self.x}")
        C = complex(self.C)
        if abs(C.imag) < 1e-12:
            nearest = round(C.real)
            if nearest <= 0 and abs(C.real - nearest) < 1e-9:
                raise InvalidC(
                    f"C = {self.C} is (numerically) a non-positive integer"
                )


class Hyp2F1Sum(NamedTuple):
    value: complex
    terms: int
    tail_bound: float


#: Above this argument the direct series is refused; callers fall back to the
#: mode-sum representation, whose convergence improves exactly where this
#: one's degrades.
X_MAX = 0.99


def hyp2f1_ex(args: Hyp2F1Args, tol: float = 1e-15, max_terms: int = 100_000) -> Hyp2F1Sum:
    """Direct Pochhammer-series evaluation with term count and tail bound.

    Stops when the geometric bound on the dropped tail falls below ``tol``
    (absolute).  Kahan-compensated accumulation.
    """
    args.validate()
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if args.x > X_MAX:
        raise NoConvergence(
            f"x = {args.x} > {X_MAX}: series too slow; use the mode-sum form"
        )
    A, B, C, x = complex(args.A), complex(args.B), complex(args.C), float(args.x)
    if x == 0.0:
        return Hyp2F1Sum(1.0 + 0.0j, 1, 0.0)

    s = 1.0 + 0.0j
    comp = 0.0 + 0.0j  # Kahan compensation
    term = 1.0 + 0.0j
    for n in range(max_terms):
        Cn = C + n
        if abs(Cn) < 1e-12:
            raise InvalidC(f"C + {n} vanishes for C = {args.C}")
        ratio = (A + n) * (B + n) / (Cn * (1 + n)) * x
        term = term * ratio
        y = term - comp
        t_new = s + y
        comp = (t_new - s) - y
        s = t_new
        r = max(x, abs(ratio))
        if r < 1.0:
            tail = abs(term) * r / (1.0 - r)
            if tail <= tol:
                return Hyp2F1Sum(s, n + 2, tail)
    raise NoConvergence(
        f"2F1 series did not reach tol={tol} within {max_terms} terms (x={x})"
    )


def hyp2f1(args: Hyp2F1Args, tol: float = 1e-15) -> complex:
    """Value of 2F1(A, B; C; x); see :func:`hyp2f1_ex` for diagnostics."""
    return hyp2f1_ex(args, tol).value


# ---------------------------------------------------------------------------
# noise/position initial correlation


class XiQ0Sum(NamedTuple):
    value: float
    n_used: int
    tail_bound: float


_N_CAP = 5_000_000
_CHUNK = 1 << 20


def _xi_tail_bound(pref: float, nu: float, t: float, n: int) -> float:
    # terms beyond n are below exp(-nu_k t)/nu_k; geometric sum from k = n+1
    x = math.exp(-nu * t)
    return pref * x ** (n + 1) / (nu * (n + 1) * -math.expm1(-nu * t))


def xi_q0_sum_ex(
    p: PhysicalParams,
    t: float,
    n_max: int | None = None,
    tol: float = 1e-12,
) -> XiQ0Sum:
    """Matsubara-sum representation of the initial noise/position correlation.

    Returns -(2*gamma/beta) * sum_{n>=1} nu_n exp(-nu_n t) / (nu_n**2 +
    gamma*nu_n + omega0_sq/M) with a certified geometric bound on the dropped
    tail.  The denominator is the expanded real quadratic
    (nu_n + lambda1)(nu_n + lambda2), so the result is exactly real for
    complex-conjugate roots.
    """
    nu = p.matsubara_nu()
    if not (t > 0.0):
        raise ValueError(f"t must be positive, got {t}")
    pref = 2.0 * p.gamma * p.kT
    if pref == 0.0:
        return XiQ0Sum(0.0, 0, 0.0)

    if n_max is None:
        n = 64
        while _xi_tail_bound(pref, nu, t, n) > tol:
            n *= 2
            if n > _N_CAP:
                raise TailNotBounded(
                    f"cannot certify tail <= {tol} within {_N_CAP} modes "
                    f"(nu*t = {nu * t:.3e} too small)"
                )
        n_max = n
    bound = _xi_tail_bound(pref, nu, t, n_max)
    if bound > tol:
        raise TailNotBounded(
            f"tail bound {bound:.3e} exceeds tol {tol:.3e} at n_max = {n_max}"
        )

    c = p.omega0_sq / p.M
    partials = []
    for lo in range(1, n_max + 1, _CHUNK):
        hi = min(lo + _CHUNK - 1, n_max)
        nun = np.arange(lo, hi + 1, dtype=np.float64) * nu
        terms = nun * np.exp(-nun * t) / (nun * nun + p.gamma * nun + c)
        partials.append(math.fsum(terms.tolist()))
    return XiQ0Sum(-pref * math.fsum(partials), n_max, bound)


def xi_q0_sum(
    p: PhysicalParams,
    t: float,
    n_max: int | None = None,
    tol: float = 1e-12,
) -> float:
    return xi_q0_sum_ex(p, t, n_max, tol).value


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

    Evaluates at x = exp(-nu*t); for x > 0.99 the underlying series refuses
    (NoConvergence) and callers should fall back to :func:`xi_q0_sum`.  The
    value is the divided difference of a one-root building block over the
    roots (:func:`root_dd`, which takes its limit at critical damping).
    """
    nu = p.matsubara_nu()
    if not (t > 0.0):
        raise ValueError(f"t must be positive, got {t}")
    pref = 2.0 * p.gamma * p.kT
    if pref == 0.0:
        return 0.0
    x = math.exp(-nu * t)
    if x == 0.0:
        return 0.0

    def g(mu: complex) -> complex:
        # one-root building block: xi = -(2*gamma/beta) * g[lambda1, lambda2]
        F = hyp2f1(Hyp2F1Args(1.0, (mu + nu) / nu, 2.0 + mu / nu, x), tol)
        return mu * x * F / (nu + mu)

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
