"""Deterministic response functions of the damped oscillator.

chi_q(t) propagates an initial position, chi_v(t) an initial velocity; both
are hbar-independent and exact in every damping regime.  All four functions
(including the time derivatives) are evaluated on a single complex code path
in the variable w = sqrt(gamma**2 - 4*omega0_sq/M):

* for |Re(w)*t/2| < 350 the direct hyperbolic forms are used, with small-z
  series branches for sinh(z)/z-type factors so the critical limit w -> 0 is
  smooth to machine precision;
* for larger arguments (strongly overdamped, long times) the algebra is
  folded into pure decaying exponentials exp(-lambda_i*t), which cannot
  overflow.

The imaginary part of every result is asserted to be a rounding residue
(<= 1e-13 relative) before the real cast.

Also here: the drift function Omega(t) = chi_q_dot/chi_q of the
position-space Fokker-Planck generator, its independent algebraic closed
form, the locations of the underdamped chi_q zeros (poles of Omega), and the
conditional drift velocity vbar(t) = chi_q_dot*q0 + chi_v_dot*v0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PoleAtChiQZero
from .model import PhysicalParams

__all__ = [
    "sinhc",
    "coshm1c",
    "tanhc",
    "chi_q",
    "chi_v",
    "chi_q_dot",
    "chi_v_dot",
    "omega_drift",
    "omega_drift_closed",
    "pole_times",
    "drift_velocity",
]

_SERIES_CUT = 1e-4
_FOLD_CUT = 350.0  # |Re(w)t/2| above this switches to folded exponentials
_IMAG_TOL = 1e-13


def sinhc(z):
    """sinh(z)/z with a series branch near zero; sinhc(0) = 1."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < _SERIES_CUT
    if not small.any():
        return np.sinh(z) / z
    out = np.divide(np.sinh(z), z, out=np.empty_like(z), where=~small)
    zs = z[small]
    out[small] = 1.0 + zs * zs / 6.0 + zs**4 / 120.0
    return out


def coshm1c(z):
    """2*(cosh(z) - 1)/z**2 with value 1 at 0.

    Computed as sinhc(z/2)**2 — an exact identity that avoids the
    catastrophic cancellation of cosh(z) - 1 for small z.
    """
    h = sinhc(np.asarray(z, dtype=np.complex128) / 2.0)
    return h * h


def tanhc(z):
    """tanh(z)/z with a series branch near zero; tanhc(0) = 1."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < _SERIES_CUT
    out = np.divide(np.tanh(z), z, out=np.empty_like(z), where=~small)
    if small.any():
        zs = z[small]
        out[small] = 1.0 - zs * zs / 3.0 + 2.0 * zs**4 / 15.0
    return out


def _real_cast(arr: np.ndarray, *where: str) -> np.ndarray:
    """arr.real, once each row named in ``where`` (a 1-D arr is one row) has an
    imaginary part <= _IMAG_TOL*max(1, max|real part| of the row), else ArithmeticError."""
    rows = arr.reshape(len(where), -1)
    resid = np.abs(rows.imag).max(axis=1, initial=0.0)
    bad = resid > _IMAG_TOL * np.abs(rows.real).max(axis=1, initial=1.0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ArithmeticError(f"imaginary residue {resid[k]:.3e} in {where[k]}")
    return np.ascontiguousarray(arr.real)


def _time_array(t) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if not ((arr >= 0.0) & (arr < math.inf)).all():
        raise ValueError("t must be finite and >= 0")
    return arr


def _chi_all(p: PhysicalParams, t) -> np.ndarray:
    """The rows chi_q, chi_v and chi_v_dot of one array, on the times t."""
    ta = _time_array(t).reshape(-1)
    z = p.omega * ta / 2.0
    # filled through its rows, which a 1-D mask indexes at numpy's fast path
    cq, cv, cvd = out = np.empty((3, len(ta)), dtype=np.complex128)
    folded = np.abs(z.real) >= _FOLD_CUT
    fold = folded.any()
    direct = ~folded if fold else slice(None)  # no mask where no time folds
    if not fold or direct.any():
        td, zd = ta[direct], z[direct]
        half_gt = p.gamma * td / 2.0
        damp, ch, sc = np.exp(-half_gt), np.cosh(zd), sinhc(zd)
        hs = half_gt * sc
        cq[direct] = damp * (ch + hs)
        cv[direct] = td * damp * sc
        cvd[direct] = damp * (ch - hs)
    if fold:
        l1, l2 = p.lambda1, p.lambda2
        E1, E2 = np.exp(-l1 * ta[folded]), np.exp(-l2 * ta[folded])
        dl = l1 - l2  # |w*t| is large here, so no cancellation in 1/dl
        cq[folded] = (l1 * E2 - l2 * E1) / dl
        cv[folded] = (E2 - E1) / dl
        cvd[folded] = (l1 * E1 - l2 * E2) / dl
    return _real_cast(out, "chi_q", "chi_v", "chi_v_dot")


def _shaped(out: np.ndarray, t):
    return float(out[0]) if np.ndim(t) == 0 else out.reshape(np.shape(t))


def chi_q(p: PhysicalParams, t):
    """Position susceptibility; chi_q(0) = 1, chi_q_dot(0) = 0."""
    return _shaped(_chi_all(p, t)[0], t)


def chi_v(p: PhysicalParams, t):
    """Velocity susceptibility; chi_v(0) = 0, chi_v_dot(0) = 1."""
    return _shaped(_chi_all(p, t)[1], t)


def chi_v_dot(p: PhysicalParams, t):
    """Time derivative of chi_v."""
    return _shaped(_chi_all(p, t)[2], t)


def chi_q_dot(p: PhysicalParams, t):
    """Time derivative of chi_q, identically -(omega0_sq/M)*chi_v."""
    return _shaped(-(p.omega0_sq / p.M) * _chi_all(p, t)[1], t)


def pole_times(p: PhysicalParams, t_max: float) -> np.ndarray:
    """Zeros of chi_q in (0, t_max]; nonempty only in the underdamped regime.

    Underdamped, chi_q vanishes where tan(|w|t/2) = -|w|/gamma:
    t_k = (2/|w|) * (pi - atan2(|w|, gamma) + k*pi).
    """
    if p.regime != "underdamped":
        return np.empty(0)
    w_abs = abs(p.omega.imag)
    t0 = (2.0 / w_abs) * (math.pi - math.atan2(w_abs, p.gamma))
    period = 2.0 * math.pi / w_abs
    if t0 > t_max:
        return np.empty(0)
    k = int((t_max - t0) // period) + 1
    return t0 + period * np.arange(k)


#: |chi_q| below this multiple of its critical-regime envelope triggers the
#: pole error instead of returning a huge ratio.
_CHI_Q_FLOOR = 1e-10


def omega_drift(p: PhysicalParams, t):
    """Drift function Omega(t) = chi_q_dot(t)/chi_q(t).

    Negative for t > 0 (chi_q decays from 1); diverges at the underdamped
    zeros of chi_q, where PoleAtChiQZero is raised with the nearest zero
    attached.
    """
    ta = _time_array(t)
    cq, cv, _ = _chi_all(p, ta)
    return _shaped(_omega_from_chi(p, ta, cq, cv), t)


def _omega_from_chi(p: PhysicalParams, ta: np.ndarray, cq: np.ndarray, cv: np.ndarray):
    """:func:`omega_drift` on the times ta, from chi_q and chi_v there."""
    env = np.exp(-p.gamma * ta / 2.0) * (1.0 + p.gamma * ta / 2.0)
    bad = np.abs(cq) < _CHI_Q_FLOOR * env
    if bad.any():
        t_bad = float(ta[bad][0])
        poles = pole_times(p, t_bad + 2.0 * math.pi / max(abs(p.omega.imag), 1e-300))
        nearest = float(poles[np.argmin(np.abs(poles - t_bad))]) if poles.size else None
        raise PoleAtChiQZero(
            f"chi_q vanishes near t = {t_bad:.6g}; Omega undefined there",
            pole_time=nearest,
        )
    return -(p.omega0_sq / p.M) * cv / cq


def omega_drift_closed(p: PhysicalParams, t):
    """Algebraic closed form of Omega(t), independent of the chi ratio route.

    Omega = -(omega0_sq/M) * t * tanhc(w*t/2) / (1 + (gamma*t/2)*tanhc(w*t/2)).
    Smooth through the critical regime; saturates at -2*omega0_sq/(M*(gamma+w))
    overdamped.
    """
    ta = _time_array(t)
    z = p.omega * ta / 2.0
    tc = tanhc(z)
    out = -(p.omega0_sq / p.M) * ta * tc / (1.0 + (p.gamma * ta / 2.0) * tc)
    return _shaped(_real_cast(out, "omega_drift_closed"), t)


def drift_velocity(p: PhysicalParams, t, q0: float, v0: float):
    """Conditional drift velocity chi_q_dot(t)*q0 + chi_v_dot(t)*v0."""
    _, cv, cvd = _chi_all(p, t)
    out = -(p.omega0_sq / p.M) * cv * q0 + cvd * v0
    return _shaped(out, t)
