"""Gaussian densities evolved by the time-local position-space FPE.

Two kinds of propagator:

* ``conditional`` — sharp initial position q0 and velocity v0; mean
  chi_q(t)*q0 + chi_v(t)*v0, variance sigma1(t).
* ``averaged`` — sharp q0, Maxwell-distributed v0 at the bath temperature;
  mean chi_q(t)*q0, variance sigma_q(t) = sigma1 + (k_B*T/M)*chi_v**2.

``fpe_residual`` substitutes one of these Gaussians into the FPE

    d_t rho = -Omega(t) d_q(q rho) + (D(t)/2) d_q^2 rho

with the drift/diffusion read from a CoefficientTable, while the time
derivative of the Gaussian is assembled from the independent response-function
routes (mean rate chi_q_dot*q0 + chi_v_dot*v0, variance rate
D1 + (2 k_B T/M) chi_v chi_v_dot).  A small residual therefore certifies the
nontrivial identities chi_q_dot = Omega*chi_q and sigma_dot = 2*Omega*sigma + D
rather than re-deriving the table from itself.

``maxwell_average_check`` verifies by Gauss-Hermite quadrature that averaging
the conditional density over thermal v0 reproduces the averaged density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coefficients import CoefficientTable, sigma1_classical, sigma_cl_closed
from .errors import DegenerateVariance
from .model import PhysicalParams
from .response import chi_q, chi_q_dot, chi_v, chi_v_dot

__all__ = [
    "GaussianDensity",
    "density",
    "fpe_residual",
    "maxwell_average_check",
]

_KINDS = ("conditional", "averaged")


def _gauss(q: np.ndarray, mean: float, var: float) -> np.ndarray:
    return np.exp(-((q - mean) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


@dataclass(frozen=True)
class GaussianDensity:
    """Analytic Gaussian solution of the position-space FPE.

    ``variance_fn(t)`` must return the matching variance column for the kind;
    by default the classical closed forms are used.  Quantum densities are
    built by passing ``variance_fn`` wired to the quantum coefficients (or by
    reading a table column).
    """

    params: PhysicalParams
    kind: str = "averaged"
    q0: float = 0.0
    v0: float = 0.0
    variance_fn: Optional[object] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")

    def mean(self, t: float) -> float:
        m = float(chi_q(self.params, t)) * self.q0
        if self.kind == "conditional":
            m += float(chi_v(self.params, t)) * self.v0
        return m

    def mean_rate(self, t: float) -> float:
        m = float(chi_q_dot(self.params, t)) * self.q0
        if self.kind == "conditional":
            m += float(chi_v_dot(self.params, t)) * self.v0
        return m

    def variance(self, t: float) -> float:
        if self.variance_fn is not None:
            var = float(self.variance_fn(t))
        elif self.kind == "conditional":
            var = float(sigma1_classical(self.params, t))
        else:
            var = float(sigma_cl_closed(self.params, t))
        if not np.isfinite(var) or var <= 0.0:
            raise DegenerateVariance(
                f"{self.kind} density has non-positive variance {var} at t={t}"
            )
        return var


def density(g: GaussianDensity, q, t: float):
    """Evaluate the Gaussian density at positions q and time t."""
    qa = np.atleast_1d(np.asarray(q, dtype=np.float64))
    out = _gauss(qa, g.mean(t), g.variance(t))
    return float(out[0]) if np.ndim(q) == 0 else out.reshape(np.shape(q))


def fpe_residual(
    g: GaussianDensity,
    table: CoefficientTable,
    q_grid,
    t: float,
) -> np.ndarray:
    """Pointwise residual d_t rho - [-Omega d_q(q rho) + (D/2) d_q^2 rho].

    Omega and the diffusion coefficient come from the table (``d_fpe`` for the
    averaged kind; ``d1 - 2*omega*sigma1`` for the conditional kind, which
    requires v0 = 0); the Gaussian's time derivative uses the analytic mean
    and variance rates.  All q-derivatives are exact Gaussian identities.
    """
    if g.kind == "conditional" and g.v0 != 0.0:
        raise ValueError(
            "conditional densities obey the position-space FPE only for v0=0"
        )
    q = np.asarray(q_grid, dtype=np.float64)
    om = table.at(t, "omega")
    if not np.isfinite(om):
        raise ValueError(f"table omega is NaN at t={t} (pole window)")
    if g.kind == "averaged":
        dcoef = table.at(t, "d_fpe")
        var = table.at(t, "sigma_q")
    else:
        var = table.at(t, "sigma1")
        dcoef = table.at(t, "d1") - 2.0 * om * var
    if var <= 0.0:
        raise DegenerateVariance(f"table variance {var} at t={t}")

    p = g.params
    mean = g.mean(t)
    mean_rate = g.mean_rate(t)
    d1_tab = table.at(t, "d1")
    var_rate = d1_tab
    if g.kind == "averaged":
        var_rate += (
            2.0 * p.kT / p.M * float(chi_v(p, t)) * float(chi_v_dot(p, t))
        )

    rho = _gauss(q, mean, var)
    x = q - mean
    d_rho_dt = rho * (x * mean_rate / var + (x * x - var) * var_rate / (2.0 * var * var))
    d_rho_dq = -rho * x / var
    d2_rho_dq2 = rho * (x * x - var) / (var * var)
    rhs = -om * (rho + q * d_rho_dq) + 0.5 * dcoef * d2_rho_dq2
    return d_rho_dt - rhs


def maxwell_average_check(
    p: PhysicalParams,
    t: float,
    q,
    q0: float = 0.0,
    n_quad: int = 60,
) -> tuple:
    """Gauss-Hermite average of the conditional density over thermal v0,
    against the closed-form averaged density.  Returns (quadrature, closed)
    arrays over q."""
    qa = np.atleast_1d(np.asarray(q, dtype=np.float64))
    nodes, weights = np.polynomial.hermite.hermgauss(n_quad)
    v_scale = np.sqrt(2.0 * p.kT / p.M)
    var1 = float(sigma1_classical(p, t))
    if var1 <= 0.0:
        raise DegenerateVariance(f"sigma1={var1} at t={t}")
    cq = float(chi_q(p, t))
    cv = float(chi_v(p, t))
    acc = np.zeros_like(qa)
    for x, w in zip(nodes, weights):
        acc += w * _gauss(qa, cq * q0 + cv * v_scale * x, var1)
    avg = acc / np.sqrt(np.pi)
    g = GaussianDensity(p, kind="averaged", q0=q0)
    closed = density(g, qa, t)
    return avg, closed
