"""Self-consistency check suite shared by the CLI and the test bench.

Every check pits two independently-derived routes against each other:
closed-form vs assembled coefficients, series vs spectral sums, quadrature
vs analytic averages, grid solver vs exact Gaussian evolution.  Each returns
a CheckResult with the measured discrepancy and its limit, so failures are
quantitative rather than boolean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import (
    _exp_terms,
    _heads,
    _mode_parts,
    _mode_r,
    _mode_sums,
    d1_classical,
    d1_quantum_detail,
    d_cl_closed,
    sigma1_classical,
    sigma1_quantum,
    sigma_cl_closed,
    xi_q0_sum,
)
from .errors import QbmError
from .fpe import ANALYTIC_LIMIT, SolverConfig, solve
from .model import PhysicalParams
from .propagator import maxwell_average_check
from .response import chi_q, chi_q_dot, chi_v, chi_v_dot, omega_drift, pole_times
from .special import noise_kernel_closed, noise_kernel_modes, xi_q0_closed

__all__ = ["CheckResult", "ValidationReport", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    limit: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.limit)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.value:.3e} (limit {self.limit:.1e})"


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list:
        return [c.line() for c in self.checks]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "value": c.value,
                    "limit": c.limit,
                    "passed": c.passed,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _grid(p: PhysicalParams, n: int = 61) -> np.ndarray:
    return np.linspace(0.05 / p.gamma, 6.0 / p.gamma, n) if p.gamma > 0 else np.linspace(0.05, 6.0, n)


def _safe_grid(p: PhysicalParams, t: np.ndarray) -> np.ndarray:
    """Drop points too close to underdamped drift poles."""
    if p.regime != "underdamped":
        return t
    keep = np.ones(len(t), dtype=bool)
    env = np.exp(-p.gamma * t / 2.0) * (1.0 + p.gamma * t / 2.0)
    cq = np.atleast_1d(chi_q(p, t))
    keep &= np.abs(cq) > 1e-2 * env
    return t[keep]


def run_suite(p: PhysicalParams, quick: bool = True) -> ValidationReport:
    """Every check in the mode ħ picks: the classical ones always, the
    quantum ones too when ħ > 0.  ``quick`` runs the grid solver small."""
    rep = ValidationReport()
    t = _safe_grid(p, _grid(p))

    def check(name: str, value, limit: float, detail: str) -> None:
        rep.checks.append(CheckResult(name, float(value), limit, detail))

    # response-function identity: d/dt chi_q = Omega * chi_q
    cq = np.atleast_1d(chi_q(p, t))
    cqd = np.atleast_1d(chi_q_dot(p, t))
    om = np.atleast_1d(omega_drift(p, t))
    check("drift-ratio-identity", np.max(np.abs(cqd - om * cq)) / (np.max(np.abs(cqd)) + 1e-300),
          1e-12, "chi_q_dot vs omega_drift*chi_q")

    # variance routes: sigma1 + (kT/M) chi_v^2 vs closed form
    s_route = np.atleast_1d(sigma1_classical(p, t)) + (p.kT / p.M) * np.atleast_1d(chi_v(p, t)) ** 2
    s_closed = np.atleast_1d(sigma_cl_closed(p, t))
    check("classical-variance-routes", np.max(np.abs(s_route - s_closed)) / (p.kT / p.omega0_sq),
          1e-12, "sigma1+thermal-drift vs 1-chi_q^2 closed form")

    # assembled D vs algebraic closed form
    sdot = np.atleast_1d(d1_classical(p, t)) + (2.0 * p.kT / p.M) * np.atleast_1d(
        chi_v(p, t)
    ) * np.atleast_1d(chi_v_dot(p, t))
    d_assembled = sdot - 2.0 * om * s_closed
    d_closed = np.atleast_1d(d_cl_closed(p, t))
    check("classical-diffusion-routes",
          np.max(np.abs(d_assembled - d_closed)) / (np.max(np.abs(d_closed)) + 1e-300),
          1e-10, "sigma_dot - 2*Omega*sigma vs tanhc closed form")

    # Maxwell average of conditional density vs averaged closed form
    tq = float(t[len(t) // 2])
    qgrid = np.linspace(-4.0, 4.0, 41) * np.sqrt(p.kT / p.omega0_sq)
    avg, closed = maxwell_average_check(p, tq, qgrid, q0=0.7, n_quad=80)
    check("maxwell-average", np.max(np.abs(avg - closed)) / np.max(closed), 1e-10,
          f"Gauss-Hermite v0 average at t={tq:.3g}")

    # grid solver conserves mass and tracks the exact Gaussian
    n_q, n_steps = (401, 400) if quick else (1201, 2000)
    t_final = 1.0 / p.gamma if p.gamma > 0 else 1.0
    poles = pole_times(p, 2.0 * t_final)
    if len(poles):
        t_final = min(t_final, 0.7 * float(poles[0]))
    cfg = SolverConfig(
        n_q=n_q,
        dt=t_final / n_steps,
        init_var=0.04 * p.kT / p.omega0_sq,
        q0=0.5,
        compare_analytic=True,
        n_table=513,
    )
    try:
        res = solve(p, "adelman", "classical", t_final, cfg)
        check("fpe-mass-conservation", abs(res.mass_drift), 1e-10,
              f"{res.n_steps} steps, zero-flux")
        check("fpe-vs-analytic", res.linf_error / res.peak_density, ANALYTIC_LIMIT,
              "relative sup-norm deviation from exact Gaussian")
    except QbmError as exc:  # pole windows in strongly underdamped runs
        check("fpe-run", 1.0, 0.0, f"solver aborted: {exc}")

    if not p.is_classical:
        nu = p.matsubara_nu()
        for tt in (0.3 / nu, 2.0 / nu, 10.0 / nu):
            closed_v = xi_q0_closed(p, tt, 1e-12)
            summed_v = xi_q0_sum(p, tt)
            scale_x = abs(2.0 * p.gamma * p.kT / max(nu * tt, 1e-6)) + abs(closed_v)
            check(f"xi-q0-routes-nut={nu * tt:.2g}", abs(closed_v - summed_v) / scale_x, 1e-10,
                  "hypergeometric closed form vs the rows' series")
        # noise kernel: truncated mode sum vs closed form
        tau = 1.5 / nu
        exp_ = noise_kernel_modes(p, n_max=400, t_min=tau / 2.0)
        val_closed = noise_kernel_closed(p, tau)
        check("noise-kernel-routes",
              abs(exp_.evaluate(tau) - val_closed) / (abs(val_closed) + 1e-300),
              max(1e-10, 2.0 * exp_.tail_bound / (abs(val_closed) + 1e-300)),
              "mode expansion vs closed hyperbolic form")
        # the mode sum at the cutoff: closed form vs the explicit sum of the
        # per-mode kernel, which holds to round-off in every regime,
        # critical damping included
        tc = 1.0 / p.gamma if p.gamma > 0 else 1.0
        nmx = 2000
        terms = _mode_r(p, np.arange(1, nmx + 1, dtype=np.float64) * nu, tc)
        explicit = math.fsum(terms.tolist())
        closed = float(_mode_sums(p, nmx, tc)[0][0])
        check("quantum-mode-sum-routes",
              abs(closed - explicit) / (math.fsum(np.abs(terms).tolist()) + 1e-300), 1e-9,
              f"root-free closed form vs explicit {nmx}-mode sum at t={tc:.3g}, relative "
              "to sum |R_n|")
        # the stationary limit: sigma1's base plus its mode part once chi_v has
        # decayed, against <q^2>_N = (k_B*T/M)*(1/w2 + 2*sum_{n <= N} 1/(w2 +
        # nu_n**2 + gamma*nu_n)) summed directly
        if p.gamma > 0:
            ti, w2 = 40.0 / p.lambda2.real, p.omega0_sq / p.M
            base = float(sigma1_classical(p, ti))
            s_inf = base + 8.0 * p.gamma * p.kT / p.M * _mode_parts(
                p, nmx, ti, float(chi_v(p, ti)), float(chi_v_dot(p, ti)), base,
                _heads(p, nmx, [ti], False), _exp_terms(nu, ti, 0, nmx))[2]
            nu_n = np.arange(1.0, nmx + 1) * nu
            q2 = p.kT / p.M * (1.0 / w2 + 2.0 * math.fsum((1.0 / (w2 + nu_n * (nu_n + p.gamma))).tolist()))
            check("quantum-stationary-variance", abs(s_inf - q2) / q2, 1e-12,
                  f"sigma1 base + mode part at t={ti:.3g} vs <q^2>_N, N={nmx}")
        # d/dt sigma1 = D1 at the truncated-mode level.  The 5e-4 limit
        # covers the O(h**2) error of the central difference at this step
        # (measured values stay below 3e-5).
        h = 2e-3 * tc
        der = (sigma1_quantum(p, tc + h, n_max=nmx)
               - sigma1_quantum(p, tc - h, n_max=nmx)) / (2.0 * h)
        d1v = d1_quantum_detail(p, tc, n_max=nmx).value
        check("quantum-variance-rate", abs(der - d1v) / (abs(d1v) + 1e-300), 5e-4,
              "finite-difference sigma1' vs D1 at matched mode count")
    return rep
