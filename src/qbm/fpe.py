"""Finite-volume solver for the time-local position-space FPE.

The equation  d_t rho = -d_q[Omega(t) q rho] + (D(t)/2) d_q^2 rho  is stepped
in conservative flux form F = Omega*q*rho - (D/2)*d_q rho on a uniform grid.

Two schemes:

* ``cn-central`` (default) — Crank-Nicolson in time with central flux
  averaging and coefficients sampled at the step midpoint: second order in
  both dt and dq, unconditionally stable, and mass-conserving to round-off
  with zero-flux boundaries.
* ``split-upwind`` — Lie splitting of advection (explicit first-order upwind,
  CFL-limited) and diffusion (Crank-Nicolson): more robust at large cell
  Peclet number but only first order in dq.

``solve`` takes its steps from ``step_plan``, the one time grid of the FPE and
both path simulators: ends at t_start + k*dt, each snapshot time a step end of
its own.  It reads every step's Omega and D, at the step midpoint, by one
``CoefficientTable.step_coeffs`` call (the guard policy shared with the reduced
SDE) and checks the upwind CFL limit once, so a refused step raises its typed
error before the first step is taken.  ``step`` is a pure one-step kernel on a
``StepGrid`` built once per run, calling LAPACK directly.  ``cn-central``'s
M = I - (h/2)L is affine in two scalars: on the face between cells j-1 and j,
M[j, j-1] = -s_j - ck and M[j-1, j] = s_j - ck, s = (h*Omega/2)*q_f/(2dq) and
ck = h*D/(4dq^2); each diagonal entry closes its column to a sum of one, so
mass is conserved by construction (an absorbing wall adds its outer face).
The right-hand side is 2*rho - M*rho; the one gtsv solve is the step's floor.
The ``split-upwind`` diffusion band (Omega = 0, uniform grid) is symmetric
positive definite with scalar entries, factored by pttrf on a prefix up to
the fixed point of its pivots and solved by pttrs (ptsv's result bit for
bit); its upwind flux takes one in-place product on each side of q = 0.
A grid whose cell width exceeds the initial standard deviation is refused
(``UnresolvedGrid``) before the first step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError

from .coefficients import CoefficientTable, _refuse_unstable, build_table, step_plan
from .errors import GridMismatch, NonFiniteState, UnresolvedGrid
from .model import PhysicalParams
from .propagator import GaussianDensity, density
from .response import chi_q

__all__ = [
    "ANALYTIC_LIMIT",
    "SolverConfig",
    "DensityField",
    "SolveResult",
    "StepGrid",
    "step",
    "solve",
]

#: the largest sup-norm deviation from the exact density, as a fraction of its
#: peak, that a ``compare_analytic`` run passes (``qbm fpe --compare-analytic``
#: exits 1 past it; ``qbm validate`` checks it as ``fpe-vs-analytic``)
ANALYTIC_LIMIT = 5e-3

_SCHEMES = ("cn-central", "split-upwind")
_BOUNDARIES = ("zero-flux", "absorbing")
_gtsv = _pttrf = _pttrs = None  # LAPACK dgtsv/dpttrf/dpttrs, bound by the first solve_banded: only FPE runs load scipy.linalg


@dataclass(frozen=True)
class SolverConfig:
    """Grid, stepping, and policy knobs for the FPE solver.

    The cells must resolve the initial density: dq <= sqrt(init_var), or
    ``solve`` raises ``UnresolvedGrid``.  ``n_max`` is the Matsubara mode
    cutoff of a quantum coefficient table (``N_MODES`` if None) and ``tol``
    the target of its certified tail bounds.
    """

    n_q: int = 801
    dt: float = 1e-3
    q_min: Optional[float] = None
    q_max: Optional[float] = None
    scheme: str = "cn-central"
    boundary: str = "zero-flux"
    t_start: float = 0.0
    q0: float = 0.0
    init_var: float = 1e-2
    snapshot_times: tuple = ()
    n_table: int = 4097
    n_max: Optional[int] = None
    tol: float = 1e-8
    compare_analytic: bool = False
    domain_sigmas: float = 8.0

    def __post_init__(self):
        for name, ok, need in (
            ("n_q", self.n_q >= 5, ">= 5"),
            ("dt", self.dt > 0.0, "positive"),
            ("init_var", 0.0 < self.init_var < math.inf, "positive and finite"),
            ("q0", math.isfinite(self.q0), "finite"),
            ("domain_sigmas", 0.0 < self.domain_sigmas < math.inf, "positive and finite"),
            ("n_table", self.n_table >= 2, ">= 2"),
            ("q_min", None in (self.q_min, self.q_max) or self.q_min < self.q_max, "below q_max"),
            ("scheme", self.scheme in _SCHEMES, f"one of {_SCHEMES}"),
            ("boundary", self.boundary in _BOUNDARIES, f"one of {_BOUNDARIES}"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {need}, got {getattr(self, name)!r}")


@dataclass
class DensityField:
    """Density values on a uniform position grid at one instant."""

    q: np.ndarray
    rho: np.ndarray
    t: float

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        self.rho = np.asarray(self.rho, dtype=np.float64)
        if self.q.ndim != 1 or self.q.shape != self.rho.shape:
            raise GridMismatch("q and rho must be 1-D arrays of equal length")
        dq = np.diff(self.q)
        if len(dq) == 0 or np.any(dq <= 0.0):
            raise GridMismatch("q must be strictly increasing")
        # Spacing of a uniform grid jitters by ~1 ulp of |q|, not of dq, so
        # the tolerance must carry an absolute part scaled to the endpoints.
        jitter = 8.0 * np.finfo(np.float64).eps * max(abs(self.q[0]), abs(self.q[-1]))
        if not np.allclose(dq, dq[0], rtol=1e-12, atol=jitter):
            raise GridMismatch("q must be uniformly spaced")

    @property
    def dq(self) -> float:
        return float(self.q[1] - self.q[0])

    def mass(self) -> float:
        return float(np.sum(self.rho) * self.dq)

    @classmethod
    def gaussian(cls, q, q0: float, var: float, t: float = 0.0) -> "DensityField":
        qa = np.asarray(q, dtype=np.float64)
        rho = np.exp(-((qa - q0) ** 2) / (2.0 * var))
        f = cls(qa, rho, t)
        f.rho /= f.mass()
        return f


class StepGrid:
    """What ``step`` reads of a uniform grid q, built once per solve: dq, the
    interior face centres, the two wall faces, every face over 2*dq, and the
    first face with q_f > 0 and with q_f >= 0 (where upwind changes side)."""

    def __init__(self, q: np.ndarray, scheme: str, boundary: str):
        self.dq = float(q[1] - q[0])
        self.qf = (q[:-1] + q[1:]) / 2.0
        self.walls = (float(q[0]) - self.dq / 2.0, float(q[-1]) + self.dq / 2.0)
        self.qf_2dq = np.concatenate(([self.walls[0]], self.qf, [self.walls[1]])) / (2.0 * self.dq)
        self.upwind, self.absorbing = scheme == "split-upwind", boundary == "absorbing"
        self.pos = int(np.searchsorted(self.qf, 0.0, side="right"))
        self.nonneg = int(np.searchsorted(self.qf, 0.0, side="left"))


def _lapack_ok(info: int, name: str) -> int:
    """LAPACK's info, once a negative one (an illegal argument) is refused."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {name}")
    return info


def _refuse_minor(info: int) -> None:
    if info > 0:
        raise LinAlgError(f"{info}th leading minor not positive definite")


def _prefix_len(off: float, mid: float) -> int:
    """Cells after which the interior pivots of a band with off-diagonal
    ``off`` and interior diagonal ``mid`` stop changing.  They contract toward
    their fixed point p* = (mid + sqrt(mid^2 - 4 off^2))/2 by (off/p*)^2 a
    cell, so 53 bits take ln(2^-53)/ln((off/p*)^2) cells.  On the
    split-upwind bands (mid = 1 + 2r, off = -r) the first repeat came at most
    1.1 cells past that for r from 1e-8 to 1e6, so 8 cells are added.  0 if
    the pivots have no fixed point to contract to."""
    disc = mid * mid - 4.0 * off * off
    if not disc > 0.0:
        return 0
    rate = (2.0 * off / (mid + math.sqrt(disc))) ** 2
    if not rate < 1.0:
        return 0
    return 8 + (int(math.log(2.0**-53) / math.log(rate)) if rate > 0.0 else 0)


def _ldlt(off: float, first: float, mid: float, last: float, n: int):
    """Pivots and multipliers of the LAPACK pttrf factor of the n-cell band
    with off-diagonal ``off`` and diagonal (first, mid, ..., mid, last).

    The interior pivot map p -> mid - (off/p)*off is the same operation at
    every cell, so once two consecutive pivots are equal in bits, every later
    interior pivot and multiplier repeats theirs.  pttrf factors a prefix up
    to that fixed point, the rest is filled, and the last pivot comes from
    pttrf on the two cells [p*, last], which does the last cell's operations.
    The factor is the one pttrf gives on the whole band, bit for bit; where
    the pivots do not repeat within the prefix, the whole band is factored.
    """
    m = _prefix_len(off, mid)
    if 0 < m < n - 1:
        d = np.full(m, mid)
        d[0] = first
        d, e, info = _pttrf(d, np.full(m - 1, off), True, True)
        _refuse_minor(_lapack_ok(info, "pttrf"))
        same = np.flatnonzero(d[:-1] == d[1:])
        if len(same):
            j = int(same[0])
            end, _, info = _pttrf(np.array([d[j], last]), np.array([off]), True, True)
            if _lapack_ok(info, "pttrf"):
                _refuse_minor(n)
            dd, ee = np.full(n, d[j]), np.full(n - 1, e[j])
            dd[:j], ee[:j], dd[-1] = d[:j], e[:j], end[1]
            return dd, ee
    d = np.full(n, mid)
    d[0], d[-1] = first, last
    d, e, info = _pttrf(d, np.full(n - 1, off), True, True)
    _refuse_minor(_lapack_ok(info, "pttrf"))
    return d, e


def solve_banded(lower, diag, upper, rhs):
    """Tridiagonal solve; overwrites every array passed.

    LAPACK gtsv (LU with partial pivoting) solves the general band given by
    the arrays ``lower``, ``diag`` and ``upper``.  ``upper=None`` means a
    symmetric positive definite band given by scalars: off-diagonal
    ``lower`` and ``diag = (first, interior, last)``.  It is factored by
    pttrf only up to its pivots' fixed point (``_ldlt``) and solved by pttrs,
    which gives ptsv's result bit for bit.
    """
    global _gtsv, _pttrf, _pttrs
    if _gtsv is None:
        from scipy.linalg.lapack import dgtsv as _gtsv, dpttrf as _pttrf, dpttrs as _pttrs
    if upper is None:
        d, e = _ldlt(lower, *diag, len(rhs))
        x, info = _pttrs(d, e, rhs, True)
        _lapack_ok(info, "pttrs")
        return x
    x, info = _gtsv(lower, diag, upper, rhs, True, True, True, True)[3:]
    if _lapack_ok(info, "gtsv"):
        raise LinAlgError("singular matrix")
    return x


def _upwind_flux(rho: np.ndarray, grid: StepGrid, om: float) -> np.ndarray:
    """Per face, om*q_f times rho of its upwind cell (the left one where om*q_f
    > 0, else the right): the side flips only at q_f = 0, so two products."""
    f = om * grid.qf
    if om > 0.0:
        i = grid.pos
        np.multiply(f[:i], rho[1 : i + 1], out=f[:i])
        np.multiply(f[i:], rho[i:-1], out=f[i:])
    else:
        i = grid.nonneg if om < 0.0 else 0
        np.multiply(f[:i], rho[:i], out=f[:i])
        np.multiply(f[i:], rho[i + 1 :], out=f[i:])
    return f


def step(rho: np.ndarray, grid: StepGrid, om: float, dc: float, h: float) -> np.ndarray:
    """Density after one step of length h with drift om and diffusion dc.

    ``cn-central`` makes one Crank-Nicolson solve by gtsv of the band formed
    from s = (h*om/2)*q_f/(2dq) and ck = h*dc/(4dq^2), each column summing to
    one; ``split-upwind`` advects by the explicit upwind flux, then makes the
    Crank-Nicolson diffusion solve (om = 0), whose band is symmetric positive
    definite and given by four scalars, by pttrf up to the fixed point of its
    pivots and pttrs (``solve_banded``).  The caller owns the time and every
    guard, and starts each step from a finite rho, so no input is scanned for
    finiteness.  rho is left as it is; the result is a fresh array.
    """
    c = h / 2.0
    if not grid.upwind:
        ck = h * dc / (4.0 * grid.dq * grid.dq)
        up = (c * om) * grid.qf_2dq
        lo = np.subtract(-ck, up)
        np.subtract(up, ck, out=up)
        if not grid.absorbing:
            lo[-1] = up[0] = 0.0
        diag = 1.0 - lo[1:]
        diag -= up[:-1]
        lo, up = lo[1:-1], up[1:-1]
        rhs = (2.0 - diag) * rho  # 2*rho - M*rho
        rhs[1:] -= lo * rho[:-1]
        rhs[:-1] -= up * rho[1:]
        return solve_banded(lo, diag, up, rhs)

    dq = grid.dq
    f = _upwind_flux(rho, grid, om)
    f /= dq
    # per cell, 0 - f out through its right face + f in through its left
    adv = np.empty(len(rho))
    np.subtract(0.0, f, out=adv[:-1])
    adv[-1] = 0.0
    adv[1:] += f
    if grid.absorbing:
        uL, uR = om * grid.walls[0], om * grid.walls[1]
        if uL < 0.0:
            adv[0] += uL * rho[0] / dq
        if uR > 0.0:
            adv[-1] -= uR * rho[-1] / dq
    adv *= h
    rho = np.add(adv, rho, out=adv)  # rho + h*adv: IEEE addition commutes

    # L at om = 0 from scalars: every face weighs rho_i by a = k/dq and
    # rho_{i+1} by b = -k/dq, so both off-diagonals are a and the diagonal,
    # (0 - a) + b per cell as for adv above, takes 3 values
    k = dc / (2.0 * dq)
    a, b = k / dq, -k / dq
    d_mid, d_lo, d_hi = (0.0 - a) + b, 0.0 - a, 0.0 + b
    if grid.absorbing:
        d_lo, d_hi = d_lo + b, d_hi - a
    y = d_mid * rho
    y[0], y[-1] = d_lo * rho[0], d_hi * rho[-1]
    ar = a * rho  # the products a*rho[1:] and a*rho[:-1] share
    y[:-1] += ar[1:]
    y[1:] += ar[:-1]
    y *= c
    y += rho  # rho + c*y, the right-hand side pttrs overwrites with the result
    diag = (1.0 - c * d_lo, 1.0 - c * d_mid, 1.0 - c * d_hi)
    return solve_banded(-c * a, diag, None, y)


@dataclass
class SolveResult:
    """Final field, snapshots, and run diagnostics."""

    field: DensityField
    snapshots: dict
    table: CoefficientTable
    mass_initial: float
    mass_final: float
    min_density: float
    peclet_max: float
    n_steps: int
    linf_error: Optional[float] = None
    peak_density: Optional[float] = None

    @property
    def mass_drift(self) -> float:
        return self.mass_final - self.mass_initial


def _auto_domain(cfg: SolverConfig, table) -> tuple:
    var_max = float(np.nanmax(table.sigma_q)) + cfg.init_var
    half = cfg.domain_sigmas * math.sqrt(max(var_max, cfg.init_var))
    lo = min(0.0, cfg.q0) - half
    hi = max(0.0, cfg.q0) + half
    return (cfg.q_min if cfg.q_min is not None else lo,
            cfg.q_max if cfg.q_max is not None else hi)


def solve(
    p: PhysicalParams,
    form: str = "adelman",
    mode: str = "classical",
    t_final: float = 1.0,
    cfg: SolverConfig = SolverConfig(),
) -> SolveResult:
    """Evolve a Gaussian initial condition from cfg.t_start to t_final.

    ``form`` selects the time-local position-space equation (the only one
    implemented).  With ``compare_analytic`` the result carries the maximum
    pointwise deviation from the exact ``propagator`` density of the same
    initial condition: mean chi_q(t)*q0, variance sigma_q(t) + chi_q(t)**2*init_var.
    """
    if form != "adelman":
        raise ValueError(f"unknown FPE form {form!r}; only 'adelman' is implemented")
    if mode not in ("classical", "quantum"):
        raise ValueError(f"mode must be 'classical' or 'quantum', got {mode!r}")
    if mode == "quantum" and cfg.t_start <= 0.0:
        raise ValueError("quantum-mode solves require cfg.t_start > 0")

    t_lo, t_hi, at = step_plan(cfg.t_start, t_final, cfg.dt, cfg.snapshot_times)
    snap_steps = set(at.tolist())

    n_table = cfg.n_table if mode == "classical" else min(cfg.n_table, 257)
    t_nodes = np.linspace(cfg.t_start, t_final, n_table)
    table = build_table(p, t_nodes, mode=mode, n_max=cfg.n_max, tol=cfg.tol)

    q_lo, q_hi = _auto_domain(cfg, table)
    q = np.linspace(q_lo, q_hi, cfg.n_q)
    field = DensityField.gaussian(q, cfg.q0, cfg.init_var, t=cfg.t_start)
    grid, mass0 = StepGrid(q, cfg.scheme, cfg.boundary), field.mass()
    sd0 = math.sqrt(cfg.init_var)
    if grid.dq > sd0:
        raise UnresolvedGrid(
            f"cell width {grid.dq:.4g} exceeds the initial sd {sd0:.4g}:"
            " raise n_q or narrow [q_min, q_max]"
        )

    h = t_hi - t_lo
    om, dc = table.step_coeffs(t_lo, t_hi, (t_lo + t_hi) / 2.0)
    # max|Omega*q| = |Omega|*max|q| exactly, for the CFL and Peclet numbers
    if grid.upwind:
        _refuse_unstable(np.abs(om) * np.max(np.abs(grid.qf)) * h / grid.dq > 1.0, t_lo,
                         "the upwind CFL limit |Omega|*max|q|*h/dq <= 1")
    pos = dc > 0.0
    pe = np.abs(om[pos]) * np.max(np.abs(q)) * grid.dq / dc[pos]
    peclet_max = float(np.max(pe, initial=0.0))

    rho, taken = field.rho, {}
    for k, (o, d, hk) in enumerate(zip(om.tolist(), dc.tolist(), h.tolist())):
        rho = step(rho, grid, o, d, hk)
        if not math.isfinite(np.add.reduce(rho)) and not np.all(np.isfinite(rho)):  # sum can overflow
            raise NonFiniteState(f"non-finite density after step to t={t_hi[k]}")
        if k in snap_steps:
            taken[k] = rho.copy()
    snapshots = {float(ts): taken[k] for ts, k in zip(cfg.snapshot_times, at.tolist())}
    field = DensityField(q, rho, t_final)

    linf = peak = None
    if cfg.compare_analytic:
        def var(t):
            c = float(chi_q(p, t))
            return table.at(t, "sigma_q") + c * c * cfg.init_var

        exact = density(GaussianDensity(p, "averaged", cfg.q0, variance_fn=var), q, t_final)
        linf = float(np.max(np.abs(field.rho - exact)))
        peak = float(np.max(exact))

    return SolveResult(
        field=field,
        snapshots=snapshots,
        table=table,
        mass_initial=mass0,
        mass_final=field.mass(),
        min_density=float(np.min(field.rho)),
        peclet_max=peclet_max,
        n_steps=len(h),
        linf_error=linf,
        peak_density=peak,
    )
