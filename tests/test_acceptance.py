"""Acceptance gate: one test per headline guarantee of the toolkit.

Each test pins a guarantee at fixed benchmark parameters, asserts the stated
tolerance (and runtime budget where one is part of the guarantee), and emits a
single [PASS]/[FAIL] line with the measured figures of merit.  Monte Carlo
tests run with frozen seeds, so they are deterministic; the seeds were frozen
after a scan over several pairs, all of which passed.
"""

import math
import time

import numpy as np
from scipy.stats import ks_2samp

from qbm import (
    GaussianDensity,
    SolverConfig,
    build_table,
    chi_q,
    chi_v,
    chi_v_dot,
    d1_classical,
    d_cl_closed,
    density,
    derive,
    fpe_residual,
    omega_drift,
    sigma1_classical,
    sigma_cl_closed,
    simulate_langevin,
    simulate_reduced,
    solve,
    xi_q0_closed,
    xi_q0_sum,
)


def _emit(capsys, ok: bool, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def _moment_z(x: np.ndarray, target_mean: float, target_var: float) -> tuple:
    n = x.size
    m = float(x.mean())
    v = float(x.var(ddof=1))
    z_mean = abs(m - target_mean) / math.sqrt(v / n)
    z_var = abs(v - target_var) / (v * math.sqrt(2.0 / (n - 1)))
    return z_mean, z_var


def _field_variance(field) -> float:
    q, rho = field.q, field.rho
    m0 = np.trapezoid(rho, q)
    m1 = float(np.trapezoid(q * rho, q) / m0)
    return float(np.trapezoid(q * q * rho, q) / m0) - m1 * m1


def test_initial_correlation_routes_agree(capsys):
    """Mode-sum and closed-form initial-correlation routes agree to 1e-8
    relative on nu*t in [0.1, 50] (50 log points) in all three damping
    regimes, in under 10 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for gamma, omega0_sq in ((1.0, 0.16), (2.0, 1.0), (0.5, 1.0)):
        p = derive(1.0, gamma, omega0_sq, 1.0, hbar=1.0)
        nu = p.matsubara_nu()
        for nut in np.geomspace(0.1, 50.0, 50):
            t = nut / nu
            a = xi_q0_sum(p, t)
            b = xi_q0_closed(p, t, tol=1e-12)
            worst = max(worst, abs(a / b - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _emit(capsys, ok, "initial-correlation routes",
          f"max rel dev {worst:.3e} (limit 1.0e-08; {elapsed:.1f} s of 10 s)")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_quantum_coefficients_collapse_to_classical(capsys):
    """At hbar*beta*gamma = 1e-4 the quantum diffusion function and averaged
    variance collapse onto the classical closed forms to 1e-3 relative on
    t in [0.1, 10]/gamma, in under 60 s.

    The bath-mode sum carries a strict-Ohmic remnant that grows like
    hbar*ln(n_modes) (the log_coefficient diagnostic of d1_quantum_detail),
    so the collapse is evaluated at a fixed small cutoff, equivalent to
    imposing a finite high-frequency bath cutoff (n_max = 8 here corresponds
    to a cutoff near 5e5 * gamma).
    """
    t0 = time.perf_counter()
    p = derive(1.0, 1.0, 0.16, 1.0, hbar=1e-4)
    t = np.linspace(0.1, 10.0, 50)
    table = build_table(p, t, "quantum", n_max=8)
    worst_d = float(np.max(np.abs(table.d1 / d1_classical(p, t) - 1.0)))
    worst_s = float(np.max(np.abs(table.sigma_q / sigma_cl_closed(p, t) - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = worst_d <= 1e-3 and worst_s <= 1e-3 and elapsed < 60.0
    _emit(capsys, ok, "classical-limit collapse",
          f"D1 {worst_d:.3e}, variance {worst_s:.3e} "
          f"(limit 1.0e-03; {elapsed:.1f} s of 60 s)")
    assert worst_d <= 1e-3
    assert worst_s <= 1e-3
    assert elapsed < 60.0


def test_classical_variance_decomposition(capsys):
    """sigma1 + (k_B*T/M)*chi_v**2 equals the thermal-average variance closed
    form to 1e-12 absolute on a 100-point grid."""
    p = derive(1.0, 1.0, 0.16, 1.0)
    tt = np.linspace(0.0, 10.0, 100)
    lhs = sigma1_classical(p, tt) + (p.kT / p.M) * chi_v(p, tt) ** 2
    rhs = sigma_cl_closed(p, tt)
    worst = float(np.max(np.abs(lhs - rhs)))
    ok = worst <= 1e-12
    _emit(capsys, ok, "variance decomposition",
          f"max abs dev {worst:.3e} (limit 1.0e-12)")
    assert worst <= 1e-12


def test_analytic_gaussian_solves_fpe(capsys):
    """The analytic Gaussian density has FPE residual <= 1e-9 of peak against
    the classical (Omega, D) pair with exact derivatives, and residual within
    the mode-sum tolerance (1e-8) against a quantum coefficient table, in
    under 10 s."""
    t0 = time.perf_counter()
    p = derive(1.0, 1.0, 0.16, 1.0)
    table_cl = build_table(p, np.linspace(0.0, 4.0, 801))
    g_cl = GaussianDensity(p, kind="averaged", q0=1.0)
    q = np.linspace(-6.0, 8.0, 401)
    worst_cl = 0.0
    for t in (0.5, 1.0, 2.0):
        res = fpe_residual(g_cl, table_cl, q, t)
        peak = density(g_cl, g_cl.mean(t), t)
        worst_cl = max(worst_cl, float(np.max(np.abs(res))) / peak)

    pq = derive(1.0, 1.0, 0.16, 1.0, hbar=1.0)
    table_q = build_table(pq, np.linspace(0.2, 2.0, 16), mode="quantum",
                          tol=1e-8, n_max=500)
    g_q = GaussianDensity(
        pq, kind="averaged", q0=1.0,
        variance_fn=lambda t: float(np.interp(t, table_q.t, table_q.sigma_q)),
    )
    worst_q = 0.0
    for t in (0.56, 1.04, 1.64):
        res = fpe_residual(g_q, table_q, q, t)
        peak = density(g_q, g_q.mean(t), t)
        worst_q = max(worst_q, float(np.max(np.abs(res))) / peak)
    elapsed = time.perf_counter() - t0
    ok = worst_cl <= 1e-9 and worst_q <= 1e-8 and elapsed < 10.0
    _emit(capsys, ok, "analytic-density residual",
          f"classical {worst_cl:.3e} of peak (limit 1.0e-09), "
          f"quantum {worst_q:.3e} (limit 1.0e-08; {elapsed:.1f} s of 10 s)")
    assert worst_cl <= 1e-9
    assert worst_q <= 1e-8
    assert elapsed < 10.0


def test_fpe_solver_accuracy_and_order(capsys):
    """The default solver tracks the exact Gaussian to L_inf <= 1e-3 of peak
    at n_q = 2001, dt = 1e-4, t_final = 2 from q0 = 1, and the error falls by
    a factor in [3.2, 4.8] under 2x refinement of both grid and step, in
    under 2 min."""
    t0 = time.perf_counter()
    p = derive(1.0, 1.0, 0.16, 1.0)
    errs = {}
    for n_q, dt in ((2001, 1e-4), (4001, 5e-5)):
        cfg = SolverConfig(n_q=n_q, dt=dt, q0=1.0, init_var=1e-2,
                           compare_analytic=True)
        r = solve(p, t_final=2.0, cfg=cfg)
        errs[n_q] = (r.linf_error, r.peak_density)
    rel = errs[2001][0] / errs[2001][1]
    ratio = errs[2001][0] / errs[4001][0]
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-3 and 3.2 <= ratio <= 4.8 and elapsed < 120.0
    _emit(capsys, ok, "solver accuracy/order",
          f"rel Linf {rel:.3e} (limit 1.0e-03), refinement ratio {ratio:.2f} "
          f"(range [3.2, 4.8]; {elapsed:.1f} s of 120 s)")
    assert rel <= 1e-3
    assert 3.2 <= ratio <= 4.8
    assert elapsed < 120.0


def test_reduced_sde_matches_langevin(capsys):
    """A 1e5-path reduced-SDE ensemble reproduces the analytic mean and
    thermal-average variance within 3 standard errors at four checkpoints,
    and its position marginals are indistinguishable from thermal-start
    Langevin marginals by a KS test at the 5% level, in under 3 min."""
    t0 = time.perf_counter()
    p = derive(1.0, 1.0, 0.16, 1.0)
    table = build_table(p, np.linspace(0.0, 4.2, 1051))
    checkpoints = (0.5, 1.0, 2.0, 4.0)
    n = 100_000
    ra = simulate_reduced(p, table, 1.0, n, 2e-3, 4.0, seed=17, threads=4,
                          sample_times=checkpoints)
    rb = simulate_langevin(p, 1.0, "thermal", n, 2e-3, 4.0, seed=19,
                           threads=4, sample_times=checkpoints)
    max_z = 0.0
    min_p = 1.0
    for t in checkpoints:
        xa = ra.samples_at[t]
        z_mean, z_var = _moment_z(xa, chi_q(p, t) * 1.0, sigma_cl_closed(p, t))
        max_z = max(max_z, z_mean, z_var)
        min_p = min(min_p, float(ks_2samp(xa, rb.samples_at[t]).pvalue))
    elapsed = time.perf_counter() - t0
    ok = max_z <= 3.0 and min_p >= 0.05 and elapsed < 180.0
    _emit(capsys, ok, "reduced-SDE vs Langevin",
          f"max moment |z| {max_z:.2f} (limit 3), min KS p {min_p:.3f} "
          f"(limit 0.05; {elapsed:.1f} s of 180 s)")
    assert max_z <= 3.0
    assert min_p >= 0.05
    assert elapsed < 180.0


def test_stationarity_identity(capsys):
    """D(t) + 2*sigma(t)*Omega(t) - sigma_dot(t) vanishes to 1e-8 pointwise
    with every term from an independent route, and at t = 50 both D and
    -2*sigma*Omega agree with 4*k_B*T/(M*(gamma+w)) to 1e-8."""
    p = derive(1.0, 1.0, 0.16, 1.0)
    tt = np.linspace(0.05, 8.0, 200)
    d = d_cl_closed(p, tt)
    sig = sigma_cl_closed(p, tt)
    om = omega_drift(p, tt)
    sig_dot = d1_classical(p, tt) + (2.0 * p.kT / p.M) * chi_v(p, tt) * chi_v_dot(p, tt)
    worst = float(np.max(np.abs(d + 2.0 * sig * om - sig_dot)))

    target = 4.0 * p.kT / (p.M * (p.gamma + p.omega.real))
    end_d = abs(d_cl_closed(p, 50.0) - target)
    end_s = abs(-2.0 * sigma_cl_closed(p, 50.0) * omega_drift(p, 50.0) - target)
    worst_end = max(end_d, end_s)
    ok = worst <= 1e-8 and worst_end <= 1e-8
    _emit(capsys, ok, "stationarity identity",
          f"pointwise {worst:.3e}, endpoint {worst_end:.3e} (limit 1.0e-08)")
    assert worst <= 1e-8
    assert worst_end <= 1e-8


def test_equipartition_endpoint(capsys):
    """Long-time position variance reaches k_B*T/omega0_sq from every route:
    both finite-difference schemes to 1e-3 relative, and both path ensembles
    to within 3 standard errors."""
    p = derive(1.0, 1.0, 0.16, 1.0)
    target = p.kT / p.omega0_sq
    limit = 1e-3 * target

    cfg_cn = SolverConfig(n_q=801, dt=2.5e-3, q0=1.0, init_var=1e-2,
                          domain_sigmas=6.0)
    err_cn = abs(_field_variance(solve(p, t_final=30.0, cfg=cfg_cn).field) - target)

    cfg_up = SolverConfig(n_q=16801, dt=5e-4, q0=1.0, init_var=1e-2,
                          scheme="split-upwind", domain_sigmas=5.0)
    err_up = abs(_field_variance(solve(p, t_final=30.0, cfg=cfg_up).field) - target)

    table = build_table(p, np.linspace(0.0, 31.0, 1551))
    ra = simulate_reduced(p, table, 1.0, 30_000, 5e-3, 30.0, seed=17,
                          threads=4, sample_times=(30.0,))
    rb = simulate_langevin(p, 1.0, "thermal", 30_000, 5e-3, 30.0, seed=19,
                           threads=4, sample_times=(30.0,))
    z_mc = 0.0
    for r in (ra, rb):
        x = r.samples_at[30.0]
        v = float(x.var(ddof=1))
        z_mc = max(z_mc, abs(v - target) / (v * math.sqrt(2.0 / (x.size - 1))))

    ok = err_cn <= limit and err_up <= limit and z_mc <= 3.0
    _emit(capsys, ok, "equipartition endpoint",
          f"PDE |var-target| {err_cn:.3e}/{err_up:.3e} (limit {limit:.2e} = "
          f"1e-3 relative), MC max |z| {z_mc:.2f} (limit 3)")
    assert err_cn <= limit
    assert err_up <= limit
    assert z_mc <= 3.0
