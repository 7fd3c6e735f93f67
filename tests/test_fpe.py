import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qbm.fpe
from qbm import (
    CFLViolation,
    DegenerateVariance,
    DensityField,
    GridMismatch,
    NegativeDiffusion,
    NonFiniteCoefficient,
    PoleWindow,
    SolverConfig,
    StepGrid,
    UnresolvedGrid,
    NonFiniteState,
    build_table,
    solve,
    step,
)
from qbm.coefficients import step_plan


def _cfg(**kw):
    base = dict(
        n_q=401, dt=1e-3, q0=1.0, init_var=1e-2, compare_analytic=True, n_table=1025
    )
    base.update(kw)
    return SolverConfig(**base)


class TestConfigAndField:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(n_q=3)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0)
        with pytest.raises(ValueError):
            SolverConfig(scheme="spectral")
        with pytest.raises(ValueError):
            SolverConfig(boundary="periodic")
        with pytest.raises(ValueError):
            SolverConfig(init_var=0.0)
        # refused at construction, naming the field, before any table or grid
        for field, value, more in [
            ("init_var", np.inf, {}), ("init_var", np.nan, {}), ("q0", np.nan, {}),
            ("q0", -np.inf, {}), ("domain_sigmas", 0.0, {}), ("domain_sigmas", -2.0, {}),
            ("domain_sigmas", np.inf, {}), ("domain_sigmas", np.nan, {}),
            ("n_table", 1, {}), ("n_table", 0, {}),
            ("q_min", 1.0, {"q_max": 1.0}), ("q_min", 2.0, {"q_max": 1.0}),
        ]:
            with pytest.raises(ValueError, match=f"^{field} must be"):
                SolverConfig(**{field: value}, **more)
        SolverConfig(q_min=0.5, q_max=1.0)
        SolverConfig(q_min=2.0)

    def test_field_grid_validation(self):
        with pytest.raises(GridMismatch):
            DensityField(np.array([0.0, 1.0, 0.5]), np.zeros(3), 0.0)
        with pytest.raises(GridMismatch):
            DensityField(np.array([0.0, 0.5, 2.0]), np.zeros(3), 0.0)
        with pytest.raises(GridMismatch):
            DensityField(np.linspace(0, 1, 4), np.zeros(3), 0.0)

    def test_gaussian_init_is_normalized(self):
        f = DensityField.gaussian(np.linspace(-8, 8, 1001), 1.0, 0.04)
        assert f.mass() == pytest.approx(1.0, abs=1e-14)


class TestSolveClassical:
    def test_unknown_form_and_mode(self, p_over):
        with pytest.raises(ValueError):
            solve(p_over, form="kramers")
        with pytest.raises(ValueError):
            solve(p_over, mode="wkb")
        with pytest.raises(ValueError):
            solve(p_over, t_final=0.0)

    def test_refuses_unresolved_grid(self, p_over, monkeypatch):
        # 801 cells from 0 to q0 = 1e6 are ~1250 wide against an initial sd
        # of 0.1: refused before the first step
        def no_step(*args):
            raise AssertionError("stepped an unresolved grid")

        monkeypatch.setattr(qbm.fpe, "step", no_step)
        with pytest.raises(UnresolvedGrid, match="cell width 1250 exceeds the initial sd 0.1"):
            solve(p_over, t_final=0.01, cfg=SolverConfig(q0=1e6))
        # cells just under one sd wide are resolved, and stepped
        with pytest.raises(AssertionError, match="stepped"):
            solve(p_over, t_final=0.01, cfg=SolverConfig(n_q=5, q_min=-0.19, q_max=0.19))

    def test_mass_conservation_zero_flux(self, p_over):
        res = solve(p_over, t_final=1.0, cfg=_cfg())
        assert abs(res.mass_drift) < 1e-12
        assert res.n_steps == 1000

    def test_tracks_analytic_gaussian(self, p_over):
        res = solve(p_over, t_final=1.0, cfg=_cfg())
        assert res.linf_error / res.peak_density < 5e-3

    def test_second_order_refinement(self, p_over):
        # halving both dt and dq should cut the error by about four
        coarse = solve(p_over, t_final=1.0, cfg=_cfg(n_q=401, dt=1e-3))
        fine = solve(p_over, t_final=1.0, cfg=_cfg(n_q=801, dt=5e-4))
        ratio = coarse.linf_error / fine.linf_error
        assert 3.0 < ratio < 5.2

    def test_split_upwind_first_order(self, p_over):
        coarse = solve(p_over, t_final=1.0, cfg=_cfg(scheme="split-upwind", n_q=801, dt=1e-3))
        fine = solve(p_over, t_final=1.0, cfg=_cfg(scheme="split-upwind", n_q=1601, dt=5e-4))
        ratio = coarse.linf_error / fine.linf_error
        assert 1.5 < ratio < 2.6

    def test_split_upwind_cfl_violation(self, p_over):
        with pytest.raises(CFLViolation):
            solve(p_over, t_final=2.0, cfg=_cfg(scheme="split-upwind", n_q=2001, dt=0.5))

    def test_snapshots_land_exactly(self, p_over):
        cfg = _cfg(snapshot_times=(0.25, 0.7003))
        res = solve(p_over, t_final=1.0, cfg=cfg)
        assert set(res.snapshots) == {0.25, 0.7003}
        for rho in res.snapshots.values():
            assert rho.shape == res.field.q.shape
        # 0.7003 is not a multiple of dt; the stepper must shorten a step
        # to land on it exactly, then another one to land on t_final
        assert res.n_steps == 1001

    def test_snapshot_validation(self, p_over):
        with pytest.raises(ValueError):
            solve(p_over, t_final=1.0, cfg=_cfg(snapshot_times=(1.5,)))
        with pytest.raises(ValueError):
            solve(p_over, t_final=1.0, cfg=_cfg(snapshot_times=(0.0,)))

    def test_absorbing_boundary_loses_mass(self, p_over):
        cfg = _cfg(boundary="absorbing", q_min=-2.5, q_max=2.5, compare_analytic=False)
        res = solve(p_over, t_final=2.0, cfg=cfg)
        assert res.mass_final < res.mass_initial - 1e-4
        assert res.min_density > -1e-12

    def test_underdamped_refuses_pole_window(self, p_under):
        with pytest.raises(PoleWindow):
            solve(p_under, t_final=2.2, cfg=_cfg())

    def test_underdamped_ok_before_pole(self, p_under):
        res = solve(p_under, t_final=1.0, cfg=_cfg())
        assert res.linf_error / res.peak_density < 5e-3


def _solve_on(monkeypatch, p, table, t_start, t_final, dt=1e-3, **kw):
    """solve with fpe.build_table returning ``table`` as it is."""
    monkeypatch.setattr(qbm.fpe, "build_table", lambda *args, **kwargs: table)
    cfg = SolverConfig(n_q=201, dt=dt, q_min=-5.0, q_max=5.0, t_start=t_start, init_var=0.1, **kw)
    return solve(p, t_final=t_final, cfg=cfg)


class TestStepGuards:
    def test_negative_diffusion_rejected(self, p_over, monkeypatch):
        table = build_table(p_over, np.linspace(0.0, 1.0, 65))
        bad = dataclasses.replace(table, d_fpe=table.d_fpe - 2.0)
        with pytest.raises(NegativeDiffusion):
            _solve_on(monkeypatch, p_over, bad, 0.5, 0.501)

    def test_nan_coefficient_rejected(self, p_over, monkeypatch):
        table = build_table(p_over, np.linspace(0.0, 1.0, 65))
        d = table.d_fpe.copy()
        d[32] = np.nan
        bad = dataclasses.replace(table, d_fpe=d)
        with pytest.raises(NonFiniteCoefficient):
            _solve_on(monkeypatch, p_over, bad, 0.5, 0.501)

    def test_step_outside_table_rejected(self, p_over, monkeypatch):
        table = build_table(p_over, np.linspace(0.0, 1.0, 65))
        with pytest.raises(GridMismatch):
            _solve_on(monkeypatch, p_over, table, 0.9999, 1.0999, dt=0.1)

    def test_negative_analytic_variance_rejected(self, p_over, monkeypatch):
        # the exact density comes from the propagator, which refuses by type
        table = build_table(p_over, np.linspace(0.0, 1.0, 65))
        bad = dataclasses.replace(table, sigma_q=np.full_like(table.sigma_q, -1.0))
        with pytest.raises(DegenerateVariance):
            _solve_on(monkeypatch, p_over, bad, 0.5, 0.51, compare_analytic=True)

    def test_single_step_preserves_mass(self, p_over):
        table = build_table(p_over, np.linspace(0.0, 1.0, 65))
        f = DensityField.gaussian(np.linspace(-6, 6, 301), 0.5, 0.05, t=0.2)
        om, dc = table.step_coeffs(0.2, 0.201, 0.2005)
        g = step(f.rho, StepGrid(f.q, "cn-central", "zero-flux"), om, dc, 1e-3)
        assert np.sum(g) * f.dq == pytest.approx(f.mass(), abs=1e-14)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        om=st.floats(-5.0, 5.0),
        dc=st.floats(1e-6, 10.0),
        h=st.floats(1e-6, 1.0),
        n=st.integers(5, 2001),
    )
    def test_cn_step_preserves_mass_to_round_off(self, om, dc, h, n):
        # every column of the cn band sums to one, so mass moves only by the
        # round-off of the band's entries: eps times their size, per unit mass
        f = DensityField.gaussian(np.linspace(-3.0, 4.0, n), 0.5, 0.04)
        grid = StepGrid(f.q, "cn-central", "zero-flux")
        g = step(f.rho, grid, om, dc, h)
        band = 1.0 + abs(h * om / 2.0) * np.max(np.abs(grid.qf_2dq)) + h * dc / (4.0 * f.dq**2)
        tol = 16.0 * np.finfo(np.float64).eps * band * np.sum(np.abs(g)) * f.dq
        assert abs(np.sum(g) * f.dq - f.mass()) <= tol

    def _steps_with(self, monkeypatch, p, bad):
        """solve over 10 steps with each step's density passed through ``bad``
        (step index, rho) after the real step."""
        real, k = qbm.fpe.step, []

        def patched(rho, *args):
            k.append(len(k))
            return bad(k[-1], real(rho, *args))

        monkeypatch.setattr(qbm.fpe, "step", patched)
        cfg = SolverConfig(n_q=201, dt=1e-3, q_min=-5.0, q_max=5.0, init_var=0.1, n_table=65)
        return solve(p, t_final=0.01, cfg=cfg)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_cell_raises_at_its_step(self, p_over, monkeypatch, value):
        def bad(k, rho):
            if k == 3:
                rho[57] = value
            return rho

        t_hi = step_plan(0.0, 0.01, 1e-3)[1]
        with pytest.raises(NonFiniteState, match=f"after step to t={t_hi[3]}$"):
            self._steps_with(monkeypatch, p_over, bad)

    @pytest.mark.filterwarnings("ignore:overflow encountered in reduce:RuntimeWarning")
    def test_finite_cells_whose_sum_overflows_pass(self, p_over, monkeypatch):
        # 201 cells of 1.5e308 sum to inf, yet every cell is finite
        res = self._steps_with(monkeypatch, p_over, lambda k, rho: np.full_like(rho, 1.5e308))
        assert res.n_steps == 10 and np.all(res.field.rho == 1.5e308)
        assert not np.isfinite(np.sum(res.field.rho))


def _reference_step(rho, q, om, dc, h, scheme, boundary, symmetric=True):
    """The step kernel as first written: the flux operator L in zero-filled
    diagonals, M = I - (h/2)L in a banded array and a scipy solver.  The
    split-upwind diffusion band goes to solveh_banded (LAPACK ptsv) as its
    2 x n upper band, unless ``symmetric`` is false: then, like cn-central, to
    solve_banded (gtsv) as a 3 x n band.  A split-upwind ``step`` must match
    the default bit for bit; cn-central is the old assembly that
    ``_reference_cn_step`` replaced."""
    def flux_tridiag(om):
        n = len(q)
        dq = q[1] - q[0]
        qf = (q[:-1] + q[1:]) / 2.0
        uf = om * qf
        a_f = uf / 2.0 + dc / (2.0 * dq)
        b_f = uf / 2.0 - dc / (2.0 * dq)
        diag, upper, lower = np.zeros(n), np.zeros(n - 1), np.zeros(n - 1)
        diag[:-1] -= a_f / dq
        upper[:] = -b_f / dq
        diag[1:] += b_f / dq
        lower[:] = a_f / dq
        if boundary == "absorbing":
            uL = om * (q[0] - dq / 2.0)
            uR = om * (q[-1] + dq / 2.0)
            diag[0] += (uL / 2.0 - dc / (2.0 * dq)) / dq
            diag[-1] -= (uR / 2.0 + dc / (2.0 * dq)) / dq
        return lower, diag, upper

    if scheme == "split-upwind":
        dq = q[1] - q[0]
        u_f = om * (q[:-1] + q[1:]) / 2.0
        F = np.where(u_f > 0.0, u_f * rho[:-1], u_f * rho[1:])
        adv = np.zeros(len(q))
        adv[:-1] -= F / dq
        adv[1:] += F / dq
        if boundary == "absorbing":
            uL, uR = om * (q[0] - dq / 2.0), om * (q[-1] + dq / 2.0)
            if uL < 0.0:
                adv[0] += uL * rho[0] / dq
            if uR > 0.0:
                adv[-1] -= uR * rho[-1] / dq
        rho, om = rho + h * adv, 0.0
    lower, diag, upper = flux_tridiag(om)
    y = diag * rho
    y[:-1] += upper * rho[1:]
    y[1:] += lower * rho[:-1]
    rhs = rho + h / 2.0 * y
    ab = np.zeros((3, len(q)))
    ab[0, 1:] = -h / 2.0 * upper
    ab[1, :] = 1.0 - h / 2.0 * diag
    if scheme == "split-upwind" and symmetric:
        return scipy.linalg.solveh_banded(ab[:2], rhs)
    ab[2, :-1] = -h / 2.0 * lower
    return scipy.linalg.solve_banded((1, 1), ab, rhs)


def _reference_cn_step(rho, q, om, dc, h, boundary):
    """The cn-central step assembled from its two scalars, in zero-filled
    diagonals and a banded array solved by scipy's solve_banded (gtsv).

    On face j (between cells j-1 and j, the walls being faces 0 and n),
    M = I - (h/2)L has M[j, j-1] = -s_j - ck and M[j-1, j] = s_j - ck, with
    s = (h*om/2)*q_f/(2dq) and ck = h*dc/(4dq^2).  Each diagonal entry makes
    its column sum to one; zero-flux walls carry no entries.  The right-hand
    side is 2*rho - M*rho."""
    n, dq = len(q), q[1] - q[0]
    faces = np.concatenate(([q[0] - dq / 2.0], (q[:-1] + q[1:]) / 2.0, [q[-1] + dq / 2.0]))
    s = (h / 2.0 * om) * (faces / (2.0 * dq))
    ck = h * dc / (4.0 * dq * dq)
    sub, sup = -s - ck, s - ck
    if boundary == "zero-flux":
        sub[n] = sup[0] = 0.0
    diag = 1.0 - sub[1:] - sup[:-1]
    rhs = (2.0 - diag) * rho
    rhs[1:] -= sub[1:n] * rho[:-1]
    rhs[:-1] -= sup[1:n] * rho[1:]
    ab = np.zeros((3, n))
    ab[0, 1:], ab[1, :], ab[2, :-1] = sup[1:n], diag, sub[1:n]
    return scipy.linalg.solve_banded((1, 1), ab, rhs)


@pytest.mark.parametrize("n", [5, 801])
@pytest.mark.parametrize("om", [-0.7, 0.0, 0.4])
@pytest.mark.parametrize("boundary", ["zero-flux", "absorbing"])
@pytest.mark.parametrize("scheme", ["cn-central", "split-upwind"])
def test_lean_kernel_matches_reference_assembly(scheme, boundary, om, n):
    # both end cells underflow to exact zeros, so signed zeros are compared too
    q = np.linspace(-3.0, 4.0, n)
    rho = DensityField.gaussian(q, 0.5, 0.005).rho
    assert rho[0] == rho[-1] == 0.0
    if scheme == "cn-central":
        want = _reference_cn_step(rho, q, np.float64(om), 0.9, 2e-3, boundary)
    else:
        want = _reference_step(rho, q, np.float64(om), 0.9, 2e-3, scheme, boundary)
    got = step(rho, StepGrid(q, scheme, boundary), om, 0.9, 2e-3)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("h, dc", [(5e-4, 1.5), (2e-3, 0.9)])
@pytest.mark.parametrize("om", [-0.7, 0.0, 0.4])
@pytest.mark.parametrize("boundary", ["zero-flux", "absorbing"])
def test_fine_upwind_step_matches_reference(boundary, om, h, dc, pttrf_lengths):
    # the fpe-grid size, where the diffusion factor takes its fixed-point fill
    q = np.linspace(-3.0, 4.1, 16801)  # dq = 7.1/16800: its divisions round
    rho = DensityField.gaussian(q, 0.5, 0.005).rho
    want = _reference_step(rho, q, np.float64(om), dc, h, "split-upwind", boundary)
    got = step(rho, StepGrid(q, "split-upwind", boundary), om, dc, h)
    assert pttrf_lengths[-1] == 2 and pttrf_lengths[0] < len(q)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scheme", ["cn-central", "split-upwind"])
def test_step_is_pure(scheme):
    # a fresh result each call, and the input and earlier results left alone
    q = np.linspace(-3.0, 4.0, 801)
    grid = StepGrid(q, scheme, "absorbing")
    rho = DensityField.gaussian(q, 0.5, 0.01).rho
    before = rho.tobytes()
    first = step(rho, grid, 0.4, 0.9, 2e-3)
    kept = first.tobytes()
    second = step(rho, grid, 0.4, 0.9, 2e-3)
    assert second is not first and not np.shares_memory(first, second)
    assert not np.shares_memory(first, rho) and not np.shares_memory(second, rho)
    assert first.tobytes() == kept == second.tobytes() and rho.tobytes() == before


@pytest.mark.parametrize("om", [-0.7, 0.0, 0.4])
def test_upwind_slices_at_a_zero_face(om):
    # an even symmetric grid puts one face at q_f = 0, where om*q_f = +-0.0
    # picks the right cell; negative densities beside it give signed zeros
    n = 10
    q = (np.arange(n) - (n - 1) / 2.0) * 0.25
    grid = StepGrid(q, "split-upwind", "zero-flux")
    z = n // 2 - 1
    assert grid.qf[z] == 0.0 and grid.nonneg == z and grid.pos == z + 1
    rho = np.linspace(1.0, 2.0, n)
    rho[z], rho[z + 1] = -0.25, -0.5
    uf = om * grid.qf
    got = qbm.fpe._upwind_flux(rho, grid, om)
    assert got.tobytes() == (uf * np.where(uf > 0.0, rho[:-1], rho[1:])).tobytes()
    ref = _reference_step(rho, q, np.float64(om), 0.9, 2e-3, "split-upwind", "zero-flux")
    assert step(rho, grid, om, 0.9, 2e-3).tobytes() == ref.tobytes()


@pytest.mark.parametrize("boundary", ["zero-flux", "absorbing"])
def test_symmetric_solve_tracks_the_general_one(boundary):
    # the ptsv diffusion solve against the gtsv assembly it replaced, over
    # 200 split-upwind steps with om changing sign
    q = np.linspace(-3.0, 4.0, 801)
    grid = StepGrid(q, "split-upwind", boundary)
    new = old = DensityField.gaussian(q, 0.5, 0.01).rho
    mass0 = np.sum(new) * grid.dq
    for om, dc in zip(np.linspace(-0.7, 0.4, 200), np.linspace(0.9, 0.2, 200)):
        new = step(new, grid, float(om), float(dc), 2e-3)
        old = _reference_step(old, q, om, dc, 2e-3, "split-upwind", boundary, symmetric=False)
    assert np.max(np.abs(new - old)) <= 1e-13 * np.max(old)
    if boundary == "zero-flux":
        assert abs(np.sum(new) * grid.dq - mass0) <= 1e-12


@pytest.mark.parametrize("boundary", ["zero-flux", "absorbing"])
def test_cn_band_from_scalars_tracks_the_flux_assembly(boundary):
    # the cn-central band formed from s and ck against the flux-operator
    # assembly it replaced, over 200 steps with om changing sign
    q = np.linspace(-3.0, 4.0, 801)
    grid = StepGrid(q, "cn-central", boundary)
    new = old = DensityField.gaussian(q, 0.5, 0.01).rho
    mass0 = np.sum(new) * grid.dq
    for om, dc in zip(np.linspace(-0.7, 0.4, 200), np.linspace(0.9, 0.2, 200)):
        new = step(new, grid, float(om), float(dc), 2e-3)
        old = _reference_step(old, q, om, dc, 2e-3, "cn-central", boundary)
    assert np.max(np.abs(new - old)) <= 1e-13 * np.max(old)
    if boundary == "zero-flux":
        assert abs(np.sum(new) * grid.dq - mass0) <= 1e-12


def test_lapack_loads_with_the_first_solve():
    # runs that solve no FPE (coeffs, sde, validate) never load scipy.linalg;
    # a step taken without solve binds gtsv and ptsv itself, for either scheme
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for scheme in ("cn-central", "split-upwind"):
        code = (
            "import sys, numpy as np, qbm\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            f"grid = qbm.StepGrid(np.linspace(-1.0, 1.0, 9), {scheme!r}, 'zero-flux')\n"
            "rho = qbm.step(np.full(9, 0.5), grid, -0.5, 1.0, 1e-3)\n"
            "assert np.all(np.isfinite(rho)) and 'scipy.linalg' in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


def test_singular_solve_raises():
    zeros = (np.zeros(2), np.zeros(3), np.zeros(2))
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        scipy.linalg.solve_banded((1, 1), np.zeros((3, 3)), np.ones(3))
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        qbm.fpe.solve_banded(*zeros, np.ones(3))
    # symmetric but not positive definite: the scalar-band path refuses it too
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        qbm.fpe.solve_banded(-0.5, (0.0, 0.0, 0.0), None, np.ones(3))


@pytest.fixture
def pttrf_lengths(monkeypatch):
    """Lengths of the bands handed to LAPACK pttrf, one list per solve: the
    fixed-point fill ends on the 2-cell call, the full factor on an n-cell one."""
    qbm.fpe.solve_banded(-0.5, (2.0, 2.0, 2.0), None, np.ones(5))  # binds LAPACK
    calls, real = [], qbm.fpe._pttrf

    def counted(d, *args):
        calls.append(len(d))
        return real(d, *args)

    monkeypatch.setattr(qbm.fpe, "_pttrf", counted)
    return calls


def _scalar_band(r, n, boundary):
    """The split-upwind diffusion band at h*D/(4dq^2) = r, as scalars and as
    solveh_banded's 2 x n upper band."""
    end = 1.0 + (2.0 * r if boundary == "absorbing" else r)
    diag = (end, 1.0 + 2.0 * r, end)
    ab = np.empty((2, n))
    ab[0, 1:], ab[1, :] = -r, diag[1]
    ab[1, 0] = ab[1, -1] = end
    return -r, diag, ab


@pytest.mark.parametrize("boundary", ["zero-flux", "absorbing"])
def test_scalar_band_solve_is_ptsv_bit_for_bit(boundary, pttrf_lengths):
    # solveh_banded is LAPACK ptsv = pttrf + pttrs on the whole band; the
    # fixed-point fill must reproduce its factor exactly, and the sweep must
    # reach both the fill and the full-factor fallback
    rng = np.random.default_rng(5)
    paths = {"fill": 0, "full": 0}
    for r in (1e-8, 1e-4, 1.0, 100.0, 1e4, 1e6):
        for n in (5, 6, 64, 801, 16801):
            off, diag, ab = _scalar_band(r, n, boundary)
            rhs = rng.random(n)
            want = scipy.linalg.solveh_banded(ab, rhs)
            pttrf_lengths.clear()
            got = qbm.fpe.solve_banded(off, diag, None, rhs.copy())
            assert got.tobytes() == want.tobytes(), (r, n)
            paths["fill" if pttrf_lengths[-1] == 2 else "full"] += 1
            assert pttrf_lengths[-1] in (2, n)
    assert paths["fill"] > 0 and paths["full"] > 0, paths


def test_pivots_that_do_not_repeat_in_the_prefix_fall_back(pttrf_lengths, monkeypatch):
    # a prefix too short for the pivots to settle factors the whole band
    monkeypatch.setattr(qbm.fpe, "_prefix_len", lambda off, mid: 9)
    off, diag, ab = _scalar_band(1e4, 801, "zero-flux")
    rhs = np.random.default_rng(6).random(801)
    want = scipy.linalg.solveh_banded(ab, rhs)
    assert qbm.fpe.solve_banded(off, diag, None, rhs).tobytes() == want.tobytes()
    assert pttrf_lengths == [9, 801]


@pytest.mark.parametrize(
    "diag, where",
    [((-1.0, 3.0, 2.0), "prefix"), ((0.1, 3.0, 2.0), "prefix"), ((2.0, 3.0, 0.1), "last")],
)
def test_indefinite_scalar_band_raises_with_ptsv_info(diag, where, pttrf_lengths):
    # the bad pivot falls in the factored prefix (cell 1 or 2) or in the
    # last cell, whose pivot comes from the 2-cell factor; the message names
    # the same leading minor as ptsv on the whole band
    n = 801
    d = np.full(n, diag[1])
    d[0], d[-1] = diag[0], diag[2]
    info = scipy.linalg.lapack.dptsv(d, np.full(n - 1, -1.0), np.ones(n))[-1]
    assert info == (n if where == "last" else 1 + (diag[0] > 0))
    with pytest.raises(np.linalg.LinAlgError, match=f"^{info}th leading minor not positive definite"):
        qbm.fpe.solve_banded(-1.0, diag, None, np.ones(n))
    assert pttrf_lengths[0] < n and pttrf_lengths[-1] == (2 if where == "last" else pttrf_lengths[0])


@pytest.mark.parametrize("routine", ["_gtsv", "_pttrf", "_pttrs"])
def test_illegal_lapack_argument_raises(routine, monkeypatch):
    # LAPACK reports an illegal argument by info < 0; that is never a solution
    qbm.fpe.solve_banded(-0.5, (2.0, 2.0, 2.0), None, np.ones(5))  # binds LAPACK
    real = getattr(qbm.fpe, routine)
    monkeypatch.setattr(qbm.fpe, routine, lambda *a: (*real(*a)[:-1], -3))
    with pytest.raises(ValueError, match=f"illegal value in argument 3 of LAPACK {routine[1:]}"):
        if routine == "_gtsv":
            qbm.fpe.solve_banded(np.ones(4), np.full(5, 3.0), np.ones(4), np.ones(5))
        else:
            qbm.fpe.solve_banded(-0.5, (2.0, 2.0, 2.0), None, np.ones(5))


class TestFailBeforeStepping:
    """A run that cannot finish raises before its first step."""

    @pytest.fixture
    def steps(self, monkeypatch):
        taken = []
        real = qbm.fpe.step

        def counted(*args, **kwargs):
            taken.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(qbm.fpe, "step", counted)
        return taken

    def test_snapshot_checked_before_table(self, p_over, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("coefficient table built before the snapshot check")

        monkeypatch.setattr(qbm.fpe, "build_table", no_table)
        with pytest.raises(ValueError):
            solve(p_over, t_final=1.0, cfg=_cfg(snapshot_times=(1.5,)))

    def test_pole_window(self, p_under, steps):
        with pytest.raises(PoleWindow):
            solve(p_under, t_final=2.2, cfg=_cfg())
        assert len(steps) == 0

    def test_cfl_violation(self, p_over, steps):
        with pytest.raises(CFLViolation):
            solve(p_over, t_final=2.0, cfg=_cfg(scheme="split-upwind", n_q=2001, dt=0.5))
        assert len(steps) == 0


class TestSolveQuantum:
    def test_requires_positive_start(self, pq_over):
        with pytest.raises(ValueError):
            solve(pq_over, mode="quantum", t_final=1.0, cfg=_cfg(t_start=0.0))

    def test_small_quantum_run(self, pq_over):
        cfg = _cfg(t_start=0.2, init_var=0.05, n_q=301, dt=2e-3, n_table=33,
                   n_max=400, compare_analytic=True)
        res = solve(pq_over, mode="quantum", t_final=0.8, cfg=cfg)
        assert abs(res.mass_drift) < 1e-12
        assert res.linf_error / res.peak_density < 2e-2
