"""The coefficient-lookup policy of CoefficientTable (``at``, ``step_coeffs``)
and its two callers, the FPE ``solve`` and the reduced SDE, and the one step
plan (``step_plan``) of those callers and the Langevin simulator."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbm.fpe
from qbm import (
    GridMismatch,
    NegativeDiffusion,
    NonFiniteCoefficient,
    PoleWindow,
    SolverConfig,
    build_table,
    simulate_reduced,
    solve,
)
from qbm.coefficients import _CSV_COLUMNS, CoefficientTable, step_plan


@pytest.fixture
def table(p_over):
    return build_table(p_over, np.linspace(0.0, 1.0, 65))


def _with_d_fpe(table, index, value):
    d = table.d_fpe.copy()
    d[index] = value
    return dataclasses.replace(table, d_fpe=d)


# Every bad table spoils the step [0.5, 0.6] (midpoint 0.55), which both
# callers below take; table nodes 35 and 36 sit at 0.547 and 0.5625.
BAD_TABLES = {
    # cut at t = 0.5
    "out-of-range": (
        GridMismatch,
        lambda tb: dataclasses.replace(tb, **{c: getattr(tb, c)[:33] for c in _CSV_COLUMNS}),
    ),
    "pole-window": (PoleWindow, lambda tb: dataclasses.replace(tb, pole_windows=[(0.55, 0.56)])),
    "nan-d_fpe": (NonFiniteCoefficient, lambda tb: _with_d_fpe(tb, slice(35, 37), np.nan)),
    "negative-D": (NegativeDiffusion, lambda tb: _with_d_fpe(tb, slice(35, 37), -1.0)),
}


def _fpe_solve(p, tb):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qbm.fpe, "build_table", lambda *args, **kwargs: tb)
        solve(p, t_final=0.6, cfg=SolverConfig(n_q=201, dt=0.1, t_start=0.5))


def _sde(p, tb):
    simulate_reduced(p, tb, 1.0, 100, 0.1, 1.0, seed=1)


class TestSharedGuardPolicy:
    @pytest.mark.parametrize("caller", [_fpe_solve, _sde], ids=["fpe.step", "simulate_reduced"])
    @pytest.mark.parametrize("case", list(BAD_TABLES))
    def test_same_typed_error(self, p_over, table, caller, case):
        error, spoil = BAD_TABLES[case]
        caller(p_over, table)  # the unspoilt table steps fine
        with pytest.raises(error):
            caller(p_over, spoil(table))

    def test_earliest_refused_step_decides(self, p_over, table):
        # D < 0 around t = 0.25 comes before NaN around t = 0.55
        bad = _with_d_fpe(_with_d_fpe(table, slice(35, 37), np.nan), slice(15, 18), -1.0)
        with pytest.raises(NegativeDiffusion):
            simulate_reduced(p_over, bad, 1.0, 100, 0.1, 1.0, seed=1)
        t_lo = np.arange(10) / 10.0
        with pytest.raises(NegativeDiffusion):
            bad.step_coeffs(t_lo, t_lo + 0.1, t_lo + 0.05)

    def test_vector_matches_scalar_lookups(self, table):
        t_lo = np.linspace(0.0, 0.9, 10)
        om, dc = table.step_coeffs(t_lo, t_lo + 0.1, t_lo + 0.05)
        for k, t0 in enumerate(t_lo):
            assert table.step_coeffs(t0, t0 + 0.1, t0 + 0.05) == (om[k], dc[k])


class TestPoleWindowRule:
    def test_padded_overlap_matches_step_coeffs(self, p_under):
        table = build_table(p_under, np.linspace(0.0, 3.0, 1501))
        a = table.pole_windows[0][0]
        pad = table.t[1] - table.t[0]
        # inside the one-spacing pad, short of the window itself
        lo, hi = a - 0.6 * pad, a - 0.3 * pad
        with pytest.raises(PoleWindow):
            table.step_coeffs(lo, hi, (lo + hi) / 2.0)
        lo, hi = a - 1.6 * pad, a - 1.3 * pad
        table.step_coeffs(lo, hi, (lo + hi) / 2.0)


class TestAt:
    def test_interpolates_scalar_and_array(self, table):
        assert table.at(0.5, "sigma_q") == table.sigma_q[32]
        ts = np.array([0.0, 0.25, 1.0])
        np.testing.assert_array_equal(table.at(ts, "d1"), table.d1[[0, 16, 64]])

    def test_range_slack(self, table):
        table.at(1.0 + 5e-13, "omega")
        table.at(-5e-13, "omega")
        with pytest.raises(GridMismatch):
            table.at(1.0 + 1e-11, "omega")
        with pytest.raises(GridMismatch):
            table.at(np.array([0.5, 1.1]), "omega")


class TestStepPlan:
    def test_long_run_has_no_degenerate_step(self):
        # 32.005/1e-3 rounds above 32005 by more than 1e-12 of a step
        t_lo, t_hi, _ = step_plan(0.0, 32.005, 1e-3)
        assert len(t_hi) == 32005 and t_hi[-1] == 32.005
        assert np.min(t_hi - t_lo) >= 0.5e-3

    def test_ends_are_exact_multiples_of_dt(self):
        t0, dt = 0.2, 5e-4
        t_lo, t_hi, _ = step_plan(t0, 30.0, dt)
        assert t_hi[:-1].tobytes() == (t0 + dt * np.arange(1, len(t_hi))).tobytes()
        assert t_lo[0] == t0 and t_lo[1:].tobytes() == t_hi[:-1].tobytes()

    def test_on_grid_stop_changes_nothing(self):
        _, base, _ = step_plan(0.0, 1.0, 1e-3)
        _, t_hi, at = step_plan(0.0, 1.0, 1e-3, (base[249], 1.0))
        assert t_hi.tobytes() == base.tobytes()
        assert at.tolist() == [249, 999]

    def test_stop_near_a_grid_end_replaces_it(self):
        _, base, _ = step_plan(0.0, 1.0, 1e-3)
        stop = base[249] + 1e-14
        _, t_hi, at = step_plan(0.0, 1.0, 1e-3, (stop,))
        assert len(t_hi) == len(base) and t_hi[249] == stop and at.tolist() == [249]
        assert np.flatnonzero(t_hi != base).tolist() == [249]

    def test_off_grid_stop_splits_one_step(self):
        _, base, _ = step_plan(0.0, 1.0, 1e-3)
        _, t_hi, at = step_plan(0.0, 1.0, 1e-3, (0.7003,))
        assert len(t_hi) == len(base) + 1 and t_hi[at[0]] == 0.7003
        assert np.delete(t_hi, at[0]).tobytes() == base.tobytes()

    def test_stops_within_round_off_share_an_end(self):
        t_lo, t_hi, at = step_plan(0.0, 1.0, 0.3, (0.5, 0.5 + 1e-13))
        assert t_hi.tolist() == [0.3, 0.5 + 1e-13, 0.6, 0.3 * 3, 1.0]
        assert at.tolist() == [1, 1]

    @pytest.mark.parametrize("stop", [0.0, -0.1, 1.0 + 1e-9, math.nan])
    def test_stop_outside_the_run_rejected(self, stop):
        with pytest.raises(ValueError, match="outside"):
            step_plan(0.0, 1.0, 1e-3, (0.5, stop))

    def test_bad_run_rejected(self):
        with pytest.raises(ValueError):
            step_plan(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            step_plan(1.0, 1.0, 1e-3)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        t0=st.floats(0.0, 10.0),
        span=st.floats(1e-6, 50.0),
        n=st.floats(0.5, 3000.0),
        fracs=st.lists(st.floats(1e-6, 1.0), max_size=4),
    )
    def test_ends_are_grid_or_stops(self, t0, span, n, fracs):
        t_final, dt = t0 + span, span / n
        stops = [t0 + f * span for f in fracs]
        t_lo, t_hi, at = step_plan(t0, t_final, dt, stops)
        assert t_lo[0] == t0 and t_hi[-1] == t_final
        assert t_lo[1:].tobytes() == t_hi[:-1].tobytes()
        # no degenerate step: only a stop next to t0 may make one this short
        assert t_hi[0] > t0 and np.all(np.diff(t_hi) > 1e-12 * np.maximum(1.0, t_hi[1:]))
        for ts, k in zip(stops, at):
            near = 1e-12 * max(1.0, ts)
            assert abs(t_hi[k] - ts) <= near
            if not any(0.0 < u - ts <= near for u in stops + [t_final]):
                assert t_hi[k] == ts
        on_grid = t_hi == t0 + dt * np.round((t_hi - t0) / dt)
        assert np.all(on_grid | np.isin(t_hi, stops + [t_final]))
        assert on_grid.sum() <= math.ceil(span / dt)


def _planned_steps(call):
    """(t_lo, t_hi, t_mid) of the step_coeffs call made by ``call``, which
    is stopped there."""
    seen = []

    class Planned(Exception):
        pass

    def spy(self, t_lo, t_hi, t_mid):
        seen.append((t_lo, t_hi, t_mid))
        raise Planned

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CoefficientTable, "step_coeffs", spy)
        with pytest.raises(Planned):
            call()
    return seen[0]


class TestPlanCallers:
    def test_fpe_and_reduced_sde_step_on_the_plan(self, p_over):
        table = build_table(p_over, np.linspace(0.0, 1.0, 65))
        cfg = SolverConfig(n_q=201, dt=1e-3, snapshot_times=(0.7003,))
        fpe = _planned_steps(lambda: solve(p_over, t_final=1.0, cfg=cfg))
        sde = _planned_steps(lambda: simulate_reduced(
            p_over, table, 1.0, 100, 1e-3, 1.0, seed=1, sample_times=(0.7003,)))
        t_lo, t_hi, _ = step_plan(0.0, 1.0, 1e-3, (0.7003,))
        for lo, hi, mid in (fpe, sde):
            assert lo.tobytes() == t_lo.tobytes() and hi.tobytes() == t_hi.tobytes()
            assert mid.tobytes() == ((t_lo + t_hi) / 2.0).tobytes()

    def test_fpe_n_steps_equals_the_sde_step_count(self, p_over):
        t_final, dt = 32.005, 1e-3
        table = build_table(p_over, np.linspace(0.0, t_final, 65))
        sde = _planned_steps(lambda: simulate_reduced(p_over, table, 1.0, 100, dt, t_final, 1))
        cfg = SolverConfig(n_q=51, dt=dt, init_var=1.0, n_table=257)
        assert solve(p_over, t_final=t_final, cfg=cfg).n_steps == len(sde[1]) == 32005
