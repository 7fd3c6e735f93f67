"""The coefficient-lookup policy of CoefficientTable (``at``, ``step_coeffs``)
and its two callers, the FPE ``solve`` and the reduced SDE."""

import dataclasses

import numpy as np
import pytest

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
from qbm.coefficients import _CSV_COLUMNS


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
        assert table.in_pole_window(lo, hi)
        with pytest.raises(PoleWindow):
            table.step_coeffs(lo, hi, (lo + hi) / 2.0)
        lo, hi = a - 1.6 * pad, a - 1.3 * pad
        assert not table.in_pole_window(lo, hi)
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
