import dataclasses

import numpy as np
import pytest

from qbm import (
    DegenerateVariance,
    GaussianDensity,
    GridMismatch,
    build_table,
    chi_q,
    chi_v,
    density,
    derive,
    flow,
    fpe_residual,
    maxwell_average_check,
    sigma_cl_closed,
)


@pytest.fixture
def table_over(p_over):
    return build_table(p_over, np.linspace(0.0, 4.0, 801), mode="classical")


class TestGaussianDensity:
    def test_rejects_unknown_kind(self, p_over):
        with pytest.raises(ValueError):
            GaussianDensity(p_over, kind="microcanonical")

    def test_means(self, p_over):
        t = 1.3
        g = GaussianDensity(p_over, kind="conditional", q0=2.0, v0=-0.5)
        assert g.mean(t) == pytest.approx(
            2.0 * chi_q(p_over, t) - 0.5 * chi_v(p_over, t), rel=1e-14
        )
        g2 = GaussianDensity(p_over, kind="averaged", q0=2.0, v0=-0.5)
        assert g2.mean(t) == pytest.approx(2.0 * chi_q(p_over, t), rel=1e-14)

    def test_averaged_variance_is_closed_form(self, p_over):
        g = GaussianDensity(p_over, kind="averaged", q0=1.0)
        assert g.variance(0.7) == pytest.approx(sigma_cl_closed(p_over, 0.7), rel=1e-14)

    def test_conditional_variance_degenerate_at_zero(self, p_over):
        g = GaussianDensity(p_over, kind="conditional", q0=1.0)
        with pytest.raises(DegenerateVariance):
            g.variance(0.0)

    def test_density_normalization_and_moments(self, p_over):
        g = GaussianDensity(p_over, kind="averaged", q0=1.5)
        q = np.linspace(-12.0, 12.0, 20001)
        t = 0.9
        rho = density(g, q, t)
        mass = np.trapezoid(rho, q)
        mean = np.trapezoid(q * rho, q)
        var = np.trapezoid((q - mean) ** 2 * rho, q)
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert mean == pytest.approx(g.mean(t), abs=1e-12)
        assert var == pytest.approx(g.variance(t), rel=1e-10)

    def test_scalar_query(self, p_over):
        g = GaussianDensity(p_over, kind="averaged")
        assert isinstance(density(g, 0.3, 1.0), float)


class TestFlow:
    @pytest.mark.parametrize("regime", ["over", "under", "crit"])
    def test_from_zero_is_the_closed_form(self, regime, request):
        # chi_q(0) = 1 and sigma_q(0) = 0, so at the table nodes the map
        # from 0 is (chi_q, sigma_cl_closed) bit for bit
        p = request.getfixturevalue(f"p_{regime}")
        table = build_table(p, np.linspace(0.0, 4.0, 801), mode="classical")
        for t in table.t.tolist():
            assert flow(table, 0.0, t) == (chi_q(p, t), sigma_cl_closed(p, t))

    @pytest.mark.parametrize("params", [(1.0, 1.0, 0.16, 1.0), (1.0, 0.5, 1.0, 1.0),
                                        (1.0, 2.0, 1.0, 1.0), (2.0, 20.0, 1.0, 0.5)],
                             ids=["over", "under", "crit", "strong"])
    def test_equilibrium_is_a_fixed_point(self, params):
        # a Gaussian at the classical equilibrium variance k_B*T/omega0^2
        # keeps it from any start
        p = derive(*params)
        table = build_table(p, np.linspace(0.0, 4.0, 801), mode="classical")
        eq = p.kT / p.omega0_sq
        for s, t in ((0.0, 0.5), (0.3, 0.9), (0.5, 2.0), (1.0, 3.5)):
            r, added = flow(table, s, t)
            assert r * r * eq + added == pytest.approx(eq, rel=1e-14, abs=0.0)

    def test_negative_added_variance_rejected(self, table_over):
        # a sigma_q column that falls in time takes variance away
        bad = dataclasses.replace(table_over, sigma_q=table_over.sigma_q[::-1].copy())
        with pytest.raises(DegenerateVariance):
            flow(bad, 0.5, 1.0)


class TestFpeResidual:
    def test_averaged_residual_is_tiny(self, p_over, table_over):
        g = GaussianDensity(p_over, kind="averaged", q0=1.0)
        q = np.linspace(-6.0, 8.0, 501)
        for t in (0.5, 1.0, 2.0):  # exact table nodes
            res = fpe_residual(g, table_over, q, t)
            peak = density(g, g.mean(t), t)
            assert np.max(np.abs(res)) <= 1e-9 * peak

    def test_conditional_residual_is_tiny(self, p_over, table_over):
        g = GaussianDensity(p_over, kind="conditional", q0=1.0, v0=0.0)
        q = np.linspace(-6.0, 8.0, 501)
        for t in (0.5, 1.5):
            res = fpe_residual(g, table_over, q, t)
            peak = density(g, g.mean(t), t)
            assert np.max(np.abs(res)) <= 1e-9 * peak

    def test_conditional_requires_zero_velocity(self, p_over, table_over):
        g = GaussianDensity(p_over, kind="conditional", q0=1.0, v0=0.2)
        with pytest.raises(ValueError):
            fpe_residual(g, table_over, np.linspace(-1, 1, 11), 1.0)

    def test_residual_detects_wrong_diffusion(self, p_over, table_over):
        # certify the residual actually constrains the table: a 1% error in
        # the diffusion column must push it far above the pass level
        bad = dataclasses.replace(table_over, d_fpe=table_over.d_fpe * 1.01)
        g = GaussianDensity(p_over, kind="averaged", q0=1.0)
        q = np.linspace(-6.0, 8.0, 501)
        res = fpe_residual(g, bad, q, 1.0)
        peak = density(g, g.mean(1.0), 1.0)
        assert np.max(np.abs(res)) > 1e-4 * peak

    def test_outside_table_raises(self, p_over, table_over):
        g = GaussianDensity(p_over, kind="averaged", q0=1.0)
        with pytest.raises(GridMismatch):
            fpe_residual(g, table_over, np.linspace(-1, 1, 11), 4.5)

    def test_pole_window_omega_rejected(self, p_under):
        table = build_table(p_under, np.linspace(0.0, 3.0, 601), mode="classical")
        a, b = table.pole_windows[0]
        t_bad = float(table.t[np.searchsorted(table.t, (a + b) / 2.0)])
        g = GaussianDensity(p_under, kind="averaged", q0=1.0)
        with pytest.raises(ValueError):
            fpe_residual(g, table, np.linspace(-1, 1, 11), t_bad)


class TestMaxwellAverage:
    @pytest.mark.parametrize("regime", ["over", "under", "crit"])
    def test_average_matches_closed_form(self, regime, request):
        p = request.getfixturevalue(f"p_{regime}")
        q = np.linspace(-4.0, 5.0, 301)
        avg, closed = maxwell_average_check(p, 0.8, q, q0=1.0)
        assert np.max(np.abs(avg - closed)) <= 1e-10 * np.max(closed)

    def test_degenerate_at_zero_time(self, p_over):
        with pytest.raises(DegenerateVariance):
            maxwell_average_check(p_over, 0.0, np.linspace(-1, 1, 5))
