import dataclasses
import math
import os
import re
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbm import (
    CFLViolation,
    EnsembleStats,
    GridMismatch,
    NegativeDiffusion,
    NonFiniteState,
    PoleWindow,
    build_table,
    chi_q,
    derive,
    equivalence_report,
    sigma_cl_closed,
    simulate_langevin,
    simulate_reduced,
)
from qbm import sde
from qbm.coefficients import step_plan


@pytest.fixture(autouse=True)
def sixteen_cpus(monkeypatch):
    # the worker count is capped at the CPUs the process may use: 16 are
    # reported, so a test that names a thread count runs that many workers
    # (up to the 16 blocks) on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)


@pytest.fixture(scope="module")
def table_over():
    from qbm import derive

    p = derive(1.0, 1.0, 0.16, 1.0)
    return p, build_table(p, np.linspace(0.0, 3.0, 1501))


def _run(sim, table, q0, n_paths, dt, t_final, seed, **kw):
    """One ensemble of either simulator on the fixture's parameters."""
    p = table.params
    if sim == "reduced":
        return simulate_reduced(p, table, q0, n_paths, dt, t_final, seed, **kw)
    return simulate_langevin(p, q0, "thermal", n_paths, dt, t_final, seed, **kw)


SIMS = ["reduced", "langevin"]


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, table_over):
        p, table = table_over
        a = simulate_reduced(p, table, 1.0, 500, 1e-2, 1.0, seed=7)
        b = simulate_reduced(p, table, 1.0, 500, 1e-2, 1.0, seed=7)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.var, b.var)
        np.testing.assert_array_equal(a.samples_q, b.samples_q)

    def test_thread_count_invariant(self, table_over):
        p, table = table_over
        a = simulate_reduced(p, table, 1.0, 500, 1e-2, 1.0, seed=3, threads=1)
        b = simulate_reduced(p, table, 1.0, 500, 1e-2, 1.0, seed=3, threads=4)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.samples_q, b.samples_q)

    def test_langevin_thread_invariant(self, p_over):
        a = simulate_langevin(p_over, 1.0, "thermal", 500, 1e-2, 1.0, seed=3, threads=1)
        b = simulate_langevin(p_over, 1.0, "thermal", 500, 1e-2, 1.0, seed=3, threads=4)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.samples_q, b.samples_q)

    def test_different_seed_differs(self, table_over):
        p, table = table_over
        a = simulate_reduced(p, table, 1.0, 500, 1e-2, 1.0, seed=7)
        b = simulate_reduced(p, table, 1.0, 500, 1e-2, 1.0, seed=8)
        assert not np.array_equal(a.samples_q, b.samples_q)


class TestReducedMoments:
    def test_moments_follow_em_recursion(self, table_over):
        # for the linear SDE the EM ensemble moments obey an exact recursion
        # with the same midpoint coefficient sampling the stepper uses
        p, table = table_over
        dt, t_final, n = 2e-3, 1.5, 40000
        stats = simulate_reduced(p, table, 1.0, n, dt, t_final, seed=11)
        m, s = 1.0, 0.0
        for t, t_next in zip(*step_plan(0.0, t_final, dt)[:2]):
            tm = (t + t_next) / 2.0
            om = np.interp(tm, table.t, table.omega)
            dc = np.interp(tm, table.t, table.d_fpe)
            h = t_next - t
            m *= 1.0 + om * h
            s = (1.0 + om * h) ** 2 * s + dc * h
        assert abs(stats.mean[-1] - m) < 3.0 * stats.se_mean[-1]
        assert abs(stats.var[-1] - s) < 3.0 * stats.se_var[-1]

    def test_matches_analytic_variance(self, table_over):
        p, table = table_over
        stats = simulate_reduced(p, table, 1.0, 30000, 1e-3, 2.0, seed=5)
        want_m = chi_q(p, stats.t)
        want_v = sigma_cl_closed(p, stats.t)
        z_m = np.max(np.abs(stats.mean - want_m) / stats.se_mean)
        z_v = np.max(np.abs(stats.var - want_v) / stats.se_var)
        assert z_m < 4.0
        assert z_v < 4.0


class TestRobustVariance:
    @pytest.mark.parametrize("sim", ["reduced", "langevin"])
    def test_large_offset_leaves_variance(self, table_over, sim):
        # the noise does not depend on q0, so neither may the variance; a
        # one-pass sum-of-squares variance cancels at q0 = 1e6
        p, table = table_over

        def run(q0):
            if sim == "reduced":
                return simulate_reduced(p, table, q0, 4000, 1e-2, 1.0, seed=3)
            return simulate_langevin(p, q0, "thermal", 4000, 1e-2, 1.0, seed=3)

        near, far = run(1.0), run(1e6)
        np.testing.assert_allclose(far.var, near.var, rtol=1e-6)
        if sim == "langevin":
            np.testing.assert_allclose(far.var_v, near.var_v, rtol=1e-6)


class TestLangevin:
    def test_equipartition(self, p_over):
        stats = simulate_langevin(p_over, 1.0, "thermal", 20000, 1e-2, 30.0, seed=19)
        kT_over_M = p_over.kT / p_over.M
        assert stats.var_v[-1] == pytest.approx(kT_over_M, rel=0.05)
        assert stats.var[-1] == pytest.approx(p_over.kT / p_over.omega0_sq, rel=0.05)
        assert abs(stats.mean[-1]) < 4.0 * stats.se_mean[-1]

    def test_zero_velocity_start(self, p_over):
        stats = simulate_langevin(p_over, 1.0, "zero", 4000, 1e-3, 0.02, seed=2)
        # over so short a time the velocity spread is still far below thermal
        assert stats.var_v[-1] < 0.1 * p_over.kT / p_over.M
        assert stats.mean[-1] == pytest.approx(1.0, abs=1e-3)

    def test_rejects_bad_v0_mode(self, p_over):
        with pytest.raises(ValueError):
            simulate_langevin(p_over, 1.0, "boosted", 100, 1e-2, 1.0, seed=1)


class TestEquivalence:
    def test_reduced_vs_langevin(self, table_over):
        p, table = table_over
        kw = dict(n_paths=8000, dt=2e-3, t_final=2.0)
        red = simulate_reduced(p, table, 1.0, kw["n_paths"], kw["dt"], kw["t_final"], seed=101)
        lan = simulate_langevin(p, 1.0, "thermal", kw["n_paths"], kw["dt"], kw["t_final"], seed=103)
        rep = equivalence_report(
            red,
            lan,
            analytic={
                "mean": lambda t: chi_q(p, t),
                "var": lambda t: sigma_cl_closed(p, t),
            },
        )
        assert rep["passed"]
        assert rep["max_z_mean"] < 3.0
        assert rep["max_z_var"] < 3.0
        assert rep["max_z_mean_a_vs_analytic"] < 3.0
        assert rep["max_z_var_b_vs_analytic"] < 3.0
        assert rep["n_points"] > 50

    def test_default_limit_follows_score_count(self, table_over):
        from scipy.special import ndtri

        p, table = table_over
        red = simulate_reduced(p, table, 1.0, 500, 1e-2, 2.0, seed=5)
        lan = simulate_langevin(p, 1.0, "thermal", 500, 1e-2, 2.0, seed=7)
        analytic = {"mean": lambda t: chi_q(p, t), "var": lambda t: sigma_cl_closed(p, t)}
        m = len(red.t)
        bare = equivalence_report(red, lan)
        full = equivalence_report(red, lan, analytic)
        # Bonferroni at a family-wise false-alarm rate of 1e-3, from the
        # standard library's normal quantile, within 8 ulps of scipy's ndtri
        for report, k in ((bare, 2), (full, 6)):
            level = 1.0 - 1e-3 / (2 * k * m)
            assert report["z_limit"] == NormalDist().inv_cdf(level)
            assert abs(report["z_limit"] - ndtri(level)) <= 8 * math.ulp(report["z_limit"])
        assert 3.0 < bare["z_limit"] < full["z_limit"] < 6.0
        explicit = equivalence_report(red, lan, analytic, z_limit=3.0)
        assert explicit["z_limit"] == 3.0
        assert explicit["passed"] == all(
            v <= 3.0 for k, v in explicit.items() if k.startswith("max_z")
        )

    def test_real_mean_shift_fails(self, table_over):
        # a 2 % shift of the initial position is a real disagreement
        p, table = table_over
        red = simulate_reduced(p, table, 1.0, 2000, 1e-2, 2.0, seed=5)
        lan = simulate_langevin(p, 1.02, "thermal", 2000, 1e-2, 2.0, seed=7)
        rep = equivalence_report(
            red, lan, {"mean": lambda t: chi_q(p, t), "var": lambda t: sigma_cl_closed(p, t)}
        )
        assert rep["max_z_mean"] > rep["z_limit"]
        assert rep["max_z_mean_b_vs_analytic"] > rep["z_limit"]
        assert rep["passed"] is False

    def test_mismatched_grids_rejected(self, table_over):
        p, table = table_over
        a = simulate_reduced(p, table, 1.0, 100, 1e-2, 1.0, seed=1)
        b = simulate_reduced(p, table, 1.0, 100, 5e-3, 1.0, seed=1)
        with pytest.raises(GridMismatch):
            equivalence_report(a, b)


class TestSampling:
    def test_samples_at_checkpoints(self, table_over):
        p, table = table_over
        times = (0.5, 1.0)
        stats = simulate_reduced(
            p, table, 1.0, 2000, 2e-3, 1.0, seed=13, sample_times=times
        )
        assert set(stats.samples_at) == {0.5, 1.0}
        for ts in times:
            assert stats.samples_at[ts].shape == (2000,)
        np.testing.assert_array_equal(stats.samples_at[1.0], stats.samples_q)
        # the final time is always a record point, so its sample moments must
        # reproduce the recorded moment curves
        assert np.mean(stats.samples_at[1.0]) == pytest.approx(stats.mean[-1], abs=1e-12)
        assert np.var(stats.samples_at[1.0], ddof=1) == pytest.approx(
            stats.var[-1], rel=1e-12
        )
        # the interior checkpoint need not be a record point; check it
        # statistically against the analytic mean instead
        se = math.sqrt(sigma_cl_closed(p, 0.5) / 2000.0)
        assert abs(np.mean(stats.samples_at[0.5]) - chi_q(p, 0.5)) < 4.0 * se

    @pytest.mark.parametrize("sim", SIMS)
    def test_off_grid_sample_time_lands_exactly(self, table_over, sim):
        # 0.3001 splits the step [0.3, 0.302]: the sample is the state of a
        # run that ends at 0.3001, drawn from the same streams
        _, table = table_over
        stats = _run(sim, table, 1.0, 100, 2e-3, 1.0, 1, sample_times=(0.3001,))
        short = _run(sim, table, 1.0, 100, 2e-3, 0.3001, 1)
        assert set(stats.samples_at) == {0.3001}
        assert stats.samples_at[0.3001].tobytes() == short.samples_q.tobytes()

    def test_out_of_range_sample_time_rejected(self, table_over):
        p, table = table_over
        with pytest.raises(ValueError):
            simulate_reduced(p, table, 1.0, 100, 2e-3, 1.0, seed=1, sample_times=(5.0,))


class TestSharedDriver:
    @pytest.mark.parametrize("sim", SIMS)
    def test_samples_and_paths_thread_invariant(self, table_over, sim):
        _, table = table_over
        kw = dict(sample_times=(0.5, 1.0), keep_paths=True)
        a = _run(sim, table, 1.0, 300, 1e-2, 1.0, 5, threads=1, **kw)
        b = _run(sim, table, 1.0, 300, 1e-2, 1.0, 5, threads=4, **kw)
        for f in dataclasses.fields(EnsembleStats):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, dict):
                assert x.keys() == y.keys()
                for key in x:
                    assert x[key].tobytes() == y[key].tobytes()
            elif isinstance(x, np.ndarray):
                assert x.tobytes() == y.tobytes(), f.name
            else:
                assert x == y, f.name
        np.testing.assert_array_equal(a.samples_at[1.0], a.samples_q)
        np.testing.assert_array_equal(a.paths[:, -1], a.samples_q)
        assert a.paths.shape == (300, len(a.t))
        assert (a.samples_v is None) == (sim == "reduced")

    @pytest.mark.parametrize("sim", SIMS)
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        n_paths=st.integers(2, 40),
        log_q0=st.floats(-3.0, 6.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_moments_match_final_sample(self, table_over, sim, n_paths, log_q0, sign):
        # fewer than 16 paths leave some blocks empty; a large |q0| would
        # cancel a one-pass variance
        _, table = table_over
        stats = _run(sim, table, sign * 10.0**log_q0, n_paths, 1e-2, 0.2, 9)
        assert stats.mean[-1] == pytest.approx(np.mean(stats.samples_q), rel=1e-9)
        assert stats.var[-1] == pytest.approx(np.var(stats.samples_q, ddof=1), rel=1e-9)

    @pytest.mark.parametrize("sim", SIMS)
    def test_single_short_step(self, table_over, sim):
        # t_final - t0 below 1e-12 dt still makes one step, of length t_final
        _, table = table_over
        stats = _run(sim, table, 1.0, 10, 1.0, 1e-14, 1)
        np.testing.assert_array_equal(stats.t, [1e-14])
        assert np.all(np.isfinite(stats.samples_q))

    @pytest.mark.parametrize("sim", SIMS)
    def test_unstable_step_raises(self, table_over, sim):
        # Omega dt = -10 < -2 for the reduced EM step; dt omega0 = 5 >= 2 for
        # BAOAB: both refused before the first step
        p, table = table_over
        table = dataclasses.replace(table, omega=np.full_like(table.omega, -1e3))
        with pytest.raises(CFLViolation, match=r"step from t=0\.0 breaks"):
            if sim == "reduced":
                simulate_reduced(p, table, 1.0, 100, 1e-2, 3.0, seed=1)
            else:
                simulate_langevin(derive(1.0, 0.1, 100.0, 1.0), 1.0, "thermal",
                                  100, 0.5, 2000.0, seed=1)

    @pytest.mark.parametrize("sim", SIMS)
    def test_step_inside_limit_runs(self, table_over, sim):
        # Omega dt = -1.99 and dt omega0 = 1.99: stable, so the run finishes
        p, table = table_over
        if sim == "reduced":
            table = dataclasses.replace(table, omega=np.full_like(table.omega, -199.0))
            stats = simulate_reduced(p, table, 1.0, 100, 1e-2, 3.0, seed=1)
        else:
            stats = simulate_langevin(derive(1.0, 0.1, 100.0, 1.0), 1.0, "thermal",
                                      100, 0.199, 20.0, seed=1)
        assert np.all(np.isfinite(stats.mean)) and np.all(np.isfinite(stats.var))

    def test_refusal_names_first_unstable_step(self, table_over):
        p, table = table_over
        table = dataclasses.replace(table, omega=np.where(table.t >= 1.5, -1e3, table.omega))
        with pytest.raises(CFLViolation) as exc:
            simulate_reduced(p, table, 1.0, 100, 1e-2, 3.0, seed=1)
        t = float(re.search(r"step from t=(\S+) breaks", str(exc.value)).group(1))
        assert t == pytest.approx(1.5, abs=1e-9)

    def test_growth_past_overflow_raises(self, table_over):
        # Omega dt = +10 is inside the EM limit, but the paths grow by 11 per
        # step and overflow: the ensemble's non-finite check catches it
        p, table = table_over
        table = dataclasses.replace(table, omega=np.full_like(table.omega, 1e3))
        with pytest.raises(NonFiniteState, match=r"not finite at t="):
            simulate_reduced(p, table, 1.0, 100, 1e-2, 3.0, seed=1)

    def test_non_finite_message_thread_invariant(self, table_over):
        # the earliest record at which any block fails names the time, however
        # the blocks are grouped into workers
        p, table = table_over
        table = dataclasses.replace(table, omega=np.full_like(table.omega, 1e3))
        messages = set()
        for threads in (1, 2, 3, 16):
            with pytest.raises(NonFiniteState) as exc:
                simulate_reduced(p, table, 1.0, 100, 1e-2, 3.0, seed=1, threads=threads)
            messages.add(str(exc.value))
        assert len(messages) == 1
        assert re.fullmatch(r"reduced-em: ensemble moments not finite at t=\S+ "
                            r"\(time step too large\?\)", messages.pop())


def _per_block_reference(sim, table, n_paths, dt, t_final, seed, sample_times):
    """The ensemble as each of the 16 blocks stepped alone from its own stream.

    This is the per-block definition the grouped driver must reproduce bit
    for bit: every block starts and steps its own arrays with the simulators'
    update formulas, records its own (sum, M2), and the blocks are merged in
    order by ``_combine``.
    """
    p = table.params
    if sim == "reduced":
        t_lo, times, at = step_plan(float(table.t[0]), t_final, dt, sample_times)
        oms, dcs = table.step_coeffs(t_lo, times, (t_lo + times) / 2.0)

        def start(rng, n_b):
            return [np.full(n_b, 1.0)]

        def advance(k, h, rng, s):
            q = s[0]
            q += oms[k] * q * h + math.sqrt(dcs[k] * h) * rng.standard_normal(len(q))
    else:
        v0_mode = sim.split("-")[1]
        t_lo, times, at = step_plan(0.0, t_final, dt, sample_times)
        k_spring = p.omega0_sq / p.M
        v_std = math.sqrt(p.kT / p.M)

        def start(rng, n_b):
            v = v_std * rng.standard_normal(n_b) if v0_mode == "thermal" else np.zeros(n_b)
            return [np.full(n_b, 1.0), v]

        def advance(k, h, rng, s):
            q, v = s
            c = math.exp(-p.gamma * h)
            o_std = v_std * math.sqrt(max(1.0 - c * c, 0.0))
            v += -(h / 2.0) * k_spring * q
            q += (h / 2.0) * v
            v = c * v + o_std * rng.standard_normal(len(v))
            q += (h / 2.0) * v
            v += -(h / 2.0) * k_spring * q
            s[1] = v

    rec = sde._record_mask(len(times))
    dts = times - t_lo
    n_rec = int(rec.sum())

    def one_block(b, n_b):
        rng = _CountingRng(sde._rng(seed, b))
        s = start(rng, n_b)
        mom = np.empty((len(s), 2, n_rec))
        traj = np.empty((n_b, n_rec))
        snaps = {}
        j = 0
        for k in range(len(times)):
            advance(k, dts[k], rng, s)
            if rec[k]:
                for i, x in enumerate(s):
                    mom[i, :, j] = sde._sum_m2(x)
                traj[:, j] = s[0]
                j += 1
            if k in at:
                snaps[k] = s[0].copy()
        return mom, s, snaps, traj, rng.drawn

    sizes = sde._block_sizes(n_paths)
    results = [one_block(b, n_b) for b, n_b in enumerate(sizes)]
    n_var = len(results[0][1])
    moments = [sde._combine([r[0][i] for r in results], sizes) for i in range(n_var)]
    final = [np.concatenate([r[1][i] for r in results]) for i in range(n_var)]
    return dict(
        t=times[rec],
        mean=moments[0][0],
        var=moments[0][1],
        se_mean=moments[0][2],
        se_var=moments[0][3],
        n_paths=n_paths,
        samples_q=final[0],
        mean_v=moments[1][0] if n_var > 1 else None,
        var_v=moments[1][1] if n_var > 1 else None,
        samples_v=final[1] if n_var > 1 else None,
        samples_at={
            float(ts): np.concatenate([r[2][k] for r in results])
            for ts, k in zip(sample_times, at.tolist())
        },
        paths=np.concatenate([r[3] for r in results]),
        rng_draws=sum(r[4] for r in results),
    )


class _CountingRng:
    """A block generator that counts the normals it hands out."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, 0

    def standard_normal(self, n):
        self.drawn += n
        return self.rng.standard_normal(n)


class TestGroupedBlocks:
    @pytest.mark.parametrize("n_paths", [2, 17, 1237])
    @pytest.mark.parametrize("sim", ["reduced", "langevin-zero", "langevin-thermal"])
    def test_matches_per_block_reference(self, table_over, sim, n_paths):
        # fewer than 16 paths leave blocks empty; 3 threads split the 16
        # blocks unevenly; 0.1234 is off the step grid
        p, table = table_over
        kw = dict(sample_times=(0.1234, 0.5), keep_paths=True)
        want = _per_block_reference(sim, table, n_paths, 1e-2, 1.0, 11, kw["sample_times"])
        for threads in (1, 2, 3, 16):
            if sim == "reduced":
                got = simulate_reduced(p, table, 1.0, n_paths, 1e-2, 1.0, 11, threads, **kw)
            else:
                got = simulate_langevin(p, 1.0, sim.split("-")[1], n_paths, 1e-2, 1.0, 11,
                                        threads, **kw)
            for name, x in want.items():
                y = getattr(got, name)
                if isinstance(x, dict):
                    assert x.keys() == y.keys()
                    for key in x:
                        np.testing.assert_array_equal(y[key], x[key])
                elif isinstance(x, np.ndarray):
                    np.testing.assert_array_equal(y, x, err_msg=f"{name} at {threads} threads")
                else:
                    assert y == x, name
        n_steps = len(step_plan(0.0, 1.0, 1e-2, kw["sample_times"])[1])
        assert want["rng_draws"] == n_paths * (n_steps + (sim == "langevin-thermal"))

    def test_one_cpu_starts_no_pool(self, table_over, monkeypatch):
        # more workers than CPUs only contend: with one CPU, threads=4 runs
        # on the calling thread, and the grouping changes no byte
        import concurrent.futures

        p, table = table_over
        want = simulate_reduced(p, table, 1.0, 400, 1e-2, 1.0, 11, threads=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        got = simulate_reduced(p, table, 1.0, 400, 1e-2, 1.0, 11, threads=4)
        np.testing.assert_array_equal(got.mean, want.mean)
        np.testing.assert_array_equal(got.var, want.var)


class TestGuardsAndIO:
    def test_argument_validation(self, table_over):
        p, table = table_over
        with pytest.raises(ValueError):
            simulate_reduced(p, table, 1.0, 1, 1e-2, 1.0, seed=1)
        with pytest.raises(ValueError):
            simulate_reduced(p, table, 1.0, 100, 0.0, 1.0, seed=1)
        with pytest.raises(ValueError):
            simulate_reduced(p, table, 1.0, 100, 1e-2, 0.0, seed=1)

    def test_negative_diffusion_guard(self, table_over):
        p, table = table_over
        bad = dataclasses.replace(table, d_fpe=table.d_fpe - 2.0)
        with pytest.raises(NegativeDiffusion):
            simulate_reduced(p, bad, 1.0, 100, 1e-2, 1.0, seed=1)

    def test_pole_window_guard(self, p_under):
        table = build_table(p_under, np.linspace(0.0, 3.0, 1501))
        with pytest.raises(PoleWindow):
            simulate_reduced(p_under, table, 1.0, 100, 1e-2, 2.5, seed=1)

    def test_csv_roundtrip(self, table_over, tmp_path):
        p, table = table_over
        stats = simulate_reduced(p, table, 1.0, 200, 1e-2, 1.0, seed=7)
        path = tmp_path / "s.csv"
        stats.to_csv(path)
        text = path.read_text().splitlines()
        assert text[0] == "t,mean,var,se_mean,se_var"
        data = np.genfromtxt(path, delimiter=",", names=True)
        np.testing.assert_allclose(data["var"], stats.var, rtol=1e-15)
        np.testing.assert_allclose(data["t"], stats.t, rtol=1e-15)
