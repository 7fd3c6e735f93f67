"""Stochastic-trajectory cross-checks of the FPE description.

Two simulators over ensembles of paths:

* ``simulate_reduced`` — Euler-Maruyama for the one-dimensional reduced SDE
  dq = Omega(t) q dt + sqrt(D(t)) dW, with every step's coefficients read at
  its midpoint (t_lo + t_hi)/2 by one ``CoefficientTable.step_coeffs`` call:
  the lookup and guard policy shared with the FPE solver.
* ``simulate_langevin`` — the underlying two-dimensional Langevin dynamics
  dq = v dt, dv = (-gamma v - (omega0_sq/M) q) dt + sqrt(2 gamma k_B T/M) dW,
  integrated by BAOAB splitting with the exact Ornstein-Uhlenbeck kick, so the
  friction/noise substep introduces no stepsize bias.

Both step on ``step_plan``, the one time grid they share with the FPE solver:
ends at t0 + k*dt, each requested sample time a step end of its own, so a
sample lands exactly where it is asked for, as an FPE snapshot does.  Both
keep only their start state and step; one driver, ``_ensemble``, owns the
blocks, records and merge.  Paths are split over 16 fixed RNG blocks, each
seeded by SeedSequence((seed, block)) driving Philox counters, and all
reductions run in fixed block order — results are bit-identical for a given
seed regardless of thread count.  Each block keeps its exact sum and its M2
about its own mean, so the variance does not cancel at large |mean|.  Each of
min(threads, 16, usable CPUs) workers steps a contiguous run of blocks as one
flat array, so an update is a few ufunc calls on thousands of paths, not one
per block; every block still fills its own slice of the noise from its own
stream and keeps its own (sum, M2), so the grouping cannot change a byte.  An
ensemble fails by NonFiniteState at the earliest record at which any block's
moments are not finite, whatever the thread count.

Each simulator refuses, by CFLViolation and before its first step, a step past
the linear stability limit of its update: Omega*h < -2 for Euler-Maruyama and
h*sqrt(omega0_sq/M) >= 2 for BAOAB.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

import numpy as np

from .coefficients import CoefficientTable, _refuse_unstable, step_plan, write_csv
from .errors import GridMismatch, NonFiniteState
from .model import PhysicalParams

__all__ = [
    "EnsembleStats",
    "simulate_reduced",
    "simulate_langevin",
    "equivalence_report",
]

_N_BLOCKS = 16
_N_RECORD = 64
#: family-wise chance that equivalence_report fails two correct ensembles
_FALSE_ALARM = 1e-3


def _block_sizes(n_paths: int) -> list:
    base, extra = divmod(n_paths, _N_BLOCKS)
    return [base + (1 if i < extra else 0) for i in range(_N_BLOCKS)]


def _rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block))))


def _record_mask(n_steps: int) -> np.ndarray:
    every = max(1, round(n_steps / _N_RECORD))
    mask = np.zeros(n_steps, dtype=bool)
    mask[every - 1 :: every] = True
    mask[-1] = True
    return mask


@dataclass(frozen=True)
class EnsembleStats:
    """Moment trajectories and position samples of a path ensemble.

    ``samples_q`` holds the final-time positions; ``samples_at`` maps each
    requested checkpoint time to its full position sample.  ``rng_draws``
    counts the standard normals drawn: paths x steps, plus paths for a
    thermal v0.
    """

    t: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    se_mean: np.ndarray
    se_var: np.ndarray
    n_paths: int
    samples_q: np.ndarray
    label: str = ""
    mean_v: Optional[np.ndarray] = None
    var_v: Optional[np.ndarray] = None
    samples_v: Optional[np.ndarray] = None
    samples_at: Optional[dict] = None
    paths: Optional[np.ndarray] = None
    rng_draws: int = 0

    def to_csv(self, path) -> None:
        names = ("t", "mean", "var", "se_mean", "se_var")
        write_csv(path, names, [getattr(self, name) for name in names])

    def dump_paths(self, path) -> None:
        """Raw-path binary dump.

        Layout (little-endian): two uint64 header words {n_paths, n_times},
        then n_paths * n_times float64 positions in row-major order (path
        index varies slowest).  Rows follow the deterministic block order, so
        the file is bit-identical for a given seed regardless of threads.
        """
        if self.paths is None:
            raise ValueError("ensemble was simulated without keep_paths=True")
        with open(path, "wb") as f:
            f.write(np.asarray(self.paths.shape, dtype="<u8").tobytes())
            f.write(np.ascontiguousarray(self.paths, dtype="<f8").tobytes())


def _sum_m2(x: np.ndarray) -> tuple:
    """Sum of x and the sum of squared deviations about its own mean."""
    s = float(np.sum(x))
    d = x - s / max(len(x), 1)
    return s, float(np.sum(d * d))


def _combine(block_sums: list, sizes: list) -> tuple:
    """Ensemble moments from per-block (sum, M2) accumulators.

    The mean is the exactly rounded total sum over n_paths.  The M2 are
    merged in fixed block order by the pairwise update of Chan, Golub and
    LeVeque (1979): n_b paths of mean m_b join n paths of mean m by adding
    M2_b + (m_b - m)**2 * n * n_b / (n + n_b), which never cancels.
    """
    n_paths = sum(sizes)
    s1 = np.array([math.fsum(col) for col in zip(*(b[0] for b in block_sums))])
    n, m, m2 = 0, 0.0, 0.0
    for (bs1, bm2), n_b in zip(block_sums, sizes):
        if n_b == 0:
            continue
        d = bs1 / n_b - m
        m = m + d * (n_b / (n + n_b))
        m2 = m2 + bm2 + d * d * (n * n_b / (n + n_b))
        n += n_b
    var = m2 / (n_paths - 1)
    return s1 / n_paths, var, np.sqrt(var / n_paths), var * math.sqrt(2.0 / (n_paths - 1))


def _ensemble(label, plan, sample_times, n_paths, seed, threads, keep_paths,
              start, advance) -> EnsembleStats:
    """Run one integrator over the 16 seeded blocks of paths and merge them.

    ``plan`` is the (t_lo, t_hi, at) of ``step_plan`` with ``sample_times``
    for its stops.  Each of min(threads, 16, CPUs) workers steps a contiguous
    run of blocks as one flat array; every block still draws its slice of the
    noise from its own stream and keeps its own (sum, M2) per record, so the
    grouping cannot change a byte.  ``start(normal, n)`` returns a run's
    state, ``[q]`` or ``[q, v]``; ``advance(k, h, normal, s)`` takes step k,
    of length h, in place.  ``normal()`` returns the run's noise buffer, each
    block's slice refilled from its stream, valid until the next call.  The
    ensemble fails by NonFiniteState at the earliest record at which any
    block's moments are not finite, which does not depend on threads.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    t_lo, times, at = plan
    rec = _record_mask(len(times))
    samp_idx = set(at.tolist())
    dts = times - t_lo
    n_rec = int(rec.sum())
    sizes = _block_sizes(n_paths)
    offsets = np.cumsum([0] + sizes).tolist()

    def run(lo: int, hi: int):
        """Step blocks lo..hi-1; stop at the first non-finite record."""
        base, n = offsets[lo], offsets[hi] - offsets[lo]
        cuts = [slice(offsets[b] - base, offsets[b + 1] - base) for b in range(lo, hi)]
        z = np.empty(n)  # the run's noise; block b fills its own slice from its own stream
        streams = [(_rng(seed, b), z[z_b]) for b, z_b in zip(range(lo, hi), cuts)]
        drawn = 0

        def normal() -> np.ndarray:
            nonlocal drawn
            for rng, z_b in streams:
                rng.standard_normal(out=z_b)
            drawn += n
            return z

        s = start(normal, n)
        # per block, variable and record: sum and M2 about the block mean
        mom = np.empty((hi - lo, len(s), 2, n_rec))
        traj = np.empty((n, n_rec)) if keep_paths else None
        snaps = {}
        j = 0
        with np.errstate(over="ignore", invalid="ignore"):  # reported as NonFiniteState
            for k in range(len(times)):
                advance(k, dts[k], normal, s)
                if rec[k]:
                    for m, z_b in zip(mom, cuts):
                        for i, x in enumerate(s):
                            m[i, :, j] = _sum_m2(x[z_b])
                    if not np.isfinite(mom[:, :, :, j]).all():
                        return k, None
                    if traj is not None:
                        traj[:, j] = s[0]
                    j += 1
                if k in samp_idx:
                    snaps[k] = s[0].copy()
        return None, (mom, s, snaps, traj, drawn)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_workers = max(1, min(threads, _N_BLOCKS, cpus or 1))  # more would contend for the CPUs
    cut = [round(i * _N_BLOCKS / n_workers) for i in range(n_workers + 1)]
    if n_workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # not loaded by a single-thread run

        with ThreadPoolExecutor(max_workers=n_workers) as ex:
            runs = list(ex.map(run, cut[:-1], cut[1:]))
    else:
        runs = [run(0, _N_BLOCKS)]
    failed = [k for k, _ in runs if k is not None]
    if failed:
        raise NonFiniteState(
            f"{label}: ensemble moments not finite at t={times[min(failed)]}"
            " (time step too large?)"
        )
    results = [r for _, r in runs]
    n_var = len(results[0][1])
    block_moms = [m for r in results for m in r[0]]
    moments = [_combine([m[i] for m in block_moms], sizes) for i in range(n_var)]
    final = [np.concatenate([r[1][i] for r in results]) for i in range(n_var)]
    mean, var, se_mean, se_var = moments[0]
    return EnsembleStats(
        t=times[rec],
        mean=mean,
        var=var,
        se_mean=se_mean,
        se_var=se_var,
        n_paths=n_paths,
        samples_q=final[0],
        label=label,
        mean_v=moments[1][0] if n_var > 1 else None,
        var_v=moments[1][1] if n_var > 1 else None,
        samples_v=final[1] if n_var > 1 else None,
        samples_at={
            float(ts): np.concatenate([r[2][k] for r in results])
            for ts, k in zip(sample_times, at.tolist())
        } or None,
        paths=np.concatenate([r[3] for r in results]) if keep_paths else None,
        rng_draws=sum(r[4] for r in results),
    )


def simulate_reduced(
    p: PhysicalParams,
    table: CoefficientTable,
    q0: float,
    n_paths: int,
    dt: float,
    t_final: float,
    seed: int,
    threads: int = 1,
    sample_times: tuple = (),
    keep_paths: bool = False,
) -> EnsembleStats:
    """Euler-Maruyama ensemble for the reduced position SDE."""
    t_lo, times, _ = plan = step_plan(float(table.t[0]), t_final, dt, sample_times)
    table._check_range(t_final)
    # per-step coefficients once, identical for every block
    oms, dcs = table.step_coeffs(t_lo, times, (t_lo + times) / 2.0)
    _refuse_unstable(oms * (times - t_lo) < -2.0, t_lo, "the Euler-Maruyama limit Omega*h >= -2")

    def advance(k, h, normal, s):
        q = s[0]
        q += oms[k] * q * h + math.sqrt(dcs[k] * h) * normal()

    return _ensemble(
        "reduced-em", plan, sample_times, n_paths, seed, threads, keep_paths,
        lambda normal, n: [np.full(n, float(q0))], advance,
    )


def simulate_langevin(
    p: PhysicalParams,
    q0: float,
    v0_mode: str,
    n_paths: int,
    dt: float,
    t_final: float,
    seed: int,
    threads: int = 1,
    sample_times: tuple = (),
    keep_paths: bool = False,
) -> EnsembleStats:
    """BAOAB ensemble for the underlying classical Langevin dynamics.

    v0_mode is 'zero' (sharp v0 = 0) or 'thermal' (v0 drawn from the Maxwell
    distribution at the bath temperature).
    """
    if v0_mode not in ("zero", "thermal"):
        raise ValueError(f"v0_mode must be 'zero' or 'thermal', got {v0_mode!r}")
    t_lo, times, _ = plan = step_plan(0.0, t_final, dt, sample_times)
    k_spring = p.omega0_sq / p.M
    _refuse_unstable((times - t_lo) * math.sqrt(k_spring) >= 2.0, t_lo,
                     "the BAOAB limit h*sqrt(omega0_sq/M) < 2")
    v_std = math.sqrt(p.kT / p.M)

    def start(normal, n):
        # the thermal v0 comes first in each block's stream, before any step draw
        v = v_std * normal() if v0_mode == "thermal" else np.zeros(n)
        return [np.full(n, float(q0)), v]

    def advance(k, h, normal, s):
        q, v = s
        c = math.exp(-p.gamma * h)
        o_std = v_std * math.sqrt(max(1.0 - c * c, 0.0))
        v += -(h / 2.0) * k_spring * q
        q += (h / 2.0) * v
        v = c * v + o_std * normal()
        q += (h / 2.0) * v
        v += -(h / 2.0) * k_spring * q
        s[1] = v

    return _ensemble(
        f"langevin-baoab-{v0_mode}", plan, sample_times, n_paths, seed, threads, keep_paths,
        start, advance,
    )


def equivalence_report(
    stats_a: EnsembleStats,
    stats_b: EnsembleStats,
    analytic: Optional[dict] = None,
    z_limit: Optional[float] = None,
) -> dict:
    """Moment-by-moment comparison of two ensembles (and optional analytic
    reference) on their shared record grid.

    The analytic reference, if given, maps 'mean' and 'var' to callables of t
    or to arrays aligned with the record grid.  z-scores use combined
    standard errors; ``passed`` requires every |z| <= z_limit.  By default
    z_limit is the Bonferroni limit NormalDist().inv_cdf(1 - alpha/(2m)) for
    the m scores compared, so that correct ensembles fail with probability at
    most alpha = 1e-3 however many record points there are.  The limit used is
    reported as ``z_limit``.
    """
    if len(stats_a.t) != len(stats_b.t) or not np.allclose(
        stats_a.t, stats_b.t, rtol=1e-12, atol=1e-12
    ):
        raise GridMismatch("ensembles were recorded on different time grids")
    z_mean = np.abs(stats_a.mean - stats_b.mean) / np.hypot(stats_a.se_mean, stats_b.se_mean)
    z_var = np.abs(stats_a.var - stats_b.var) / np.hypot(stats_a.se_var, stats_b.se_var)
    report = {
        "n_points": int(len(stats_a.t)),
        "max_z_mean": float(np.max(z_mean)),
        "max_z_var": float(np.max(z_var)),
        "labels": (stats_a.label, stats_b.label),
    }
    if analytic is not None:
        for key, stats in (("a", stats_a), ("b", stats_b)):
            ref_mean = analytic["mean"]
            ref_var = analytic["var"]
            m = ref_mean(stats.t) if callable(ref_mean) else np.asarray(ref_mean)
            v = ref_var(stats.t) if callable(ref_var) else np.asarray(ref_var)
            report[f"max_z_mean_{key}_vs_analytic"] = float(
                np.max(np.abs(stats.mean - m) / np.maximum(stats.se_mean, 1e-300))
            )
            report[f"max_z_var_{key}_vs_analytic"] = float(
                np.max(np.abs(stats.var - v) / np.maximum(stats.se_var, 1e-300))
            )
    scores = [name for name in report if name.startswith("max_z")]
    if z_limit is None:
        z_limit = NormalDist().inv_cdf(1.0 - _FALSE_ALARM / (2 * len(scores) * len(stats_a.t)))
    report["z_limit"] = z_limit
    report["passed"] = all(report[name] <= z_limit for name in scores)
    return report
