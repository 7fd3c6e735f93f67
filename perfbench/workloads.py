"""The benchmark's workloads: inputs, one fixed pass each, correctness gates.

Each workload is a closed loop with one caller.  A pass calls the same public
qbm functions, with the same arguments, as the ``qbm`` subcommand it stands
for, and always does the same work.  Every call is reached through its
module attribute (``fpe.solve``, not a name imported once), so the traced run
can wrap it.  Importing this module puts the checkout's ``src`` first on
``sys.path`` and refuses any other copy of qbm.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE_DIR = HERE / "reference"


def _import_checkout_qbm() -> None:
    pkg = SRC / "qbm"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qbm sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import qbm

    if Path(qbm.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported qbm from {qbm.__file__}, not from {pkg}")


_import_checkout_qbm()

from qbm import chi_q, derive, sigma_cl_closed  # noqa: E402
from qbm import coefficients, fpe, sde  # noqa: E402
from qbm.fpe import SolverConfig  # noqa: E402

from spans import Target  # noqa: E402

#: Overdamped test fixture: M = gamma = T = 1, omega0_sq = 0.16 (roots 0.8, 0.2).
FIXTURE = (1.0, 1.0, 0.16, 1.0)
#: ``qbm coeffs --tol`` default.
TOL = 1e-8
#: ``qbm fpe --compare-analytic`` exits 1 above this sup-norm deviation / peak.
ANALYTIC_GATE = 5e-3
#: README "conservation": cn-central with zero-flux walls keeps mass to
#: round-off; the test suite states round-off as 1e-12.
MASS_DRIFT_LIMIT = 1e-12
#: Ensemble |z| limit.  A pass yields 6 x 65 z-scores; for a correct program
#: P(max |z| > 6) <= 390 * 2.0e-9 < 1e-6 at any seed, where the CLI's limit
#: of 3 is crossed by chance at many seeds.
Z_LIMIT = 6.0
#: Relative slack for floating-point reordering when comparing with the
#: committed reference outputs.  Quantum columns also get the reference's
#: own certified tail budget (see ``CoeffsQuantum.check_row``).
REF_RTOL = 1e-9


@dataclass
class PassResult:
    """Timings, operation counts and gate failures of one pass."""

    stages: list = field(default_factory=list)  # (work units, seconds) per stage
    seconds: float = 0.0  # all timed qbm calls of the pass
    attempted: int = 0
    failed: list = field(default_factory=list)  # one message per failed operation
    detail: dict = field(default_factory=dict)

    def call(self, label: str, n_ops: int, fn, *args, **kwargs):
        """Time one qbm call of ``n_ops`` operations; a raise fails them all."""
        self.attempted += n_ops
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation; the run goes on
            out = None
            self.failed.extend([f"{label}: {type(exc).__name__}: {exc}"] * n_ops)
        elapsed = time.perf_counter() - t0
        self.seconds += elapsed
        return out, elapsed

    def rate(self, i: int) -> float:
        units, seconds = self.stages[i]
        return units / seconds


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def _load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# coeffs-quantum: what `qbm coeffs --hbar 1` does, on one short-t and one long-t row


@dataclass(frozen=True)
class CoeffsSize:
    grids: tuple = ((0.05,), (8.0,))  # t grid of each build_table call
    n_max: Optional[int] = None  # None: the CLI default (certified count, capped)


class CoeffsQuantum:
    name = "coeffs-quantum"
    seeded = False
    threads = 1
    columns = ("omega", "d1", "sigma1", "sigma_q", "d_fpe")

    def __init__(self, seed: int, size: CoeffsSize = CoeffsSize()):
        self.p = derive(*FIXTURE, hbar=1.0)
        self.size = size
        self.grids = [np.array(g, dtype=np.float64) for g in size.grids]

    @functools.cached_property
    def reference(self) -> dict:
        return _load_reference(self.name)

    def run_pass(self, tracer=None, threads=None) -> PassResult:
        res = PassResult()
        rows = {repr(float(r["t"])): r for r in self.reference["rows"]}
        for grid in self.grids:
            table, seconds = res.call(
                f"build_table(t={grid.tolist()})", len(grid), coefficients.build_table,
                self.p, grid, mode="quantum", n_max=self.size.n_max, tol=TOL, threads=1,
            )
            res.stages.append((len(grid), seconds))
            if table is None:
                continue
            for i, t in enumerate(grid.tolist()):
                got = {c: float(table.column(c)[i]) for c in self.columns}
                problem = self.check_row(rows.get(repr(t)), t, got)
                if problem:
                    res.failed.append(f"t={t}: {problem}")
        return res

    @classmethod
    def check_row(cls, ref: Optional[dict], t: float, got: dict) -> str:
        """Empty if the row matches its reference within the stated budget.

        The reference is only good to its certified tail bound, so a change
        that sums the mode series more accurately must still pass:
        |d1 - ref| <= tail, |sigma1 - ref| and |sigma_q - ref| <= t * tail
        (the bound grows with t, so t * tail(t) bounds its integral), and
        |d_fpe - ref| <= tail * (1 + 2 |omega| t), plus REF_RTOL * |ref|.
        omega is a closed form and gets REF_RTOL only.
        """
        if ref is None:
            return "no reference row"
        tail = ref["tail_bound"]
        budget = {
            "omega": 0.0,
            "d1": tail,
            "sigma1": t * tail,
            "sigma_q": t * tail,
            "d_fpe": tail * (1.0 + 2.0 * abs(ref["omega"]) * t),
        }
        for c in cls.columns:
            v, r = got[c], ref[c]
            if not math.isfinite(v):
                return f"{c} = {v!r} is not finite"
            if abs(v - r) > budget[c] + REF_RTOL * abs(r):
                return f"{c} = {v!r}, reference {r!r} (budget {budget[c]:.3g})"
        return ""

    def make_reference(self) -> dict:
        rows = []
        for grid in self.grids:
            table = coefficients.build_table(
                self.p, grid, mode="quantum", n_max=self.size.n_max, tol=TOL, threads=1
            )
            for i, t in enumerate(grid.tolist()):
                det = coefficients.d1_quantum_detail(self.p, t, self.size.n_max, TOL)
                row = {"t": t, **{c: float(table.column(c)[i]) for c in self.columns}}
                rows.append({**row, "tail_bound": det.tail_bound, "n_modes": det.n_modes})
        return {"workload": self.name, "tol": TOL, "n_max": self.size.n_max, "rows": rows}


# ---------------------------------------------------------------------------
# fpe-grid: what `qbm fpe --q0 1 --compare-analytic` does, with both schemes


@dataclass(frozen=True)
class FpeRun:
    key: str
    scheme: str
    n_q: int
    dt: float
    t_final: float
    ref_stride: int  # every ref_stride-th cell of rho goes into the reference


FPE_RUNS = (
    # default grid: per-step overhead dominates
    FpeRun("cn", "cn-central", 801, 1e-3, 0.5, 1),
    # fine grid: per-cell array work dominates
    FpeRun("upwind", "split-upwind", 16801, 5e-4, 0.125, 16),
)


class FpeGrid:
    name = "fpe-grid"
    seeded = False
    threads = 1

    def __init__(self, seed: int, runs: tuple = FPE_RUNS):
        self.p = derive(*FIXTURE)
        self.runs = [
            (r, SolverConfig(n_q=r.n_q, dt=r.dt, scheme=r.scheme, q0=1.0, compare_analytic=True))
            for r in runs
        ]

    @functools.cached_property
    def reference(self) -> dict:
        return _load_reference(self.name)

    def run_pass(self, tracer=None, threads=None) -> PassResult:
        res = PassResult()
        for run, cfg in self.runs:
            if tracer is not None:
                tracer.scope = run.key
            out, seconds = res.call(
                f"solve({run.scheme})", 1, fpe.solve, self.p, "adelman", "classical", run.t_final, cfg
            )
            steps = out.n_steps if out is not None else math.ceil(run.t_final / run.dt)
            res.stages.append((cfg.n_q * steps, seconds))
            if out is None:
                continue
            rel = out.linf_error / out.peak_density
            res.detail[f"{run.key}.rel_err"] = rel
            res.detail[f"{run.key}.mass_drift"] = abs(out.mass_drift)
            problem = self.check(run, out, rel, self.reference[run.key])
            if problem:
                res.failed.append(f"{run.scheme}: {problem}")
        return res

    @staticmethod
    def check(run: FpeRun, out, rel: float, ref: dict) -> str:
        if not (_finite(out.field.rho) and math.isfinite(rel)):
            return "non-finite density"
        if rel > ANALYTIC_GATE:
            return f"sup-norm deviation {rel:.3e} of peak > {ANALYTIC_GATE}"
        if run.scheme == "cn-central" and abs(out.mass_drift) > MASS_DRIFT_LIMIT:
            return f"mass drift {out.mass_drift:.3e} > {MASS_DRIFT_LIMIT}"
        if out.n_steps != ref["n_steps"]:
            return f"{out.n_steps} steps, reference {ref['n_steps']}"
        q = out.field.q
        span = ref["q_max"] - ref["q_min"]
        if len(q) != ref["n_q"] or max(abs(q[0] - ref["q_min"]), abs(q[-1] - ref["q_max"])) > REF_RTOL * span:
            return f"grid [{q[0]!r}, {q[-1]!r}] x {len(q)}, reference [{ref['q_min']!r}, {ref['q_max']!r}] x {ref['n_q']}"
        dev = float(np.max(np.abs(out.field.rho[:: run.ref_stride] - np.array(ref["rho"]))))
        if dev > REF_RTOL * ref["peak_density"]:
            return f"density deviates from the reference by {dev:.3e}"
        return ""

    def make_reference(self) -> dict:
        ref = {"workload": self.name}
        for run, cfg in self.runs:
            out = fpe.solve(self.p, "adelman", "classical", run.t_final, cfg)
            ref[run.key] = {
                "scheme": run.scheme, "n_q": run.n_q, "dt": run.dt, "t_final": run.t_final,
                "n_steps": out.n_steps,
                "q_min": float(out.field.q[0]), "q_max": float(out.field.q[-1]),
                "peak_density": out.peak_density, "linf_error": out.linf_error,
                "mass_drift": out.mass_drift,
                "ref_stride": run.ref_stride,
                "rho": out.field.rho[:: run.ref_stride].tolist(),
            }
        return ref


# ---------------------------------------------------------------------------
# ensemble: what `qbm sde --compare --threads 2` does


@dataclass(frozen=True)
class EnsembleSize:
    paths: int = 20_000
    dt: float = 1e-3  # `qbm sde` default
    t_final: float = 1.0  # short passes: see NOTES.md
    q0: float = 1.0  # `qbm sde` default
    threads: int = 2


class Ensemble:
    name = "ensemble"
    seeded = True

    def __init__(self, seed: int, size: EnsembleSize = EnsembleSize()):
        self.p = p = derive(*FIXTURE)
        self.seed = seed
        self.size = size
        self.grid = np.linspace(0.0, size.t_final, 1025)
        self.analytic = {
            "mean": lambda t: np.atleast_1d(chi_q(p, t)) * size.q0,
            "var": lambda t: np.atleast_1d(sigma_cl_closed(p, t)),
        }
        self.threads = size.threads
        self.n_steps = math.ceil(size.t_final / size.dt - 1e-12)
        self.first_fingerprint = None

    def run_pass(self, tracer=None, threads=None) -> PassResult:
        s, p = self.size, self.p
        threads = threads or s.threads
        if tracer is not None:
            tracer.scope = "sde"
        res = PassResult()
        path_steps = s.paths * self.n_steps
        sl, t_l = res.call(
            "simulate_langevin", 1, sde.simulate_langevin,
            p, s.q0, "thermal", s.paths, s.dt, s.t_final, self.seed, threads=threads,
        )
        table, _ = res.call("build_table", 1, coefficients.build_table, p, self.grid, mode="classical")
        sr = rep = None
        t_r = 0.0
        if table is not None:
            sr, t_r = res.call(
                "simulate_reduced", 1, sde.simulate_reduced,
                p, table, s.q0, s.paths, s.dt, s.t_final, self.seed + 1, threads=threads,
            )
        if sr is not None and sl is not None:
            rep, _ = res.call("equivalence_report", 1, sde.equivalence_report, sr, sl, self.analytic)
        res.stages = [(path_steps, t_l), (path_steps, t_r)]
        res.failed += ["not run: an earlier call raised"] * (4 - res.attempted)
        res.attempted = 4
        res.detail["rng_draws"] = s.paths * (self.n_steps + 1) + path_steps
        if sl is not None and not _finite(sl.mean, sl.var, sl.mean_v, sl.var_v):
            res.failed.append("simulate_langevin: non-finite moments")
        if sr is not None and not _finite(sr.mean, sr.var):
            res.failed.append("simulate_reduced: non-finite moments")
        if table is not None and not _finite(table.omega, table.d_fpe):
            res.failed.append("build_table: non-finite coefficients")
        if rep is not None:
            z = max(v for k, v in rep.items() if k.startswith("max_z"))
            res.detail["max_abs_z"] = z
            if not z <= Z_LIMIT:
                res.failed.append(f"equivalence_report: max |z| {z:.2f} > {Z_LIMIT}")
        if sl is not None and sr is not None:
            digest = hashlib.sha256()
            for a in (sl.mean, sl.var, sl.mean_v, sl.var_v, sl.samples_q, sr.mean, sr.var, sr.samples_q):
                digest.update(np.ascontiguousarray(a).tobytes())
            fp = digest.hexdigest()
            if self.first_fingerprint is None:
                self.first_fingerprint = fp
            res.detail["identical"] = fp == self.first_fingerprint
            if fp != self.first_fingerprint:
                res.failed.append(f"moments at {threads} threads differ from the first pass (same seed)")
        return res


WORKLOADS = {w.name: w for w in (CoeffsQuantum, FpeGrid, Ensemble)}

#: Module-level names through which one qbm layer calls the next.
#: ``qbm.coefficients`` imports the phi-function kit and xi_q0 by name, and
#: ``qbm.fpe`` imports build_table and solve_banded by name, so wrapping the
#: importing module's attribute catches every call made from that layer.
TARGETS = (
    Target(coefficients, "phi1", "special.phi1", count_elements=True),
    Target(coefficients, "phi1_dd", "special.phi1", count_elements=True),
    Target(coefficients, "phi1_deriv", "special.phi1", count_elements=True),
    Target(coefficients, "xi_q0_closed", "special.xi_q0"),
    Target(coefficients, "xi_q0_sum", "special.xi_q0"),
    Target(coefficients, "sigma1_quantum", "coefficients.sigma1_quantum"),
    Target(coefficients, "d1_quantum_detail", "coefficients.d1_quantum", keep_results=True),
    Target(coefficients, "build_table", "coefficients.build_table"),
    Target(fpe, "solve", "fpe.solve"),
    Target(fpe, "step", "fpe.step"),
    Target(fpe, "solve_banded", "fpe.solve_banded"),
    Target(fpe, "build_table", "fpe.build_table"),
    Target(sde, "simulate_langevin", "sde.langevin"),
    Target(sde, "simulate_reduced", "sde.reduced"),
    Target(sde, "equivalence_report", "sde.equivalence"),
)
