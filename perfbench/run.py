"""qbm benchmark: one workload per run, end-to-end or per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {coeffs-quantum,fpe-grid,ensemble}
        --seed N --seconds S --trace {0,1}

``--trace 0`` repeats the workload's fixed pass until the next pass would
end after ``S`` seconds (at least one pass) with no wrappers installed, and
reports each stage's rate in its fastest pass, or in its median pass on more
than one thread (see ``plain_run``), and the median of the set-ups.
``--trace 1`` runs one plain pass, one pass with span wrappers around the
layer boundaries (``workloads.TARGETS``), and for a multi-threaded workload
one more plain pass on a single thread; it reports the per-layer metrics.  Metric names and units come from ``BENCHMARK.json``.
Every operation is checked; the last line of stdout is the JSON result.  See
``NOTES.md`` for the workloads and metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: The traced run must cover its wall time with span self time to this share.
COVERAGE_TOL = 0.10


def _machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _setup_seconds(workload: str, seed: int) -> list:
    """Import qbm and build the workload's inputs in fresh interpreters."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def plain_run(workload, seconds: float) -> tuple:
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"peak_rss_mb": rss_mb}
    # Every pass does the same work, so a slower pass is a busier host, not
    # different code.  The shared host's speed drifts by up to 1.5x for a
    # minute at a time, which moves a median over the run with it; the fastest
    # pass of a single-threaded stage is what a run on a quiet host reads.  A
    # pass on every core is fastest only when all of them are quiet at once,
    # which is rare and erratic, so a multi-threaded stage reports its median.
    pick = max if workload.threads == 1 else statistics.median
    for i in (0, 1):
        rates = [p.rate(i) for p in passes]
        metrics[f"stage{i + 1}_rate"] = pick(rates)
        print(f"# stage{i + 1}_rate over {len(rates)} passes: fastest {max(rates)!r}, "
              f"median {statistics.median(rates)!r} 1/s")
    return metrics, passes, []


def traced_run(workload) -> tuple:
    from spans import Tracer
    from workloads import TARGETS, TOL

    plain = workload.run_pass()
    with Tracer(TARGETS) as tr:
        traced = workload.run_pass(tracer=tr)
    passes = [plain, traced]
    speedup = 0.0
    if workload.threads > 1:
        single = workload.run_pass(threads=1)
        passes.append(single)
        speedup = sum(s for _, s in single.stages) / sum(s for _, s in plain.stages)

    rows = tr.results[("", "coefficients.d1_quantum")]
    d = traced.detail
    m = {
        "special.phi1.self_s": tr.total("special.phi1", field="self"),
        "special.phi1.calls": tr.total("special.phi1", field="calls"),
        "special.phi1.elements": tr.total("special.phi1", field="elements"),
        "special.xi_q0_s": tr.total("special.xi_q0"),
        "coefficients.sigma1_quantum.self_s": tr.total("coefficients.sigma1_quantum", field="self"),
        "coefficients.d1_quantum.self_s": tr.total("coefficients.d1_quantum", field="self"),
        "coefficients.build_table.self_s": tr.total("coefficients.build_table", scope="", field="self"),
        "coefficients.n_modes_max": max((r.n_modes for r in rows), default=0),
        "coefficients.tail_bound_max": max((r.tail_bound for r in rows), default=0.0),
        "coefficients.tol_met_frac": (
            sum(r.tail_bound <= TOL for r in rows) / len(rows) if rows else 0.0
        ),
    }
    for s in ("cn", "upwind"):
        m[f"fpe.{s}.steps"] = tr.total("fpe.step", scope=s, field="calls")
        m[f"fpe.{s}.step.self_s"] = tr.total("fpe.step", scope=s, field="self")
        m[f"fpe.{s}.solve_banded_s"] = tr.total("fpe.solve_banded", scope=s)
        m[f"fpe.{s}.solve.self_s"] = tr.total("fpe.solve", scope=s, field="self")
        m[f"fpe.{s}.build_table_s"] = tr.total("fpe.build_table", scope=s)
        m[f"fpe.{s}.rel_err"] = d.get(f"{s}.rel_err", 0.0)
    m["fpe.cn.mass_drift"] = d.get("cn.mass_drift", 0.0)
    m.update({
        "sde.langevin_s": tr.total("sde.langevin"),
        "sde.reduced_s": tr.total("sde.reduced"),
        "sde.build_table_s": tr.total("coefficients.build_table", scope="sde"),
        "sde.equivalence_s": tr.total("sde.equivalence"),
        "sde.rng_draws": d.get("rng_draws", 0),
        "sde.thread_speedup": speedup,
        "sde.max_abs_z": d.get("max_abs_z", 0.0),
        "trace_overhead_frac": (traced.seconds - plain.seconds) / plain.seconds,
        "trace_coverage_frac": tr.self_time() / traced.seconds,
    })
    problems = []
    if abs(m["trace_coverage_frac"] - 1.0) > COVERAGE_TOL:
        problems.append(
            f"span self time covers {m['trace_coverage_frac']:.3f} of the traced wall time"
        )
    return m, passes, problems


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    print(f"# workload {args.workload}, seed {args.seed}"
          + ("" if workload.seeded else " (ignored: deterministic workload)")
          + f", threads {workload.threads}, trace {args.trace}")
    print(f"# machine {json.dumps(_machine())}")

    if args.trace:
        metrics, passes, problems = traced_run(workload)
        wanted = spec["per_layer"]
    else:
        setups = _setup_seconds(args.workload, args.seed)
        metrics, passes, problems = plain_run(workload, args.seconds)
        metrics["setup_s"] = statistics.median(setups)
        wanted = spec["end_to_end"]
    metrics = {w["name"]: {"value": metrics[w["name"]], "unit": w["unit"]} for w in wanted}

    attempted = sum(p.attempted for p in passes)
    failures = [msg for p in passes for msg in p.failed]
    for msg in failures + problems:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(f"# {len(passes)} passes, {attempted} operations, {len(failures)} failed")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
