"""Harness smoke test at tiny sizes.

Run from the root of a checkout: python3 -m pytest perfbench/tests
The full-size workloads are exercised only by perfbench/run.py itself.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from qbm import fpe  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY_FPE = (
    wl.FpeRun("cn", "cn-central", 401, 1e-2, 0.2, 1),
    wl.FpeRun("upwind", "split-upwind", 801, 5e-3, 0.2, 4),
)


def _tiny(name):
    if name == "coeffs-quantum":
        w = wl.CoeffsQuantum(0, wl.CoeffsSize(grids=((0.5,), (2.0,)), n_max=64))
    elif name == "fpe-grid":
        w = wl.FpeGrid(0, TINY_FPE)
    else:
        return wl.Ensemble(5, wl.EnsembleSize(paths=400, dt=1e-2, t_final=0.5))
    w.reference = w.make_reference()
    return w


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_plain_run_reports_every_end_to_end_metric(name):
    metrics, passes, problems = run.plain_run(_tiny(name), seconds=0.0)
    assert len(passes) == 1 and not problems
    assert passes[0].attempted > 0 and passes[0].failed == []
    expected = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s"}
    assert set(metrics) == expected
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_run_covers_wall_time_and_unwraps(name):
    original = fpe.solve
    w = _tiny(name)
    metrics, passes, problems = run.traced_run(w)
    assert fpe.solve is original
    assert not problems
    assert all(p.failed == [] for p in passes)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert abs(metrics["trace_coverage_frac"] - 1.0) <= run.COVERAGE_TOL
    if name == "ensemble":
        assert len(passes) == 3 and passes[2].detail["identical"]
        assert metrics["sde.thread_speedup"] > 0
    if name == "fpe-grid":
        assert metrics["fpe.cn.steps"] == 20 and metrics["fpe.upwind.steps"] == 40
    if name == "coeffs-quantum":
        assert metrics["coefficients.n_modes_max"] == 64
        assert metrics["special.phi1.calls"] > 0


def test_reference_mismatch_counts_as_failed_operation():
    w = _tiny("coeffs-quantum")
    w.reference["rows"][1]["d1"] += 1.0
    f = _tiny("fpe-grid")
    f.reference["upwind"]["rho"][3] += 1e-3
    assert len(w.run_pass().failed) == 1
    assert len(f.run_pass().failed) == 1


def test_ensemble_seed_changes_moments():
    a, b = _tiny("ensemble"), wl.Ensemble(6, wl.EnsembleSize(paths=400, dt=1e-2, t_final=0.5))
    a.run_pass()
    b.run_pass()
    assert a.first_fingerprint != b.first_fingerprint


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fpe-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
