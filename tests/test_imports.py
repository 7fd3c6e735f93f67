"""Which runs load which scipy module.

Classical runs (``qbm coeffs`` without hbar, ``qbm sde``) and quantum rows
load no scipy module; an FPE solve loads scipy.linalg at its first solve.
Each check runs in a fresh interpreter, because this test session has long
imported both.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = (
    "import sys\n"
    "import numpy as np\n"
    "import qbm, qbm.cli\n"
    "p = qbm.derive(1.0, 1.0, 0.16, 1.0)\n"
    "def loaded():\n"
    "    return {m for m in ('scipy.special', 'scipy.linalg') if m in sys.modules}\n"
    "assert loaded() == set(), loaded()\n"
)


def _run(code):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", PRELUDE + code], check=True, env=env, timeout=120)


def test_classical_runs_load_no_scipy_module():
    _run(
        "table = qbm.build_table(p, np.linspace(0.0, 1.0, 101))\n"
        "red = qbm.simulate_reduced(p, table, 1.0, 200, 1e-2, 1.0, seed=1)\n"
        "lan = qbm.simulate_langevin(p, 1.0, 'thermal', 200, 1e-2, 1.0, seed=2)\n"
        "assert qbm.equivalence_report(red, lan)['z_limit'] > 3.0\n"
        "assert loaded() == set(), loaded()\n"
    )


def test_fpe_solve_loads_only_scipy_linalg():
    _run(
        "res = qbm.fpe.solve(p, t_final=0.01, cfg=qbm.fpe.SolverConfig(q0=1.0))\n"
        "assert loaded() == {'scipy.linalg'}, loaded()\n"
    )


def test_quantum_rows_load_no_scipy_module():
    # the heads sum their Hurwitz zeta and harmonic tails in the package; a
    # counter put in place of zeta first is the one a table's heads call once
    _run(
        "import qbm.coefficients as c\n"
        "calls, real = [], c.zeta\n"
        "c.zeta = lambda *args: calls.append(args) or real(*args)\n"
        "pq = qbm.derive(1.0, 1.0, 0.16, 1.0, hbar=1.0)\n"
        "qbm.build_table(pq, np.array([0.05, 8.0]), mode='quantum')\n"
        "assert len(calls) == 1, calls\n"
        "qbm.d1_quantum_detail(pq, 0.05)\n"
        "qbm.sigma1_quantum(pq, 8.0)\n"
        "c.xi_q0_sum(pq, 0.5)\n"
        "scipy = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert scipy == [], scipy\n"
    )
