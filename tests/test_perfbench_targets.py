"""Every module attribute that the benchmark's traced run wraps resolves.

``perfbench/run.py --trace 1`` times a layer by swapping the attributes listed
in ``perfbench/workloads.py`` ``TARGETS``; an import that only the tracer uses
must not be deleted as unused.  Imported the way ``perfbench/tests`` does.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402


@pytest.mark.parametrize("target", wl.TARGETS, ids=lambda t: f"{t.module.__name__}.{t.attr}")
def test_target_resolves(target):
    assert callable(getattr(target.module, target.attr, None))
