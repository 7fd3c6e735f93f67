"""No module of ``src/qbm`` imports a name that it does not use.

A name counts as used where the module reads it, lists it in ``__all__``, or
where ``perfbench/workloads.py`` ``TARGETS`` wraps it as that module's
attribute (the benchmark's traced run swaps it there).  ``workloads`` is
imported the way ``tests/test_perfbench_targets.py`` imports it.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads as wl  # noqa: E402

TRACED = {(t.module.__name__, t.attr) for t in wl.TARGETS}
MODULES = sorted((ROOT / "src" / "qbm").glob("*.py"))


def _unused(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    module = "qbm" if path.stem == "__init__" else f"qbm.{path.stem}"
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and (module, name) not in TRACED)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _unused(path) == []
