"""``pyproject.toml`` declares no runtime dependencies: ``src/repro``
imports only the standard library and itself, and computing a cube
loads no third-party module (networkx is a test-only oracle)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

REFUSE_NETWORKX_AND_COMPUTE = """
import sys
from importlib.abc import MetaPathFinder


class Refuse(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "networkx":
            raise ImportError(f"{name} is not installed")
        return None


sys.meta_path.insert(0, Refuse())

from repro.core.cube import ExecutionOptions, compute_cube
from repro.testing import small_workload

table = small_workload().fact_table()
serial = compute_cube(table, ExecutionOptions())
threaded = compute_cube(table, ExecutionOptions(workers=2, engine="thread"))
assert serial.same_contents(threaded)
assert "networkx" not in sys.modules
print(len(serial.cuboids))
"""


def test_compute_cube_runs_with_networkx_refused():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", REFUSE_NETWORKX_AND_COMPUTE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 0


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="needs sys.stdlib_module_names"
)
def test_src_imports_only_the_stdlib():
    allowed = set(sys.stdlib_module_names) | {"repro", "__future__"}
    modules = sorted((SRC / "repro").rglob("*.py"))
    assert modules
    outside = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for line, name in _absolute_imports(tree):
            if name.split(".")[0] not in allowed:
                outside.append(f"{path.relative_to(SRC)}:{line}: {name}")
    assert outside == []
