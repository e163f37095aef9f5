"""Package structure: every import sits at module level, so the import graph
is visible at the top of each module and cannot hide a cycle; the command
line imports no scipy module; and every function the benchmark's tracer
patches by name exists."""

import ast
import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cdsplit"
PERFBENCH = ROOT / "perfbench"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    local = [
        f"{path.name}:{node.lineno} in {fn.name}()"
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not local, "function-local imports: " + ", ".join(local)


def test_cli_imports_no_scipy():
    # the package's linear algebra is numpy's LAPACK; scipy serves only the
    # tests, so a run does not pay for importing it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, cdsplit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_traced_functions_resolve():
    # perfbench/tracer.py patches each SpanPoint of perfbench/metrics.py by
    # module and dotted name, so a renamed or deleted function breaks --trace 1
    sys.path.insert(0, str(PERFBENCH))
    try:
        spans = importlib.import_module("metrics").SPANS
    finally:
        sys.path.remove(str(PERFBENCH))
    missing = []
    for point in spans:
        try:
            functools.reduce(getattr, point.attr.split("."), importlib.import_module(point.module))
        except (ImportError, AttributeError):
            missing.append(f"{point.module}:{point.attr}")
    assert spans and not missing, "traced functions not found: " + ", ".join(missing)
