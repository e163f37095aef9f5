"""Package structure: every import sits at module level, so the import graph
is visible at the top of each module, and the graph has no cycle; the command
line imports no scipy module; every function the benchmark's tracer
patches by name exists; the package holds what a command-line run enters:
some run of tools/report_diff.py's RUNS enters each of its functions and
methods, but those of a short allowlist, each named with its reason; no
subcommand decides a usage error; only the grid section of manifest builds a
grid or draws sample points; only expr runs generated source or takes a
symbolic derivative; and only chart_core reads numpy's floating-point
settings.  The charts and oracles of the tests live in tests/catalog.py."""

import ast
import functools
import importlib
import json
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


def _imports(path):
    """The package modules that ``path`` imports by relative import, those
    under ``if TYPE_CHECKING:`` among them (``from . import name`` imports
    the module ``name`` when there is one, else ``__init__``), and whether
    it imports ``TYPE_CHECKING``."""
    found, typing_only = set(), False
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        names = [alias.name for alias in node.names]
        typing_only |= "TYPE_CHECKING" in names
        if node.level == 1 and node.module is not None:
            found.add(node.module)
        elif node.level == 1:
            found.update(name if (PACKAGE / f"{name}.py").exists() else "__init__"
                         for name in names)
    return found, typing_only


def test_import_graph_is_acyclic():
    imports = {path.stem: _imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    graph = {module: targets for module, (targets, _) in imports.items()}
    typing_only = [module for module, (_, flag) in imports.items() if flag]
    assert not typing_only, "modules that import TYPE_CHECKING: " + ", ".join(typing_only)
    done, path = set(), []

    def visit(module):
        if module in path:
            cycle = path[path.index(module):] + [module]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if module not in done:
            path.append(module)
            for target in sorted(graph[module]):
                visit(target)
            path.pop()
            done.add(module)

    for module in graph:
        visit(module)


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


def _spans():
    """The SpanPoints of perfbench/metrics.py, a module of the benchmark's
    scripts rather than of a package."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("metrics").SPANS
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_functions_resolve():
    # perfbench/tracer.py patches each SpanPoint of perfbench/metrics.py by
    # module and dotted name, so a renamed or deleted function breaks --trace 1
    spans = _spans()
    missing = []
    for point in spans:
        try:
            functools.reduce(getattr, point.attr.split("."), importlib.import_module(point.module))
        except (ImportError, AttributeError):
            missing.append(f"{point.module}:{point.attr}")
    assert spans and not missing, "traced functions not found: " + ", ".join(missing)


#: functions and methods of the package that no run of ``report_diff.RUNS``
#: enters, each with its reason and the ROADMAP item that removes it
UNREACHED_BY_DESIGN = {
    "chart_core.BlockGeometry.at": "the block of one of the per-point wrappers (item 2)",
    **{name: "the benchmark's tracer patches it by name (item 2)" for name in (
        "chart_core.ricci_numeric", "chart_core.hessian_scalar", "chart_core.weighted_laplacian",
        "weighted_curvature.generalized_ricci", "weighted_curvature.min_relative_eigenvalue")},
    "weighted_curvature._factors": "min_relative_eigenvalue's Cholesky test (item 2)",
    "geodesic_flow.completeness_diagnostic": "suite will run it (item 5)",
    "geodesic_flow.sample_unit_directions": "completeness_diagnostic's directions (item 5)",
    "chart_core._each_row": "field_rows of the tests' point-formula charts (item 16)",
    "cli.main": "the console script of pyproject.toml",
}

# Runs every entry of tools/report_diff.py's RUNS through cli.run in this
# process, with a profile function set before cdsplit is imported, so that
# a function run only at import counts, and prints the (file, first line)
# of every code object entered in the package as JSON.
_RECORD_ENTERED = """
import contextlib, io, json, sys, tempfile
from pathlib import Path

root, package = Path(sys.argv[1]), sys.argv[2]
entered = set()


def record(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(record)
from cdsplit import cli
sys.path.insert(0, str(root / "tools"))
import report_diff

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    for name, text in report_diff.WRITTEN.items():
        (tmp / f"{name}.cdm").write_text(text)
    for sub, man, seed, overrides in report_diff.RUNS:
        manifest = tmp / f"{man}.cdm" if man in report_diff.WRITTEN else (
            root / "manifests" / f"{man}.cdm")
        out = tmp / "_".join((sub, man, str(seed)) + overrides)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.run(sub, manifest, out, seed, overrides)
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def _defs(path):
    """The dotted name within its module and the first line of each function
    and method defined at module or class level of ``path``: the line of its
    first decorator, else of ``def``, as its code object's co_firstlineno."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = [d.lineno for d in node.decorator_list] + [node.lineno]
                yield prefix + node.name, min(lines)
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")

    return walk(ast.parse(path.read_text(), filename=str(path)).body, "")


def test_every_function_is_reached_by_a_run():
    # src/ holds what a command-line run enters: every function and method of
    # the package is entered by some run of report_diff's RUNS, or is named
    # in UNREACHED_BY_DESIGN with its reason, and every name there is
    # defined and unreached
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _RECORD_ENTERED, str(ROOT), str(PACKAGE)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    entered = {(file, line) for file, line in json.loads(proc.stdout)}
    defined = {f"{path.stem}.{name}": (str(path), line)
               for path in sorted(PACKAGE.glob("*.py")) for name, line in _defs(path)}
    unreached = {name for name, where in defined.items() if where not in entered}
    missed = sorted(unreached - set(UNREACHED_BY_DESIGN))
    assert not missed, "functions that no run enters: " + ", ".join(missed)
    stale = sorted(set(UNREACHED_BY_DESIGN) - unreached)
    assert not stale, "allowlisted names that are reached or not defined: " + ", ".join(stale)


def test_subcommands_decide_no_usage_error():
    # cli._run and parse_manifest decide every exit 2 before a report is
    # written, so no cli._cmd_* function returns 2 or names ValidationError
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = [
        f"{fn.name}:{node.lineno}"
        for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_")
        for node in ast.walk(fn)
        if (isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
            and node.value.value == 2)
        or (isinstance(node, ast.Name) and node.id == "ValidationError")
    ]
    assert not found, "usage-error code in subcommands: " + ", ".join(found)


GRID_BUILDERS = {"box_grid", "inset_box", "sample_box", "GridSpec"}


def test_only_manifest_builds_grids_and_samples():
    # the grid section of manifest is the one place that builds a grid or
    # draws sample points; every check takes the points it is given
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "manifest.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in GRID_BUILDERS:
                    found.append(f"{path.stem}:{node.lineno} {name}")
    assert not found, "grids or samples built outside manifest: " + ", ".join(found)


def test_only_expr_compiles_and_differentiates_expressions():
    # the expression language is one module: only expr runs generated source
    # (the builtins exec and compile) or takes a symbolic derivative (through
    # partials)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "expr.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Name) and func.id in ("exec", "compile")
                        or isinstance(func, ast.Attribute) and func.attr == "derivative"):
                    found.append(f"{path.stem}:{node.lineno}")
    assert not found, "exec, compile or .derivative( outside expr: " + ", ".join(found)
    # the names the benchmark traces in manifest are expr's own objects, so
    # the tracer patches them in both modules
    expr, manifest = (importlib.import_module(f"cdsplit.{m}") for m in ("expr", "manifest"))
    assert manifest.eval_ast is expr.eval_ast
    assert manifest.compile_expression is expr.compile_expression


def test_only_chart_core_reads_the_floating_point_settings():
    # chart_core.raising is the one rule for which floating-point conditions
    # a stacked pass raises, so no other module reads np.geterr
    found = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "chart_core.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "geterr"
    ]
    assert not found, "np.geterr outside chart_core: " + ", ".join(found)
