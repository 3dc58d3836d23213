"""What ``import toeplab`` binds and loads.

No module of the package imports scipy: every dense call goes to numpy's own
OpenBLAS.  The package holds only its submodules and ``__version__``; each
name is imported from its module.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import toeplab

PACKAGE = Path(toeplab.__file__).resolve().parent

#: The modules that ``import toeplab`` loads: the computing ones, not ``cli``.
LOADED = ("_lapack", "calculus", "geometry", "grushin", "harness", "potential", "quantize", "randmat",
          "spectra")


class _ScipyImports(ast.NodeVisitor):
    """Where a module imports scipy, at any depth, as ``module.function`` (or ``module``)."""

    def __init__(self, module: str):
        self.scope, self.found = [module], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def _record(self, names):
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            self.found.append(".".join(self.scope))

    def visit_Import(self, node):
        self._record([alias.name for alias in node.names])

    def visit_ImportFrom(self, node):
        self._record([node.module or ""] if node.level == 0 else [])


def test_no_module_imports_scipy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {"_lapack.py", "harness.py", "__init__.py"} <= {path.name for path in modules}
    offenders = []
    for path in modules:
        visitor = _ScipyImports(path.stem)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        offenders += visitor.found
    assert offenders == []


def test_the_package_binds_only_its_submodules():
    names = {name for name in vars(toeplab) if not name.startswith("__")}
    assert set(LOADED) <= names
    assert {name for name in names
            if not (inspect.ismodule(getattr(toeplab, name))
                    and getattr(toeplab, name).__name__ == f"toeplab.{name}")} == set()


def test_import_loads_the_computing_modules_and_no_scipy():
    script = ("import json, sys\n"
              "import toeplab\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('toeplab', 'scipy'))))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                                     os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == ["toeplab", *(f"toeplab.{name}" for name in LOADED)]
