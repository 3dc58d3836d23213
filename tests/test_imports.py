"""No module of the package imports scipy: every dense call goes to numpy's own OpenBLAS."""

import ast
from pathlib import Path

import toeplab

PACKAGE = Path(toeplab.__file__).resolve().parent


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
