"""Every name a module of the package imports is used in that module,
the package has one sparse direct solve and no dense scipy solve, and no
module imports scipy when it is loaded.

No linter runs on the package, so these checks parse each module with
``ast``.  A name bound by an import statement must be read somewhere in
the module; ``__init__.py`` is left out, since its imports are the
package's exports.  The sparse direct solvers of scipy (``splu``,
``spsolve``, ``factorized``) may be named only inside
``fem.factor_sparse``, so that a second linear-solve path shows in the
diff that adds it.  No module names ``scipy.linalg``: every dense solve
runs on numpy, so a process loads one BLAS library with one thread pool.
scipy may be imported only inside a function, so that ``import eimrb``
and an online query load numpy alone.  ``eim.py`` imports no module of
the package and never names float32, and reads no more of a sweep's
screen than its brackets, ``bracket``, ``screened`` and ``carry``: the
greedy step stays generic, and a bound that leaks back into it shows in
the diff.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eimrb"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SPARSE_SOLVERS = {"splu", "spsolve", "factorized"}


def unused_imports(source):
    """(line, name) of each imported name that source never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_checker_flags_only_unread_names():
    source = ("import os\n"
              "import numpy as np\n"
              "from math import pi, tau\n"
              "import scipy.sparse\n"
              "x = np.zeros(2) * pi + scipy.sparse.eye(2)\n")
    assert unused_imports(source) == [(1, "os"), (3, "tau")]


def test_package_modules_found():
    assert {"rb.py", "ser.py", "benchmark.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, ", ".join(f"{path.name}:{line}: {name}"
                                 for line, name in unused)


def sparse_solver_uses(source):
    """(enclosing function, line, name) of each mention of a sparse direct
    solver: a call, a reference or an import.  The function is the
    innermost def around it, None at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.alias):
                name = child.name.split(".")[-1]
            else:
                name = None
            if name in SPARSE_SOLVERS:
                found.append((scope, child.lineno, name))
            inner = (child.name if isinstance(child, (ast.FunctionDef,
                                                      ast.AsyncFunctionDef))
                     else scope)
            visit(child, inner)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda use: use[1])


def test_solver_checker_finds_calls_references_and_imports():
    source = ("import scipy.sparse.linalg as spla\n"
              "from scipy.sparse.linalg import spsolve as solve\n"
              "def factor(op):\n"
              "    return spla.splu(op)\n"
              "class C:\n"
              "    def run(self, op, b):\n"
              "        f = spla.factorized\n"
              "        return solve(op, b)\n")
    assert sparse_solver_uses(source) == [(None, 2, "spsolve"),
                                          ("factor", 4, "splu"),
                                          ("run", 7, "factorized")]


def test_one_sparse_solve_path():
    uses = {path.name: sparse_solver_uses(path.read_text(encoding="utf-8"))
            for path in PACKAGE.glob("*.py")}
    assert [use for use in uses["fem.py"] if use[0] == "factor_sparse"]
    stray = [f"{name}:{line}: {solver} in {scope or 'module'}"
             for name, found in sorted(uses.items())
             for scope, line, solver in found
             if (name, scope) != ("fem.py", "factor_sparse")]
    assert not stray, ", ".join(stray)


def dense_scipy_uses(source):
    """(line, name) of each import of scipy.linalg, of a module below it or
    of a name from it, and of each reference scipy.linalg."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name.split(".")[:2] == ["scipy", "linalg"])
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
            found.extend((node.lineno, name) for name in names
                         if name.split(".")[:2] == ["scipy", "linalg"])
        elif (isinstance(node, ast.Attribute) and node.attr == "linalg"
              and isinstance(node.value, ast.Name)
              and node.value.id == "scipy"):
            found.append((node.lineno, "scipy.linalg"))
    return sorted(found)


def test_dense_checker_finds_imports_and_references():
    source = ("import scipy.sparse.linalg as spla\n"
              "import scipy.linalg\n"
              "from scipy.linalg import solve_triangular\n"
              "from scipy import linalg, sparse\n"
              "from scipy.linalg.lapack import dgesv\n"
              "import scipy\n"
              "def solve(a, b):\n"
              "    return scipy.linalg.cholesky(a), spla.splu(b)\n")
    assert dense_scipy_uses(source) == [
        (2, "scipy.linalg"), (3, "scipy.linalg.solve_triangular"),
        (4, "scipy.linalg"), (5, "scipy.linalg.lapack.dgesv"),
        (8, "scipy.linalg")]


def test_no_dense_scipy_solve():
    stray = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name in dense_scipy_uses(path.read_text(encoding="utf-8"))]
    assert not stray, ", ".join(stray)


def module_level_scipy_imports(source):
    """(line, module) of each import of scipy or a scipy submodule that
    runs when source is loaded: one outside every function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                modules = [child.module]
            else:
                modules = []
            found.extend((child.lineno, name) for name in modules
                         if name.split(".")[0] == "scipy")
            visit(child)

    visit(ast.parse(source))
    return sorted(found)


def test_checker_flags_only_module_level_scipy_imports():
    source = ("import numpy as np\n"
              "import scipy.sparse as sp, os\n"
              "from scipy.linalg import solve_triangular\n"
              "from .scipy import helper\n"
              "import scipyx\n"
              "try:\n"
              "    import scipy\n"
              "except ImportError:\n"
              "    scipy = None\n"
              "class C:\n"
              "    from scipy import sparse\n"
              "    def run(self):\n"
              "        import scipy.sparse as sp\n"
              "        return sp\n"
              "def solve(b):\n"
              "    from scipy.linalg import cholesky\n"
              "    return cholesky(b)\n")
    assert module_level_scipy_imports(source) == [
        (2, "scipy.sparse"), (3, "scipy.linalg"), (7, "scipy"), (11, "scipy")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    found = module_level_scipy_imports(path.read_text(encoding="utf-8"))
    assert not found, ", ".join(f"{path.name}:{line}: import of {module}"
                                for line, module in found)


SCREEN_NAMES = {"brackets", "bracket", "screened", "carry"}


def screen_reads(source):
    """(line, name) of each attribute read off a name or attribute that
    is called screen."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if "screen" in (getattr(owner, "id", None),
                            getattr(owner, "attr", None)):
                found.append((node.lineno, node.attr))
    return sorted(found)


def test_screen_reads_are_found_on_names_and_attributes():
    source = ("def step(fields, sweep):\n"
              "    screen = fields.screen(1)\n"
              "    a = screen.brackets\n"
              "    return sweep.screen.bounds(a), self.screens.x\n")
    assert screen_reads(source) == [(3, "brackets"), (4, "bounds")]


def test_greedy_step_stays_generic():
    source = (PACKAGE / "eim.py").read_text(encoding="utf-8")
    package = [ast.dump(node) for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ImportFrom)
               and (node.level or node.module.split(".")[0] == "eimrb")
               or isinstance(node, ast.Import)
               and any(a.name.split(".")[0] == "eimrb" for a in node.names)]
    assert not package
    assert "float32" not in source.lower()
    reads = screen_reads(source)
    assert reads and {name for _, name in reads} <= SCREEN_NAMES
