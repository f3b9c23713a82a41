"""Every name a module of the package imports is used in that module.

No linter runs on the package, so this check parses each module with
``ast``: a name bound by an import statement must be read somewhere in
the module.  ``__init__.py`` is left out, since its imports are the
package's exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eimrb"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
