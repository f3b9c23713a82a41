"""The package's settable parameters are counted, and the count is pinned.

A settable parameter is a function parameter with a default (private
helpers and lambdas included) or a dataclass field with a default: each
is a knob a caller may turn.  A field declared by a ``field(...)`` call
with neither ``default`` nor ``default_factory`` has no default, so a
caller must set it, and it is not counted.  The pin makes a new knob a
visible change: a diff that adds one fails here until it changes
``SETTABLE`` too.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eimrb"
SETTABLE = 43


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if "dataclass" in (getattr(target, "attr", None),
                           getattr(target, "id", None)):
            return True
    return False


def _has_default(value):
    """Whether a dataclass field's assigned value gives it a default."""
    if value is None:
        return False
    func = getattr(value, "func", None)
    if "field" in (getattr(func, "attr", None), getattr(func, "id", None)):
        return any(kw.arg in ("default", "default_factory")
                   for kw in value.keywords)
    return True


def settable_parameters(source):
    """(line, name, count) of each function or dataclass with defaults."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count = (len(node.args.defaults)
                     + sum(d is not None for d in node.args.kw_defaults))
            name = getattr(node, "name", "<lambda>")
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count = sum(isinstance(s, ast.AnnAssign) and _has_default(s.value)
                        for s in node.body)
            name = node.name
        else:
            continue
        if count:
            found.append((node.lineno, name, count))
    return found


def test_counter_counts_defaults_and_dataclass_fields():
    source = ("from dataclasses import dataclass, field\n"
              "def f(a, b=1, *, c=2, d): pass\n"
              "def _g(x=0): return lambda y=1: y\n"
              "@dataclass\n"
              "class C:\n"
              "    a: int\n"
              "    b: int = 1\n"
              "    c: list = field(default_factory=list)\n"
              "    d: int = field(kw_only=True)\n"
              "    e: int = field(default=0, kw_only=True)\n"
              "class Plain:\n"
              "    a: int = 1\n")
    assert settable_parameters(source) == [(2, "f", 2), (3, "_g", 1),
                                           (5, "C", 3), (3, "<lambda>", 1)]


def test_settable_parameter_count_is_pinned():
    found = {path.name: settable_parameters(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    total = sum(count for items in found.values() for _, _, count in items)
    listing = "; ".join(f"{module}:{line} {name} {count}"
                        for module, items in found.items()
                        for line, name, count in items)
    assert total == SETTABLE, listing
