"""The package's settable parameters and code lines are counted, and
both counts are pinned.

A settable parameter is a function parameter with a default (private
helpers and lambdas included) or a dataclass field with a default: each
is a knob a caller may turn.  A field declared by a ``field(...)`` call
with neither ``default`` nor ``default_factory`` has no default, so a
caller must set it, and it is not counted.  The pin makes a new knob a
visible change: a diff that adds one fails here until it changes
``SETTABLE`` too.

A code line is a line that holds code: not blank, not only a comment,
and not in a docstring.  ``CODE_LINES`` pins their total over the
package, so that every diff of the package states its net code lines.

``CLASSES`` pins the number of class statements in the package, nested
ones included, so that a new wrapper class shows in its diff.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eimrb"
SETTABLE = 43
CODE_LINES = 2048
CLASSES = 38

# tokens that hold no code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


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


def code_lines(source):
    """The number of code lines of source: the lines on which a token
    other than a comment starts, continues or ends, less the lines of
    the docstrings of the module, its classes and its functions."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def test_counter_counts_code_lines_only():
    source = ('"""Module\n'                     # 1
              'docstring."""\n'                 # 2
              "import os  # a comment\n"        # 3: code
              "\n"                              # 4
              "# a comment line\n"              # 5
              "def f(a,\n"                      # 6: code
              "      b):\n"                     # 7: code
              '    """One line."""\n'           # 8
              '    text = """not a\n'           # 9: code
              '    docstring"""\n'              # 10: code
              "    return (a +\n"               # 11: code
              "\n"                              # 12
              "            b)\n"                # 13: code
              "class C:\n"                      # 14: code
              '    """Doc."""\n'                # 15
              "    x = 1\n")                    # 16: code
    assert code_lines(source) == 9


def test_code_line_count_is_pinned():
    found = {path.name: code_lines(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    listing = "; ".join(f"{module} {count}" for module, count in found.items())
    assert sum(found.values()) == CODE_LINES, listing


def classes(source):
    """(line, name) of each class statement of source, nested ones too."""
    return [(node.lineno, node.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)]


def test_counter_counts_every_class_statement():
    source = ("class A:\n"
              "    class B:\n"
              "        pass\n"
              "def f():\n"
              "    class C(A):\n"
              "        pass\n"
              "    return C\n"
              "D = type('D', (), {})\n")
    assert sorted(classes(source)) == [(1, "A"), (2, "B"), (5, "C")]


def test_class_count_is_pinned():
    found = {path.name: classes(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    listing = "; ".join(f"{module}:{line} {name}"
                        for module, items in found.items()
                        for line, name in items)
    assert sum(map(len, found.values())) == CLASSES, listing
