"""Exact arithmetic, no runtime dependency, the declared Python floor and
one line reader, as a check on the source: matint's modules parse as
Python 3.10 (``requires-python >= 3.10``), hold no float literal, name
``float`` only where ``matrix.as_rat`` rejects floats, import only the
standard library, and name ``strip_comment`` only in ``matrix.py``, whose
``read_lines`` is the one reader of the line formats."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "matint"


def _nodes(node, func=None):
    """Every node below ``node`` with the name of its innermost enclosing function."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
            else func
        yield child, inner
        yield from _nodes(child, inner)


def _faults(source, module):
    try:
        tree = ast.parse(source, feature_version=(3, 10))
    except SyntaxError as exc:
        return [f"{module}:{exc.lineno}: not Python 3.10: {exc.msg}"]
    faults = []
    for node, func in _nodes(tree):
        where = f"{module}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            faults.append(f"{where}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float" \
                and (module, func) != ("matrix.py", "as_rat"):
            faults.append(f"{where}: float named in {func or 'module scope'}")
        elif "strip_comment" in (getattr(node, "id", None), getattr(node, "name", None),
                                 getattr(node, "attr", None)) and module != "matrix.py":
            faults.append(f"{where}: strip_comment named outside matrix.py")
        elif isinstance(node, ast.Import):
            faults += [f"{where}: imports {alias.name}" for alias in node.names
                       if alias.name.split(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] not in sys.stdlib_module_names:
            faults.append(f"{where}: imports from {node.module}")
    return faults


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_is_exact_and_stdlib_only(path):
    assert _faults(path.read_text(encoding="utf-8"), path.name) == []


def test_the_guard_sees_each_fault():
    source = ("import numpy.linalg\nfrom sympy import Rational\nfrom . import matrix\n"
              "import math\nx = 0.5\n\ndef as_rat(y):\n    return float(y)\n")
    assert len(_faults(source, "represent.py")) == 4
    # as_rat's rejection of floats is the one place the name may appear
    assert len(_faults(source, "matrix.py")) == 3


def test_the_guard_keeps_one_line_reader():
    """Only matrix.py may strip comments: each other module reads its
    line format through matrix.read_lines."""
    source = ("from .matrix import strip_comment\nfrom . import matrix\n\n"
              "def parse(text):\n    return [matrix.strip_comment(t) for t in text]\n\n"
              "def strip_comment(line):\n    return line\n")
    assert len(_faults(source, "interp.py")) == 3
    assert _faults(source, "matrix.py") == []


@pytest.mark.parametrize("source", ["type X = int\n",
                                    "try:\n    pass\nexcept* ValueError:\n    pass\n"])
def test_the_guard_holds_the_python_floor(source):
    """A statement newer than Python 3.10 (3.12's type alias, 3.11's
    exception groups) is flagged, whatever Python runs the check."""
    [fault] = _faults(source, "trs.py")
    assert "not Python 3.10" in fault
