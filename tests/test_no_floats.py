"""Static guard: no float arithmetic anywhere in the package source."""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "zonolat"
MATH_FLOAT = {"sqrt", "exp", "pow"}


def _is_float_math(name: str) -> bool:
    return name in MATH_FLOAT or name.startswith("log")


def _violations(tree: ast.AST) -> list[tuple[int, str]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            out.append((node.lineno, "use of float"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and _is_float_math(node.attr)):
            out.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out.extend((node.lineno, f"from math import {a.name}")
                       for a in node.names if _is_float_math(a.name))
    return out


def test_guard_catches_floats():
    code = "import math\nfrom math import log2\nx = 0.5\ny = float(3) + math.sqrt(2)\n"
    found = {what for _, what in _violations(ast.parse(code))}
    assert found == {"float literal 0.5", "use of float", "math.sqrt",
                     "from math import log2"}


def test_no_floats_in_source():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    bad = [f"{path.name}:{line}: {what}"
           for path in files
           for line, what in _violations(ast.parse(path.read_text(encoding="utf-8")))]
    assert not bad, "\n".join(bad)
