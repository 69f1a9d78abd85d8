"""Static guards on the package source: no float arithmetic anywhere, no
cache without an integer bound on its size, no import of core from
simplex, no rescaling inside simplex, no Fraction in simplex outside the
converter of lp_problem, and no import of the oracle from the solver
modules."""

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


def _is_int(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, int)
            and not isinstance(node.value, bool))


def _int_constants(trees) -> set[str]:
    """Module-level names assigned an integer literal."""
    names = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.Assign) and _is_int(node.value):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _cache_violations(tree: ast.AST, sizes: set[str]) -> list[tuple[int, str]]:
    """Every use of functools.cache, and every lru_cache whose maxsize is
    neither an integer literal nor one of the integer constants `sizes`."""
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    out = []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name not in ("cache", "lru_cache"):
            continue
        call = calls.get(id(node))
        size = None
        if name == "lru_cache" and call is not None:
            size = call.args[0] if call.args else next(
                (k.value for k in call.keywords if k.arg == "maxsize"), None)
        if not (_is_int(size) or isinstance(size, ast.Name) and size.id in sizes):
            out.append((node.lineno, f"{name} without an integer maxsize"))
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


def test_guard_catches_unbounded_caches():
    code = ("import functools\nfrom functools import cache, lru_cache\nSIZE = 8\n"
            "@lru_cache(maxsize=None)\ndef a(): pass\n"
            "@cache\ndef b(): pass\n"
            "@functools.lru_cache\ndef c(): pass\n"
            "@lru_cache(maxsize=OTHER)\ndef d(): pass\n"
            "@lru_cache(maxsize=SIZE)\ndef e(): pass\n"
            "@functools.lru_cache(64)\ndef f(): pass\n")
    tree = ast.parse(code)
    found = _cache_violations(tree, _int_constants([tree]))
    assert sorted(line for line, _ in found) == [4, 6, 8, 10]


def test_no_unbounded_caches_in_source():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}
    sizes = _int_constants(trees.values())
    bad = [f"{name}:{line}: {what}"
           for name, tree in trees.items()
           for line, what in _cache_violations(tree, sizes)]
    assert not bad, "\n".join(bad)


def _imports_from(tree: ast.AST, module: str) -> list[int]:
    """Lines that import the package module `module` or a name from it,
    relatively or through the package."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0:
                source = source.removeprefix("zonolat").removeprefix(".")
            names = [source] if source else [a.name for a in node.names]
            if module in names or source.startswith(module + "."):
                out.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name == f"zonolat.{module}" or a.name.startswith(f"zonolat.{module}.")
                   for a in node.names):
                out.append(node.lineno)
    return out


def test_guard_catches_core_imports():
    code = ("from .core import row_reduce\nfrom . import core\n"
            "from zonolat.core import TUMatrix\nimport zonolat.core\n"
            "from zonolat import core\nfrom .errors import DimensionError\n"
            "from . import errors\nimport math\n")
    assert _imports_from(ast.parse(code), "core") == [1, 2, 3, 4, 5]


def test_guard_catches_oracle_imports():
    code = ("from .oracle import row_reduce\nfrom . import oracle\n"
            "from zonolat.oracle import check_tu\nimport zonolat.oracle\n"
            "from zonolat import oracle\nfrom .core import TUMatrix\n"
            "from . import simplex\nimport zonolat.core\n")
    assert _imports_from(ast.parse(code), "oracle") == [1, 2, 3, 4, 5]


def test_simplex_does_not_import_core():
    # core's conformal extraction solves LPs, so simplex stays below core;
    # its duals come off its own tableau
    tree = ast.parse((SOURCE / "simplex.py").read_text(encoding="utf-8"))
    assert _imports_from(tree, "core") == []


def _rescaling(tree: ast.AST) -> list[tuple[int, str]]:
    """Reads of .numerator or .denominator, and every use of lcm."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator", "lcm"):
            out.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.Name) and node.id == "lcm":
            out.append((node.lineno, "lcm"))
        elif isinstance(node, ast.ImportFrom):
            out.extend((node.lineno, f"import {a.name}") for a in node.names if a.name == "lcm")
    return out


def test_guard_catches_rescaling():
    code = ("import math\nfrom math import lcm\nd = x.denominator\n"
            "n = x.numerator * 2\ns = math.lcm(1, 2)\nt = lcm(3)\nu = x.den\n")
    assert sorted(_rescaling(ast.parse(code))) == [
        (2, "import lcm"), (3, ".denominator"), (4, ".numerator"), (5, ".lcm"), (6, "lcm")]


def test_simplex_does_not_rescale():
    # the simplex takes ints only: callers clear their denominators once
    # (the instance's scale K), so no per-LP lcm pass can creep back
    tree = ast.parse((SOURCE / "simplex.py").read_text(encoding="utf-8"))
    assert _rescaling(tree) == []


def _fraction_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, innermost enclosing def or class, else "<module>") of every
    use of the name Fraction, as a name or as an attribute."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Name) and child.id == "Fraction"
                    or isinstance(child, ast.Attribute) and child.attr == "Fraction"):
                out.append((child.lineno, scope))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if named else scope)

    visit(tree, "<module>")
    return sorted(out)


def test_guard_catches_fraction_uses():
    code = ("from fractions import Fraction\nimport fractions\n"
            "class R:\n    x: Fraction\n"
            "def f(a) -> Fraction:\n    return fractions.Fraction(a)\n"
            "def g():\n    def h():\n        return Fraction(1)\n    return 'Fraction'\n"
            "ONE = Fraction(1)\n")
    assert _fraction_uses(ast.parse(code)) == [(4, "R"), (5, "f"), (6, "f"), (9, "h"),
                                               (11, "<module>")]


def test_simplex_builds_no_fraction():
    # the LP speaks ints both ways: its result is den-scaled ints, and a
    # Fraction is only accepted, as an integral input, by lp_problem
    tree = ast.parse((SOURCE / "simplex.py").read_text(encoding="utf-8"))
    uses = _fraction_uses(tree)
    assert uses and {scope for _, scope in uses} <= {"_integer", "lp_problem"}, uses


def test_solver_does_not_import_oracle():
    # the oracle's Fraction reference elimination stays off the solve path
    for name in ("core", "simplex", "mmcc", "constructions"):
        tree = ast.parse((SOURCE / f"{name}.py").read_text(encoding="utf-8"))
        assert _imports_from(tree, "oracle") == [], name
