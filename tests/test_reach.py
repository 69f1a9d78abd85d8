"""Static guard on the package's reach: every module-level function, class
and assignment in src/zonolat/ is used by name, as an AST `Name` or
`Attribute`, somewhere in src/ outside its own definition or in
benchmarks/.  A definition that only tests reach is code that no `zonolat`
command runs.  An import does not count as a use, so an export from
`__init__.py` keeps nothing alive.  `oracle.py` is exempt as a source of
definitions: it is the test-time reference.  Its uses of other modules
count, since `zonolat solve --oracle` and `zonolat voronoi` run it."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXEMPT_MODULES = {"oracle"}
ALLOWED = {
    # the paper's definitions of the discrete derivatives and the cost,
    # which the tests check the formulas through
    ("mmcc", "right_derivative"),
    ("mmcc", "left_derivative"),
    ("mmcc", "cost"),
    # the solution-file reader, for a `verify` command that checks an
    # emitted certificate without the solver
    ("cli", "parse_solution"),
}


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _used(node: ast.AST) -> set[str]:
    """Names read in `node`, as a bare name or as an attribute."""
    out = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            out.add(child.id)
        elif isinstance(child, ast.Attribute):
            out.add(child.attr)
    return out


def _unreached(package: dict[str, ast.Module], others: list[ast.Module],
               allowed: set[tuple]) -> list[tuple]:
    """(module, name) of each module-level definition in `package`, outside
    EXEMPT_MODULES and `allowed`, that no other statement of `package` and
    no tree of `others` uses."""
    statements = [(module, stmt) for module, tree in package.items() for stmt in tree.body]
    used_by = [(stmt, _used(stmt)) for _, stmt in statements]
    outside = set().union(*(_used(tree) for tree in others))
    unreached = []
    for module, stmt in statements:
        if module in EXEMPT_MODULES:
            continue
        for name in _defined(stmt):
            if (module, name) in allowed or name in outside:
                continue
            if not any(name in names for other, names in used_by if other is not stmt):
                unreached.append((module, name))
    return sorted(unreached)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def unreached_in(root: Path, allowed: set[tuple]) -> list[tuple]:
    """The unreached definitions of the checkout at `root`."""
    package = {p.stem: _parse(p) for p in sorted((root / "src/zonolat").glob("*.py"))}
    others = [_parse(p) for p in sorted((root / "benchmarks").rglob("*.py"))]
    return _unreached(package, others, allowed)


def test_guard_catches_unreached_definitions():
    package = {
        "a": ast.parse(
            "X = 1\nY: int = 2\n"
            "def f(n): return f(n - 1)\n"  # only itself
            "def g(): return h() + X\n"
            "def h(): return 0\n"
            "class C: pass\n"),
        "b": ast.parse("from .a import f, C\ndef k(): return 1\n"),
        "mmcc": ast.parse("def cost(): return 0\ndef step(): return 0\n"),
        "oracle": ast.parse("def reference(): return 0\n"),
    }
    others = [ast.parse("import b\nb.k()\n")]
    assert _unreached(package, others, {("mmcc", "cost")}) == [
        ("a", "C"), ("a", "Y"), ("a", "f"), ("a", "g"), ("mmcc", "step")]


def test_every_package_definition_is_reached():
    unreached = unreached_in(ROOT, ALLOWED)
    assert not unreached, "\n".join(
        f"{module}.{name} is reached by no module and no benchmark"
        for module, name in unreached)


def test_every_allowed_definition_is_still_unreached():
    # an entry whose name gained a caller, or is gone, leaves the list
    assert unreached_in(ROOT, set()) == sorted(ALLOWED)
