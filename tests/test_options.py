"""Static guard on the package's options: every parameter that has a default
in src/zonolat/ is passed a value by some call in src/, tests/ or
benchmarks/.  A default that no caller overrides is a constant, and a
settable value nobody sets only adds configurations to test.  A value
forwarded unchanged from a defaulted parameter of the calling function
counts only when that parameter is set itself.  cli.main's argv is exempt:
the console script calls main() with none."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXEMPT = {("main", "argv")}


def _defaults_of(node) -> list[tuple[str, int | None]]:
    """(parameter, index among the arguments a call writes positionally,
    None for keyword-only) of each parameter of `node` that has a default;
    a method's self or cls is not counted in the index."""
    a = node.args
    pos = a.posonlyargs + a.args
    skip = 1 if pos and pos[0].arg in ("self", "cls") else 0
    out = [(pos[k].arg, k - skip) for k in range(len(pos) - len(a.defaults), len(pos))]
    out.extend((arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
    return out


def _defaulted(tree: ast.AST) -> list[tuple[str, str, int | None]]:
    """(function, parameter, index) of every parameter with a default."""
    return [(node.name, param, index) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for param, index in _defaults_of(node)]


def _passed(trees, defaulted) -> tuple[set, dict]:
    """Parameters given a value by some call, and for the rest, the
    parameters of calling functions whose default is forwarded to them."""
    by_name: dict[str, list[tuple[str, int | None]]] = {}
    for func, param, index in defaulted:
        by_name.setdefault(func, []).append((param, index))
    passed, forwarded = set(), {}

    def visit(node, caller, caller_defaults):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, {param for param, _ in _defaults_of(child)})
                continue
            if isinstance(child, ast.Call):
                f = child.func
                callee = (f.id if isinstance(f, ast.Name)
                          else f.attr if isinstance(f, ast.Attribute) else None)
                splat = (any(isinstance(x, ast.Starred) for x in child.args)
                         or any(k.arg is None for k in child.keywords))
                for param, index in by_name.get(callee, ()):
                    value = next((k.value for k in child.keywords if k.arg == param), None)
                    if value is None and index is not None and index < len(child.args):
                        value = child.args[index]
                    if value is None and not splat:
                        continue
                    if isinstance(value, ast.Name) and value.id in caller_defaults:
                        forwarded.setdefault((callee, param), set()).add((caller, value.id))
                    else:
                        passed.add((callee, param))
            visit(child, caller, caller_defaults)

    for tree in trees:
        visit(tree, None, set())
    return passed, forwarded


def _never_set(sources, callers) -> list[tuple[str, str]]:
    """(function, parameter) of each defaulted parameter in `sources` that
    no call in `callers` sets, directly or through a chain of forwards."""
    defaulted = [d for tree in sources for d in _defaulted(tree)]
    passed, forwarded = _passed(callers, defaulted)
    grew = True
    while grew:
        grew = False
        for key, sources_of in forwarded.items():
            if key not in passed and sources_of & passed:
                passed.add(key)
                grew = True
    return sorted({(f, p) for f, p, _ in defaulted} - passed - EXEMPT)


def _parse(*dirs: str) -> list[ast.AST]:
    return [ast.parse(path.read_text(encoding="utf-8"))
            for d in dirs for path in sorted((ROOT / d).rglob("*.py"))]


def test_guard_catches_unset_defaults():
    source = ast.parse(
        "def a(x, k=1, *, flag=False): return b(x, cap=k)\n"
        "def b(x, cap=2): return x\n"
        "def c(x, r=3, s=4): return d(x, r)\n"
        "def d(x, r=5): return x\n"
        "def e(y=6): return y\n"
        "class C:\n    def m(self, v=7): return v\n"
        "def main(argv=None): return argv\n")
    caller = ast.parse("a(1)\nc(1, 2)\nopts = {}\ne(**opts)\nC().m(8)\n")
    assert _never_set([source], [source, caller]) == [
        ("a", "flag"), ("a", "k"), ("b", "cap"), ("c", "s")]


def test_every_default_is_set_by_some_caller():
    unset = _never_set(_parse("src/zonolat"), _parse("src", "tests", "benchmarks"))
    assert not unset, "\n".join(f"{f}({p}=...) is never passed a value" for f, p in unset)
