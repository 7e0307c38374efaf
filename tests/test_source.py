"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "puiseux"


def test_no_assert_statements():
    # invariant checks raise PuiseuxError so that they survive python -O
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def _names_used(node) -> set:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_top_level_function_is_used_or_exported():
    # a function that no __all__ lists and nothing else in the package uses
    # is dead code; a use inside the function's own body does not count
    exported, used, functions = set(), set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and "__all__" in _names_used(node.targets[0]):
                exported.update(ast.literal_eval(node.value))
            elif isinstance(node, ast.FunctionDef):
                functions.append((path.name, node.name, _names_used(node)))
                continue
            used |= _names_used(node)
    unused = [
        f"{module}:{name}"
        for module, name, _ in functions
        if name not in exported | used
        and not any(name in inner for m, other, inner in functions if (m, other) != (module, name))
    ]
    assert not unused, f"top-level functions nothing uses or exports: {unused}"
