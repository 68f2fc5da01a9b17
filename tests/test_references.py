"""Every top-level function and class of the package has a caller in it.

Code whose only callers are tests goes: a test of it tests nothing that
runs.  The console script's entry point is called from outside, by the
``[project.scripts]`` table.
"""

import ast
from pathlib import Path

import pytest

import cqmine

PACKAGE = Path(cqmine.__file__).parent
MODULES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}
ENTRY_POINTS = {("__main__.py", "entry")}


def names_read(node: ast.AST) -> set[str]:
    """Names ``node`` reads, bare or as an attribute."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


# the names read by each top-level statement of the package
READS = [(stmt, names_read(stmt)) for tree in MODULES.values() for stmt in tree.body]
DEFINITIONS = [
    (module, stmt)
    for module, tree in MODULES.items()
    for stmt in tree.body
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    and (module, stmt.name) not in ENTRY_POINTS
]


@pytest.mark.parametrize(
    "module, node", DEFINITIONS, ids=[f"{m}::{n.name}" for m, n in DEFINITIONS]
)
def test_every_definition_has_a_caller(module, node):
    # a definition's references to itself do not count
    assert any(
        node.name in names for stmt, names in READS if stmt is not node
    ), f"{module} defines {node.name}, which nothing in cqmine uses"
