"""Every top-level function and class of the package has a caller in it.

Code whose only callers are tests goes: a test of it tests nothing that
runs.  A definition has a caller when another module of the package
imports it, or when its own module reads its name outside the definition
where no parameter or local of that name shadows it.  An attribute read
such as ``rule.support`` is not a caller of a function ``support``.  The
console script's entry point is called from outside, by the
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

SCOPES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def bound_in(scope: ast.AST) -> set[str]:
    """The parameters and locals of a function, lambda or comprehension."""
    names = set()
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(
                (alias.asname or alias.name).split(".")[0] for alias in node.names
            )
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if not isinstance(node, (*SCOPES, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return names


def module_reads(node: ast.AST, shadowed: frozenset = frozenset()) -> set[str]:
    """Bare names ``node`` reads that no enclosing parameter or local binds."""
    if isinstance(node, SCOPES):
        shadowed = shadowed | bound_in(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return set() if node.id in shadowed else {node.id}
    names = set()
    for child in ast.iter_child_nodes(node):
        names |= module_reads(child, shadowed)
    return names


# (module, name) for each name a module of the package imports from another
IMPORTED = {
    (f"{node.module}.py", alias.name)
    for tree in MODULES.values()
    for node in ast.walk(tree)
    if isinstance(node, ast.ImportFrom) and node.level == 1
    for alias in node.names
}


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
    own_reads = set().union(
        *(module_reads(stmt) for stmt in MODULES[module].body if stmt is not node)
    )
    assert (
        (module, node.name) in IMPORTED or node.name in own_reads
    ), f"{module} defines {node.name}, which nothing in cqmine uses"
