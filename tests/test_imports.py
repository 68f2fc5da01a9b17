"""Every name a module of the package imports is used there or exported,
and the command line imports no introspection machinery."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import cqmine

PACKAGE = Path(cqmine.__file__).parent


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            names.update(
                alias.asname or alias.name.partition(".")[0] for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported_names(tree) - used - exported_names(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


def test_the_command_line_imports_no_introspection_modules():
    # dataclasses imports inspect, which imports ast, dis and tokenize: about
    # 1 MB and 9 ms of every process; sqlite3, which imports datetime, costs
    # about 1.1 MB at import, and about 0.5 MB more once the rows are copied
    heavy = ("dataclasses", "inspect", "ast", "dis", "sqlite3", "datetime")
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import cqmine.__main__\n"
        f"print(*[name for name in {heavy!r} if name in sys.modules])\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == []
