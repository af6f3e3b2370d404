"""Every name a module of the package imports is read by that module.

A deleted function or command easily leaves its imports behind; this guard
reads each module's syntax tree, so it needs no import of the package.
Names listed in a module's ``__all__`` (the package root's re-exports)
count as read.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "glimpse"


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in read]


def test_every_imported_name_is_read():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert not unused, f"imported but never read: {unused}"
