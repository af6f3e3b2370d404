"""Every name a module of the package imports is read by that module, and every
module-level function and class is read somewhere in the package.

A deleted function or command easily leaves its imports behind, and a helper
that only its own test calls is dead code; these guards read each module's
syntax tree, so they need no import of the package.  Names listed in a
module's ``__all__`` (the package root's re-exports) count as read.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "glimpse"


def all_names(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    return {name for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


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
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | all_names(tree)
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in read]


def unread_definitions(paths: list[Path]) -> list[str]:
    """Module-level functions and classes whose name no code of ``paths`` reads outside
    the definition itself, as a plain name, an attribute or an ``__all__`` entry."""
    defined, read = [], set()
    for path in paths:
        tree = ast.parse(path.read_text())
        read |= all_names(tree)
        for statement in tree.body:
            own = (statement.name if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
                   else None)
            if own is not None:
                defined.append((own, f"{path.name}:{statement.lineno} {own}"))
            for node in ast.walk(statement):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    read.add(name)
    return [where for name, where in defined if name not in read]


def test_every_definition_is_read_outside_itself():
    unread = unread_definitions(sorted(PACKAGE.glob("*.py")))
    assert not unread, f"defined but read only by tests or by itself: {unread}"


def test_every_imported_name_is_read():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert not unused, f"imported but never read: {unused}"
