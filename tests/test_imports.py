"""Every name a module of the package imports is read by that module, and every
module-level function and class, and every method and property of a class, is
read somewhere in the package or in the benchmark that drives it.

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


def definitions(tree: ast.Module) -> list[ast.FunctionDef | ast.ClassDef]:
    """A module's functions and classes, and each class's non-dunder methods and
    properties."""
    found = []
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            found.append(statement)
        if isinstance(statement, ast.ClassDef):
            found += [member for member in statement.body if isinstance(member, ast.FunctionDef)
                      and not (member.name.startswith("__") and member.name.endswith("__"))]
    return found


def unread_definitions(paths: list[Path], readers: list[Path] = ()) -> list[str]:
    """The ``definitions`` of ``paths`` whose name no code of ``paths`` or ``readers``
    reads outside the definition itself, as a plain name, an attribute or an
    ``__all__`` entry."""
    defined, read = [], set()

    def visit(node, owners):   # owners: the checked definitions that enclose node
        for child in ast.iter_child_nodes(node):
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute) else None)
            if name is not None and name not in owners:
                read.add(name)
            visit(child, owners | {child.name} if id(child) in checked else owners)

    for path in [*paths, *readers]:
        tree = ast.parse(path.read_text())
        read |= all_names(tree)
        checked = set()
        if path in paths:
            for node in definitions(tree):
                defined.append((node.name, f"{path.name}:{node.lineno} {node.name}"))
                checked.add(id(node))
        visit(tree, frozenset())
    return [where for name, where in defined if name not in read]


def test_every_definition_is_read_outside_itself():
    # perfbench drives the package from outside, so what it reads counts too.
    unread = unread_definitions(sorted(PACKAGE.glob("*.py")),
                                sorted((PACKAGE.parent.parent / "perfbench").glob("*.py")))
    assert not unread, f"defined but read only by tests or by itself: {unread}"


def test_every_imported_name_is_read():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert not unused, f"imported but never read: {unused}"
