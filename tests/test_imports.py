"""Every name a module of the package imports is read by that module, and every
module-level function and class, and every method and property of a class, is
read somewhere in the package or in the benchmark that drives it.

A deleted function or command easily leaves its imports behind, and a helper
that only its own test calls is dead code; these guards read each module's
syntax tree, so they need no import of the package.  Names listed in a
module's ``__all__`` (the package root's re-exports) count as read.  No
parameter named after a ``RunConfig`` field has a default: that default is
``RunConfig``'s alone.  And in the op, module, loss and evaluation modules,
some call of the package or the benchmark sets each defaulted parameter: a
default that every call leaves alone is a setting only tests use.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "glimpse"
PERFBENCH = PACKAGE.parent.parent / "perfbench"


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
    unread = unread_definitions(sorted(PACKAGE.glob("*.py")), sorted(PERFBENCH.glob("*.py")))
    assert not unread, f"defined but read only by tests or by itself: {unread}"


def test_every_imported_name_is_read():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert not unused, f"imported but never read: {unused}"


def config_fields() -> set[str]:
    """The field names of ``RunConfig``, read from its class body."""
    tree = ast.parse((PACKAGE / "config.py").read_text())
    config, = (node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "RunConfig")
    return {node.target.id for node in config.body if isinstance(node, ast.AnnAssign)}


def defaulted_parameters(path: Path) -> list[tuple[ast.FunctionDef, ast.arg, ast.expr]]:
    """(function, parameter, default) for each parameter of a function or method of
    ``path`` that has a default."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            found += [(node, arg, default) for arg, default in zip(
                positional[len(positional) - len(args.defaults):], args.defaults)]
            found += [(node, arg, default) for arg, default in zip(args.kwonlyargs,
                                                                    args.kw_defaults)
                      if default is not None]
    return found


def test_no_parameter_named_after_a_config_field_has_a_default():
    # A RunConfig field's default belongs to RunConfig: a second copy on a
    # parameter of the same name can drift from it unseen.
    fields = config_fields()
    assert {"fusion", "tau_g", "mask_rate", "seed"} <= fields
    shadowed = [f"{path.name}:{node.lineno} {node.name}({arg.arg}=...)"
                for path in sorted(PACKAGE.glob("*.py"))
                for node, arg, _ in defaulted_parameters(path) if arg.arg in fields]
    assert not shadowed, f"parameters that repeat a RunConfig default: {shadowed}"


# Defaulted parameters that a check below finds, each kept for the reason given.
DEFAULTS_KEPT: dict[str, str] = {}


def call_defaults(path: Path, calls: list[ast.Call]) -> list[str]:
    """``name(parameter): why`` for each defaulted parameter of a function or method
    of ``path`` that no call of ``calls`` sets to another value than its default, or
    whose default no call leaves it at.  A call is matched by the name it calls, a
    class's ``__init__`` by the class's name; it sets a parameter by position or by
    keyword, and one that unpacks ``*`` or ``**`` may set or leave every parameter.
    Other dunder methods (a module's ``__call__``) are reached through instances,
    which a syntax tree does not name, so they are not checked."""
    owners = {member.lineno: node.name for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.ClassDef) for member in node.body}

    def outcomes(call, index, arg, default):
        """Whether ``call`` may set ``arg`` to another value than ``default``, and
        whether it may leave it at ``default``."""
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords):
            return True, True
        value = call.args[index] if index < len(call.args) else next(
            (k.value for k in call.keywords if k.arg == arg.arg), default)
        same = ast.dump(value) == ast.dump(default)
        return not same, same

    found = []
    for function, arg, default in defaulted_parameters(path):
        if function.name.startswith("__") and function.name != "__init__":
            continue
        owner = owners.get(function.lineno)
        name = owner if function.name == "__init__" else function.name
        positional = (function.args.posonlyargs + function.args.args)[1 if owner else 0:]
        index = positional.index(arg) if arg in positional else len(positional)
        sites = [call for call in calls
                 if getattr(call.func, "id", getattr(call.func, "attr", None)) == name]
        results = [outcomes(call, index, arg, default) for call in sites]
        if not any(sets for sets, _ in results):
            found.append(f"{name}({arg.arg}): no call sets it")
        elif not any(keeps for _, keeps in results):
            found.append(f"{name}({arg.arg}): every call sets it")
    return found


def test_every_default_is_both_used_and_overridden_by_some_call():
    # A default that every call of the package and the benchmark leaves alone
    # is a setting, and a branch behind it, that only tests reach; one that
    # every call overrides is a value nothing reads.
    calls = [node for path in [*sorted(PACKAGE.glob("*.py")), *sorted(PERFBENCH.glob("*.py"))]
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)]
    found = {entry.split(": ")[0]: entry for name in ("tensor", "nn", "objectives", "evaluate")
             for entry in (f"{name}.py {e}" for e in call_defaults(PACKAGE / f"{name}.py", calls))}
    assert set(DEFAULTS_KEPT) <= set(found), "an allowed default no longer needs its entry"
    flagged = [entry for key, entry in found.items() if key not in DEFAULTS_KEPT]
    assert not flagged, f"defaults that the calls of src/ and perfbench/ do not need: {flagged}"
