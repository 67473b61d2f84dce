"""The package keeps no unused import and no unread private module name.

Read with the standard ``ast`` module alone: each module of ``irlab`` but
``__init__.py`` (whose imports are the public re-exports) loads every name
it imports, and every private name (``_x``) bound at a module's top level is
read somewhere in the package outside its own definition, as a name or as a
module attribute.
"""

import ast
from pathlib import Path

import irlab

PACKAGE = Path(irlab.__file__).resolve().parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _loaded(tree) -> list[str]:
    return [node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)]


def _read(tree) -> list[str]:
    return _loaded(tree) + [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def _private_definitions(tree):
    """(name, statement) for each private name bound at the module's top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


def test_no_module_has_an_unused_import():
    unused = [
        f"{module}: {name}"
        for module, tree in TREES.items()
        if module != "__init__.py"
        for name in set(_imported(tree)) - set(_loaded(tree))
    ]
    assert not unused, sorted(unused)


def test_every_private_module_name_is_read():
    reads = [name for tree in TREES.values() for name in _read(tree)]
    unread = [
        f"{module}: {name}"
        for module, tree in TREES.items()
        for name, node in _private_definitions(tree)
        if reads.count(name) == _read(node).count(name)
    ]
    assert not unread, unread
