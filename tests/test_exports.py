"""The package's export list matches what it defines, every public name has a
reader, and every private helper has a caller."""

import ast
import re
import types
from collections import Counter
from pathlib import Path

import pideg

PACKAGE = Path(pideg.__file__).resolve().parent


def test_all_lists_every_public_name():
    public = [
        name
        for name, value in vars(pideg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(pideg.__all__) == sorted(public)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from pideg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(pideg.__all__)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _names_read(tree: ast.AST):
    """The bare names and the imported names a syntax tree reads; an
    attribute such as log.extend is not a read of the name extend."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _references(tree: ast.AST):
    """The names a syntax tree reads: bare names, attributes and imports."""
    yield from _names_read(tree)
    yield from (node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def _module_definitions(tree: ast.Module):
    """(name, defining statement) for each name a module binds at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node


def test_every_private_helper_has_a_caller():
    # A module-level private name that nothing else in the package reads is
    # dead code: a helper left behind when its last caller went away.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reads = Counter(name for tree in trees.values() for name in _references(tree))
    orphans = [
        f"{file}: {name}"
        for file, tree in trees.items()
        for name, node in _module_definitions(tree)
        if _private(name) and reads[name] == Counter(_references(node))[name]
    ]
    assert orphans == []



def test_every_public_name_has_a_reader():
    # A public name that no package module reads and the README never
    # mentions is production code kept only for the tests.
    read = {
        name
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"
        for name in _names_read(ast.parse(path.read_text()))
    }
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    unread = [
        name for name in pideg.__all__
        if name not in read and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unread == []
