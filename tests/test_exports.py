"""The package's export list matches what it defines, every public name has a
reader, every private helper has a caller, and every module attribute the
docs name exists."""

import ast
import builtins
import importlib
import io
import os
import re
import subprocess
import sys
import tokenize
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


def _defined_functions(trees: dict):
    """(file, class name or None, function node) of every function the
    package defines, methods included."""
    for file, tree in trees.items():
        methods = {
            id(node): cls.name
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield file, methods.get(id(node)), node


def _callee(func: ast.expr) -> tuple[str | None, bool]:
    """The name a call's function is read by, and whether as an attribute."""
    if isinstance(func, ast.Name):
        return func.id, False
    if isinstance(func, ast.Attribute):
        return func.attr, True
    return None, False


def test_every_defaulted_parameter_is_set_by_some_call():
    # A default that no package call overrides is a knob nobody turns. A
    # call sets a parameter by position or by keyword; partial(f, ...) is a
    # call of f, and the keywords given to a local callable (what a partial
    # becomes) in the module that builds the partial count for f as well.
    # Calling a class calls its __init__; an attribute call of a method
    # passes self. The console entry main(argv) is exempt.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    positions: dict = {}
    keywords: dict = {}
    for tree in trees.values():
        wrapped, local_keywords = set(), set()
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            name, attribute = _callee(call.func)
            args = [arg for arg in call.args if not isinstance(arg, ast.Starred)]
            if name is None:
                continue
            if name == "partial" and args:
                (name, _), attribute, args = _callee(args[0]), False, args[1:]
                wrapped.add(name)
            elif not attribute and name not in defined and not hasattr(builtins, name):
                local_keywords.update(k.arg for k in call.keywords)
            positions.setdefault(name, []).append((len(args), attribute))
            keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
        for name in wrapped:
            keywords[name] |= local_keywords
    unset = []
    for file, cls, node in _defined_functions(trees):
        if (file, node.name) == ("cli.py", "main"):
            continue
        name = cls if node.name == "__init__" else node.name
        params = node.args.posonlyargs + node.args.args
        defaulted = list(enumerate(params))[len(params) - len(node.args.defaults):]
        defaulted += [(None, p) for p, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d]
        for index, param in defaulted:
            by_position = index is not None and any(
                count + (cls is not None and (attribute or name == cls)) > index
                for count, attribute in positions.get(name, [])
            )
            if not by_position and param.arg not in keywords.get(name, ()):
                unset.append(f"{file}: {node.name}.{param.arg}")
    assert unset == []


def test_every_public_method_has_a_reader():
    # A public method that no package module reads and the README never
    # mentions is production code kept only for the tests.
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    read = {name for tree in trees for name in _references(tree)}
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    unread = [
        f"{cls.name}.{node.name}"
        for tree in trees
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in read
        and not re.search(rf"\b{re.escape(node.name)}\b", readme)
    ]
    assert unread == []


def test_every_public_field_has_a_reader():
    # The rule above for the fields of a dataclass: a field that no package
    # module reads as an attribute, and the README never names, is data
    # kept only for the tests.
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    unread = [
        f"{cls.name}.{node.target.id}"
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and any(
            "dataclass" in ast.unparse(decorator) for decorator in cls.decorator_list)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        and not node.target.id.startswith("_")
        and node.target.id not in read
        and not re.search(rf"\b{re.escape(node.target.id)}\b", readme)
    ]
    assert unread == []


def _raised(tree: ast.AST):
    """The names of the exceptions a syntax tree raises, called or bare."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def test_every_exception_class_has_a_raise_site():
    # A class that nothing raises and nothing subclasses is left behind by
    # the last rule that raised it; a base class is there to be caught.
    from pideg import errors

    classes = [value for value in vars(errors).values()
               if isinstance(value, type) and value.__module__ == errors.__name__]
    leaves = {cls.__name__ for cls in classes
              if not any(other is not cls and issubclass(other, cls) for other in classes)}
    raised = {name for path in PACKAGE.glob("*.py") for name in _raised(ast.parse(path.read_text()))}
    assert sorted(leaves - raised) == []
    assert {cls.__name__ for cls in classes} - leaves == {"PidegError"}


def test_ell_has_one_rule():
    # Every route asks one function whether ell is allowed.
    sites = [
        f"{path.name}:{number}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "ell must be at least 2" in line
    ]
    assert len(sites) == 1, sites


def test_every_refusal_has_one_raise_site():
    # A refusal whose message is raised at two sites is one rule written
    # out twice. InternalVerificationFailed is no refusal, since it does not
    # subclass PidegError: _reduce and _residue_reduce are twins on purpose.
    from pideg import errors

    refusals = {name for name, value in vars(errors).items()
                if isinstance(value, type) and issubclass(value, errors.PidegError)}
    sites: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            call = node.exc if isinstance(node, ast.Raise) else None
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id in refusals and call.args):
                sites.setdefault(ast.unparse(call.args[0]), []).append(f"{path.name}:{node.lineno}")
    assert {message: where for message, where in sites.items() if len(where) > 1} == {}


# A dotted name such as residues._certify, after a module of the package; a
# file name such as residues.py is no attribute.
DOTTED = re.compile(r"\b(intlinalg|residues|reps|degrees|diagrams|pipedreams|sweep|cli)\.(?!py\b)([A-Za-z_]\w*)")


def _docs():
    """(place, text) of each docstring and comment of the package, and of
    the README."""
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if ast.get_docstring(node) is not None:
                    yield f"{path.name}:{node.body[0].lineno}", node.body[0].value.value
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield f"{path.name}:{token.start[0]}", token.string
    yield "README.md", (PACKAGE.parent.parent / "README.md").read_text()


def test_every_dotted_name_in_the_docs_resolves():
    # A docstring, comment or README line that names module.attribute for a
    # function since renamed or deleted points the reader at nothing.
    missing = [
        f"{place}: {match[0]}"
        for place, text in _docs()
        for match in DOTTED.finditer(text)
        if not hasattr(importlib.import_module(f"pideg.{match[1]}"), match[2])
    ]
    assert missing == []


def test_intlinalg_names_nothing_of_the_route_mod_n():
    # residues reads intlinalg, never the other way round: the route mod N
    # is decided in one module.
    tree = ast.parse((PACKAGE / "intlinalg.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(*(alias.name.split(".") for alias in node.names))
            names.update((getattr(node, "module", None) or "").split("."))
    assert names & {"residues", "RANK_PRIME", "_residue_factors"} == set()


def test_residues_is_imported_on_first_use():
    # The commands that reduce only over Z never load the route mod N.
    script = (
        "import sys\n"
        "import pideg.cli\n"
        "before = 'pideg.residues' in sys.modules\n"
        "pideg.pi_degree_qas(pideg.SkewIntMatrix(((0, 1), (-1, 0))), 3)\n"
        "print(before, 'pideg.residues' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert (done.stdout, done.stderr) == ("False True\n", "")
