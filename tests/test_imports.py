"""Every imported name is used, and every package definition is read.

A standard-library stand-in for a linter's unused-import and dead-code
rules, run over the package and the tests.  An import counts as used when
the module reads the name, lists it in ``__all__``, or re-exports it to a
test that imports it from that module.  A module-level function, class or
assigned name of the package counts as read when some package or test file
loads it as a name, reads it as an attribute, imports it by name or lists
it in ``__all__``.  A parameter of a package function, other than
``self``, ``cls`` and names starting with ``_``, counts as used when the
function's body loads it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lrpoly"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _imports(tree):
    """(bound name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _all_entries(tree):
    """The strings listed in the module's ``__all__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from ast.literal_eval(node.value)


def _used(tree):
    """Names the module reads, plus the strings in its ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | set(_all_entries(tree))


def _reads(tree):
    """Names the module loads, reads as attributes, imports or exports."""
    reads = set(_all_entries(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


def _definitions(tree):
    """(name, line) for every module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id != "__all__":
                        yield name.id, node.lineno


def _unread_parameters(tree):
    """(function, parameter, line) for every parameter its function never loads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        loaded = {
            name.id
            for stmt in node.body
            for name in ast.walk(stmt)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        for param in params:
            name = param.arg
            if name not in loaded and name not in ("self", "cls") and not name.startswith("_"):
                yield node.name, name, node.lineno


def _reexports(trees):
    """Package module path -> names that some test imports from it."""
    out = {}
    for path, tree in trees.items():
        if path.parent.name != "tests":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "lrpoly."
            ):
                target = PACKAGE / (node.module.split(".", 1)[1] + ".py")
                out.setdefault(target, set()).update(a.name for a in node.names)
    return out


def test_no_unused_imports():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    reexported = _reexports(trees)
    unused = []
    for path, tree in trees.items():
        used = _used(tree) | reexported.get(path, set())
        unused += [
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in _imports(tree)
            if name not in used
        ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_no_unused_definitions():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    reads = set().union(*map(_reads, trees.values()))
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name, line in _definitions(tree)
        if name not in reads
    ]
    assert not unused, "unused definitions:\n" + "\n".join(unused)


def test_no_unused_parameters():
    unread = [
        f"{path.relative_to(ROOT)}:{line}: {func}({param})"
        for path in SOURCES
        if path.parent == PACKAGE
        for func, param, line in _unread_parameters(ast.parse(path.read_text(), str(path)))
    ]
    assert not unread, "parameters never read:\n" + "\n".join(unread)
