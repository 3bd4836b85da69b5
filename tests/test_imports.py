"""Every imported name is used by the module that imports it.

A standard-library stand-in for a linter's unused-import rule, run over the
package and the tests.  An import counts as used when the module reads the
name, lists it in ``__all__``, or re-exports it to a test that imports it
from that module.
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


def _used(tree):
    """Names the module reads, plus the strings in its ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


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
