"""Every imported name is used, and every package definition is read.

A standard-library stand-in for a linter's unused-import and dead-code
rules, run over the package and the tests.  An import counts as used when
the module reads the name, or re-exports it to a test that imports it from
that module; a listing in ``__all__`` is not a read.  A module-level
function, class or assigned name of a package module counts as read when
that module loads it as a name, or some other package module imports it
from that module or reads it as ``<alias of that module>.<name>``.  The
package's ``__init__`` holds only its docstring, and nothing reads
``lrpoly.<name>``, so a name it imports would be a re-export, not a read.
A method of a package class, other than a dunder, counts as read when a
package module or a benchmark file (``perfbench/*.py``, the one caller
outside the tests) reads ``.<name>`` off any value.  A read of the same
name from another module does not count, and neither does a read from a
test: a definition only the tests read belongs in
``tests/definitions.py``.  A parameter of a package function, other than
``self``, ``cls`` and names starting with ``_``, counts as used when the
function's body loads it.  Every module-level definition of
``tests/definitions.py`` must be imported from it, or read off it as an
attribute, by some ``tests/test_*.py``, so no reference outlives the
tests that compare with it.

Every memo of the package is a ``functools.lru_cache`` function, which
answers ``cache_info()`` and ``cache_clear()``: no package module binds an
empty ``{}``, ``[]``, ``dict()`` or ``set()`` at module level, the start
of a hand-rolled memo.

One more check keeps ``shapes.jacobi_trudi_fold`` the only Jacobi-Trudi
expansion of the routes: no package module but ``formal_ring``, whose
free-ring determinant stays a permutation sum, takes
``itertools.permutations``, by name or as an attribute.

Another keeps one reading order in the package: no package function takes
a parameter named ``order``, and no package module but ``tableaux`` reads
the search plan ``_plan``.  The package reads a tableau in row order only;
the column order of the paper's Corollary is read in
``tests/definitions.py`` (``reading_in``, ``weight_in``).

Importing the package and its CLI leaves ``fractions`` unloaded: it and
the ``decimal`` module it pulls in are most of the import time, and no
package module needs them; the exact evaluation of a polynomial,
``definitions.substitute``, is read by the tests alone.

Another keeps ``shapes.lr_targets`` the one place that drops the targets
nu that do not contain mu: no ``for`` loop or comprehension over an
``lr_targets(lam, mu)`` call, in the package or the tests, tests
``contains(nu, mu)`` in an ``if`` directly inside it.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lrpoly"
PACKAGE_SOURCES = sorted(PACKAGE.glob("*.py"))
SOURCES = PACKAGE_SOURCES + sorted((ROOT / "tests").glob("*.py"))
BENCHMARK_SOURCES = sorted((ROOT / "perfbench").glob("*.py"))


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
    """Names the module reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _module_name(path):
    """Dotted module name of a package source file."""
    return "lrpoly" if path.stem == "__init__" else f"lrpoly.{path.stem}"


def _dotted(node):
    """'a.b.c' for a name or a chain of attributes on one, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _reads(path, tree):
    """(module, name) for every module-level name the file reads, by module.

    The file reads from itself the names it loads, from another module the
    names it imports from it, and from any module bound to a local name the
    attributes it reads off that name.
    """
    here = _module_name(path)
    reads = set()
    modules = {}  # local name -> dotted name of the module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                modules[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            # relative imports occur only inside the package
            source = ".".join(filter(None, ["lrpoly" if node.level else None, node.module]))
            for alias in node.names:
                reads.add((source, alias.name))
                modules[alias.asname or alias.name] = f"{source}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add((here, node.id))
        elif isinstance(node, ast.Attribute) and (base := _dotted(node.value)):
            head, _, rest = base.partition(".")
            if head in modules:
                reads.add((".".join(filter(None, [modules[head], rest])), node.attr))
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


def _methods(tree):
    """(class, method, line) for every method of a module-level class but the dunders."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield node.name, item.name, item.lineno


def _attributes_read(path):
    """Every attribute name the file loads, off any value."""
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _parameters(args):
    """Every parameter of an ast.arguments, positional, keyword and starred."""
    params = args.posonlyargs + args.args + args.kwonlyargs
    return params + [a for a in (args.vararg, args.kwarg) if a is not None]


def _unread_parameters(tree):
    """(function, parameter, line) for every parameter its function never loads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = _parameters(node.args)
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
    source = "class C:\n    def f(self): pass\n    def _g(self): pass\n    def __eq__(s, o): pass"
    assert [method for _, method, _ in _methods(ast.parse(source))] == ["f", "_g"]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PACKAGE_SOURCES}
    reads = set().union(*(
        _reads(path, tree) for path, tree in trees.items() if path.stem != "__init__"
    ))
    attributes = set().union(*map(_attributes_read, PACKAGE_SOURCES + BENCHMARK_SOURCES))
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, tree in trees.items()
        for name, line in _definitions(tree)
        if (_module_name(path), name) not in reads
    ] + [
        f"{path.relative_to(ROOT)}:{line}: {cls}.{method}"
        for path, tree in trees.items()
        for cls, method, line in _methods(tree)
        if method not in attributes
    ]
    assert not unused, "unused definitions:\n" + "\n".join(unused)


def test_every_test_definition_is_read_by_a_test():
    definitions = ROOT / "tests" / "definitions.py"
    reads = set().union(*(
        _reads(path, ast.parse(path.read_text(), str(path)))
        for path in sorted((ROOT / "tests").glob("test_*.py"))
    ))
    defined = list(_definitions(ast.parse(definitions.read_text(), str(definitions))))
    assert defined
    unread = [
        f"{definitions.relative_to(ROOT)}:{line}: {name}"
        for name, line in defined
        if ("definitions", name) not in reads
    ]
    assert not unread, "definitions no test reads:\n" + "\n".join(unread)


def test_no_unused_parameters():
    unread = [
        f"{path.relative_to(ROOT)}:{line}: {func}({param})"
        for path in PACKAGE_SOURCES
        for func, param, line in _unread_parameters(ast.parse(path.read_text(), str(path)))
    ]
    assert not unread, "parameters never read:\n" + "\n".join(unread)


def _empty_containers(tree):
    """(name, line) for every module-level name bound to an empty dict, list or set."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        empty = (
            isinstance(value, ast.Dict) and not value.keys
            or isinstance(value, ast.List) and not value.elts
            or isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "set")
            and not value.args
            and not value.keywords
        )
        if empty:
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def test_every_memo_is_an_lru_cache():
    for source in ("_M = {}", "_M = []", "_M = dict()", "_M = set()", "_M: dict = {}"):
        assert [name for name, _ in _empty_containers(ast.parse(source))] == ["_M"], source
    for source in ("_M = {1: 2}", "_M = [0]", "_M = set(x)", "def f():\n    m = {}"):
        assert not list(_empty_containers(ast.parse(source))), source
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in PACKAGE_SOURCES
        for name, line in _empty_containers(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, "module-level empty containers (use functools.lru_cache):\n" + "\n".join(found)


def _permutations_uses(tree):
    """Lines where the module takes itertools.permutations, by import or attribute."""
    itertools_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "itertools"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            if any(alias.name == "permutations" for alias in node.names):
                yield node.lineno
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "permutations"
            and isinstance(node.value, ast.Name)
            and node.value.id in itertools_names
        ):
            yield node.lineno


def test_only_formal_ring_walks_permutations():
    """The routes expand Jacobi-Trudi determinants by jacobi_trudi_fold only.

    formal_ring.jacobi_trudi keeps its permutation walk on measured grounds:
    its factors are cheap word inserts, so the fold's merged states save
    nothing there, while the fold pays off for Pieri products.  Folding it
    (with the source row passed to ``times`` and a sorted-threshold Hall
    cut) raised the median ring case from 0.062 to 0.103 ms, and walking
    the positions upward slowed alternating_product on the weight-5 grid
    from about 0.59 to 0.79 s.
    """
    for source in (
        "from itertools import product, permutations",
        "import itertools\nitertools.permutations(range(3))",
        "import itertools as it\nit.permutations(range(3))",
    ):
        assert list(_permutations_uses(ast.parse(source))), source
    uses = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in PACKAGE_SOURCES
        if path.stem != "formal_ring"
        for line in _permutations_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert not uses, "itertools.permutations outside formal_ring:\n" + "\n".join(uses)


def _order_parameters(tree):
    """(function, line) for every function or lambda with a parameter named order."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if any(param.arg == "order" for param in _parameters(node.args)):
                yield getattr(node, "name", "<lambda>"), node.lineno


def test_the_package_reads_tableaux_in_row_order_only():
    """No package function takes an order, and only tableaux reads its search plan.

    Every LR tableau weighs the same in row and in column order, so one
    search serves the paper's Theorem and its Corollary, and the package
    reads a tableau in row order only.  The column order stays in the
    tests, as the Corollary's reference.  The plan is keyed by
    column_strict alone, so a module outside tableaux that borrowed one
    would be choosing a search's traversal.
    """
    for source in (
        "def reading(T, mu, order):\n    pass",
        "def f(T, *, order=None):\n    pass",
        "f = lambda T, order: T",
    ):
        assert list(_order_parameters(ast.parse(source))), source
    assert not list(_order_parameters(ast.parse("def f(T, mu):\n    order = mu")))
    plan = ("lrpoly.tableaux", "_plan")
    for source in (
        "from .tableaux import _plan",
        "from . import tableaux\ntableaux._plan(shape, False)",
    ):
        assert plan in _reads(PACKAGE / "involutions.py", ast.parse(source)), source
    found = []
    for path in PACKAGE_SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        found += [
            f"{path.relative_to(ROOT)}:{line}: {func}(order)"
            for func, line in _order_parameters(tree)
        ]
        if path.stem != "tableaux" and plan in _reads(path, tree):
            found.append(f"{path.relative_to(ROOT)}: reads tableaux._plan")
    assert not found, "a second reading order in the package:\n" + "\n".join(found)


def _calls(node, name):
    """True iff node calls name, bare or as an attribute."""
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def _target_filters(tree):
    """Lines where a loop over lr_targets(lam, mu) tests contains(nu, mu) in a direct if.

    The loop is a for statement, whose if statements in its body count, or
    a comprehension, whose ifs count; nu is its target and mu the call's
    second argument.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            tests = [stmt.test for stmt in node.body if isinstance(stmt, ast.If)]
        elif isinstance(node, ast.comprehension):
            tests = node.ifs
        else:
            continue
        if not (_calls(node.iter, "lr_targets") and isinstance(node.target, ast.Name)):
            continue
        nu, mu = node.target.id, ast.dump(node.iter.args[1])
        for test in tests:
            for call in ast.walk(test):
                if (
                    _calls(call, "contains")
                    and getattr(call.args[0], "id", None) == nu
                    and ast.dump(call.args[1]) == mu
                ):
                    yield call.lineno


def test_no_caller_filters_lr_targets_by_containment():
    """shapes.lr_targets alone decides that a target nu contains mu.

    c^nu_{lam,mu}(a) vanishes unless nu contains mu, so every coefficient
    grid reads only those nu; a caller that filters again keeps a second
    copy of the rule.  Grids that read every nu on purpose take
    definitions.every_target.
    """
    for source in (
        "[nu for nu in lr_targets(lam, mu) if contains(nu, mu)]",
        "[nu for nu in shapes.lr_targets(k, m) if nu and contains(nu, m)]",
        "for nu in lr_targets(lam, mu):\n    if not contains(nu, mu):\n        continue",
    ):
        assert list(_target_filters(ast.parse(source))), source
    for source in (
        "[nu for nu in lr_targets(lam, mu) if not contains(nu, lam)]",
        "[nu for nu in every_target(lam, mu) if contains(nu, mu)]",
        "for nu in lr_targets(lam, mu):\n    x = contains(nu, mu)",
    ):
        assert not list(_target_filters(ast.parse(source))), source
    filters = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in SOURCES
        for line in _target_filters(ast.parse(path.read_text(), str(path)))
    ]
    assert not filters, "lr_targets filtered by containment again:\n" + "\n".join(filters)


def test_importing_the_package_leaves_fractions_unloaded():
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
        "import lrpoly, lrpoly.cli; print('fractions' in sys.modules)"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    assert run.stdout == "False\n", run.stderr
