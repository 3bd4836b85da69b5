"""Route independence: no route calls another route to get its answer.

Each route runs on a few cells with the kernels of every other route
replaced by a function that raises, so a route that reaches another one
fails instead of agreeing with it for free.  The routes may share the
layers below them: shapes, apoly, sparse and schursum, with
jacobi_trudi_fold for the alternating and classical routes.

The same calls also check memory lifetime: none leaves a reference cycle
for the cyclic GC, and clearing every memo gives back what a grid of them
allocated.
"""

import gc
import importlib
import pkgutil
import tracemalloc

import pytest
from conftest import ROUTE_MEMOS

import lrpoly
from lrpoly import cli, double_sym, lr, stable_ring, tableaux
from lrpoly.double_sym import c_oracle, classical_lr
from lrpoly.formal_ring import pieri_sides
from lrpoly.involutions import derived_monomial_tableaux
from lrpoly.lr import (
    alternating_product,
    c_alternating,
    c_corollary,
    c_theorem,
    pieri_tableau,
    theorem_product,
)
from lrpoly.shapes import lr_targets, partitions_up_to
from lrpoly.stable_ring import pieri_stable

# (module, name) of every route's kernels, each the way in to one route
KERNELS = {
    "tableau": [(tableaux, "_enumerate")],
    "stable": [(stable_ring, "_pieri"), (stable_ring, "_reduce_row")],
    "oracle": [
        (double_sym, "_schur_sym_branch"), (double_sym, "_sym_mul"), (double_sym, "_decompose_sym"),
    ],
    "classical": [(double_sym, "_classical_table")],
    "pieri_tableau": [(lr, "pieri_tableau")],
}

CELLS = [
    ((2, 1), (2, 1), (3, 2, 1)),
    ((2, 1), (1,), (2, 1, 1)),  # nu_1 < l(nu): the oracle expands the conjugate cell
    ((2,), (2, 1), (3, 2)),
    ((1, 1), (2,), (2, 1)),
]
PAIRS = [((2, 1), (2, 1)), ((3,), (1, 1))]
PIERI_CELLS = [(2, 0, (2, 1)), (3, 1, (2, 1)), (1, 1, (1, 1))]

# route -> (the kernels it owns, its calls); each call is (rule, args)
ROUTES = {
    "theorem": ("tableau", [(c_theorem, cell) for cell in CELLS]
                + [(theorem_product, pair) for pair in PAIRS]),
    "corollary": ("tableau", [(c_corollary, cell) for cell in CELLS]),
    "alternating": ("stable", [(c_alternating, cell) for cell in CELLS]
                    + [(alternating_product, pair) for pair in PAIRS]),
    "oracle": ("oracle", [(c_oracle, cell) for cell in CELLS]),
    "classical": ("classical", [(classical_lr, cell) for cell in CELLS]),
    "pieri_stable": ("stable", [(pieri_stable, cell) for cell in PIERI_CELLS]),
    "pieri_tableau": ("pieri_tableau", [(pieri_tableau, cell) for cell in PIERI_CELLS]),
}


def _clear_memos():
    for memo in ROUTE_MEMOS:
        memo.cache_clear()


def _refuse(name):
    def refuse(*_args, **_kwargs):
        raise AssertionError(f"reached another route's kernel {name}")
    return refuse


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_each_route_runs_without_the_others(route, monkeypatch, clear_oracle_memos):
    owner, calls = ROUTES[route]
    expected = [rule(*args) for rule, args in calls]
    _clear_memos()
    for kernels in (k for name, k in KERNELS.items() if name != owner):
        for module, name in kernels:
            monkeypatch.setattr(module, name, _refuse(f"{module.__name__}.{name}"))
    for (rule, args), want in zip(calls, expected):
        assert rule(*args) == want, (route, rule.__name__, args)
    assert any(expected), route


def test_route_memos_name_every_lru_cache_function():
    # clear_oracle_memos empties ROUTE_MEMOS; a memo missing from it would
    # stay warm across a patch, so it must hold every function of the
    # package that has cache_info
    found = set()
    for info in pkgutil.iter_modules(lrpoly.__path__):
        module = importlib.import_module(f"lrpoly.{info.name}")
        found |= {
            (module.__name__, name)
            for name, value in vars(module).items()
            if hasattr(value, "cache_info") and value.__module__ == module.__name__
        }
    assert {"lrpoly.tableaux", "lrpoly.stable_ring", "lrpoly.double_sym"} <= {m for m, _ in found}
    listed = [(memo.__module__, memo.__name__) for memo in ROUTE_MEMOS]
    assert sorted(listed) == sorted(found)


def _first_of(items):
    """The first item of an iterator, which is then closed early."""
    items = iter(items)
    try:
        return next(items)
    finally:
        items.close()


def _psi_report_cell():
    # a cell with bad stacked tableaux, so psi runs on some of them
    fail, groups = cli._psi_report(cli._psi_shapes((2, 1)), (2, 1), (3, 2, 1), cap=5)
    assert fail is None and groups
    return groups


# calls outside ROUTES that run the package's other recursive searches
SEARCHES = {
    "enumerate_k_tableaux": lambda: tableaux.enumerate_k_tableaux((1, 2), (2, 1), (3, 2, 1)),
    "pieri_sides": lambda: pieri_sides(2, 1, (2, 1), (1, 0)),
    "derived_monomial_tableaux drained": lambda: list(
        derived_monomial_tableaux(3, 1, (2, 1), (3, 2), vmax=3)
    ),
    "derived_monomial_tableaux closed": lambda: _first_of(
        derived_monomial_tableaux(3, 1, (2, 1), (3, 2), vmax=3)
    ),
    "psi_report": _psi_report_cell,
}


def _cyclic_garbage(call):
    """How many objects call leaves in reference cycles, found by one GC pass."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_each_route_leaves_no_cyclic_garbage(route, clear_oracle_memos):
    # every search frees its state by reference counting, with cold memos
    # and again with the memos the first round filled
    _, calls = ROUTES[route]
    for warm in (False, True):
        for rule, args in calls:
            if not warm:
                _clear_memos()
            assert _cyclic_garbage(lambda: rule(*args)) == 0, (route, warm, args)


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_each_search_leaves_no_cyclic_garbage(name, clear_oracle_memos):
    assert _cyclic_garbage(SEARCHES[name]) == 0, (name, "cold")
    assert _cyclic_garbage(SEARCHES[name]) == 0, (name, "warm")


def test_clearing_the_memos_gives_back_what_a_grid_allocated(clear_oracle_memos):
    # one call per route first, so what the interpreter allocates once per
    # code path is not counted
    for _, calls in ROUTES.values():
        rule, args = calls[0]
        rule(*args)
    _clear_memos()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        shapes = partitions_up_to(3)
        for lam in shapes:
            for mu in shapes:
                for nu in lr_targets(lam, mu):
                    c_theorem(lam, mu, nu)
                    c_oracle(lam, mu, nu)
                theorem_product(lam, mu)
                alternating_product(lam, mu)
        _clear_memos()
        gc.collect()
        # the grid leaves 0.5 to 1.3 KiB; one small list kept per search
        # would leave more than 4 KiB
        assert tracemalloc.get_traced_memory()[0] - start < 4 * 1024
    finally:
        tracemalloc.stop()
