"""Route independence: no route calls another route to get its answer.

Each route runs on a few cells with the kernels of every other route
replaced by a function that raises, so a route that reaches another one
fails instead of agreeing with it for free.  The routes may share the
layers below them: shapes, apoly, sparse and schursum, with
jacobi_trudi_fold for the alternating and classical routes.
"""

import importlib
import pkgutil

import pytest
from conftest import ROUTE_MEMOS

import lrpoly
from lrpoly import double_sym, lr, stable_ring, tableaux
from lrpoly.double_sym import c_oracle, classical_lr
from lrpoly.lr import (
    alternating_product,
    c_alternating,
    c_corollary,
    c_theorem,
    pieri_tableau,
    theorem_product,
)
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
