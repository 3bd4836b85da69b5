"""Shared test set-up: derandomized hypothesis, and clean route memos.

Each ``@settings`` in the suite sets only ``max_examples``; the rest comes
from this profile, loaded for the whole session.
"""

import pytest
from hypothesis import settings

from lrpoly import double_sym, lr, shapes, stable_ring, tableaux

settings.register_profile("lrpoly", derandomize=True, database=None, deadline=2000)
settings.load_profile("lrpoly")


# every lru_cache memo of the routes and of the shapes they share, taken
# before any patch replaces one
ROUTE_MEMOS = (
    shapes._partitions,
    shapes._checked_partition,
    tableaux._plan,
    tableaux._entries,
    tableaux._binomial,
    lr._theorem_product,
    stable_ring._reduce_row,
    stable_ring._pieri,
    double_sym._schur_sym_branch,
    double_sym._splits,
    double_sym._product,
    double_sym._stable_product,
    double_sym._classical_table,
)


@pytest.fixture
def clear_oracle_memos():
    """Empty every route memo, the oracle's among them, before and after the test.

    A test that patches double_sym._schur_sym_branch reaches the real memo
    through the recursion, which calls the patched name, so the memo would
    keep the patched values; a warm memo would let a route skip the patched
    kernel altogether.  The memo objects are taken at import: this
    teardown may run before monkeypatch puts the real function back.
    """
    for memo in ROUTE_MEMOS:
        memo.cache_clear()
    yield
    for memo in ROUTE_MEMOS:
        memo.cache_clear()
