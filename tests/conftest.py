"""Shared test set-up: derandomized hypothesis, and clean oracle memos.

Each ``@settings`` in the suite sets only ``max_examples``; the rest comes
from this profile, loaded for the whole session.
"""

import pytest
from hypothesis import settings

from lrpoly import double_sym

settings.register_profile("lrpoly", derandomize=True, database=None, deadline=2000)
settings.load_profile("lrpoly")


@pytest.fixture
def clear_oracle_memos():
    """Empty the oracle's memos before and after the test.

    A test that patches double_sym._schur_sym_branch reaches the real memo
    through the recursion, which calls the patched name, so the memo would
    keep the patched values.  The memo objects are taken at set-up: this
    teardown may run before monkeypatch puts the real function back.
    """
    memos = (double_sym._schur_sym_branch, double_sym._product)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
