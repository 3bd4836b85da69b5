"""Reverse tableaux, words, weights, and enumeration."""

from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from lrpoly import tableaux
from lrpoly.apoly import APoly, ONE_MONO, var_key
from lrpoly.involutions import monomial_weight
from lrpoly.double_sym import c_oracle, classical_lr
from lrpoly.lr import (
    alternating_product,
    c_alternating,
    c_corollary,
    c_theorem,
    corollary_product,
    theorem_product,
)
from lrpoly.shapes import (
    compositions_of,
    contains,
    is_partition,
    lr_targets,
    partitions_of,
    partitions_up_to,
    size,
)
from lrpoly.tableaux import (
    ReverseTableau,
    bar,
    plain,
    parse_entry,
    format_entry,
    row_order,
    column_order,
    row_word,
    apply_word,
    tableau_weight,
    enumerate_k_tableaux,
    lr_weight_sum,
    lr_weight_table,
    reading,
)
from definitions import (
    column_word,
    entry_weight,
    expand_monomials,
    enumerate_lr_tableaux,
    enumerate_pieri_tableaux,
    row_order_weight_table,
)

# Worked tableau of shape (3, 6, 1), used as the golden fixture throughout:
# row word 2121 (Yamanouchi from (2,1)), column word 2211 (not Yamanouchi).
GOLDEN = ReverseTableau.from_text("2 2~ 1~\n2 2 2~ 1 1 1~\n1")


def test_text_round_trip():
    assert ReverseTableau.from_text(GOLDEN.to_text()) == GOLDEN
    assert parse_entry("3~") == bar(3)
    assert parse_entry("2'") == plain(2, primed=True)
    assert format_entry(plain(4)) == "4"
    with pytest.raises(ValueError):
        parse_entry("0")


def test_shape_and_validity():
    assert GOLDEN.shape == (3, 6, 1)
    assert GOLDEN.is_valid()
    bad = ReverseTableau([[plain(1), plain(2)]])
    assert not bad.is_valid()


def test_orders():
    shape = (3, 6, 1)
    ro = row_order(shape)
    assert ro[0] == (3, 1) and ro[1] == (2, 1) and ro[-1] == (1, 3)
    co = column_order(shape)
    assert co[0] == (3, 1) and co[1] == (2, 1) and co[2] == (1, 1)
    assert co[-1] == (2, 6)


def test_tableau_weight_empty_product():
    T = ReverseTableau([[bar(1)]])
    assert tableau_weight(T, (), "row") == APoly.one()


def test_expand_monomials_sums_to_weight():
    for order in ("row", "column"):
        total = APoly.zero()
        for U, mono in expand_monomials(GOLDEN, (2, 1), order):
            total = total + mono
        assert total == tableau_weight(GOLDEN, (2, 1), order)
    # 6 plain entries -> 2^6 primed variants
    assert len(expand_monomials(GOLDEN, (2, 1), "row")) == 2**6


def test_enumerate_lr_basic():
    # single box: exactly one tableau per way of adding the box
    ts = enumerate_lr_tableaux((1,), (), (1,))
    assert [T.to_text() for T in ts] == ["1~"]
    # no tableaux when nu does not contain mu
    assert enumerate_lr_tableaux((1,), (2,), (1, 1)) == []
    # mu longer than nu is not inside it either
    assert enumerate_lr_tableaux((1,), (1, 1), (2,)) == []
    assert enumerate_k_tableaux((1,), (1, 1), (2,)) == []
    assert lr_weight_sum((1,), (1, 1), (2,), "row") == {}
    assert lr_weight_sum((1,), (1, 1), (2,), "column") == {}


def test_enumerate_lr_cap_insensitive():
    # enlarging the plain-value cap does not add tableaux: the weight of a
    # plain value above l(nu) vanishes only in aggregate, but the defining
    # conditions already bound the values
    for lam, mu, nu in [((2, 1), (1,), (2, 1)), ((2,), (2,), (3, 1))]:
        base = enumerate_lr_tableaux(lam, mu, nu)
        wider = enumerate_lr_tableaux(lam, mu, nu, cap=len(nu) + 2)
        for T in base:
            assert T in wider


def test_enumerate_pieri_single_row():
    ts = enumerate_pieri_tableaux(2, 0, (1,), (2, 1))
    for T in ts:
        assert T.shape == (2,)
        nu, yam = apply_word((1,), row_word(T))
        assert nu == (2, 1) and yam


def test_enumerate_k_tableaux_shapes_and_words():
    for T in enumerate_k_tableaux((1, 2), (1,), (2, 1)):
        assert T.shape == (1, 2)
        nu, yam = apply_word((1,), row_word(T))
        assert nu == (2, 1) and yam


# stacked shapes of at most three rows and 1..4 boxes, over small mu
_kappas = st.sampled_from([k for n in range(1, 5) for k in compositions_of(n, 3)])
_small_mu = st.sampled_from(partitions_up_to(3))


@settings(max_examples=300)
@given(_kappas, _small_mu, st.data())
def test_weights_agree_on_random_stacked_tableaux(kappa, mu, data):
    # the three ways of weighing a tableau agree: its primed variants'
    # monomials, monomial_weight of each variant (row order), and the
    # product of its entry weights
    nu = data.draw(st.sampled_from([
        nu
        for extra in range(size(kappa) + 1)
        for nu in partitions_of(size(mu) + extra)
        if contains(nu, mu)
    ]))
    for T in enumerate_k_tableaux(kappa, mu, nu, cap=4):
        plain_boxes = [box for box in row_order(T.shape) if not T.entry(*box).barred]
        for order in ("row", "column"):
            weight = tableau_weight(T, mu, order)
            total = APoly.zero()
            for U, mono in expand_monomials(T, mu, order):
                total += mono
                if order == "row":
                    assert monomial_weight(U, mu) == mono, U.to_text()
            assert total == weight, (T.to_text(), order)
            product = APoly.one()
            for box in plain_boxes:
                product = product * entry_weight(T, mu, box, order)
            assert product == weight, (T.to_text(), order)


def test_lr_weight_table_matches_lr_weight_sum_on_the_weight_5_grid():
    # one search with no nu bound files every filling under the nu it ends
    # on: each of the 342 pairs, in both orders, must give every cell's sum
    cells = 0
    for lam in partitions_up_to(5):
        if not lam:
            continue
        for mu in partitions_up_to(5):
            targets = lr_targets(lam, mu)
            for order in ("row", "column"):
                table = lr_weight_table(lam, mu, order)
                assert set(table) <= set(targets), (lam, mu, order)
                assert all(table.values()), (lam, mu, order)
                for nu in targets:
                    if contains(nu, mu):
                        cells += 1
                        assert table.get(nu, {}) == lr_weight_sum(lam, mu, nu, order), (
                            lam, mu, nu, order)
    assert cells == 2 * 10700
    for mu in partitions_up_to(3):
        for order in ("row", "column"):
            assert lr_weight_table((), mu, order) == {mu: {ONE_MONO: 1}}
    with pytest.raises(ValueError):
        lr_weight_table((1,), (), "diagonal")
    with pytest.raises(ValueError, match="must be partitions"):
        lr_weight_table((1,), (1, 2), "row")


def test_row_order_weights_at_placement_match_the_leaf_pass():
    # the search multiplies a row-order weight up as it places boxes in
    # column order; the reference walks each finished filling in row order
    pairs = [(lam, mu) for lam in partitions_up_to(4) for mu in partitions_up_to(4)]
    pairs.append(((4, 3, 2, 1), (3, 2, 1)))  # 98% of its fillings have a zero binomial
    for lam, mu in pairs:
        assert lr_weight_table(lam, mu, "row") == row_order_weight_table(lam, mu), (lam, mu)
    assert theorem_product((4, 3, 2, 1), (3, 2, 1)) == corollary_product((4, 3, 2, 1), (3, 2, 1))


def test_plain_rho_is_order_free_and_never_below_content():
    # at a plain k in box (i, j) the boxes only one order reads first hold
    # values above k (up and left) or below k (down and right), so rho_k is
    # the same in both orders; and in either reading the first plain entry
    # with rho_k <= c has rho_k = c, so a nonzero weight never has rho_k < c
    seen = 0
    for lam in partitions_up_to(4):
        for mu in partitions_up_to(4):
            for nu in lr_targets(lam, mu):
                for T in enumerate_lr_tableaux(lam, mu, nu):
                    seen += 1
                    plain_rho = {}
                    for order in ("row", "column"):
                        walk = [(i, j, rk) for i, j, e, rk in reading(T, mu, order) if not e.barred]
                        first = next((rk - (j - i) for i, j, rk in walk if rk <= j - i), 0)
                        assert first == 0, (T.to_text(), mu, order)
                        plain_rho[order] = {(i, j): rk for i, j, rk in walk}
                    assert plain_rho["row"] == plain_rho["column"], (T.to_text(), mu)
    assert seen == 5704


def test_every_nu_search_finds_exactly_the_fillings_of_each_cell():
    # with no nu bound the search must visit each cell's LR tableaux once,
    # and nothing else: a filling whose plain values exceed the length of
    # the nu it ends on is not counted, though such weights cancel in sum
    for lam in partitions_up_to(4):
        for mu in partitions_up_to(4):
            found = Counter()
            cap = len(mu) + len(lam)
            for T in tableaux._tableaux(lam, "column", mu, None, (cap,) * len(lam), True):
                found[apply_word(mu, column_word(T))[0], T] += 1
            expected = Counter(
                (nu, T)
                for nu in lr_targets(lam, mu)
                if contains(nu, mu)
                for T in enumerate_lr_tableaux(lam, mu, nu)
            )
            assert found == expected, (lam, mu)


def _clear_memos():
    for memo in (tableaux._plan, tableaux._entries, tableaux._binomial):
        memo.cache_clear()


def _memo_probes():
    """(label, thunk) for every search over |lam| <= 4, |mu| <= 3, interleaved per shape.

    Each shape first asks for the row-order plan with strict columns, which
    no caller uses, and the column-order plan without, which only reading
    uses, then runs the column-strict LR search, per cell and with no nu
    bound, and the row-order stacked and Pieri searches on it, so a memo
    key that drops order or column_strict hands a search the wrong plan.
    |lam| reaches 4 because (2, 2) is the smallest shape whose row and
    column orders differ.
    """
    probes = []
    for lam in partitions_up_to(4):
        for order, strict in (("column", False), ("row", True), ("column", True), ("row", False)):
            probes.append((("plan", lam, order, strict), partial(tableaux._plan, lam, order, strict)))
        for mu in partitions_up_to(3):
            for nu in lr_targets(lam, mu):
                cell = (lam, mu, nu)
                probes.append((("lr",) + cell, partial(enumerate_lr_tableaux, *cell)))
                probes.append((("k",) + cell, partial(enumerate_k_tableaux, *cell)))
                if len(lam) == 1:
                    for e in (0, 1):
                        args = (lam[0], e, mu, nu)
                        probes.append((("pieri",) + args, partial(enumerate_pieri_tableaux, *args)))
                for order in ("row", "column"):
                    probes.append(((order,) + cell, partial(lr_weight_sum, *cell, order)))
            for order in ("row", "column"):
                probes.append((("table", lam, mu, order), partial(lr_weight_table, lam, mu, order)))
    return probes


def test_memos_match_cold_results():
    # warm every memo with the interleaved searches, then rerun each one
    # alone on cleared memos: a shared plan, entry table or binomial that a
    # search corrupted, or served under the wrong key, changes a result
    probes = _memo_probes()
    _clear_memos()
    for _, thunk in probes:  # fill the memos in interleaved order
        thunk()
    warm = {label: thunk() for label, thunk in probes}
    shapes = {label[1] for label in warm if label[0] == "plan"}
    for shape in shapes:
        for order in ("row", "column"):
            for strict in (False, True):
                fresh = tableaux._plan.__wrapped__(shape, order, strict)
                assert tableaux._plan(shape, order, strict) == fresh, (shape, order, strict)
    for top in range(1, 8):
        assert tableaux._entries(top) == tableaux._entries.__wrapped__(top)
    for p in range(-6, 7):
        for q in range(-6, 7):
            assert tableaux._binomial(p, q) == {var_key(p): 1, var_key(q): -1}, (p, q)
    for label, thunk in probes:
        _clear_memos()
        assert thunk() == warm[label], label


# a non-partition lam, mu or nu, including cells the tableau rules skip as
# zero (mu not inside nu, nu too large) before any search runs
NON_PARTITION_CELLS = [
    ((1, 2), (), (2, 1)),
    ((1, 2), (1,), (2, 2)),
    ((2, 0, 1), (1,), (5,)),
    ((1,), (1, 2), (2, 2)),
    ((1,), (1, 2), (1, 1)),
    ((1,), (1,), (1, 2)),
    ((2,), (), (1, 2)),
    ((2, 1), (1, 0, 2), (2, 2, 2)),
]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_non_partition_mu_or_nu_raises(warm):
    # every route, per cell and per product, refuses the cell in the same way
    _clear_memos()
    cell_rules = [
        c_theorem,
        c_corollary,
        partial(lr_weight_sum, order="row"),
        partial(lr_weight_sum, order="column"),
        c_alternating,
        c_oracle,
        classical_lr,
    ]
    product_rules = [
        theorem_product,
        corollary_product,
        alternating_product,
        partial(lr_weight_table, order="row"),
        partial(lr_weight_table, order="column"),
    ]
    if warm:  # every route first runs on the cell with its shapes sorted
        for cell in NON_PARTITION_CELLS:
            lam, mu, nu = (tuple(sorted(shape, reverse=True)) for shape in cell)
            for rule in cell_rules:
                rule(lam, mu, nu)
            for rule in product_rules:
                rule(lam, mu)
    for lam, mu, nu in NON_PARTITION_CELLS:
        calls = [partial(rule, lam, mu, nu) for rule in cell_rules]
        if not (is_partition(lam) and is_partition(mu)):
            calls += [partial(rule, lam, mu) for rule in product_rules]
        for call in calls:
            with pytest.raises(ValueError, match="must be partitions"):
                call()
