"""Reverse tableaux, words, weights, and enumeration."""

from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from lrpoly import lr, shapes, tableaux
from lrpoly.apoly import APoly, ONE_MONO, var_key
from lrpoly.involutions import monomial_weight
from lrpoly.double_sym import c_oracle, classical_lr
from lrpoly.lr import (
    alternating_product,
    c_alternating,
    c_corollary,
    c_theorem,
    kostka,
    pieri_tableau,
    theorem_product,
)
from lrpoly.shapes import (
    compositions_of,
    conjugate,
    contains,
    is_partition,
    lr_targets,
    pad,
    partitions_up_to,
)
from lrpoly.stable_ring import pieri_stable
from lrpoly.tableaux import (
    Entry,
    ReverseTableau,
    format_entry,
    row_order,
    column_order,
    row_word,
    apply_word,
    tableau_weight,
    enumerate_k_tableaux,
    lr_weight_table,
    reading,
)
from definitions import (
    column_word,
    degree,
    entry_weight,
    expand_monomials,
    enumerate_lr_tableaux,
    enumerate_pieri_tableaux,
    every_target,
    reading_in,
    row_order_weight_table,
    tableau_from_text,
    weight_in,
)

# Worked tableau of shape (3, 6, 1), used as the golden fixture throughout:
# row word 2121 (Yamanouchi from (2,1)), column word 2211 (not Yamanouchi).
GOLDEN = tableau_from_text("2 2~ 1~\n2 2 2~ 1 1 1~\n1")


def test_text_round_trip():
    assert tableau_from_text(GOLDEN.to_text()) == GOLDEN
    assert tableau_from_text("3~ 2'").rows == ((Entry(3, True), Entry(2, False, True)),)
    assert format_entry(Entry(4)) == "4"
    with pytest.raises(ValueError):
        tableau_from_text("0")


def test_shape_and_validity():
    assert GOLDEN.shape == (3, 6, 1)
    assert GOLDEN.is_valid()
    bad = ReverseTableau([[Entry(1), Entry(2)]])
    assert not bad.is_valid()


def test_orders():
    shape = (3, 6, 1)
    ro = row_order(shape)
    assert ro[0] == (3, 1) and ro[1] == (2, 1) and ro[-1] == (1, 3)
    co = column_order(shape)
    assert co[0] == (3, 1) and co[1] == (2, 1) and co[2] == (1, 1)
    assert co[-1] == (2, 6)


def test_tableau_weight_empty_product():
    T = ReverseTableau([[Entry(1, True)]])
    assert tableau_weight(T, ()) == APoly.one()


def test_tableau_weight_builds_its_own_binomials():
    # the search is tested against tableau_weight and the column-order
    # reference, so neither may read the search's binomial memo
    T = tableau_from_text("2 2~ 1~\n2 1~ 1\n1")
    tableaux._binomial.cache_clear()
    assert degree(tableau_weight(T, (2, 1))) == 4
    assert degree(weight_in(T, (2, 1), "column")) == 4
    assert tableaux._binomial.cache_info().currsize == 0


def test_expand_monomials_sums_to_weight():
    for order in ("row", "column"):
        total = APoly.zero()
        for U, mono in expand_monomials(GOLDEN, (2, 1), order):
            total = total + mono
        assert total == weight_in(GOLDEN, (2, 1), order)
    assert weight_in(GOLDEN, (2, 1), "row") == tableau_weight(GOLDEN, (2, 1))
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
    assert (2,) not in lr_weight_table((1,), (1, 1))


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
    # the default row caps read l(mu) of the trimmed mu: 3 fillings, not 10
    expected = enumerate_k_tableaux((2,), (1,), (1,))
    assert len(expected) == 3
    assert enumerate_k_tableaux((2,), [1, 0, 0], (1, 0)) == expected


# stacked shapes of at most three rows and 1..4 boxes, over small mu
_kappas = st.sampled_from([k for n in range(1, 5) for k in compositions_of(n, 3)])
_small_mu = st.sampled_from(partitions_up_to(3))


@settings(max_examples=300)
@given(_kappas, _small_mu, st.data())
def test_weights_agree_on_random_stacked_tableaux(kappa, mu, data):
    # the three ways of weighing a tableau agree: its primed variants'
    # monomials, monomial_weight of each variant (row order), and the
    # product of its entry weights; tableau_weight reads row order, and
    # weight_in is the column-order reference
    nu = data.draw(st.sampled_from(lr_targets(kappa, mu)))
    for T in enumerate_k_tableaux(kappa, mu, nu, cap=4):
        plain_boxes = [(i, j) for i, j in row_order(T.shape) if not T.rows[i - 1][j - 1].barred]
        for order in ("row", "column"):
            weight = tableau_weight(T, mu) if order == "row" else weight_in(T, mu, order)
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


def test_lr_weight_table_matches_the_leaf_pass_on_the_weight_5_grid():
    # one search with no nu bound files every filling under the nu it ends
    # on: each of the 342 pairs must give every cell's sum, as the reference
    # weighs each finished filling in row order
    cells = 0
    for lam in partitions_up_to(5):
        if not lam:
            continue
        for mu in partitions_up_to(5):
            targets = lr_targets(lam, mu)
            table = lr_weight_table(lam, mu)
            assert set(table) <= set(targets), (lam, mu)
            assert all(table.values()), (lam, mu)
            expected = row_order_weight_table(lam, mu)
            for nu in targets:
                cells += 1
                assert table.get(nu) == expected.get(nu), (lam, mu, nu)
    assert cells == 10700
    for mu in partitions_up_to(3):
        assert lr_weight_table((), mu) == {mu: {ONE_MONO: 1}}
    with pytest.raises(ValueError, match="must be partitions"):
        lr_weight_table((1,), (1, 2))


def test_the_table_files_its_leaves_without_iv(monkeypatch, clear_oracle_memos):
    # each leaf is filed under rho cut at its trailing 0 marker, which is
    # already the trimmed nu
    calls = [0]
    real = tableaux.iv

    def counted(entries):
        calls[0] += 1
        return real(entries)

    monkeypatch.setattr(tableaux, "iv", counted)
    table = lr_weight_table((3, 2), (2, 2))
    assert calls == [0]
    assert table and all(nu == real(nu) and type(nu) is tuple for nu in table)
    assert table == row_order_weight_table((3, 2), (2, 2))


def test_row_order_weights_at_placement_match_the_leaf_pass():
    # the search reads each plain entry's binomial as it places boxes in
    # column order; the reference walks each finished filling in row order
    pairs = [(lam, mu) for lam in partitions_up_to(4) for mu in partitions_up_to(4)]
    pairs.append(((4, 3, 2, 1), (3, 2, 1)))  # 98% of its fillings have a zero binomial
    for lam, mu in pairs:
        assert lr_weight_table(lam, mu) == row_order_weight_table(lam, mu), (lam, mu)


def test_a_dead_branch_multiplies_nothing(monkeypatch):
    # the search expands a weight only at a leaf, from the deepest prefix it
    # still holds, so a pair's table runs at most one product per plain
    # entry of the nonzero-weight LR tableaux of its cells, and none for a
    # cell that has no such tableau
    products = [0]
    real = tableaux._mul_into

    def counted(out, t1, t2):
        products[0] += 1
        return real(out, t1, t2)

    cells = [
        (lam, mu, nu)
        for lam in partitions_up_to(4)
        if lam
        for mu in partitions_up_to(4)
        for nu in every_target(lam, mu)
    ]
    # all 175 of its LR tableaux have a zero binomial, found only after 94
    # plain entries with a nonzero binomial were placed
    dead = ((2, 2, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1))
    cells.append(dead)
    assert len(cells) == 3985
    plain_entries = Counter()
    for lam, mu, nu in cells:
        plain_entries[lam, mu] += _plain_entries_of_nonzero_weight(lam, mu, nu)
    # the dead cell's pair is not on the grid, and its table searches
    # every cell of the pair
    lam, mu, nu = dead
    assert plain_entries[lam, mu] == 0
    plain_entries[lam, mu] = sum(
        _plain_entries_of_nonzero_weight(lam, mu, target) for target in every_target(lam, mu)
    )
    for pair, bound in plain_entries.items():
        products[0] = 0
        monkeypatch.setattr(tableaux, "_mul_into", counted)
        lr_weight_table(*pair)
        monkeypatch.setattr(tableaux, "_mul_into", real)
        assert products[0] <= bound, (pair, products[0], bound)
    assert nu not in lr_weight_table(lam, mu)


def _plain_entries_of_nonzero_weight(lam, mu, nu):
    """The plain entries of the cell's LR tableaux of nonzero weight, summed."""
    return sum(
        sum(not e.barred for row in T.rows for e in row)
        for T in enumerate_lr_tableaux(lam, mu, nu)
        if not weight_in(T, mu, "column").is_zero()
    )


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
                    readings = {"row": reading(T, mu), "column": reading_in(T, mu, "column")}
                    for order, boxes in readings.items():
                        walk = [(i, j, rk) for i, j, e, rk in boxes if not e.barred]
                        first = next((rk - (j - i) for i, j, rk in walk if rk <= j - i), 0)
                        assert first == 0, (T.to_text(), mu, order)
                        plain_rho[order] = {(i, j): rk for i, j, rk in walk}
                    assert plain_rho["row"] == plain_rho["column"], (T.to_text(), mu)
    assert seen == 5704


def _uncontained_cells():
    """The weight-5 cells where nu contains mu but not lam, and l(lam) <= l(nu).

    The search finds fillings on them, unlike on a cell with l(lam) > l(nu),
    which has no LR tableau.
    """
    return [
        (lam, mu, nu)
        for lam in partitions_up_to(5)
        for mu in partitions_up_to(5)
        for nu in lr_targets(lam, mu)
        if not contains(nu, lam) and len(lam) <= len(nu)
    ]


def test_a_cell_whose_nu_does_not_contain_lam_has_only_zero_weights():
    # the search finds fillings on these cells, but each one has a zero
    # binomial, so the cells have no term in their pair's product
    cells = _uncontained_cells()
    assert len(cells) == 2749
    fillings = 0
    for lam, mu, nu in cells:
        for T in enumerate_lr_tableaux(lam, mu, nu):
            fillings += 1
            assert weight_in(T, mu, "column").is_zero(), (T.to_text(), mu, nu)
    assert fillings == 31530


def test_nonzero_weight_fillings_obey_the_containment_proof():
    # why a cell whose nu does not contain lam weighs zero, on every
    # nonzero-weight LR tableau: rho grows inside nu and stays a partition,
    # row 1 weakly decreases and a plain k in box (1, j) weighs zero when
    # rho_k = j - 1, so after box (1, j) with value k, rho_k >= j; hence
    # box (1, j) holds at most nu'_j, strict columns give box (i, j) at
    # most nu'_j - i + 1, and lam'_j <= nu'_j
    seen = 0
    for lam in partitions_up_to(4):
        for mu in partitions_up_to(4):
            for nu in lr_targets(lam, mu):
                nu_c = conjugate(nu)
                for T in enumerate_lr_tableaux(lam, mu, nu):
                    if weight_in(T, mu, "column").is_zero():
                        continue
                    seen += 1
                    for i, j, e, rk in reading_in(T, mu, "column"):
                        if i == 1:
                            assert rk + e.barred >= j, (T.to_text(), mu, nu, j)
                        assert e.value <= pad(nu_c, j)[j - 1] - i + 1, (T.to_text(), nu, i, j)
    assert seen == 1986


def test_a_cell_whose_nu_does_not_contain_lam_has_no_table_entry(clear_oracle_memos):
    # the table holds only nonzero sums, so none of these cells, whose
    # fillings all weigh zero, has an entry in its pair's table
    cells = _uncontained_cells()
    assert len(cells) == 2749
    tables = {}
    for lam, mu, nu in cells:
        if (lam, mu) not in tables:
            tables[lam, mu] = lr_weight_table(lam, mu)
        assert nu not in tables[lam, mu], (lam, mu, nu)
        assert c_theorem(lam, mu, nu).is_zero(), (lam, mu, nu)
        assert c_corollary(lam, mu, nu).is_zero(), (lam, mu, nu)


def test_every_nu_search_finds_exactly_the_fillings_of_each_cell():
    # with no nu bound the search must visit each cell's LR tableaux once,
    # and nothing else: a filling whose plain values exceed the length of
    # the nu it ends on is not counted, though such weights cancel in sum
    for lam in partitions_up_to(4):
        for mu in partitions_up_to(4):
            found = Counter()
            cap = len(mu) + len(lam)
            for T in tableaux._tableaux(lam, mu, None, (cap,) * len(lam), True):
                found[apply_word(mu, column_word(T))[0], T] += 1
            expected = Counter(
                (nu, T)
                for nu in lr_targets(lam, mu)
                for T in enumerate_lr_tableaux(lam, mu, nu)
            )
            assert found == expected, (lam, mu)


def _clear_memos():
    memos = (
        shapes._checked_partition,
        tableaux._plan,
        tableaux._entries,
        tableaux._binomial,
        lr._theorem_product,
    )
    for memo in memos:
        memo.cache_clear()


def _memo_probes():
    """(label, thunk) for every search over |lam| <= 4, |mu| <= 3, interleaved per shape.

    Each shape first asks for its two plans, the row-order one without
    strict columns and the column-order one with them, then runs the
    column-strict LR search, per cell as tableaux and with no nu bound as
    the weight table, and the row-order stacked and Pieri searches on it,
    so a memo key that drops
    column_strict hands a search the wrong plan.  |lam| reaches 4 because
    (2, 2) is the smallest shape whose two plans list its boxes in
    different orders.
    """
    probes = []
    for lam in partitions_up_to(4):
        for strict in (False, True):
            probes.append((("plan", lam, strict), partial(tableaux._plan, lam, strict)))
        for mu in partitions_up_to(3):
            for nu in every_target(lam, mu):
                cell = (lam, mu, nu)
                probes.append((("lr",) + cell, partial(enumerate_lr_tableaux, *cell)))
                probes.append((("k",) + cell, partial(enumerate_k_tableaux, *cell)))
                if len(lam) == 1:
                    for e in (0, 1):
                        args = (lam[0], e, mu, nu)
                        probes.append((("pieri",) + args, partial(enumerate_pieri_tableaux, *args)))
            probes.append((("table", lam, mu), partial(lr_weight_table, lam, mu)))
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
        for strict in (False, True):
            fresh = tableaux._plan.__wrapped__(shape, strict)
            assert tableaux._plan(shape, strict) == fresh, (shape, strict)
    for top in range(1, 8):
        assert tableaux._entries(top) == tableaux._entries.__wrapped__(top)
    for p in range(-6, 7):
        for q in range(-6, 7):
            assert tableaux._binomial(p, q) == {var_key(p): 1, var_key(q): -1}, (p, q)
    for label, thunk in probes:
        _clear_memos()
        assert thunk() == warm[label], label


CELL_RULES = [c_oracle, c_theorem, c_corollary, classical_lr, c_alternating]


def test_cell_rules_trim_lists_and_trailing_zeros(clear_oracle_memos):
    # every cell entry point reads a list, or a tuple with trailing zeros,
    # as the trimmed tuple
    cells = [
        ((2, 1), (1,), (2, 1, 1)),  # nu_1 < l(nu): c_oracle flips the cell
        ((2, 1), (2, 1), (3, 2, 1)),
        ((1,), (2,), (3,)),
        ((2,), (), (1, 1)),  # nu does not contain lam: zero
    ]
    for rule in CELL_RULES:
        for cell in cells:
            expected = rule(*cell)
            assert rule(*(list(shape) for shape in cell)) == expected, (rule, cell)
            assert rule(*(shape + (0, 0) for shape in cell)) == expected, (rule, cell)
            assert rule(*(list(shape) + [0] for shape in cell)) == expected, (rule, cell)


def test_cell_rules_refuse_a_non_partition_in_each_place():
    # (lam, mu, nu) with one shape out of order; each bad shape comes both
    # at a cell whose sorted form has a coefficient and at one where lam
    # is not inside nu
    cells = [
        ((1, 2), (1,), (3, 2)),  # lam, a coefficient
        ((1, 2), (1,), (1, 1)),  # lam, not inside nu
        ((2,), [1, 2], (3, 2, 1)),  # mu, a coefficient
        ((3,), [1, 2], (2, 2, 1)),  # mu, lam not inside nu
        ((1,), (1,), [1, 2]),  # nu, a coefficient
        ((3,), (1,), (1, 2, 0)),  # nu, lam not inside it
        ((1,), (1,), (2, -1)),  # a negative part
    ]
    for rule in CELL_RULES:
        for cell in cells:
            with pytest.raises(ValueError, match="must be partitions"):
                rule(*cell)


# a non-partition lam, mu or nu, including cells that are zero once sorted
# (mu not inside nu, nu too large, lam not inside nu)
NON_PARTITION_CELLS = [
    ((1, 2), (), (2, 1)),
    ((1, 2), (1,), (2, 2)),
    ((2, 0, 1), (1,), (5,)),
    ((1,), (1, 2), (2, 2)),
    ((1,), (1, 2), (1, 1)),
    ((1,), (1,), (1, 2)),
    ((2,), (), (1, 2)),
    ((2, 1), (1, 0, 2), (2, 2, 2)),
    # l(lam) > l(nu) leaves no filling
    ((1, 1, 1), (1,), (1, 2)),
    ((1, 1, 1), (1, 2), (3,)),
    # nu does not contain lam, though l(lam) <= l(nu): no filling of nonzero
    # weight
    ((3,), (1, 2), (2, 2)),
    ((2, 2), (1,), (1, 3)),
]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_non_partition_mu_or_nu_raises(warm):
    # every route, per cell and per product, refuses the cell in the same way
    _clear_memos()
    cell_rules = [
        c_theorem,
        c_corollary,
        c_alternating,
        c_oracle,
        classical_lr,
    ]
    product_rules = [
        theorem_product,
        alternating_product,
        lr_weight_table,
    ]
    # c_corollary is a def of its own, not c_theorem bound to a second name:
    # perfbench's tracer replaces every binding of a wrapped function, so it
    # would wrap one shared function object twice, and a traced
    # tableau_sweep then reports correct: false
    assert c_corollary is not c_theorem
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


# (kappa, mu, nu) with a non-partition mu or nu; every mu is long enough for
# pieri_tableau's hypothesis at e = 0
NON_PARTITION_KOSTKA_CELLS = [
    ((1,), (1, 2), (2, 2)),
    ((2,), [0, 1], (2, 1)),
    ((1, 1), (2, 0, 1), (3, 1, 1)),
    ((), (1, 2), (1, 2)),
    ((1,), (1,), (1, 2)),
    ((2, -1), (1, 2), (1,)),
]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_pieri_rules_and_kostka_refuse_a_non_partition(warm, clear_oracle_memos):
    # both Pieri rules and both kostka methods refuse the cell alike, so the
    # rules checked against each other cannot disagree on a bad shape
    def calls(kappa, mu, nu):
        pieri_rules = [partial(rule, 1, 0, mu) for rule in (pieri_stable, pieri_tableau)]
        kostka_methods = [
            partial(kostka, kappa, mu, nu, method=method) for method in ("recursion", "tableaux")
        ]
        # a Pieri rule reads no nu
        return kostka_methods if is_partition(mu) else pieri_rules + kostka_methods

    if warm:  # every rule first runs on the cell with its shapes sorted
        for kappa, mu, nu in NON_PARTITION_KOSTKA_CELLS:
            for call in calls(kappa, *(tuple(sorted(shape, reverse=True)) for shape in (mu, nu))):
                call()
    for cell in NON_PARTITION_KOSTKA_CELLS:
        for call in calls(*cell):
            for _ in range(2):  # no failure is cached
                with pytest.raises(ValueError, match="must be partitions"):
                    call()
