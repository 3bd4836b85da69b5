"""Structure coefficients: tableau rules, alternating sum, and Pieri forms."""

import itertools
import sys
from collections import Counter
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings, strategies as st

from lrpoly import lr, shapes, tableaux
from lrpoly.apoly import APoly
from lrpoly.shapes import (
    conjugate,
    contains,
    lr_targets,
    partitions_of,
    partitions_up_to,
    size,
)
from lrpoly.tableaux import lr_weight_table, tableau_weight
from lrpoly.lr import (
    pieri_tableau,
    kostka,
    c_theorem,
    c_corollary,
    c_alternating,
    alternating_product,
    theorem_product,
)
from lrpoly.stable_ring import pieri_stable
from lrpoly.double_sym import classical_lr
from lrpoly.schursum import SchurSum
from definitions import (
    a,
    all_permutations,
    enumerate_lr_tableaux,
    every_target,
    lambda_omega,
    pieri_tableau_backtrack,
    substitute,
    weight_in,
)


def test_single_box_product():
    assert c_theorem((1,), (1,), (1,)) == a(0) - a(1)
    assert c_theorem((1,), (1,), (2,)) == APoly.one()
    assert c_theorem((1,), (1,), (1, 1)) == APoly.one()


def test_the_cell_rules_read_one_memoized_table_per_pair(monkeypatch, clear_oracle_memos):
    # both cell rules at every nu of a pair run one search, with no nu
    # bound, whatever form the pair is given in; a sweep over more pairs
    # than the memo holds keeps it within its bound
    searches = []
    real = tableaux._enumerate

    def counted(plan, mu, nu, *args, **kwargs):
        searches.append(nu)
        return real(plan, mu, nu, *args, **kwargs)

    monkeypatch.setattr(tableaux, "_enumerate", counted)
    lam, mu = (3, 2), (2, 2)
    for nu in every_target(lam, mu):
        for given_lam in (lam, [3, 2, 0]):
            assert c_theorem(given_lam, mu, nu) == c_corollary(lam, list(mu), nu)
    assert searches == [None]
    info = lr._theorem_product.cache_info
    pairs = [(lam, mu) for lam in partitions_up_to(3) if lam for mu in partitions_up_to(3)]
    assert len(pairs) > info().maxsize
    for lam, mu in pairs:
        for nu in lr_targets(lam, mu):
            c_theorem(lam, mu, nu)
            c_corollary(lam, mu, nu)
        assert info().currsize <= info().maxsize
    assert searches == [None] * (1 + len(pairs))


def test_coeff_refuses_entries_that_are_not_integers(clear_oracle_memos):
    # 2.5, 1.7 and '1' are refused, not truncated to the coefficients at
    # (2,), (1, 1) and (1,), cold and again once those shapes are memoized
    product = theorem_product((1,), (1,))
    for _ in range(2):
        for bad in [(2.5,), (1.7, 1), ("1",)]:
            with pytest.raises(ValueError, match="must be partitions"):
                product.coeff(bad)
        for good in [(1, 1), [1, 1, 0], (1.0, 1)]:
            assert product.coeff(good) == APoly.one(), good
        assert product.coeff((2,)) == APoly.one() and product.coeff((1,)) == a(0) - a(1)


def test_a_warm_cell_read_calls_no_iv(monkeypatch, clear_oracle_memos):
    # once the pair's product and the shapes are memoized, both rules read
    # the product's terms with the nu require_partitions trimmed, and they
    # still equal the product's coefficient at every target of the pair
    lam, mu = (3, 2), (2, 2)
    targets = every_target(lam, mu)
    expected = [theorem_product(lam, mu).coeff(nu) for nu in targets]
    for rule in (c_theorem, c_corollary):
        assert [rule(lam, mu, nu) for nu in targets] == expected, rule
    real = shapes.iv
    bound = [name for name, module in sys.modules.items()
             if name.startswith("lrpoly") and getattr(module, "iv", None) is real]
    assert {"lrpoly.shapes", "lrpoly.schursum", "lrpoly.lr", "lrpoly.tableaux"} <= set(bound)
    calls = Counter()

    def counted(entries, name):
        calls[name] += 1
        return real(entries)

    for name in bound:
        monkeypatch.setattr(sys.modules[name], "iv", partial(counted, name=name))
    for rule in (c_theorem, c_corollary):
        assert [rule(lam, mu, nu) for nu in targets] == expected, rule
    assert calls == Counter()


def test_vanishing_outside_support():
    assert c_theorem((2,), (1,), (5,)).is_zero()
    assert c_theorem((1,), (2,), (1, 1)).is_zero()  # mu not contained in nu


def test_pieri_tableau_hypothesis_gate():
    with pytest.raises(ValueError, match="unsupported hypothesis"):
        pieri_tableau(1, 5, (1,))


def _kostka_grid():
    """(kappa, mu, nu) with kappa in {0,1,2}^k and nu a superset of mu.

    Rows k <= 2 run over |mu| <= 3, three rows over |mu| <= 2; nu runs over
    every partition containing mu with |nu| - |mu| <= |kappa|.
    """
    kappas = [()]
    for k in range(1, 4):
        kappas += list(itertools.product(range(3), repeat=k))
    for kappa in kappas:
        for mu in partitions_up_to(3 if len(kappa) <= 2 else 2):
            for nu in lr_targets(kappa, mu):
                yield kappa, mu, nu


def test_kostka_methods_agree_in_hypothesis():
    # the tableaux method assumes every nonempty Pieri row stays within the
    # intermediate partition length: it raises exactly when the bottom-most
    # nonempty row i has i - 1 >= l(mu), and agrees with the recursion
    # everywhere else
    grid = list(_kostka_grid())
    for cell in [
        ((2,), (1,), (2, 1)),
        ((1, 1), (1,), (2, 1)),
        ((0, 2), (2, 1), (3, 2)),
        ((2, 2), (1, 1), (3, 2)),
    ]:
        assert cell in grid
    agree = 0
    for kappa, mu, nu in grid:
        rec = kostka(kappa, mu, nu, method="recursion")
        rows = [i for i in range(1, len(kappa) + 1) if kappa[i - 1] > 0]
        if rows and rows[-1] - 1 >= len(mu):
            with pytest.raises(ValueError, match="unsupported hypothesis"):
                kostka(kappa, mu, nu, method="tableaux")
            continue
        assert kostka(kappa, mu, nu, method="tableaux") == rec, (kappa, mu, nu)
        agree += 1
    assert (agree, len(grid) - agree) == (469, 1641)


def test_kostka_negative_row_is_zero():
    assert kostka((2, -1), (1,), (1,)).is_zero()
    # the method is checked before the early zero
    with pytest.raises(ValueError, match="method must be"):
        kostka((2, -1), (1,), (1,), method="stacked")


def test_symmetry_in_lam_mu():
    for lam in partitions_up_to(3):
        for mu in partitions_up_to(3):
            for nu in partitions_of(size(lam) + size(mu)):
                assert c_theorem(lam, mu, nu) == c_theorem(mu, lam, nu), (
                    lam,
                    mu,
                    nu,
                )


def test_weighted_search_matches_tableau_sum():
    # the reference: build every LR tableau, then weigh it on its own in row
    # order (the theorem, tableau_weight) and in column order (the
    # corollary, weight_in); the one search's table must equal both sums
    weighers = {"row": tableau_weight, "column": lambda T, mu: weight_in(T, mu, "column")}
    for lam in partitions_up_to(4):
        for mu in partitions_up_to(4):
            table = lr_weight_table(lam, mu)
            for nu in lr_targets(lam, mu):
                tableaux = enumerate_lr_tableaux(lam, mu, nu)
                got = table.get(nu, {})
                for order, weigh in weighers.items():
                    expected = APoly.zero()
                    for T in tableaux:
                        expected = expected + weigh(T, mu)
                    assert got == expected.terms, (lam, mu, nu, order)
    # three tableaux, each with a zero binomial in either order
    lam, mu, nu = (2,), (1,), (1, 1)
    tableaux = enumerate_lr_tableaux(lam, mu, nu)
    assert len(tableaux) == 3
    for weigh in weighers.values():
        assert all(weigh(T, mu).is_zero() for T in tableaux)
    assert nu not in lr_weight_table(lam, mu)


_partitions = st.sampled_from(partitions_up_to(5))


@settings(max_examples=200)
@given(_partitions, _partitions, st.data())
def test_tableau_rules_agree_on_random_cells(lam, mu, data):
    nu = data.draw(st.sampled_from(lr_targets(lam, mu)))
    ct = c_theorem(lam, mu, nu)
    assert ct == c_corollary(lam, mu, nu), (lam, mu, nu)
    assert ct.at_zero() == classical_lr(lam, mu, nu), (lam, mu, nu)


_pieri_cells = [
    (p, e, mu)
    for mu in partitions_up_to(6)
    for p in range(1, 5)
    for e in range(len(mu))
]


@settings(max_examples=40)
@given(st.sampled_from(_pieri_cells))
def test_pieri_tableau_equals_stable_on_random_cells(cell):
    p, e, mu = cell
    assert pieri_tableau(p, e, mu) == pieri_stable(p, e, mu), cell


def test_pieri_tableau_fold_matches_the_backtracking_search():
    """The fold equals the search over every filling on 220 cells.

    The cells are |mu| <= 5, 0 <= p <= 5 (p <= 4 when |mu| >= 4) and
    0 <= e < l(mu).  On them the search never places a primed L + 1 and its
    row-end check never rejects a filling: the lemma the fold rests on.
    """
    stats = Counter()
    cells = [
        (p, e, mu)
        for mu in partitions_up_to(5)
        for p in range((5 if size(mu) < 4 else 4) + 1)
        for e in range(len(mu))
    ]
    assert len(cells) == 220
    for cell in cells:
        assert pieri_tableau(*cell) == pieri_tableau_backtrack(*cell, stats=stats), cell
    assert stats["fillings"] > 0
    assert stats["primed_top"] == 0
    assert stats["rejected"] == 0


def test_pieri_tableau_equals_stable_on_the_weight_4_grid():
    cells = [
        (p, e, mu)
        for mu in partitions_up_to(4)
        for p in range(9)
        for e in range(len(mu))
    ]
    assert len(cells) == 198
    for cell in cells:
        assert pieri_tableau(*cell) == pieri_stable(*cell), cell


@settings(max_examples=100)
@given(_partitions, _partitions, st.data())
def test_alternating_equals_theorem_on_random_cells(lam, mu, data):
    nu = data.draw(st.sampled_from(lr_targets(lam, mu)))
    assert c_alternating(lam, mu, nu) == c_theorem(lam, mu, nu), (lam, mu, nu)


def test_alternating_product_matches_the_per_nu_kostka_sum():
    # the reference: the signed sum over omega of kostka at one nu at a time
    cells = 0
    for lam in partitions_up_to(4):
        for mu in partitions_up_to(4):
            product = alternating_product(lam, mu)
            shapes = [lambda_omega(lam, omega) for omega in all_permutations(len(lam))]
            for nu in every_target(lam, mu):
                expected = APoly.zero()
                for kappa, sign in shapes:
                    expected = expected + kostka(kappa, mu, nu) * sign
                assert product.coeff(nu) == expected, (lam, mu, nu)
                cells += 1
    assert cells == 4024


def test_alternating_product_support_on_the_weight_5_grid():
    # vanishing: every term has lam, mu contained in nu and |nu| <= |lam| + |mu|;
    # homogeneity of degree |lam| + |mu| - |nu|; agreement with the theorem
    # on the support and on every other target, where both vanish
    pairs = [(lam, mu) for lam in partitions_up_to(5) if lam for mu in partitions_up_to(5)]
    assert len(pairs) == 342
    support = 0
    for lam, mu in pairs:
        product = alternating_product(lam, mu)
        for nu, c in product.terms.items():
            assert contains(nu, lam) and contains(nu, mu), (lam, mu, nu)
            assert size(nu) <= size(lam) + size(mu), (lam, mu, nu)
            assert c.is_homogeneous(size(lam) + size(mu) - size(nu)), (lam, mu, nu)
        for nu in set(product.terms) | set(every_target(lam, mu)):
            assert product.coeff(nu) == c_theorem(lam, mu, nu), (lam, mu, nu)
        support += len(product.terms)
    assert support == 4295


def test_theorem_product_equals_alternating_product_on_the_weight_6_grid():
    # the tableau search and the Pieri fold, two independent routes, give
    # the same whole product, support included, one weight past the
    # weight-5 support grid above
    pairs = [(lam, mu) for lam in partitions_up_to(6) if lam for mu in partitions_up_to(6) if mu]
    assert len(pairs) == 841
    coefficients = 0
    for lam, mu in pairs:
        product = theorem_product(lam, mu)
        assert product == alternating_product(lam, mu), (lam, mu)
        coefficients += len(product.terms)
    assert coefficients == 17422


def test_alternating_product_on_long_lam():
    # long lam, where the permutation sum ran 8! and 6! Pieri folds
    for lam, mu in [((1,) * 8, (1,)), ((3, 3, 2, 2, 1, 1), (1,))]:
        product = alternating_product(lam, mu)
        for nu in set(product.terms) | set(lr_targets(lam, mu)):
            c = product.coeff(nu)
            assert c == c_theorem(lam, mu, nu), (lam, mu, nu)
            assert c.at_zero() == classical_lr(lam, mu, nu), (lam, mu, nu)


def test_conjugation_duality_of_alternating_products():
    # c^{nu'}_{lam',mu'}(a) = c^nu_{lam,mu}(a'), support included; no route is
    # conjugation-symmetric by construction, so this guards the Pieri fold
    products = {
        (lam, mu): alternating_product(lam, mu)
        for lam in partitions_up_to(4)
        if lam
        for mu in partitions_up_to(4)
    }
    assert len(products) == 132
    for (lam, mu), product in products.items():
        dual = SchurSum({conjugate(nu): c.dual() for nu, c in product.terms.items()})
        assert products[conjugate(lam), conjugate(mu)] == dual, (lam, mu)


def test_conjugation_duality_of_theorem_on_the_criterion_06_grid():
    cells = [
        (lam, mu, nu)
        for lam in partitions_up_to(4)
        if lam
        for mu in partitions_up_to(4)
        for nu in lr_targets(lam, mu)
    ]
    assert len(cells) == 2293
    for lam, mu, nu in cells:
        assert c_theorem(conjugate(lam), conjugate(mu), conjugate(nu)) == (
            c_theorem(lam, mu, nu).dual()
        ), (lam, mu, nu)


@settings(max_examples=200)
@given(st.sampled_from(partitions_up_to(6)), st.sampled_from(partitions_up_to(6)), st.data())
def test_conjugation_duality_of_theorem_on_random_cells(lam, mu, data):
    nu = data.draw(st.sampled_from(lr_targets(lam, mu)))
    assert c_theorem(conjugate(lam), conjugate(mu), conjugate(nu)) == (
        c_theorem(lam, mu, nu).dual()
    ), (lam, mu, nu)


@lru_cache(maxsize=None)
def _nonzero_weight_4_coefficients():
    """(rule, lam, mu, nu, coefficient) for each nonzero coefficient of both whole products."""
    coefficients = [
        (product.__name__, lam, mu, nu, c)
        for lam in partitions_up_to(4)
        if lam
        for mu in partitions_up_to(4)
        for product in (theorem_product, alternating_product)
        for nu, c in product(lam, mu).terms.items()
    ]
    assert len(coefficients) == 2 * 1008
    return coefficients


# every a_i that those coefficients hold: substitute raises on any other
_INDICES = range(-6, 8)


@settings(max_examples=10)
@given(
    st.lists(st.integers(-20, 20), min_size=len(_INDICES), max_size=len(_INDICES)),
    st.integers(-20, 20).filter(bool),
)
def test_translation_invariance_of_whole_products(values, t):
    # c^nu_{lam,mu}(a) depends only on the differences a_i - a_j: it takes
    # the same value at a_i and at a_i + t
    point = dict(zip(_INDICES, values))
    shifted = {i: v + t for i, v in point.items()}
    for *label, c in _nonzero_weight_4_coefficients():
        assert substitute(c, point) == substitute(c, shifted), label


def test_associativity_of_alternating_products():
    # (s_lam s_mu) s_rho = s_lam (s_mu s_rho), multiplying a SchurSum by a
    # Schur function term by term through alternating_product
    shapes = [lam for lam in partitions_up_to(3) if lam]
    triples = [
        (lam, mu, rho)
        for lam in shapes
        for mu in shapes
        for rho in shapes
        if size(lam) + size(mu) + size(rho) <= 6
    ]
    assert len(triples) == 72
    for lam, mu, rho in triples:
        left = sum(
            (alternating_product(kappa, rho).scale(c)
             for kappa, c in alternating_product(lam, mu).terms.items()),
            SchurSum(),
        )
        right = sum(
            (alternating_product(lam, kappa).scale(c)
             for kappa, c in alternating_product(mu, rho).terms.items()),
            SchurSum(),
        )
        assert left == right and left, (lam, mu, rho)
