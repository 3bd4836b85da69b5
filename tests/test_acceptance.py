"""Acceptance suite: one test per acceptance criterion, exact symbolic checks.

Each test prints one pass/fail line via pytest -v.  All comparisons are exact
(integer/polynomial equality); no tolerances anywhere.
"""

from lrpoly import cli
from lrpoly.apoly import APoly
from lrpoly.shapes import pad, size, contains, lr_targets, partitions_of, partitions_up_to
from lrpoly.tableaux import row_word, apply_word
from lrpoly.lr import c_theorem, c_corollary, alternating_product
from lrpoly.schursum import SchurSum
from lrpoly.involutions import BadCell, classify_bad, psi1, psi
from lrpoly.double_sym import (
    double_schur_n,
    c_oracle,
    classical_lr,
)
from definitions import a, column_word, entry_weight, h_n_shifted, phi_n, rho_at, tableau_from_text


def _assert_suite_passes(name, weight, count):
    """Run `lrpoly verify`'s suite `name` at `weight`: `count` cases, none failing.

    The suites in `cli._SUITES` are the one copy of the ring, Pieri, LR and
    involution grids; these criteria pin their size so a grid cannot shrink.
    """
    cases = cli._SUITES[name](weight)
    labels = [label for label, _ in cases]
    assert len(labels) == count, (name, len(labels))
    assert len(set(labels)) == count, name
    assert [(label, msg) for label, msg in cli._run_cases(cases) if msg] == []


def _lr_grid():
    """(lam, mu, nu) with |lam|,|mu| <= 4 and mu <= nu <= |lam|+|mu| boxes."""
    for lam in partitions_up_to(4):
        if not lam:
            continue
        for mu in partitions_up_to(4):
            for nu in lr_targets(lam, mu):
                yield lam, mu, nu


def test_criterion_01_golden_tableau_words_and_weights():
    T = tableau_from_text("2 2~ 1~\n2 2 2~ 1 1 1~\n1")
    assert T.shape == (3, 6, 1)
    assert row_word(T) == (2, 1, 2, 1)
    nu_r, yam_r = apply_word((2, 1), row_word(T))
    assert nu_r == (4, 3) and yam_r
    assert column_word(T) == (2, 2, 1, 1)
    nu_c, yam_c = apply_word((2, 1), column_word(T))
    assert nu_c == (4, 3) and not yam_c
    assert rho_at(T, (2, 1), (1, 2), "row") == (3, 3)
    assert entry_weight(T, (2, 1), (2, 4), "column") == a(-2) - a(-1)


def test_criterion_02_golden_two_stage_involution():
    mu, nu = (2, 2), (4, 3, 2, 1)
    T = tableau_from_text("4~ 4 4 4 3 2 2~ 2 2\n3 3 3~ 3 3~ 3 1 1~ 1~")
    cell = classify_bad(T, mu)
    assert cell == BadCell(1, 1, "C2a")
    T1 = psi1(T, cell)
    assert T1.shape == (8, 10)
    assert T1.to_text() == "4~ 4 3 3~ 3 1 1~ 1~\n3 3 3 3 3~ 3 2 2~ 2 2"
    # reorder counts computed on the intermediate tableau
    mup = pad(mu, 4)

    def barred_count(k, row_lo):
        return sum(
            1
            for r in range(row_lo, 3)
            for e in T1.rows[r - 1]
            if e.barred and e.value == k
        )

    n2 = max(mup[1] + barred_count(2, cell.row) - mup[0] - barred_count(1, 3), 0)
    n3 = max(mup[2] + barred_count(3, cell.row) - mup[1] - barred_count(2, 3), 0)
    assert n2 == 1 and n3 == 0
    Tt = psi(T, mu)
    assert Tt.to_text() == "4~ 4 3 3~ 3 2~ 2 1~\n3 3 3 3 3~ 3 2 1 1 1~"
    # the row word still takes mu to nu, on both sides
    assert apply_word(mu, row_word(T)) == apply_word(mu, row_word(Tt)) == (nu, True)
    assert psi(Tt, mu) == T


def test_criterion_03_free_ring_pieri_identity():
    _assert_suite_passes("ring", 4, 132)


def test_criterion_04_shift_identity():
    for n in range(1, 5):
        for r in range(1, 5):
            for s in range(1, 4):
                lhs = h_n_shifted(r, s, n)
                rhs = h_n_shifted(r, s - 1, n) + h_n_shifted(
                    r - 1, s - 1, n
                ).scale(APoly.var(s - r + 1) - APoly.var(n + s))
                assert lhs == rhs, (n, r, s)


def test_criterion_05_stability():
    for lam in partitions_up_to(5):
        for n in range(2, 6):
            if len(lam) > n:
                continue
            assert phi_n(double_schur_n(lam, n)) == double_schur_n(lam, n - 1), (
                lam,
                n,
            )


def test_criterion_06_four_way_agreement():
    # the alternating coefficients come from one product per (lam, mu), and
    # the theorem's nonzero cells of each pair must rebuild that whole
    # product, so a product term at a nu off the grid fails too
    products = {}
    theorem_terms = {}
    cells = 0
    for lam, mu, nu in _lr_grid():
        if (lam, mu) not in products:
            products[lam, mu] = alternating_product(lam, mu)
            theorem_terms[lam, mu] = {}
        ct = c_theorem(lam, mu, nu)
        assert ct == c_corollary(lam, mu, nu), (lam, mu, nu)
        assert ct == products[lam, mu].coeff(nu), (lam, mu, nu)
        assert ct == c_oracle(lam, mu, nu), (lam, mu, nu)
        if ct:
            theorem_terms[lam, mu][nu] = ct
        cells += 1
    assert (cells, len(products)) == (2293, 132)
    for pair, product in products.items():
        assert SchurSum(theorem_terms[pair]) == product, pair


def test_criterion_07_classical_specialization():
    for lam, mu, nu in _lr_grid():
        assert c_theorem(lam, mu, nu).at_zero() == classical_lr(lam, mu, nu)
    # wider grid at a = 0 only
    for lam in partitions_up_to(5):
        if not lam:
            continue
        for mu in partitions_up_to(5):
            for nu in partitions_of(size(lam) + size(mu)):
                if not contains(nu, mu):
                    continue
                assert c_theorem(lam, mu, nu).at_zero() == classical_lr(
                    lam, mu, nu
                ), (lam, mu, nu)


def test_criterion_08_pieri_cancellation():
    # support on horizontal strips only, and stable == tableau for e < l(mu)
    _assert_suite_passes("pieri", 4, 102)


def test_criterion_09_involution_suites():
    # psi on the bad stacked tableaux of lam with at most two rows, with
    # aggregate weight equality; the monomial involution on every derived
    # monomial tableau; and the weight-preserving bad-target pairing
    _assert_suite_passes("involutions", 3, 37)


def test_criterion_10_homogeneity_and_vanishing():
    # also the tableau product == alternating and the classical value
    _assert_suite_passes("lr", 4, 132)
