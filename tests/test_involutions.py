"""Cancellation involutions: tail swap + barred reorder, and the monomial maps."""

import hashlib
import re
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from lrpoly.apoly import APoly
from lrpoly.shapes import (
    iv,
    pad,
    size,
    contains,
    apply_rbar,
    bad_compositions,
    lr_targets,
    partitions_of,
    partitions_up_to,
)
from lrpoly.tableaux import (
    Entry,
    ReverseTableau,
    row_word,
    apply_word,
    tableau_weight,
    enumerate_k_tableaux,
)
from lrpoly import cli, involutions
from lrpoly.involutions import (
    BadCell,
    psi1,
    psi2,
    classify_bad,
    monomial_weight,
    psi,
    monomial_involution,
    derived_monomial_tableaux,
    pieri_bad_pair,
)
from definitions import a, all_permutations, degree, expand_monomials, enumerate_pieri_tableaux
from definitions import lambda_omega, tableau_from_text


@pytest.mark.parametrize(
    "call, names",
    [
        (lambda: psi1(tableau_from_text("1 1~\n1~"), BadCell(1, 1, "C2a")),
         "(1, 1, 'C2a') of '1 1~\\n1~'"),
        (lambda: involutions._nth_barred([Entry(2, True), Entry(2)], 2, 2, 0, 2, from_end=False),
         "row '2~ 2'"),
        # the entry a turn moves round must be barred
        (lambda: involutions._turn((Entry(1, True), Entry(1)), 1, right=True),
         "segment '1~ 1'"),
        (lambda: involutions._turn((Entry(1), Entry(1, True)), 1, right=False),
         "segment '1 1~'"),
        (lambda: involutions._bad_row_index((1,), (2,)),
         "nu=(2,) is a horizontal strip over mu=(1,)"),
        # a subscript below the content of the only box has no place
        (lambda: involutions._place_primed(tableau_from_text("1'"), (1,), [], [-1]),
         "of \"1'\" over mu=(1,)"),
    ],
)
def test_internal_failures_name_their_input(call, names):
    # a broken precondition is an internal failure (RuntimeError, which the
    # CLI reports with exit 3), and its message names the offending input
    with pytest.raises(RuntimeError, match=re.escape(names)):
        call()


@pytest.mark.parametrize("move, text, mu", [
    # the row does not weakly decrease
    (monomial_involution, "\n\n3 1 1' 2'", (2, 1)),
    (pieri_bad_pair, "1 3~ 3~", (2,)),
    # e = 2 empty rows above the row, more than l(mu) = 1
    (monomial_involution, "\n\n2", (1,)),
    # a barred value above l(mu) + 1
    (monomial_involution, "3~ 3~ 3' 3 1", (2,)),
    # an entry above the last row
    (monomial_involution, "2\n3", (1, 1)),
])
def test_pieri_row_domain(move, text, mu):
    # input outside the domain is a usage error (ValueError), not an internal one
    with pytest.raises(ValueError, match=re.escape(f"{text!r} is not a Pieri row over mu={mu}")):
        move(tableau_from_text(text), mu)


def test_psi_rejects_good_tableaux():
    good = tableau_from_text("1~")
    with pytest.raises(ValueError, match="tableau is good"):
        psi(good, ())


# ---------------------------------------------------------------------------
# Exhaustive psi grid: involution, shape swap, row-word preservation, and
# aggregate weight equality per (shape, bad row) across kappa <-> R-bar kappa.

CAP = 5


def _psi_shapes(lam):
    shapes = set()
    for omega in all_permutations(len(lam)):
        kappa, _ = lambda_omega(lam, omega)
        if all(k >= 0 for k in kappa):
            shapes.add(tuple(kappa))
    return sorted(shapes)


def _psi_grid_cases():
    for lam in partitions_up_to(3):
        if not lam or len(lam) != 2:
            continue
        for mu in partitions_up_to(3):
            for nu in lr_targets(lam, mu):
                yield lam, mu, nu


def _psi_wide_grid_cases():
    # wider two-row grid: needed to exercise the C2a branch of the tail swap
    for lam in partitions_up_to(4):
        if len(lam) != 2:
            continue
        for mu in partitions_up_to(2):
            for nu in lr_targets(lam, mu):
                yield lam, mu, nu


def test_psi_involution_grid():
    checked = 0
    conditions = defaultdict(int)
    for lam, mu, nu in _psi_wide_grid_cases():
        for kappa in _psi_shapes(lam):
            for T in enumerate_k_tableaux(kappa, mu, nu, cap=6):
                cell = classify_bad(T, mu)
                if cell is None:
                    continue
                conditions[cell.condition] += 1
                if cell.condition == "C2c":
                    # C2c is C2b just past row i: the cell (i, kappa_i + 1)
                    assert cell.col == kappa[cell.row - 1] + 1, T.to_text()
                    assert kappa[cell.row - 1] < kappa[cell.row], T.to_text()
                Tt = psi(T, mu)
                assert Tt.shape == tuple(
                    apply_rbar(cell.row, cell.row + 1, kappa)
                ), T.to_text()
                assert Tt.is_valid(), T.to_text()
                word, yam = apply_word(mu, row_word(Tt))
                assert yam and tuple(word) == tuple(iv(nu)), T.to_text()
                # the partner is bad in the same row
                pcell = classify_bad(Tt, mu)
                assert pcell is not None and pcell.row == cell.row, T.to_text()
                assert psi(Tt, mu) == T, T.to_text()
                checked += 1
    assert checked > 1000
    # all three defect kinds are exercised
    assert set(conditions) == {"C2a", "C2b", "C2c"}


def _assert_psi_involution_on_cell(lam, mu, nu):
    """psi on every bad stacked tableau of the cell: a valid tableau on the
    swapped shape whose row word still takes mu to nu, bad in the same row,
    and mapped back to where it came from."""
    for kappa in _psi_shapes(lam):
        for T in enumerate_k_tableaux(kappa, mu, nu, cap=CAP):
            cell = classify_bad(T, mu)
            if cell is None:
                continue
            Tt = psi(T, mu)
            assert Tt.shape == tuple(apply_rbar(cell.row, cell.row + 1, kappa)), T.to_text()
            assert Tt.is_valid(), T.to_text()
            word, yam = apply_word(mu, row_word(Tt))
            assert yam and tuple(word) == tuple(iv(nu)), T.to_text()
            pcell = classify_bad(Tt, mu)
            assert pcell is not None and pcell.row == cell.row, T.to_text()
            assert psi(Tt, mu) == T, T.to_text()


def _cells(rows):
    """Every (lam, mu, nu) with l(lam) = rows, |lam| <= 5, |mu| <= 3, mu <= nu."""
    return [
        (lam, mu, nu)
        for lam in partitions_up_to(5)
        if len(lam) == rows
        for mu in partitions_up_to(3)
        for nu in lr_targets(lam, mu)
    ]


@settings(max_examples=250)
@given(st.sampled_from(_cells(2)))
def test_psi_involution_on_random_two_row_cells(cell):
    # beyond the fixed grids: |lam| up to 5 and |mu| up to 3
    _assert_psi_involution_on_cell(*cell)


@settings(max_examples=150)
@given(st.sampled_from(_cells(3)))
def test_psi_involution_on_random_three_row_cells(cell):
    # three rows, so psi also acts between rows 2 and 3: 761 cells to draw from
    _assert_psi_involution_on_cell(*cell)


@pytest.mark.parametrize("text, cell, image", [
    ("1\n1", BadCell(1, 1, "C2b"), "\n1 1"),
    # the C2c cell sits just past row i, at column kappa_i + 1
    ("\n1 1", BadCell(1, 1, "C2c"), "1\n1"),
    # C2a over the target nu = (1, 1): q = r - 1, q < r - 1 and q >= r
    ("2~\n1 1~ 1", BadCell(1, 1, "C2a"), "2~ 1\n1 1~"),
    ("2~\n1 1 1~", BadCell(1, 1, "C2a"), "2~ 2\n1 1~"),
    ("2~ 2\n1 1~", BadCell(1, 1, "C2a"), "2~\n1 1 1~"),
    # C2a over nu = (2, 2): both turned runs hold two barred entries
    ("2~ 2~\n1 1~ 1~ 1", BadCell(1, 1, "C2a"), "2~ 2~ 1\n1 1~ 1~"),
    ("2~ 2~\n1 1 1~ 1~", BadCell(1, 1, "C2a"), "2~ 2 2~\n1 1~ 1~"),
    ("2~ 2~ 1\n1 1~ 1~", BadCell(1, 1, "C2a"), "2~ 2~\n1 1~ 1~ 1"),
], ids=lambda v: v.condition if isinstance(v, BadCell) else None)  # a cell's id is its condition
def test_psi1_golden_per_condition(text, cell, image):
    T = tableau_from_text(text)
    assert classify_bad(T, ()) == cell
    assert psi1(T, cell).to_text() == image


def test_psi_on_the_cells_of_lam_33():
    # lam = (3, 3) is the first shape whose psi turns runs holding two barred
    # entries: 164 moves on 21 of its cells, none on the weight-4 grid.  Every
    # cell with |mu| <= 3, at the default row caps; the digest pins the text
    # of every (T, psi1(T), psi(T))
    lam = (3, 3)
    shapes = cli._psi_shapes(lam)
    digest = hashlib.md5()
    bad = 0
    for mu in partitions_up_to(3):
        for nu in lr_targets(lam, mu):
            for kappa in shapes:
                for T in enumerate_k_tableaux(kappa, mu, nu):
                    cell = classify_bad(T, mu)
                    if cell is None:
                        continue
                    T1 = psi1(T, cell)
                    Tt = psi2(T1, cell, mu)
                    assert Tt.shape == tuple(apply_rbar(cell.row, cell.row + 1, kappa)), T.to_text()
                    word, yam = apply_word(mu, row_word(Tt))
                    assert yam and tuple(word) == tuple(iv(nu)), T.to_text()
                    assert psi(Tt, mu) == T, T.to_text()
                    digest.update(f"{T.to_text()}|{T1.to_text()}|{Tt.to_text()}\n".encode())
                    bad += 1
    assert bad == 34348
    assert digest.hexdigest() == "628c624d915123b540322108ad6d4752"


def test_psi_stages_rebuild_only_rows_i_and_i_plus_1():
    # the rows neither stage edits keep their tuples, and psi2 hands back
    # its input itself when it moves no barred entry (cap 5, as in the suite)
    shared = returned = edited = 0
    for lam, mu in [((1, 1, 1), (1,)), ((2, 2), ())]:
        for nu in lr_targets(lam, mu):
            for kappa in cli._psi_shapes(lam):
                for T in enumerate_k_tableaux(kappa, mu, nu, cap=5):
                    cell = classify_bad(T, mu)
                    if cell is None:
                        continue
                    T1 = psi1(T, cell)
                    T2 = psi2(T1, cell, mu)
                    for r, row in enumerate(T.rows):
                        if r not in (cell.row - 1, cell.row):
                            assert T1.rows[r] is row and T2.rows[r] is row, T.to_text()
                            shared += 1
                    returned += T2 is T1
                    edited += T2 != T1
    assert (shared, returned, edited) == (816, 1598, 44)


def test_psi_aggregate_weight_cancellation():
    # summed over bad tableaux grouped by (shape, bad row), the weights on
    # kappa equal the weights on R-bar kappa; entry-wise equality is not
    # claimed.  With determinant signs the bad weights cancel completely.
    for lam, mu, nu in _psi_grid_cases():
        groups = defaultdict(APoly.zero)
        signed_total = APoly.zero()
        for omega in all_permutations(len(lam)):
            kappa, sign = lambda_omega(lam, omega)
            kappa = tuple(kappa)
            if any(k < 0 for k in kappa):
                continue
            for T in enumerate_k_tableaux(kappa, mu, nu, cap=CAP):
                cell = classify_bad(T, mu)
                if cell is None:
                    continue
                w = tableau_weight(T, mu)
                groups[(kappa, cell.row)] += w
                signed_total += w * sign
        for (kappa, i), w in groups.items():
            partner = tuple(apply_rbar(i, i + 1, kappa))
            assert w == groups.get((partner, i), APoly.zero()), (
                lam,
                mu,
                nu,
                kappa,
                i,
            )
        assert signed_total.is_zero(), (lam, mu, nu)


# ---------------------------------------------------------------------------
# The report behind the verify involutions suite (cli._psi_report).

# a weight-3 cell with bad tableaux on both of its shapes, (0, 3) and (2, 1)
REPORT_CELL = ((2, 1), (2, 1), (3, 2, 1))


def test_psi_report_on_every_three_row_cell_at_weight_4():
    # l(lam) = 3 with |lam|, |mu| <= 4: l(mu) + l(lam) reaches 7, past the
    # suite's cap=5 (see _suite_involutions), so the default row caps apply
    cells = 0
    for lam in partitions_up_to(4):
        if len(lam) != 3:
            continue
        shapes = cli._psi_shapes(lam)
        for mu in partitions_up_to(4):
            for nu in lr_targets(lam, mu):
                fail, _ = cli._psi_report(shapes, mu, nu, cap=None)
                assert fail is None, (lam, mu, nu, fail)
                cells += 1
    assert cells == 485


def test_psi_report_catches_a_broken_psi_and_a_broken_weight(monkeypatch):
    lam, mu, nu = REPORT_CELL
    shapes = cli._psi_shapes(lam)
    fail, groups = cli._psi_report(shapes, mu, nu, cap=None)
    assert fail is None and groups
    with monkeypatch.context() as m:
        # psi's stages hand back T itself
        m.setattr(cli, "psi1", lambda T, cell: T)
        m.setattr(cli, "psi2", lambda T1, cell, mu: T1)
        fail, _ = cli._psi_report(shapes, mu, nu, cap=None)
        assert fail.startswith("psi broke "), fail
    # the paired groups hold equally many tableaux, weighed apart by shape
    monkeypatch.setattr(cli, "tableau_weight", lambda T, mu: APoly.const(1 + T.shape[0]))
    fail, _ = cli._psi_report(shapes, mu, nu, cap=None)
    assert fail.startswith("aggregate mismatch"), fail


def test_psi_report_classifies_each_tableau_and_each_image_once(monkeypatch):
    # N enumerated tableaux, B of them bad: the report classifies each
    # tableau once, and psi classifies each image once on the way back
    lam, mu, nu = REPORT_CELL
    found = [classify_bad(T, mu) for kappa in _psi_shapes(lam)
             for T in enumerate_k_tableaux(kappa, mu, nu)]
    n, b = len(found), sum(cell is not None for cell in found)
    calls = []

    def counted(T, mu):
        calls.append(T)
        return classify_bad(T, mu)

    monkeypatch.setattr(cli, "classify_bad", counted)
    monkeypatch.setattr(involutions, "classify_bad", counted)
    assert cli._psi_report(cli._psi_shapes(lam), mu, nu, cap=None)[0] is None
    assert b > 0 and len(calls) == n + b


# ---------------------------------------------------------------------------
# Monomial involution on a single Pieri row.

MONO_U = tableau_from_text("\n\n3~ 3~ 3 3~ 2")
MONO_UT = tableau_from_text("\n\n3~ 3~ 3~ 2' 2")
MONO_MU = (2, 1)


def test_monomial_golden():
    assert monomial_weight(MONO_U, MONO_MU) == a(1) * a(1)
    assert monomial_involution(MONO_U, MONO_MU) == MONO_UT
    assert monomial_weight(MONO_UT, MONO_MU) == -(a(1) * a(1))
    assert monomial_involution(MONO_UT, MONO_MU) == MONO_U


def test_monomial_weight_keeps_the_degree_guard():
    # one monomial of degree 127 packs; one more factor sets the guard bit
    row = [Entry(1)] * 67 + [Entry(1, False, True)] * 60
    w = monomial_weight(ReverseTableau([row]), (200,))
    assert degree(w) == 127 and list(w.terms.values()) == [1]
    with pytest.raises(ArithmeticError):
        monomial_weight(ReverseTableau([row + [Entry(1)]]), (200,))


def test_monomial_rejects_good():
    # all plain values within bounds: nothing to pair
    good = tableau_from_text("2~ 1")
    with pytest.raises(ValueError, match="tableau is good"):
        monomial_involution(good, (1, 1))


def test_monomial_involution_grid():
    checked = 0
    for mu in partitions_up_to(3):
        if not mu:
            continue
        l = len(mu)
        for p in (1, 2):
            for e in range(0, l):
                for extra in range(p + 1):
                    for nu in partitions_of(size(mu) + extra, max_len=l + 1):
                        if not contains(nu, mu):
                            continue
                        for T in enumerate_pieri_tableaux(p, e, mu, nu, cap=l + 2):
                            for U, mono in expand_monomials(T, mu, "row"):
                                assert monomial_weight(U, mu) == mono
                                try:
                                    Ut = monomial_involution(U, mu)
                                except ValueError:
                                    continue  # good tableau
                                assert monomial_weight(Ut, mu) == -mono
                                assert monomial_involution(Ut, mu) == U
                                checked += 1
    assert checked > 400


_MONO_MUS = [mu for mu in partitions_up_to(4) if mu]


@st.composite
def _monomial_rows(draw):
    """A weakly decreasing row of up to 8 entries over 1 <= |mu| <= 4."""
    mu = draw(st.sampled_from(_MONO_MUS))
    l = len(mu)
    entries = draw(st.lists(
        st.one_of(
            st.builds(Entry, st.integers(1, l + 1), st.just(True), st.just(False)),
            st.builds(Entry, st.integers(1, l + 3), st.just(False), st.booleans()),
        ),
        min_size=1,
        max_size=8,
    ))
    row = sorted(entries, key=lambda e: -e.value)
    e = draw(st.integers(0, l - 1))
    return ReverseTableau([[]] * e + [row]), mu


@settings(max_examples=300)
@given(_monomial_rows())
def test_monomial_involution_on_random_rows(case):
    # beyond the fixed grid: rows of up to 8 entries, plain values up to
    # l(mu) + 3, targets that need not be partitions
    U, mu = case
    try:
        Ut = monomial_involution(U, mu)
    except ValueError as err:
        assert str(err) == "tableau is good"
        return
    assert Ut.is_valid(), (mu, U.to_text())
    assert monomial_weight(Ut, mu) == -monomial_weight(U, mu), (mu, U.to_text())
    assert monomial_involution(Ut, mu) == U, (mu, U.to_text())


# ---------------------------------------------------------------------------
# Weight-preserving pairing across bad (non-horizontal-strip) targets.

PAIR_U = tableau_from_text("2~ 2~ 2~ 2' 2 1' 1 1'")
PAIR_UT = tableau_from_text("2~ 2~ 1' 1 1~ 1' 1 1'")
PAIR_MU = (3, 2)


def test_pair_golden():
    nu, _ = apply_word(PAIR_MU, row_word(PAIR_U))
    assert tuple(nu) == (3, 5)
    expected_weight = -(a(-6) * a(-4) * a(-3) * a(-2) * a(-1))
    assert monomial_weight(PAIR_U, PAIR_MU) == expected_weight
    Ut = pieri_bad_pair(PAIR_U, PAIR_MU)
    assert Ut == PAIR_UT
    nut, _ = apply_word(PAIR_MU, row_word(Ut))
    assert tuple(nut) == (4, 4) == tuple(apply_rbar(1, 2, (3, 5)))
    assert monomial_weight(Ut, PAIR_MU) == expected_weight
    assert pieri_bad_pair(Ut, PAIR_MU) == PAIR_U


def test_pair_rejects_horizontal_strips():
    U = tableau_from_text("1~ 1")
    with pytest.raises(ValueError, match="nu is good"):
        pieri_bad_pair(U, (1,))


def _witness_row(mu, nu):
    mup = pad(iv(mu), len(nu))
    for i in range(1, len(nu)):
        if nu[i] - mup[i - 1] > 0:
            return i
    raise AssertionError("target is a horizontal strip")


def _check_pair(U, mu):
    """Weight kept, image targets R-bar_{i,i+1} nu, and the inverse when i agrees.

    Returns the sign of d = nu_{i+1} - nu_i - 1.
    """
    nu, _ = apply_word(mu, row_word(U))
    Ut = pieri_bad_pair(U, mu)
    assert Ut.is_valid(), (mu, U.to_text())
    assert monomial_weight(Ut, mu) == monomial_weight(U, mu), (mu, U.to_text())
    i = _witness_row(mu, nu)
    target = iv(apply_rbar(i, i + 1, pad(nu, i + 1)))
    word, _ = apply_word(mu, row_word(Ut))
    assert iv(word) == target, (mu, nu, U.to_text())
    # the pairing inverts exactly when both sides pick the same witness row
    if _witness_row(mu, target) == i:
        assert pieri_bad_pair(Ut, mu) == U, (mu, U.to_text())
    nup = pad(nu, i + 1)
    d = nup[i] - nup[i - 1] - 1
    return (d > 0) - (d < 0)


def test_pair_grid_weight_preserving_bijection():
    signs = defaultdict(int)
    for mu in partitions_up_to(3):
        if not mu:
            continue
        l = len(mu)
        for p in (1, 2):
            for e in range(0, l):
                for nu in bad_compositions(mu, p):
                    for U in derived_monomial_tableaux(p, e, mu, nu, vmax=l + 1):
                        signs[_check_pair(U, mu)] += 1
    assert sum(signs.values()) > 100
    # both directions of the move are exercised
    assert signs[1] > 0 and signs[-1] > 0, dict(signs)


_BAD_PAIR_CELLS = [
    (mu, p)
    for mu in partitions_up_to(3)
    for p in range(1, 8)
    if mu and bad_compositions(mu, p)
]


@st.composite
def _bad_pair_rows(draw):
    """A row of up to 7 entries over |mu| <= 3 whose target is not a horizontal strip."""
    mu, p = draw(st.sampled_from(_BAD_PAIR_CELLS))
    l = len(mu)
    nu = draw(st.sampled_from(bad_compositions(mu, p)))
    mup = pad(mu, len(nu))
    barred = [Entry(k + 1, True) for k in range(len(nu)) for _ in range(nu[k] - mup[k])]
    others = draw(st.lists(
        st.builds(Entry, st.integers(1, l + 2), st.just(False), st.booleans()),
        min_size=p - len(barred),
        max_size=p - len(barred),
    ))
    # a stable sort keeps the drawn order among entries of equal value
    row = sorted(draw(st.permutations(barred + others)), key=lambda e: -e.value)
    e = draw(st.integers(0, l - 1))
    return ReverseTableau([[]] * e + [row]), mu


@settings(max_examples=300)
@given(_bad_pair_rows())
def test_pair_on_random_rows(case):
    # beyond the fixed grid: rows of up to 7 entries with values up to l(mu) + 2
    _check_pair(*case)


@pytest.mark.parametrize("text, image", [
    (PAIR_U.to_text(), PAIR_UT.to_text()),
    ("2~ 2~ 2~ 2' 2 2' 1' 1 1'", "2~ 2~ 1' 1 1' 1~ 1' 1 1'"),
    ("2~ 2~ 2~ 2' 2 2' 2 1' 1 1'", "2~ 2~ 1' 1 1' 1~ 1 1' 1 1'"),
])
def test_pair_long_rows_round_trip(text, image):
    # 8- to 10-entry rows over mu = (3, 2), nu = (3, 5): d = 1 one way and
    # d = -1 back, so both directions of the move run on each
    U = tableau_from_text(text)
    assert pieri_bad_pair(U, PAIR_MU).to_text() == image
    assert _check_pair(U, PAIR_MU) == 1
    assert _check_pair(tableau_from_text(image), PAIR_MU) == -1


def test_pair_non_mutual_witness_is_still_bijective():
    # nu = (1,1,3) over mu = (1,1) pairs into (1,2,2) via row 2, but (1,2,2)
    # itself pairs via row 1 with d = 0 (identity); the map between the two
    # tableau families is nonetheless a weight-preserving bijection
    mu = (1, 1)
    nu = (1, 1, 3)
    target = iv(apply_rbar(2, 3, nu))
    assert target == (1, 2, 2)
    A = list(derived_monomial_tableaux(4, 1, mu, nu, vmax=3))
    images = [pieri_bad_pair(U, mu) for U in A]
    B = list(derived_monomial_tableaux(4, 1, mu, target, vmax=3))
    assert len(set(images)) == len(A)
    assert set(images) <= set(B)
    assert len(A) == len(B)
    sum_a = APoly.zero()
    sum_b = APoly.zero()
    for U in A:
        sum_a += monomial_weight(U, mu)
    for U in B:
        sum_b += monomial_weight(U, mu)
    assert sum_a == sum_b
