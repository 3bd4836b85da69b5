"""Concrete double symmetric polynomials: the independent oracle layer."""

from collections import Counter
from math import factorial, prod

import pytest

from lrpoly import apoly, double_sym
from lrpoly.apoly import APoly
from lrpoly.schursum import SchurSum
from lrpoly.shapes import (
    conjugate,
    lr_targets,
    pad,
    partitions_up_to,
    perm_sign,
    size,
)
from lrpoly.double_sym import (
    XPoly,
    double_schur_n,
    c_oracle,
    classical_lr,
    _schur_sym_branch,
    _decompose_sym,
    _orbit,
    _sym_mul,
)
from definitions import (
    a, all_permutations, x_const, x_one, x_var, x_mul, x_at_zero, h_n, h_n_shifted,
    product_decomposition,
)


def test_h_n_small():
    # h_1 in 2 variables: (x_1 - a_1) + (x_2 - a_2)
    h = h_n(1, 2)
    expected = (
        x_var(1, 2)
        + x_var(2, 2)
        + x_const(2, APoly.var(1, coeff=-1) - a(2))
    )
    assert h == expected
    assert h_n(0, 3) == x_one(3)
    assert h_n(2, 0).is_zero()


def test_double_schur_symmetric_and_classical_leading_term():
    for lam in [(1,), (2,), (1, 1), (2, 1)]:
        P = double_schur_n(lam, 3)
        # symmetric: every reordering of an exponent has its coefficient
        for e, c in P.terms.items():
            for w in all_permutations(3):
                assert P.terms.get(tuple(e[i - 1] for i in w)) == c, (lam, e)
        # at a = 0 this is the classical Schur polynomial; check its
        # leading monomial x^lam has coefficient 1
        lead = tuple(lam) + (0,) * (3 - len(lam))
        assert x_at_zero(P).terms.get(lead) == APoly.one()


def _jacobi_trudi_dense(lam, n):
    """det[h_{lam_i + j - i} shifted by j - 1] as a Leibniz sum of dense products."""
    total = XPoly(n)
    for w in all_permutations(len(lam)):
        term = x_const(n, perm_sign(w))
        for i, wi in enumerate(w, start=1):
            term = x_mul(term, h_n_shifted(lam[i - 1] + wi - i, wi - 1, n))
        total = total + term
    return total


def test_branching_matches_jacobi_trudi_determinant():
    # the two definitions of s_lam(x||a): the branching rule over horizontal
    # strips (the only construction in the library) and the determinant
    for lam in partitions_up_to(4):
        for n in range(0, 5):
            assert double_schur_n(lam, n) == _jacobi_trudi_dense(lam, n), (lam, n)


def test_orbit_is_every_distinct_reordering_once():
    for nu, n in [((), 3), ((1,), 4), ((2, 1), 4), ((1, 1), 6), ((2, 2, 1), 5), ((3, 1, 1), 7)]:
        e = pad(nu, n)
        orbit = _orbit(e)
        multinomial = factorial(n) // prod(map(factorial, Counter(e).values()))
        assert len(orbit) == multinomial, (nu, n)
        assert all(sorted(o) == sorted(e) for o in orbit), (nu, n)


def test_double_schur_rejects_non_partition():
    with pytest.raises(ValueError, match="shape must be a partition"):
        double_schur_n((1, 2), 3)


def test_double_schur_refuses_entries_that_are_not_integers(clear_oracle_memos):
    # 2.5 and '1' are refused, not truncated to (2,) and (1,), cold and
    # again once (2, 1) at n = 2 has put (2,) and (1,) at n = 1 in the memo
    for _ in range(2):
        for bad in [(2.5,), ("1",)]:
            with pytest.raises(ValueError, match="shape must be a partition"):
                double_schur_n(bad, 1)
        for good in [(2, 1), [2, 1, 0], (2.0, 1)]:
            assert double_schur_n(good, 2) == double_schur_n((2, 1), 2), good


def test_renderings_match_a_per_term_rendering():
    # every member of an orbit shares one coefficient object, which each
    # rendering converts once; the text must be what converting every term
    # on its own gives
    P = double_schur_n((2, 1), 9)
    order = sorted(P.terms, key=lambda e: (sum(e), e), reverse=True)
    assert len(order) > len({id(c) for c in P.terms.values()})
    assert P.to_json() == {
        "n": 9,
        "terms": [{"x": list(e), "coeff": P.terms[e].to_json()} for e in order],
    }
    parts = []
    for e in order:
        mono = "*".join(f"x_{i+1}" if k == 1 else f"x_{i+1}^{k}" for i, k in enumerate(e) if k)
        parts.append(f"({P.terms[e]})*{mono}" if mono else f"({P.terms[e]})")
    assert str(P) == " + ".join(parts)


def test_single_box_explicit():
    # s_(1)(x_1, x_2 || a) = x_1 + x_2 - a_1 - a_2
    P = double_schur_n((1,), 2)
    assert str(P) == "(1)*x_1 + (1)*x_2 + (-a_1 - a_2)"


def test_decompose_round_trip():
    for lam in [(1,), (2, 1), (2, 2)]:
        d = _decompose_sym(_schur_sym_branch(lam, 3), 3, 0)
        assert d.partitions() == [lam]
        assert d.coeff(lam) == APoly.one()


def test_product_decomposition_matches_oracle():
    d = product_decomposition((1,), (1,), 3)
    # s_1 * s_1 = s_2 + s_11 + (lower-degree terms with a-coefficients)
    assert d.coeff((2,)).at_zero() == 1
    assert d.coeff((1, 1)).at_zero() == 1


def test_c_oracle_small_values():
    assert c_oracle((1,), (1,), (1,)) == a(0) - a(1)
    assert c_oracle((1,), (1,), (2,)) == APoly.one()
    assert c_oracle((1,), (1,), (1, 1)) == APoly.one()
    assert c_oracle((2,), (1,), (5,)).is_zero()


def _restricted(d, n):
    return SchurSum({nu: c for nu, c in d.terms.items() if len(nu) <= n})


def test_product_decomposition_stable_in_n():
    # the coefficient of s_nu is the same in every n >= l(nu), which is what
    # lets c_oracle expand the cell it brute-forces, nu or its conjugate,
    # at max(l(nu), 1) variables
    for lam in partitions_up_to(4):
        for mu in partitions_up_to(4 - size(lam)):
            for n in range(1, size(lam) + size(mu) + 2):
                assert product_decomposition(lam, mu, n) == _restricted(
                    product_decomposition(lam, mu, n + 1), n
                ), (lam, mu, n)


@pytest.mark.parametrize(
    "cell, expanded",
    [
        # nu_1 < l(nu): the conjugate cell is expanded, at n0 = 1
        (((1,), (1,), (1, 1)), ((1,), (1,), (2,))),
        # nu_1 >= l(nu): the cell itself is expanded, at n0 = 2
        (((1,), (1, 1), (2, 1)), ((1,), (1, 1), (2, 1))),
    ],
    ids=["flipped", "unflipped"],
)
def test_c_oracle_detects_instability(monkeypatch, clear_oracle_memos, cell, expanded):
    lam, mu, nu = expanded
    n0 = len(nu)
    low = min(size(lam), size(mu), size(nu))
    original = double_sym._product  # c_oracle trims its shapes once and reads the memo
    calls = []

    def tampered(lam_, mu_, n, low_):
        calls.append((lam_, mu_, n, low_))
        d = original(lam_, mu_, n, low_)
        if (lam_, mu_, n, low_) == (lam, mu, n0 + 1, low):
            d = d + SchurSum.single(nu)
        return d

    monkeypatch.setattr(double_sym, "_product", tampered)
    with pytest.raises(ArithmeticError):
        c_oracle(*cell)
    assert calls == [(lam, mu, n0, low), (lam, mu, n0 + 1, low)]
    # the stability memo stores no failure: the same cell checks and raises again
    with pytest.raises(ArithmeticError):
        c_oracle(*cell)
    assert calls == 2 * [(lam, mu, n0, low), (lam, mu, n0 + 1, low)]


def test_degree_cut_keeps_every_coefficient_at_or_above_low():
    # _product(lam, mu, n, low) drops the terms below degree low from the
    # product and from each basis subtraction; the coefficients it keeps
    # must be those of the whole decomposition, for every low
    checks = 0
    for lam in partitions_up_to(5):
        for mu in partitions_up_to(5 - size(lam)):
            if lam > mu:
                continue
            top = size(lam) + size(mu) + 1
            for n in range(1, top + 1):
                whole = double_sym._product(lam, mu, n, 0)
                for low in range(1, top + 1):
                    assert double_sym._product(lam, mu, n, low) == SchurSum({
                        kappa: c for kappa, c in whole.terms.items() if size(kappa) >= low
                    }), (lam, mu, n, low)
                    checks += 1
    assert checks == 1035


def _expanded_coefficient(lam, mu, nu):
    """c^nu_{lam,mu} read off the expansion in max(l(nu), 1) variables, never flipped."""
    return product_decomposition(lam, mu, max(len(nu), 1)).coeff(nu)


def test_conjugation_duality_by_brute_force_on_both_sides():
    # c_oracle expands the conjugate cell when nu_1 < l(nu) and trusts
    # c^nu_{lam,mu} = dual of c^{nu'}_{lam',mu'}; here both sides are expanded
    cells = [
        (lam, mu, nu)
        for lam in partitions_up_to(3)
        if lam
        for mu in partitions_up_to(3)
        for nu in lr_targets(lam, mu)
    ]
    assert len(cells) == 385
    for lam, mu, nu in cells:
        assert _expanded_coefficient(lam, mu, nu) == _expanded_coefficient(
            conjugate(lam), conjugate(mu), conjugate(nu)
        ).dual(), (lam, mu, nu)


def test_a_warm_flipped_cell_packs_and_unpacks_nothing(monkeypatch):
    # dual maps each key by field masks, so a memoized cell with
    # nu_1 < l(nu) is answered without unpacking a monomial
    cell = ((2, 1), (1,), (2, 1, 1))
    expected = c_oracle(*cell)
    assert expected and _expanded_coefficient(*cell) == expected

    def refuse(*_args):
        raise AssertionError("a warm cell reached pack or unpack")

    monkeypatch.setattr(apoly, "pack", refuse)
    monkeypatch.setattr(apoly, "unpack", refuse)
    assert c_oracle(*cell) == expected


def _branch_snapshot():
    """Private copies of every basis element the products below can read."""
    return {
        (lam, n): {k: dict(c.terms) for k, c in _schur_sym_branch(lam, n).items()}
        for lam in partitions_up_to(6)
        for n in range(1, 5)
    }


def test_decomposition_leaves_cached_bases_intact(clear_oracle_memos):
    for lam, mu in [((1,), (1,)), ((2, 1), (1,)), ((2,), (1, 1)), ((2, 1), (2, 1))]:
        product_decomposition(lam, mu, 3)
        product_decomposition(lam, mu, 4)
    warm = _branch_snapshot()
    assert _schur_sym_branch.cache_info().hits
    _schur_sym_branch.cache_clear()
    assert _branch_snapshot() == warm
    # the elimination reads the cached branch basis, here also as its input;
    # running it twice would expose a first pass that wrote into those terms
    for lam in [(1,), (2, 1), (2, 2), (3, 1)]:
        for _ in range(2):
            d = _decompose_sym(_schur_sym_branch(lam, 3), 3, 0)
            assert d.partitions() == [lam]
            assert d.coeff(lam) == APoly.one()


def test_classical_lr_known_values():
    # s_21 * s_21 contains s_321 with multiplicity 2
    assert classical_lr((2, 1), (2, 1), (3, 2, 1)) == 2
    assert classical_lr((1,), (1,), (2,)) == 1
    assert classical_lr((1,), (1,), (1, 1)) == 1
    assert classical_lr((2,), (2,), (3, 1)) == 1
    assert classical_lr((2,), (2,), (2, 1, 1)) == 0
    # degree mismatch vanishes
    assert classical_lr((2,), (1,), (1, 1)) == 0


def test_classical_lr_symmetry():
    for lam in partitions_up_to(3):
        for mu in partitions_up_to(3):
            for nu in partitions_up_to(size(lam) + size(mu)):
                assert classical_lr(lam, mu, nu) == classical_lr(mu, lam, nu)


def test_decompose_rejects_basis_without_unit_leading_coefficient(monkeypatch, clear_oracle_memos):
    # a basis element whose leading coefficient is not 1 cannot clear its own
    # leading term; the elimination must fail instead of looping forever
    original = double_sym._schur_sym_branch

    def doubled(lam, n):
        return {k: c * 2 for k, c in original(lam, n).items()}

    monkeypatch.setattr(double_sym, "_schur_sym_branch", doubled)
    with pytest.raises(ArithmeticError, match="leading coefficient"):
        product_decomposition((1,), (1,), 2)


def test_product_memo_is_shared_by_a_pair_and_its_mirror():
    d = product_decomposition((2, 1), [1, 1, 0], 3)
    assert d is product_decomposition((1, 1), (2, 1), 3)
    assert d == _decompose_sym(
        _sym_mul(_schur_sym_branch((2, 1), 3), _schur_sym_branch((1, 1), 3), 3, 0), 3, 0
    )


def test_decompose_reports_a_key_longer_than_n_as_internal():
    # every input key has at most n parts, so a longer leading exponent is a
    # broken invariant, not bad input
    with pytest.raises(RuntimeError, match=r"\(1, 1\) has more than n=1 parts"):
        _decompose_sym({(1, 1): APoly.one()}, 1, 0)
