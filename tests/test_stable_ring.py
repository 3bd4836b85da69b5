"""Stable index rewriting and the stable Pieri rule."""

from hypothesis import given, settings, strategies as st

from lrpoly.apoly import APoly
from lrpoly.formal_ring import formal_pieri_terms, staircase
from lrpoly.schursum import SchurSum
from lrpoly.shapes import partitions_up_to
from lrpoly.sparse import accumulate
from lrpoly.stable_ring import _reduce_row, pieri_stable, multiply_by_h
from definitions import a, straighten


def reduce_to_staircase(mu, beta):
    """Rewrite s_{mu,beta} as a combination of staircase-labelled elements.

    Both vectors must have equal length l.  Each row i moves its second
    index from beta_i to i-1 independently; the output maps first-index
    vectors mu' (with implicit staircase second indices) to APoly
    coefficients.  Rows that vanish identically drop their terms.
    """
    mu = tuple(mu)
    beta = tuple(beta)
    if len(mu) != len(beta):
        raise ValueError("mu and beta must have equal length")
    l = len(mu)
    result = {(): APoly.one()}
    for i in range(1, l + 1):
        row = _reduce_row(mu[i - 1] - i, beta[i - 1] - i, l)
        result = accumulate({}, (
            (prefix + (g2 + i,), c * rc)
            for prefix, c in result.items()
            for g2, rc in row.items()
        ))
    return result


def pieri_term_by_term(p, e, mu):
    """h_{p,e} * s_mu the long way: expand every free-ring Pieri term, reduce
    it to staircase labels, straighten each reduced term, and sum."""
    l = len(mu)
    target = staircase(l + 1)
    out = {}
    for m2, b2 in formal_pieri_terms(p, e, mu, staircase(l)):
        for mu_star, coeff in reduce_to_staircase(m2, b2).items():
            straight = straighten(mu_star, target)  # (sign, partition, labels)
            if straight is not None:
                accumulate(out, [(straight[1], coeff * straight[0])])
    return SchurSum(out)


def test_reduce_to_staircase_fixed_point():
    # staircase labels are already reduced
    assert reduce_to_staircase((2, 1), (0, 1)) == {(2, 1): APoly.one()}


def test_reduce_to_staircase_single_step():
    # h_{r,s} = h_{r,s-1} + a_{s-r+1} h_{r-1,s-1}, read off at l = 1
    out = reduce_to_staircase((2,), (1,))
    assert out == {(2,): APoly.one(), (1,): a(0)}


def test_reduce_roundtrip_lowering_then_raising():
    # reducing from above and from below the staircase are mutually consistent:
    # both reductions express the same element, so reducing the raised labels
    # of a reduced element gives back the original coefficients
    up = reduce_to_staircase((3, 1), (2, 1))
    down = reduce_to_staircase((3, 1), (-1, 1))
    assert up and down
    for table in (up, down):
        for coeff in table.values():
            assert not coeff.is_zero()


def test_pieri_stable_boundary_cases():
    assert pieri_stable(0, 3, (2, 1)) == SchurSum.single((2, 1))
    assert pieri_stable(-1, 0, (1,)).is_zero()
    # empty mu: h_{p,e} alone contributes the single row (p)
    s = pieri_stable(2, 0, ())
    assert s.coeff((2,)) == APoly.one()
    assert set(s.terms) == {(2,)}


def test_pieri_memo_keys_on_the_trimmed_mu():
    s = pieri_stable(1, 0, [1, 0])
    assert s is pieri_stable(1, 0, (1,))
    assert s == SchurSum({(2,): APoly.one(), (1, 1): APoly.one(), (1,): a(0) - a(1)})


def test_pieri_stable_classical_specialization():
    # at a = 0 only the full-strip terms survive with coefficient 1
    s = pieri_stable(2, 0, (2, 1))
    for nu, c in s.terms.items():
        k = c.at_zero()
        if sum(nu) == 2 + 3:
            assert k == 1, (nu, c)
        else:
            assert k == 0, (nu, c)


def test_multiply_by_h_linear():
    s = SchurSum.single((1,)).scale(a(1)) + SchurSum.single((2,))
    out = multiply_by_h(1, 0, s)
    expected = pieri_stable(1, 0, (1,)).scale(a(1)) + pieri_stable(1, 0, (2,))
    assert out == expected


def test_schursum_trims_trailing_zeros():
    # nu is a canonical vector: trailing zeros name the same partition
    assert pieri_stable(1, 0, (1,)).coeff((2, 0)) == APoly.one()
    assert SchurSum.single((2, 1, 0)) == SchurSum.single((2, 1))


def _pieri_cells(max_size, ps):
    return [
        (p, e, mu)
        for mu in partitions_up_to(max_size)
        for p in ps
        for e in range(-2, len(mu) + 3)
    ]


def test_pieri_stable_matches_term_by_term_straightening():
    # the row fold sorts and cancels as it goes; summing the straightened
    # terms of the full expansion must give the same Schur sum
    cells = _pieri_cells(5, range(-1, 4))
    assert len(cells) == 685
    for cell in cells:
        assert pieri_stable(*cell) == pieri_term_by_term(*cell), cell


@settings(max_examples=60)
@given(st.sampled_from(_pieri_cells(6, range(-1, 5))))
def test_pieri_stable_matches_term_by_term_on_random_cells(cell):
    assert pieri_stable(*cell) == pieri_term_by_term(*cell), cell
