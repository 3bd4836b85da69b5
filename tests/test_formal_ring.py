"""Free commutative ring on h_{r,s} and the formal Pieri expansion."""

from lrpoly.formal_ring import (
    SignedHSum,
    staircase,
    jacobi_trudi,
    formal_pieri_terms,
)
from definitions import straighten


def test_word_conventions():
    # h_{0,s} is the unit, h_{r<0,s} is zero
    assert SignedHSum.word([(0, 5)]) == SignedHSum.word([])
    assert SignedHSum.word([(-1, 0)]).is_zero()
    # commutativity: words are sorted multisets
    assert SignedHSum.word([(2, 1), (1, 0)]) == SignedHSum.word([(1, 0), (2, 1)])


def test_sum_arithmetic():
    x = SignedHSum.word([(1, 0)])
    y = SignedHSum.word([(2, 1)])
    assert x + y - x == y
    assert (x - x).is_zero()
    assert (x * y) == (y * x)
    assert x.scale(0).is_zero()


def test_jacobi_trudi_single_row_and_column():
    # one row: the determinant is the single factor
    assert jacobi_trudi((3,)) == SignedHSum.word([(3, 0)])
    # two-row hook: h_{1,0}h_{1,1} - h_{2,1}
    expected = SignedHSum.word([(1, 0), (1, 1)]) - SignedHSum.word([(2, 1)])
    assert jacobi_trudi((1, 1)) == expected


def test_straighten():
    # already sorted labels pass through with sign +1
    assert straighten((2, 1), (0, 1)) == (1, (2, 1), (0, 1))
    # one adjacent swap costs a sign
    sign, mu, beta = straighten((0, 3), (0, 1))
    assert sign == -1 and mu == (2, 1) and beta == (0, 1)
    # equal gamma and delta: repeated determinant row, zero element
    assert straighten((1, 2), (1, 2)) is None


def test_straighten_involution_consistency():
    # straightening the straightened labels is the identity
    sign, mu, beta = straighten((0, 4, 1), (0, 1, 2))
    assert straighten(mu, beta) == (1, mu, beta)


def test_formal_pieri_terms_count():
    # one term per composition of p with at most l(mu)+1 parts
    terms = formal_pieri_terms(2, 0, (1,), staircase(1))
    assert len(terms) == 3
    pairs = set(terms)
    assert ((3, 0), (2, -2)) in pairs  # sigma = (2, 0)
    assert ((2, 1), (1, -1)) in pairs  # sigma = (1, 1)
    assert ((1, 2), (0, 0)) in pairs  # sigma = (0, 2)
