"""Free commutative ring on h_{r,s} and the formal Pieri expansion."""

import random

from lrpoly.formal_ring import (
    make_word,
    staircase,
    jacobi_trudi,
    formal_pieri_terms,
    pieri_sides,
)
from lrpoly.shapes import partitions_up_to
from definitions import straighten


def test_word_conventions():
    # h_{0,s} is the unit, h_{r<0,s} is zero
    assert make_word([(0, 5)]) == make_word([]) == ()
    assert make_word([(-1, 0)]) is None
    # commutativity: words are sorted multisets
    assert make_word([(2, 1), (1, 0)]) == make_word([(1, 0), (2, 1)])


def test_jacobi_trudi_single_row_and_column():
    # one row: the determinant is the single factor
    assert jacobi_trudi((3,), staircase(1)) == {((3, 0),): 1}
    # two-row hook: h_{1,0}h_{1,1} - h_{2,1}
    assert jacobi_trudi((1, 1), staircase(2)) == {((1, 0), (1, 1)): 1, ((2, 1),): -1}


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


def test_free_ring_pieri_identity_at_any_beta():
    # the paper's Pieri rule in the free ring, beyond the staircase beta the
    # ring suite checks: six fixed pseudo-random beta in [-3, 5]^l(mu) per mu
    rng = random.Random(2012)
    checks = 0
    for mu in partitions_up_to(4, max_len=3):
        for _ in range(6):
            beta = tuple(rng.randint(-3, 5) for _ in mu)
            for p in range(1, 4):
                for e in range(-2, 5):
                    lhs, rhs = pieri_sides(p, e, mu, beta)
                    assert lhs == rhs, (p, e, mu, beta)
                    checks += 1
    assert checks == 1386
