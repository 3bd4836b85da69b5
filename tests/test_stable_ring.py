"""Stable index rewriting and the stable Pieri rule."""

from lrpoly.apoly import APoly, a
from lrpoly.schursum import SchurSum
from lrpoly.stable_ring import reduce_to_staircase, pieri_stable, multiply_by_h


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
