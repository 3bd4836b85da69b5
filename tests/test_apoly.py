"""Exact sparse polynomials in the variables a_i."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from lrpoly.apoly import B, ONE_MONO, APoly, pack, unpack, var_key
from lrpoly.cli import main
from definitions import a, degree, from_json, substitute


def test_ring_axioms_small():
    p = a(1) + a(-2) * 3
    q = a(1) - 1
    assert p * q == q * p
    assert (p + q) * q == p * q + q * q
    assert p - p == APoly.zero()
    assert p * APoly.one() == p
    assert p * 0 == APoly.zero()


def test_canonical_form_and_equality():
    assert a(1) * a(0) == a(0) * a(1)
    assert a(1) * a(1) == APoly({var_key(1, 2): 1})
    assert a(3) - a(3) == 0
    assert APoly.const(0).is_zero()


def test_constants_hash_like_the_ints_they_equal():
    # equal objects must hash equal, so a constant and its int are one key
    for c in (0, 1, 2, -3, 2**70):
        assert APoly.const(c) == c and hash(APoly.const(c)) == hash(c), c
    assert hash(APoly.zero()) == 0
    assert len({APoly.const(2), 2}) == 1
    assert {1: "x"}.get(APoly.one()) == "x"
    assert {APoly.zero(): "z"}.get(0) == "z"
    assert len({a(1), a(1) * 1, a(2)}) == 2


def test_degree_and_homogeneity():
    p = a(1) * a(2) - a(0) * a(0)
    assert degree(p) == 2
    assert p.is_homogeneous(2)
    assert not (p + a(5)).is_homogeneous(2) and not (p + a(5)).is_homogeneous(1)
    assert APoly.zero().is_homogeneous(7)


def test_shift_indices():
    p = a(1) * a(-3) + a(0)
    assert p.shift_indices(2) == a(3) * a(-1) + a(2)
    assert p.shift_indices(2).shift_indices(-2) == p


def test_substitute_and_at_zero():
    p = a(1) * a(2) - 2 * a(1) + 3
    assert substitute(p, {1: 2, 2: 5}) == 2 * 5 - 2 * 2 + 3
    assert p.at_zero() == 3
    assert (a(4) - a(4)).at_zero() == 0


def test_str_format():
    assert str(a(0) - a(1)) == "a_0 - a_1"
    assert str(a(-2)) == "a_-2"
    assert str(a(1) * a(1)) == "a_1^2"
    assert str(2 * a(1)) == "2*a_1"
    assert str(APoly.zero()) == "0"


def test_json_round_trip():
    p = a(1) * a(-4) - 2 * a(0) + 7
    data = json.loads(json.dumps(p.to_json()))
    assert from_json(data) == p
    # serialization order is deterministic (graded-lex)
    assert p.to_json() == p.to_json()


# monomials as (index, exponent) pairs by increasing index, degree <= 40
_pairs = st.dictionaries(
    st.integers(-40, 40), st.integers(1, 10), max_size=4
).map(lambda d: tuple(sorted(d.items())))
_packed = settings(max_examples=200)


def _merge(x, y):
    exps = dict(x)
    for i, e in y:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


@_packed
@given(_pairs)
def test_unpack_inverts_pack(x):
    assert unpack(pack(x)) == x


@_packed
@given(_pairs, _pairs)
def test_pack_turns_products_into_sums(x, y):
    assert pack(_merge(x, y)) == pack(x) + pack(y)
    assert APoly({pack(x): 2}) * APoly({pack(y): 3}) == APoly({pack(_merge(x, y)): 6})


@_packed
@given(_pairs, _pairs, _pairs)
def test_key_order_is_a_monomial_order(x, y, z):
    m1, m2, m3 = pack(x), pack(y), pack(z)
    if m1 < m2:
        assert m1 + m3 < m2 + m3
        assert pack(_merge(x, z)) < pack(_merge(y, z))
    assert ONE_MONO == pack(()) and ONE_MONO <= min(m1, m2, m3)


@_packed
@given(st.lists(_pairs, max_size=4), st.integers(-40, 40))
def test_shift_indices_matches_shifting_the_pairs(monomials, k):
    p = APoly({pack(x): c for c, x in enumerate(monomials, 1)})
    shifted = p.shift_indices(k)
    assert shifted.shift_indices(-k) == p
    assert shifted == APoly(
        {pack((i + k, e) for i, e in x): c for c, x in enumerate(monomials, 1)}
    )


# monomials with indices anywhere in the span of the field masks
_span_pairs = st.dictionaries(
    st.integers(-255, 255), st.integers(1, 10), max_size=4
).map(lambda d: tuple(sorted(d.items())))


def _with_edges(monomials, edges):
    """a_i for every edge index i, their product, then the drawn monomials."""
    return [((i, 1),) for i in edges] + [tuple((i, 1) for i in edges)] + monomials


@_packed
@given(st.lists(_span_pairs, max_size=4))
def test_dual_matches_reflecting_the_pairs(monomials):
    # the field masks send a_i to -a_{1-i} on every index of the span
    monomials = _with_edges(monomials, (-255, -1, 0, 1, 255))
    p = APoly({pack(x): c for c, x in enumerate(monomials, 1)})
    assert p.dual() == APoly({
        pack((1 - i, e) for i, e in x): -c if sum(e for _, e in x) % 2 else c
        for c, x in enumerate(monomials, 1)
    })


@_packed
@given(st.lists(_span_pairs.filter(lambda x: all(i > -255 for i, _ in x)), max_size=4))
def test_dual_is_an_involution(monomials):
    # a_i -> -a_{1-i} keeps the indices -254..255 inside the span
    p = APoly({pack(x): c for c, x in enumerate(_with_edges(monomials, (-254, 0, 1, 255)), 1)})
    assert p.dual().dual() == p


def test_dual_past_the_span_raises_like_shift_indices():
    assert a(-255).dual() == -a(256)
    for i in (256, -256, 300):
        with pytest.raises(ArithmeticError, match="outside the shift span"):
            a(i).dual()
        with pytest.raises(ArithmeticError, match="outside the shift span"):
            a(i).shift_indices(1)
    assert APoly.zero().dual() == APoly.zero()


@_packed
@given(st.lists(st.tuples(_pairs, st.integers(-5, 5).filter(bool)), max_size=6))
def test_json_round_trip_on_random_polynomials(terms):
    p = APoly.zero()
    for x, c in terms:
        p = p + APoly({pack(x): c})
    assert from_json(json.loads(json.dumps(p.to_json()))) == p


def test_degree_past_the_guard_bit_raises():
    def power(i, e):
        return APoly({var_key(i, e): 1})

    half = 1 << (B - 1)
    assert power(0, half - 2) * a(0) == power(0, half - 1)
    with pytest.raises(ArithmeticError):
        power(0, half - 1) * a(1)
    with pytest.raises(ArithmeticError):
        power(-3, half // 2) * power(5, half // 2)
    with pytest.raises(ArithmeticError):
        power(2, half)
    with pytest.raises(ArithmeticError):
        a(300).shift_indices(1)


def test_cli_index_far_below_zero(capsys):
    argv = ["lr", "--lambda", "2,1", "--mu", "30,2", "--nu", "31,3", "--method", "theorem"]
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == "a_-30 + a_-29 + a_-1 - a_1 - 2*a_2"
