"""The shared sparse-term kernel: accumulate, Terms, and cache safety."""

from hypothesis import given, settings, strategies as st

from lrpoly.apoly import APoly, pack
from lrpoly.double_sym import XPoly
from lrpoly.lr import kostka
from lrpoly.schursum import SchurSum
from lrpoly.shapes import partitions_up_to
from lrpoly.sparse import Terms, accumulate
from lrpoly.stable_ring import _pieri, _reduce_row, multiply_by_h, pieri_stable
from definitions import a


def _all_nonzero(terms):
    return all(c for c in terms.values())


def test_accumulate_int_drops_cancelled_and_zero():
    out = accumulate({"x": 2, "y": 1}, [("x", -2), ("z", 0), ("y", 3), ("w", 5)])
    assert out == {"y": 4, "w": 5}
    # a key that cancels inside one call is gone, a later addition restores it
    assert accumulate({}, [("k", 1), ("k", -1)]) == {}
    assert accumulate({}, [("k", 1), ("k", -1), ("k", 7)]) == {"k": 7}


def test_accumulate_apoly_drops_cancelled_and_zero():
    p = a(1) + 1
    out = accumulate({"x": p}, [("x", -p), ("z", APoly.zero()), ("y", a(2))])
    assert out == {"y": a(2)}
    assert _all_nonzero(out)
    # the replaced value is a new object: the old one is not written
    out = accumulate({"x": p}, [("x", a(3))])
    assert out["x"] == a(1) + a(3) + 1 and p == a(1) + 1


def _samples():
    return [
        a(1) * a(-2) + 2,
        # int coefficients, as in the folds of cli._psi_report and
        # double_sym._classical_table
        Terms({(1, 0): 3, (2, 1): -1}),
        SchurSum.single((2, 1)).scale(a(0)) + SchurSum.single((1,)).scale(2),
        XPoly(2, {(1, 0): a(1), (0, 0): APoly.const(4)}),
    ]


def test_every_class_cancels_to_empty_terms():
    for x in _samples():
        assert (x - x).terms == {}, type(x)
        assert x.scale(0).terms == {}, type(x)
        assert (x + (-x)).is_zero() and not (x - x)
        assert x.scale(1) == x and x.scale(-1) == -x
        assert _all_nonzero((x + x).terms)


def test_variable_count_is_part_of_equality():
    assert XPoly(2, {}) != XPoly(3, {})
    assert XPoly(3) == XPoly(3, {}) and XPoly(3).n == 3
    x = XPoly(2, {(1, 0): a(1)})
    assert (x - x).n == 2 and x.scale(a(0)).n == 2


_monomials = st.dictionaries(
    st.integers(-2, 2), st.integers(1, 2), max_size=2
).map(lambda d: pack(d.items()))
_apolys = st.dictionaries(
    _monomials, st.integers(-3, 3).filter(bool), max_size=4
).map(APoly)


@settings(max_examples=150)
@given(_apolys, _apolys, _apolys, st.integers(-2, 2))
def test_apoly_ring_axioms_keep_canonical_form(p, q, r, k):
    results = [
        p + q, q + p, (p + q) + r, p + (q + r),
        p * q, q * p, (p * q) * r, p * (q * r),
        p * (q + r), p * q + p * r,
        p - q, -(q - p), p - p, p + k, p * k, k - p, p.scale(k),
    ]
    for x in results:
        assert _all_nonzero(x.terms), x
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r) and (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - q == -(q - p) and (p - p).terms == {}
    assert p + 0 == p and p * 1 == p and (p * 0).terms == {}
    assert p * k == p.scale(k) == APoly.const(k) * p


def _cache_copy():
    """Private copies of the expansions and rows at a fixed grid of keys.

    The grid holds every key the sweep below reads: p <= 2, e <= 2 and mu
    of at most 5 boxes for the Pieri rule, and every row those expand.
    """
    pieri = {
        (p, e, mu): {nu: dict(c.terms) for nu, c in pieri_stable(p, e, mu).terms.items()}
        for p in range(3)
        for e in range(3)
        for mu in partitions_up_to(5)
    }
    rows = {
        (g, d, l): {g2: dict(c.terms) for g2, c in _reduce_row(g, d, l).items()}
        for g in range(-7, 6)
        for d in range(-7, 2)
        for l in range(1, 7)
    }
    return pieri, rows


def _pieri_sweep():
    mus = partitions_up_to(3)
    for mu in mus:
        for kappa in ((1,), (2,), (1, 1), (2, 1), (1, 2), (0, 2), (1, 1, 1)):
            kostka(kappa, mu, ())
        # two-term inputs: the sum is accumulated over both cached expansions
        for mu2 in mus:
            if mu2 != mu:
                S = SchurSum.single(mu).scale(a(1)) + SchurSum.single(mu2)
                multiply_by_h(1, 0, S)
                multiply_by_h(2, 1, S)


def test_pieri_sweep_leaves_cached_expansions_intact():
    _pieri.cache_clear()
    _reduce_row.cache_clear()
    # computed cold, and from here on every key of the grid is cached
    cold = _cache_copy()
    misses = _pieri.cache_info().misses, _reduce_row.cache_info().misses
    _pieri_sweep()  # the sweep reads only cached values: it misses no key
    assert (_pieri.cache_info().misses, _reduce_row.cache_info().misses) == misses
    warm = _cache_copy()
    for before, after in zip(cold, warm):
        for key, terms in before.items():
            assert after[key] == terms, key
