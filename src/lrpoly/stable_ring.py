"""Stable (n-independent) rewriting of h indices and the stable Pieri rule.

Everything here rests on the entrywise relation

    h_{r,s} = h_{r,s-1} + a_{s-r+1} * h_{r-1,s-1},

the stable part of the concrete shift identity (the n-dependent a_{n+s}
contribution vanishes in the inverse limit).  Along a determinant row the
difference s - r is constant, so the same relation rewrites a whole row at
once; iterating moves every second index onto the staircase 0, 1, ..., l-1,
after which straightening yields genuine partitions.
"""

from .apoly import APoly
from .schursum import SchurSum
from .shapes import iv
from .formal_ring import formal_pieri_terms, staircase, straighten
from .sparse import accumulate


_ROW_CACHE = {}


def _reduce_row(g, d, l):
    """Rewrite a determinant row with labels (gamma, delta) = (g, d) to delta = -1.

    A row holds the entries h_{g+j, d+j} for j = 1..l, so the relation's
    a-index d - g + 1 is shared by the whole row.  Returns {g': APoly} with
    row(g, d) = sum coeff * row(g', -1); the row is identically zero once
    g + l < 0.
    """
    if g + l < 0:
        return {}
    if d == -1:
        return {g: APoly.one()}
    key = (g, d, l)
    cached = _ROW_CACHE.get(key)
    if cached is not None:
        return cached
    out = {}
    if d > -1:
        # row(g, d) = row(g, d-1) + a_{d-g+1} row(g-1, d-1)
        parts = [
            (_reduce_row(g, d - 1, l), APoly.one()),
            (_reduce_row(g - 1, d - 1, l), APoly.var(d - g + 1)),
        ]
    else:
        # row(g, d) = row(g, d+1) - a_{d-g+2} row(g-1, d)
        parts = [
            (_reduce_row(g, d + 1, l), APoly.one()),
            (_reduce_row(g - 1, d, l), APoly.var(d - g + 2, coeff=-1)),
        ]
    for table, factor in parts:
        accumulate(out, ((g2, c * factor) for g2, c in table.items()))
    _ROW_CACHE[key] = out
    return out


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


_PIERI_CACHE = {}


def pieri_stable(p, e, mu):
    """Expansion of h_{p,e} * s_mu in the Schur basis, with APoly coefficients.

    Pipeline: the free-ring Pieri terms with staircase second indices, then
    staircase reduction of every term, then straightening, collecting
    coefficients per partition.
    """
    mu = iv(mu)
    key = (p, e, mu)
    cached = _PIERI_CACHE.get(key)
    if cached is not None:
        return cached
    if p == 0:
        result = SchurSum.single(mu)
        _PIERI_CACHE[key] = result
        return result
    if p < 0:
        return SchurSum.zero()
    l = len(mu)
    target = staircase(l + 1)
    # st = (sign, partition, labels), or None for a term that straightens to 0
    out = SchurSum(accumulate({}, (
        (st[1], coeff * st[0])
        for m2, b2 in formal_pieri_terms(p, e, mu, staircase(l))
        for mu_star, coeff in reduce_to_staircase(m2, b2).items()
        if (st := straighten(mu_star, target)) is not None
    )))
    _PIERI_CACHE[key] = out
    return out


def multiply_by_h(p, e, S, pieri=pieri_stable):
    """Coefficient-linear extension of a Pieri rule to SchurSum values.

    pieri(p, e, mu) expands h_{p,e} * s_mu; the stable rule by default.
    """
    if p < 0:
        return SchurSum.zero()
    if p == 0:
        return S
    out = {}
    for mu, c in S.terms.items():
        # the expansion may be cached: it is read, never written
        accumulate(out, ((nu, q * c) for nu, q in pieri(p, e, mu).terms.items()))
    return SchurSum(out)
