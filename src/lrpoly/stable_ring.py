"""Stable (n-independent) rewriting of h indices and the stable Pieri rule.

Everything here rests on the entrywise relation

    h_{r,s} = h_{r,s-1} + a_{s-r+1} * h_{r-1,s-1},

the stable part of the concrete shift identity (the n-dependent a_{n+s}
contribution vanishes in the inverse limit).  Along a determinant row the
difference s - r is constant, so the same relation rewrites a whole row at
once; iterating moves every second index of a row to -1.  After that a row
is fixed by its first label alone, so the Pieri rule folds the rows one at a
time into strictly decreasing first labels, with the sign of the sort; two
equal labels mean two equal rows and drop the term.

Both recursions are memoized by functools.lru_cache functions, _reduce_row
and _pieri (behind pieri_stable); their values are shared: read, never write.
"""

from functools import lru_cache

from .apoly import APoly, ONE_MONO, _mul_into
from .schursum import SchurSum
from .shapes import iv, require_partitions
from .sparse import accumulate


@lru_cache(maxsize=None)
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
    return out


def pieri_stable(p, e, mu):
    """Expansion of h_{p,e} * s_mu in the Schur basis, with APoly coefficients.

    Row i of the free-ring Pieri term for a composition sigma of p has the
    labels (mu_i + sigma_i - i, beta'_i + sigma_i - i), beta' = (0, 1, ...,
    l(mu) - 1, e - p).  The rows are folded one at a time: each is reduced to
    second label -1 and its first label g inserted into the sorted labels so
    far, flipping the sign once for each smaller label it passes; a repeated
    g drops the term.  Terms that share (boxes left, sorted labels) are added
    at once, so cancellation happens before the next row multiplies them
    out.  Sorted labels g_1 > ... > g_L name the partition (g_i + i).
    A non-partition mu raises ValueError.
    """
    (mu,) = require_partitions(mu)
    return _pieri(p, e, mu)


@lru_cache(maxsize=None)
def _pieri(p, e, mu):
    """pieri_stable on a trimmed mu; one shared SchurSum per key, never written."""
    if p == 0:
        return SchurSum.single(mu)
    if p < 0:
        return SchurSum.zero()
    L = len(mu) + 1
    mu_ext = mu + (0,)
    # (boxes left, strictly decreasing first labels of the rows so far) -> term dict
    states = {(p, ()): {ONE_MONO: 1}}
    for i in range(1, L + 1):
        nxt = {}
        for (left, gammas), terms in states.items():
            negated = None
            for s in range(left if i == L else 0, left + 1):
                d = s - 1 if i < L else e - p + s - L
                for g, rc in _reduce_row(mu_ext[i - 1] + s - i, d, L).items():
                    if g in gammas:
                        continue  # two equal rows
                    k = sum(h > g for h in gammas)
                    if (len(gammas) - k) % 2:
                        if negated is None:
                            negated = {m: -c for m, c in terms.items()}
                        c = negated
                    else:
                        c = terms
                    key = (left - s, gammas[:k] + (g,) + gammas[k:])
                    _mul_into(nxt.setdefault(key, {}), c, rc.terms)
        states = {state: terms for state, terms in nxt.items() if terms}
    return SchurSum({
        iv(g + i for i, g in enumerate(gammas, 1)): APoly(terms)
        for (_, gammas), terms in states.items()
    })


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
        for nu, q in pieri(p, e, mu).terms.items():
            _mul_into(out.setdefault(nu, {}), q.terms, c.terms)
    return SchurSum({nu: APoly(terms) for nu, terms in out.items() if terms})
