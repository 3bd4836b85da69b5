"""The free commutative ring on indeterminates h_{r,s}.

Conventions: h_{0,s} = 1 for every s, and h_{r,s} = 0 whenever r < 0.  A word
is a sorted tuple of (r, s) pairs with r >= 1; an element of the ring is a
plain term dict {word: int coefficient}, kept by sparse.accumulate.
Schur-type elements s_{mu,beta} are represented by their expanded
Jacobi-Trudi determinants, formal_pieri_terms lists the index pairs of
h_{p,e} * s_{mu,beta}, and pieri_sides expands both sides of that Pieri
rule.  Sorting those rows back into canonical order happens inside
stable_ring.pieri_stable, row by row.

jacobi_trudi keeps its walk over the l! permutations: each factor is a cheap
word insert, so the merged states of shapes.jacobi_trudi_fold save nothing.
"""

from itertools import permutations

from .shapes import pad, perm_sign, compositions_of
from .sparse import accumulate


def make_word(pairs):
    """Canonical word from (r, s) factors; None encodes the zero element."""
    factors = []
    for r, s in pairs:
        if r < 0:
            return None
        if r > 0:
            factors.append((r, s))
    return tuple(sorted(factors))


def staircase(l):
    """The second-index vector (0, 1, ..., l-1)."""
    return tuple(range(l))


def jacobi_trudi(mu, beta):
    """Determinant expansion of s_{mu,beta} as a term dict {word: sign}.

    Expands the l(mu) x l(mu) determinant det(h_{mu_i + j - i, beta_i + j - i})
    over permutations, applying the unit/zero conventions factor by factor.
    """
    mu = tuple(mu)
    l = len(mu)
    beta = pad(tuple(beta), l)
    # perm_sign runs only for permutations whose word is nonzero
    return accumulate({}, (
        (w, perm_sign(omega))
        for omega in permutations(range(1, l + 1))
        if (w := make_word(
            (mu[i] + omega[i] - (i + 1), beta[i] + omega[i] - (i + 1))
            for i in range(l)
        )) is not None
    ))


def formal_pieri_terms(p, e_val, mu, beta):
    """Index pairs in the expansion of h_{p,e_val} * s_{mu,beta}.

    One pair (mu + sigma, beta' + sigma) per composition sigma of p with
    length at most l(mu) + 1, where beta' appends e_val - p to the first
    l(mu) entries of beta.
    """
    mu = tuple(mu)
    beta = tuple(beta)
    l = len(mu)
    if len(beta) < l:
        raise ValueError("beta must be at least as long as mu")
    beta_prime = beta[:l] + (e_val - p,)
    mu_ext = pad(mu, l + 1)
    out = []
    for sigma in compositions_of(p, l + 1):
        s = pad(sigma, l + 1)
        out.append(
            (
                tuple(mu_ext[i] + s[i] for i in range(l + 1)),
                tuple(beta_prime[i] + s[i] for i in range(l + 1)),
            )
        )
    return out


def pieri_sides(p, e_val, mu, beta):
    """Both sides of h_{p,e_val} * s_{mu,beta} = sum over formal_pieri_terms.

    The left side inserts (p, e_val) into each word, so p must be at least 1,
    which also keeps the words distinct.  The rule holds when the two term
    dicts are equal.
    """
    lhs = {tuple(sorted(w + ((p, e_val),))): c for w, c in jacobi_trudi(mu, beta).items()}
    rhs = accumulate({}, (
        term
        for m2, b2 in formal_pieri_terms(p, e_val, mu, beta)
        for term in jacobi_trudi(m2, b2).items()
    ))
    return lhs, rhs
