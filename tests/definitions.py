"""The paper's definitions that the tests check the library against.

No route and no command of the package reads these; each is the plain
textbook form of something the package computes another way, kept here as
the reference the tests compare with:

- ``a``: the variable a_i;
- ``column_word``, ``rho_at``, ``entry_weight``, ``expand_monomials``: the
  column word, rho at a box, an entry's binomial and the primed monomial
  expansion of a tableau weight, each read in one walk of ``reading``;
- ``enumerate_lr_tableaux``, ``enumerate_pieri_tableaux``: the LR and
  single-row Pieri tableaux as objects, from the search behind
  ``lr_weight_sum`` and ``enumerate_k_tableaux``;
- ``row_order_weight_table``: the row-order weights of the every-nu
  search, each read off its finished filling in row order, where
  ``lr_weight_table`` multiplies them up as it places boxes in column
  order;
- ``all_permutations``: the permutations omega of the Jacobi-Trudi sum,
  which ``jacobi_trudi_fold`` expands row by row instead;
- ``straighten``: sorting the rows of s_{mu,beta}, which ``pieri_stable``
  folds into its row-by-row expansion instead;
- ``h_n``, ``h_n_shifted``, ``phi_n`` and the ``XPoly`` arithmetic they
  need (``x_const``, ``x_one``, ``x_var``, ``x_mul``, ``x_at_zero``): the
  deformed complete homogeneous polynomials h_p(x||a), their shifts and
  the evaluation x_n := a_n, which the branching Schur construction does
  without.
"""

from itertools import permutations

from lrpoly.apoly import APoly, ONE_MONO, _mul_into, var_key
from lrpoly.double_sym import XPoly
from lrpoly.shapes import iv, pad
from lrpoly.sparse import accumulate
from lrpoly.tableaux import (
    Entry,
    ReverseTableau,
    _enumerate,
    _plan,
    _tableaux,
    apply_word,
    reading,
)


def a(i):
    """Shorthand for the variable a_i."""
    return APoly.var(i)


# --- tableaux -------------------------------------------------------------


def column_word(T):
    """Values of the barred entries, read in column order."""
    return tuple(e.value for _, _, e, _ in reading(T, (), "column") if e.barred)


def rho_at(T, mu, alpha, order):
    """mu grown by the barred-entry prefix up to and including box alpha."""
    prefix = []
    for i, j, e, _ in reading(T, mu, order):
        if e.barred:
            prefix.append(e.value)
        if (i, j) == alpha:
            return apply_word(mu, prefix)[0]
    raise ValueError("box not in shape")


def entry_weight(T, mu, alpha, order):
    """The binomial a_{k - rho(alpha)_k} - a_{k - c(alpha)} for a plain entry."""
    for i, j, e, rk in reading(T, mu, order):
        if (i, j) == alpha:
            if e.barred:
                raise ValueError("barred entry has no weight")
            return APoly.var(e.value - rk) - APoly.var(e.value - (j - i))
    raise ValueError("box not in shape")


def expand_monomials(T, mu, order):
    """All primed variants of T with their signed monomial weights.

    Each plain entry is either left unprimed (contributing the monomial
    a_{k - rho_k}) or primed (contributing -a_{k - c}).  The signed monomials
    over all 2^(#plain) variants sum to tableau_weight(T, mu, order).
    """
    out = [(T, APoly.one())]
    for i, j, e, rk in reading(T, mu, order):
        if e.barred:
            continue
        unprimed = APoly.var(e.value - rk)
        primed = APoly.var(e.value - (j - i), coeff=-1)
        nxt = []
        for U, mono in out:
            nxt.append((U, mono * unprimed))
            rows = [list(r) for r in U.rows]
            rows[i - 1][j - 1] = Entry(e.value, False, True)
            nxt.append((ReverseTableau(rows), mono * primed))
        out = nxt
    return out


def enumerate_lr_tableaux(lam, mu, nu, cap=None):
    """Shape-lam tableaux with Yamanouchi column word mu -> nu and strict columns.

    Plain values are capped at l(nu) (override with cap); barred values are
    bounded by the Yamanouchi condition automatically.
    """
    cap = len(tuple(nu)) if cap is None else cap
    return _tableaux(tuple(lam), "column", mu, nu, (cap,) * len(tuple(lam)), column_strict=True)


def row_order_weight_table(lam, mu):
    """lr_weight_table(lam, mu, "row"), each filling weighed once it is complete.

    Runs the every-nu search without a weight, then walks each filling in
    row order (rows bottom to top, each left to right), growing rho from mu:
    a plain k in a box of content c with rho_k = c drops the filling, and
    the other plain entries multiply their binomials a_{k - rho_k} - a_{k - c}.
    The weight goes under the nu the filling ends on.
    """
    lam, mu = iv(lam), iv(mu)
    cap = len(mu) + len(lam)
    plan = _plan(lam, "column", True)
    row_reading = [(t, plan.content[t]) for row in reversed(plan.rows) for t in row]
    out = {}

    def leaf(grid, _, end):
        rho = list(pad(mu, cap))
        binomials = []
        for t, c in row_reading:
            k, barred, _ = grid[t]
            rk = rho[k - 1]
            if barred:
                rho[k - 1] = rk + 1
            elif rk == c:
                return
            else:
                binomials.append({var_key(k - rk): 1, var_key(k - c): -1})
        w = {ONE_MONO: 1}
        for b in binomials:
            w = _mul_into({}, w, b)
        accumulate(out.setdefault(iv(end), {}), w.items())

    _enumerate(plan, mu, None, (cap,) * len(lam), leaf)
    return {nu: terms for nu, terms in out.items() if terms}


def enumerate_pieri_tableaux(p, e, mu, nu, cap=None):
    """Single-row tableaux of shape (0,...,0,p) (row e+1) with Yamanouchi row word."""
    cap = len(tuple(nu)) if cap is None else cap
    return _tableaux((0,) * e + (p,), "row", mu, nu, (cap,) * (e + 1), column_strict=False)


# --- Jacobi-Trudi ---------------------------------------------------------


def all_permutations(l):
    """All permutations of {1..l} as tuples of images."""
    return [tuple(p) for p in permutations(range(1, l + 1))]


# --- formal ring ----------------------------------------------------------


def straighten(mu, beta):
    """Sort the row labels of s_{mu,beta} into canonical strictly decreasing order.

    Works with gamma_i = mu_i - i and delta_i = beta_i - i, which the adjacent
    swap rule simply exchanges at the cost of a sign.  Returns None when the
    element is zero (two identical determinant rows, or a row that vanishes
    identically), otherwise (sign, mu*, beta*) with gamma* strictly decreasing.

    Raises when two rows share gamma but not delta; such elements have no
    canonical sorted form and never arise in the staircase pipeline.
    """
    mu = tuple(mu)
    beta = tuple(beta)
    l = max(len(mu), len(beta))
    mu = pad(mu, l)
    beta = pad(beta, l)
    gamma = [mu[i] - (i + 1) for i in range(l)]
    delta = [beta[i] - (i + 1) for i in range(l)]
    sign = 1
    # insertion sort on gamma, carrying delta along; each swap flips the sign
    for i in range(1, l):
        k = i
        while k > 0 and gamma[k] >= gamma[k - 1]:
            if gamma[k] == gamma[k - 1]:
                if delta[k] == delta[k - 1]:
                    return None
                raise ValueError(
                    "not straightenable: equal first labels with distinct second labels"
                )
            gamma[k], gamma[k - 1] = gamma[k - 1], gamma[k]
            delta[k], delta[k - 1] = delta[k - 1], delta[k]
            sign = -sign
            k -= 1
    # a sorted row whose first index stays negative across the whole row is 0
    for i in range(l):
        if gamma[i] + l < 0:
            return None
    mu_star = iv(gamma[i] + (i + 1) for i in range(l))
    beta_star = iv(delta[i] + (i + 1) for i in range(l))
    return sign, mu_star, beta_star


# --- polynomials in x_1..x_n ------------------------------------------------


def x_const(n, c):
    """The constant c (an int or an APoly) in n variables."""
    if isinstance(c, int):
        c = APoly.const(c)
    return XPoly(n, {(0,) * n: c} if c else {})


def x_one(n):
    return x_const(n, 1)


def x_var(i, n):
    """The variable x_i (1-based) in n variables."""
    e = [0] * n
    e[i - 1] = 1
    return XPoly(n, {tuple(e): APoly.one()})


def x_mul(P, Q):
    """The product of two polynomials in the same n variables."""
    # accumulate coefficient terms at the raw-dict level
    out = {}
    for e1, c1 in P.terms.items():
        for e2, c2 in Q.terms.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            _mul_into(out.setdefault(e, {}), c1.terms, c2.terms)
    return XPoly(P.n, {e: APoly(d) for e, d in out.items() if d})


def x_at_zero(P):
    """Specialize every a_i to 0, keeping integer coefficients."""
    out = {}
    for e, c in P.terms.items():
        k = c.at_zero()
        if k:
            out[e] = APoly.const(k)
    return XPoly(P.n, out)


def h_n(p, n):
    """Deformed complete homogeneous polynomial of degree p in n variables.

    Sum over n >= i_1 >= ... >= i_p >= 1 of the products
    prod_k (x_{i_k} - a_{i_k - k + 1}); h_0 = 1, and h_p = 0 for p > 0, n = 0.
    """
    if p < 0:
        return XPoly.zero(n)
    if p == 0:
        return x_one(n)
    # G[m] at level k holds the partial sum over i_k >= ... >= i_p with i_k <= m
    G = [x_one(n)] * (n + 1)
    for k in range(p, 0, -1):
        nxt = [XPoly.zero(n)] * (n + 1)
        for m in range(1, n + 1):
            factor = x_var(m, n) + x_const(n, APoly.var(m - k + 1, coeff=-1))
            nxt[m] = nxt[m - 1] + x_mul(factor, G[m])
        G = nxt
    return G[n]


def h_n_shifted(r, s, n):
    """tau^s applied to h_r: every a-index in every coefficient moves by s."""
    base = h_n(r, n)
    return XPoly(n, {e: c.shift_indices(s) for e, c in base.terms.items()})


def phi_n(P):
    """Evaluation map: substitute x_n := a_n, landing in n-1 variables."""
    n = P.n
    if n < 1:
        raise ValueError("no variable to evaluate")
    return XPoly(n - 1, accumulate({}, (
        (e[:-1], c * APoly.var(n, exp=e[-1]) if e[-1] else c)
        for e, c in P.terms.items()
    )))
