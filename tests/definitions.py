"""The paper's definitions that the tests check the library against.

No route and no command of the package reads these.  Most are the plain
textbook form of something the package computes another way, kept here as
the reference the tests compare with; the rest read back or evaluate what
the package only writes:

- ``a``: the variable a_i;
- ``degree``, ``substitute``, ``from_json``: the total degree of an
  ``APoly``, its exact rational value at a point, and the ``APoly`` that
  ``to_json`` wrote, each read off the unpacked monomials, where the
  package only writes an ``APoly`` and evaluates one only at a = 0;
- ``tableau_from_text``: the ``ReverseTableau`` that ``to_text`` wrote, in
  the text format of the ``tableaux`` docstring, which the package only
  writes;
- ``reading_in``, ``weight_in``: ``reading`` and ``tableau_weight`` in
  row or column order, walking ``row_order`` or ``column_order`` of the
  shape, where the package reads row order only, from the search plan;
  the column order is the paper's Corollary;
- ``column_word``, ``rho_at``, ``entry_weight``, ``expand_monomials``: the
  column word, rho at a box, an entry's binomial and the primed monomial
  expansion of a tableau weight, each read in one walk of ``reading_in``;
- ``enumerate_lr_tableaux``, ``enumerate_pieri_tableaux``: the LR and
  single-row Pieri tableaux of one cell as objects, from the search behind
  ``lr_weight_table`` and ``enumerate_k_tableaux``, run for one nu, where
  the cell rules read their sum from their pair's ``lr_weight_table``;
- ``row_order_weight_table``: the row-order weights of the every-nu
  search, each read off its finished filling in row order, where
  ``lr_weight_table`` reads each binomial as it places a box in column
  order;
- ``pieri_tableau_backtrack``: the tableau Pieri rule as a backtracking
  search over every filling of the row, each primed entry's bound checked
  again at the row end, where ``pieri_tableau`` folds the boxes and merges
  equal states;
- ``partitions_by_sorting``, ``partition_counts``: the partitions of n as
  the non-increasing compositions sorted in reverse-lexicographic order,
  and their count p(n) from Euler's pentagonal-number recurrence, where
  ``partitions_of`` walks from each partition to the next;
- ``contains_padded``, ``is_partition_sorted``, ``is_horizontal_strip_padded``:
  the shape predicates on zero-padded copies and a sort, where ``shapes``
  compares entries in one pass;
- ``every_target``: every partition nu with |mu| <= |nu| <= |lam| + |mu|,
  the nu that contain mu and the ones that do not, where ``lr_targets``
  keeps only the nu that contain mu;
- ``all_permutations``, ``lambda_omega``: the permutations omega of the
  Jacobi-Trudi sum and the signed permuted-staircase composition
  lam^omega of each, which ``jacobi_trudi_fold`` expands row by row
  instead;
- ``straighten``: sorting the rows of s_{mu,beta}, which ``pieri_stable``
  folds into its row-by-row expansion instead;
- ``h_n``, ``h_n_shifted``, ``phi_n`` and the ``XPoly`` arithmetic they
  need (``x_const``, ``x_one``, ``x_var``, ``x_mul``, ``x_at_zero``): the
  deformed complete homogeneous polynomials h_p(x||a), their shifts and
  the evaluation x_n := a_n, which the branching Schur construction does
  without;
- ``product_decomposition``: the oracle's Schur expansion of s_lam * s_mu
  in n variables for any pair, read off the memo that ``c_oracle`` reads
  with its pair already trimmed and sorted.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

from lrpoly import double_sym
from lrpoly.apoly import APoly, ONE_MONO, _mul_into, pack, unpack, var_key
from lrpoly.double_sym import XPoly
from lrpoly.schursum import SchurSum
from lrpoly.shapes import iv, pad, partitions_of, perm_sign
from lrpoly.sparse import accumulate
from lrpoly.tableaux import (
    Entry,
    ReverseTableau,
    _enumerate,
    _plan,
    _tableaux,
    add_box,
    apply_word,
    column_order,
    row_order,
)


def a(i):
    """Shorthand for the variable a_i."""
    return APoly.var(i)


def degree(p):
    """Total degree of the APoly p, summed from its unpacked exponents; -1 for 0."""
    return max((sum(e for _, e in unpack(m)) for m in p.terms), default=-1)


def substitute(p, assignment):
    """Exact rational value of the APoly p; assignment maps variable index to a number."""
    total = Fraction(0)
    for m, c in p.terms.items():
        val = Fraction(c)
        for i, e in unpack(m):
            if i not in assignment:
                raise KeyError(f"no value assigned to variable index {i}")
            val *= Fraction(assignment[i]) ** e
        total += val
    return total


def from_json(data):
    """The APoly that APoly.to_json wrote as data."""
    return APoly(accumulate({}, (
        (pack((int(i), int(e)) for i, e in t["vars"]), int(t["coeff"]))
        for t in data
    )))


# --- tableaux -------------------------------------------------------------


def tableau_from_text(text):
    """The ReverseTableau that ReverseTableau.to_text wrote as text.

    The format is described in the tableaux module docstring.
    """
    rows = []
    for line in text.split("\n"):
        row = []
        for word in line.split():
            barred, primed = word.endswith("~"), word.endswith("'")
            value = int(word[:-1] if barred or primed else word)
            if value < 1:
                raise ValueError("entry values must be positive")
            row.append(Entry(value, barred, primed))
        rows.append(row)
    return ReverseTableau(rows)


def reading_in(T, mu, order):
    """reading(T, mu) in the given order, "row" or "column": (i, j, entry, rho_k) per box.

    rho_k is part k of rho for the entry's value k, read before a barred
    entry adds its box to row k.
    """
    rho = list(mu)
    for i, j in {"row": row_order, "column": column_order}[order](T.shape):
        e = T.rows[i - 1][j - 1]
        k = e.value
        yield i, j, e, rho[k - 1] if k <= len(rho) else 0
        if e.barred:
            add_box(rho, k)


def weight_in(T, mu, order):
    """tableau_weight(T, mu) read in the given order, "row" or "column".

    The product of the binomials a_{k - rho_k} - a_{k - c} of the plain
    entries, each an APoly built here, not the search's _binomial memo.
    """
    total = APoly.one()
    for i, j, e, rk in reading_in(T, mu, order):
        if not e.barred:
            total = total * (APoly.var(e.value - rk) - APoly.var(e.value - (j - i)))
    return total


def column_word(T):
    """Values of the barred entries, read in column order."""
    return tuple(e.value for _, _, e, _ in reading_in(T, (), "column") if e.barred)


def rho_at(T, mu, alpha, order):
    """mu grown by the barred-entry prefix up to and including box alpha."""
    prefix = []
    for i, j, e, _ in reading_in(T, mu, order):
        if e.barred:
            prefix.append(e.value)
        if (i, j) == alpha:
            return apply_word(mu, prefix)[0]
    raise ValueError("box not in shape")


def entry_weight(T, mu, alpha, order):
    """The binomial a_{k - rho(alpha)_k} - a_{k - c(alpha)} for a plain entry."""
    for i, j, e, rk in reading_in(T, mu, order):
        if (i, j) == alpha:
            if e.barred:
                raise ValueError("barred entry has no weight")
            return APoly.var(e.value - rk) - APoly.var(e.value - (j - i))
    raise ValueError("box not in shape")


def expand_monomials(T, mu, order):
    """All primed variants of T with their signed monomial weights.

    Each plain entry is either left unprimed (contributing the monomial
    a_{k - rho_k}) or primed (contributing -a_{k - c}).  The signed monomials
    over all 2^(#plain) variants sum to weight_in(T, mu, order).
    """
    out = [(T, APoly.one())]
    for i, j, e, rk in reading_in(T, mu, order):
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
    return _tableaux(tuple(lam), mu, nu, (cap,) * len(tuple(lam)), column_strict=True)


def row_order_weight_table(lam, mu):
    """lr_weight_table(lam, mu) in row order, each filling weighed once it is complete.

    Runs the every-nu search without a weight, then walks each filling in
    row order (rows bottom to top, each left to right), growing rho from mu:
    a plain k in a box of content c with rho_k = c drops the filling, and
    the other plain entries multiply their binomials a_{k - rho_k} - a_{k - c}.
    The weight goes under the nu the filling ends on.
    """
    lam, mu = iv(lam), iv(mu)
    cap = len(mu) + len(lam)
    plan = _plan(lam, True)
    row_reading = [(t, plan.content[t]) for row in reversed(plan.rows) for t in row]
    out = {}

    def leaf(grid, end):
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
    return _tableaux((0,) * e + (p,), mu, nu, (cap,) * (e + 1), column_strict=False)


def pieri_tableau_backtrack(p, e, mu, stats=None):
    """pieri_tableau(p, e, mu) as a search over every filling of the row.

    Each box of content c takes a barred k that keeps rho a partition, a
    plain unprimed k <= L = l(mu) with weight a_{k - rho_k}, or a primed k
    with weight -a_{k - c} and k <= L - y + c, y the barred (L+1)'s so far;
    values weakly decrease and L + p bounds the first.  A primed entry's
    bound k - c <= L - y is checked again at the row end with the final y.
    When stats is a Counter it counts the accepted fillings ("fillings"),
    the fillings that row-end check rejects ("rejected") and the primed
    entries of value L + 1 placed ("primed_top").
    """
    mu = iv(mu)
    L = len(mu)
    if not 0 <= e < L:
        raise ValueError("unsupported hypothesis: require 0 <= e < l(mu)")
    if p < 0:
        return SchurSum.zero()
    stats = Counter() if stats is None else stats
    rho = list(mu) + [0]
    out = {}

    def fill(j, y, hi, pending, weight):
        if j > p:
            if all(k - c <= L - y for k, c in pending):
                stats["fillings"] += 1
                accumulate(out, ((iv(rho), weight),))
            else:
                stats["rejected"] += 1
            return
        c = j - e - 1
        for k in range(1, min(L + 1, hi) + 1):
            if k > 1 and rho[k - 2] <= rho[k - 1]:
                continue
            rho[k - 1] += 1
            fill(j + 1, y + (k == L + 1), k, pending, weight)
            rho[k - 1] -= 1
        for k in range(1, min(L, hi) + 1):
            fill(j + 1, y, k, pending, weight * APoly.var(k - rho[k - 1]))
        for k in range(1, min(L - y + c, hi) + 1):
            if k == L + 1:
                stats["primed_top"] += 1
            fill(j + 1, y, k, pending + [(k, c)], weight * APoly.var(k - c, coeff=-1))

    fill(1, 0, L + p, [], APoly.one())
    return SchurSum(out)


# --- shapes ---------------------------------------------------------------


def partitions_by_sorting(n):
    """The partitions of n in reverse-lexicographic order.

    Every composition of n is one set of cut points in 1..n-1; the
    non-increasing ones are the partitions.
    """
    found = [()] if n == 0 else []
    for k in range(n):
        for cuts in combinations(range(1, n), k):
            bounds = (0,) + cuts + (n,)
            parts = tuple(b - a for a, b in zip(bounds, bounds[1:]))
            if list(parts) == sorted(parts, reverse=True):
                found.append(parts)
    return sorted(found, reverse=True)


def partition_counts(top):
    """[p(0), ..., p(top)] by Euler's pentagonal-number recurrence.

    p(n) = sum over k != 0 of (-1)^(k+1) p(n - k(3k - 1)/2).
    """
    counts = [1]
    for n in range(1, top + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= n:
                    total += sign * counts[n - g]
            k += 1
        counts.append(total)
    return counts


def contains_padded(alpha, beta):
    """alpha_i >= beta_i for every i, on copies padded with zeros to one length."""
    l = max(len(alpha), len(beta))
    a, b = pad(alpha, l), pad(beta, l)
    return all(a[i] >= b[i] for i in range(l))


def is_partition_sorted(alpha):
    """alpha equals its own decreasing sort, and its last entry is nonnegative."""
    return list(alpha) == sorted(alpha, reverse=True) and (not alpha or alpha[-1] >= 0)


def is_horizontal_strip_padded(nu, mu):
    """mu is contained in nu and nu_{i+1} <= mu_i, with mu padded to l(nu)."""
    if not contains_padded(nu, mu):
        return False
    mu = pad(mu, len(nu))
    return all(nu[i + 1] <= mu[i] for i in range(len(nu) - 1))


def every_target(lam, mu):
    """Every partition nu with |mu| <= |nu| <= |lam| + |mu|, by size, then partitions_of order."""
    return [nu for extra in range(sum(lam) + 1) for nu in partitions_of(sum(mu) + extra)]


# --- Jacobi-Trudi ---------------------------------------------------------


def all_permutations(l):
    """All permutations of {1..l} as tuples of images."""
    return [tuple(p) for p in permutations(range(1, l + 1))]


def lambda_omega(lam, omega):
    """Permuted-staircase composition and its sign.

    With pi = (l-1, ..., 1, 0) and omega a permutation of {1..l}, returns
    (omega(lam + pi) - pi, sgn(omega)) where omega moves the entry at
    position i to position omega(i).  Entries may be negative.
    """
    l = len(omega)
    lam = pad(lam, l)
    if len(lam) > l:
        raise ValueError("permutation shorter than partition")
    pi = tuple(l - 1 - k for k in range(l))
    shifted = [lam[k] + pi[k] for k in range(l)]
    out = [0] * l
    for k in range(l):
        out[omega[k] - 1] = shifted[k]
    return iv(out[k] - pi[k] for k in range(l)), perm_sign(omega)


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
        return XPoly(n)
    if p == 0:
        return x_one(n)
    # G[m] at level k holds the partial sum over i_k >= ... >= i_p with i_k <= m
    G = [x_one(n)] * (n + 1)
    for k in range(p, 0, -1):
        nxt = [XPoly(n)] * (n + 1)
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
        (e[:-1], c * APoly({var_key(n, e[-1]): 1}) if e[-1] else c)
        for e, c in P.terms.items()
    )))


def product_decomposition(lam, mu, n):
    """Decomposition of s_lam * s_mu in n variables; (lam, mu) and (mu, lam) share one memo."""
    return double_sym._product(*sorted((iv(lam), iv(mu))), n, 0)
