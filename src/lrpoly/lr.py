"""Structure coefficients via tableau rules and the alternating determinant sum.

The coefficient of s_nu in s_lam * s_mu is computed three independent ways:

* c_theorem / c_corollary: direct tableau sums over shape-lam fillings with a
  Yamanouchi column word, weighted with the row-order (theorem) or
  column-order (corollary) prefix partitions; the weights are summed during
  the tableau search, and fillings with a zero binomial are cut off.
  theorem_product / corollary_product expand the whole product s_lam * s_mu
  by the same rules from one search with no nu bound (lr_weight_table),
  which files every filling under the nu it ends on.  The table costs the
  sum of its cells, so the single-cell rules keep their own search;
* c_alternating: the coefficient at nu of alternating_product, which
  expands the whole product s_lam * s_mu once as the signed sum of
  h_{lam^omega} * s_mu, folding the Jacobi-Trudi determinant in row by row
  (jacobi_trudi_fold) with the stable Pieri rule; a sweep over nu reads
  every coefficient from one product.

All three agree, vanish unless nu contains both lam and mu, specialize at
a = 0 to the classical Littlewood-Richardson numbers, and are homogeneous of
degree |lam| + |mu| - |nu|.
"""

from .apoly import APoly
from .schursum import SchurSum
from .shapes import iv, jacobi_trudi_fold, require_partitions
from .sparse import accumulate
from .stable_ring import multiply_by_h, pieri_stable
from .tableaux import lr_weight_sum, lr_weight_table


def pieri_tableau(p, e, mu):
    """Tableau form of the Pieri rule: expand h_{p,e} * s_mu over partitions nu.

    One search over the boxes of the single row (0,...,0,p) files every good
    monomial filling under the partition rho it ends on.  With L = l(mu), a
    barred k keeps every prefix a partition, a plain unprimed k is at most L
    with weight a_{k - rho_k}, and a primed k in a box of content c has
    weight -a_{k - c} and k - c <= L - y, where y counts the barred (L+1)'s
    in the row.  These are exactly the monomials that survive the
    telescoping of the unbounded plain tail, so the sum is finite and
    matches the stable rule.  Values weakly decrease along the row, and
    L + p bounds the first.  Only the range e < l(mu) is supported (the
    rule's hypothesis); use pieri_stable outside it.
    """
    mu = iv(mu)
    L = len(mu)
    if not 0 <= e < L:
        raise ValueError("unsupported hypothesis: require 0 <= e < l(mu)")
    if p < 0:
        return SchurSum.zero()
    rho = list(mu) + [0]
    out = {}

    def fill(j, y, hi, pending, weight):
        if j > p:
            if all(k - c <= L - y for k, c in pending):
                accumulate(out, ((iv(rho), weight),))
            return
        c = j - e - 1
        # barred: grow rho, keep every prefix a partition
        for k in range(1, min(L + 1, hi) + 1):
            if k > 1 and rho[k - 2] <= rho[k - 1]:
                continue
            rho[k - 1] += 1
            fill(j + 1, y + (k == L + 1), k, pending, weight)
            rho[k - 1] -= 1
        # plain unprimed: value at most L, weight a_{k - rho_k}
        for k in range(1, min(L, hi) + 1):
            fill(j + 1, y, k, pending, weight * APoly.var(k - rho[k - 1]))
        # plain primed: weight -a_{k - c}; exact bound checked at row end
        for k in range(1, min(L - y + c, hi) + 1):
            fill(j + 1, y, k, pending + [(k, c)], weight * APoly.var(k - c, coeff=-1))

    fill(1, 0, L + p, [], APoly.one())
    return SchurSum(out)


def kostka(kappa, mu, nu, method="recursion"):
    """Coefficient of s_nu in h_{kappa,1} * s_mu.

    kappa is an arbitrary integer vector: any negative entry gives 0 and zero
    entries contribute unit factors.  Both methods fold a Pieri rule over the
    rows of kappa from the bottom up: the recursion method the stable rule,
    the tableaux method the tableau rule.  The tableaux method raises when a
    row falls outside its hypothesis, that is when the bottom-most nonempty
    row i has i - 1 >= l(mu).
    """
    # built per call, so the rules are the module bindings at call time
    rules = {"recursion": pieri_stable, "tableaux": pieri_tableau}
    if method not in rules:
        raise ValueError("method must be 'recursion' or 'tableaux'")
    if any(k < 0 for k in kappa):
        return APoly.zero()
    s = SchurSum.single(mu)
    for i in range(len(kappa), 0, -1):
        s = multiply_by_h(kappa[i - 1], i - 1, s, rules[method])
    return s.coeff(nu)


def alternating_product(lam, mu):
    """s_lam * s_mu as a SchurSum: the signed sum of h_{lam^omega} * s_mu.

    jacobi_trudi_fold expands s_lam row by row, each factor h_{p,i-1} is
    applied with the stable Pieri rule, and partial products over the same
    rows are added before the next factor; the result holds every
    coefficient c^nu_{lam,mu}(a) at once.
    """
    require_partitions(lam, mu)
    return jacobi_trudi_fold(lam, SchurSum.single(mu), lambda s, p, i: multiply_by_h(p, i - 1, s))


def c_alternating(lam, mu, nu):
    """The coefficient of s_nu in alternating_product(lam, mu)."""
    require_partitions(nu)
    return alternating_product(lam, mu).coeff(nu)


def _c_tableau(lam, mu, nu, order):
    return APoly(lr_weight_sum(iv(lam), iv(mu), iv(nu), order))


def c_theorem(lam, mu, nu):
    """Tableau rule with row-order prefix weights."""
    return _c_tableau(lam, mu, nu, "row")


def c_corollary(lam, mu, nu):
    """Tableau rule with column-order prefix weights."""
    return _c_tableau(lam, mu, nu, "column")


def _tableau_product(lam, mu, order):
    table = lr_weight_table(iv(lam), iv(mu), order)
    return SchurSum({nu: APoly(terms) for nu, terms in table.items()})


def theorem_product(lam, mu):
    """s_lam * s_mu as a SchurSum: c_theorem at every nu, from one tableau search."""
    return _tableau_product(lam, mu, "row")


def corollary_product(lam, mu):
    """s_lam * s_mu as a SchurSum: c_corollary at every nu, from one tableau search."""
    return _tableau_product(lam, mu, "column")
