"""Structure coefficients via a tableau rule and the alternating determinant sum.

The coefficient of s_nu in s_lam * s_mu is computed two independent ways:

* c_theorem / c_corollary: the tableau sum over shape-lam fillings with a
  Yamanouchi column word.  The paper's Theorem weights each filling with
  row-order prefix partitions and its Corollary with column-order ones;
  at every plain entry the two orders give the same rho_k, so every
  filling weighs the same either way.  theorem_product expands the whole
  product s_lam * s_mu from one column-order search with no nu bound
  (lr_weight_table), which reads each binomial as it places a box, cuts
  off fillings with a zero binomial and files the weights of the rest
  under the nu they end on.  Both cell rules read their coefficient from
  their pair's product, which a small memo (_theorem_product) keeps, so
  a sweep over the nu of a pair runs one search.  They look up the nu
  that require_partitions trimmed in the product's terms directly, and
  build a zero only when nu is absent, so a warm read is one probe of
  the table;
* c_alternating: the coefficient at nu of alternating_product, which
  expands the whole product s_lam * s_mu once as the signed sum of
  h_{lam^omega} * s_mu, folding the Jacobi-Trudi determinant in row by row
  (jacobi_trudi_fold) with the stable Pieri rule; a sweep over nu reads
  every coefficient from one product.

Both agree, vanish unless nu contains both lam and mu, specialize at
a = 0 to the classical Littlewood-Richardson numbers, and are homogeneous of
degree |lam| + |mu| - |nu|.

pieri_tableau, the tableau form of the Pieri rule, is checked against the
stable rule and backs kostka's tableaux method.  It sums the single-row
tableaux of h_{p,e} * s_mu as a forward fold over the boxes of the row:
fillings that reach the same (last value, rho) are added before the next
box, so the work grows with the number of those states and not with the
number of fillings, about 4^p.  No primed entry can be l(mu) + 1, so the
count of barred (l(mu) + 1)'s is final when a primed entry is placed and no
row-end check is needed.  It reads nothing from tableaux or stable_ring, so
it stays independent of the rule it is checked against.

A request outside what a rule supports (pieri_tableau outside its
hypothesis, an unknown kostka method) raises UsageError, a ValueError the
CLI reports as a usage error; other ValueErrors are internal.
"""

from functools import lru_cache

from .apoly import APoly, ONE_MONO, _mul_into, var_key
from .schursum import SchurSum
from .shapes import iv, jacobi_trudi_fold, require_partitions
from .sparse import accumulate
from .stable_ring import multiply_by_h, pieri_stable
from .tableaux import lr_weight_table


class UsageError(ValueError):
    """A request outside what a rule supports: the caller's error, not an internal one."""


def pieri_tableau(p, e, mu):
    """Tableau form of the Pieri rule: expand h_{p,e} * s_mu over partitions nu.

    The good monomial fillings of the single row (0,...,0,p) are summed as a
    forward fold over its boxes j = 1..p, box j of content c = j - e - 1.
    With L = l(mu), a box holds a barred k (rho grows at row k and stays a
    partition), a plain unprimed k <= L with weight a_{k - rho_k}, or a
    primed k with weight -a_{k - c} and k - c <= L - y, where y counts the
    barred (L+1)'s.  Values weakly decrease along the row.  These are
    exactly the monomials that survive the telescoping of the unbounded
    plain tail, so the sum is finite and matches the stable rule.

    The state after a box is (last value, rho), and y = rho_{L+1}, since
    only a barred L+1 grows row L+1.  A primed L+1 at box j would need j - 1
    barred (L+1)'s before it, so y = j - 1 and its bound L - y + c = L - e
    is below L + 1: no primed entry is L + 1, so no barred L+1 follows a
    primed entry and y is final when a primed entry is placed.  The two
    plain entries of a value k thus lead to the same state and place one
    factor, their binomial when both are allowed.  Fillings that reach the
    same state are added before the next box.  Only the range e < l(mu) is
    supported (the rule's hypothesis); use pieri_stable outside it: any
    other e raises UsageError.  A non-partition mu raises ValueError.
    """
    (mu,) = require_partitions(mu)
    L = len(mu)
    if not 0 <= e < L:
        raise UsageError("unsupported hypothesis: require 0 <= e < l(mu)")
    if p < 0:
        return SchurSum.zero()
    # (last value, rho) -> the summed prefix weights; no value exceeds L + 1
    states = {(L + 1, mu + (0,)): {ONE_MONO: 1}}
    for j in range(1, p + 1):
        c = j - e - 1
        nxt = {}
        for (hi, rho), terms in states.items():
            for k in range(1, min(L + 1, hi) + 1):
                if k == 1 or rho[k - 2] > rho[k - 1]:
                    grown = rho[:k - 1] + (rho[k - 1] + 1,) + rho[k:]
                    accumulate(nxt.setdefault((k, grown), {}), terms.items())
            for k in range(1, min(L, hi) + 1):
                plain = [(var_key(k - rho[k - 1]), 1)]
                if k - c <= L - rho[L]:
                    plain.append((var_key(k - c), -1))
                _mul_into(nxt.setdefault((k, rho), {}), terms, accumulate({}, plain))
        states = {state: terms for state, terms in nxt.items() if terms}
    return SchurSum(accumulate({}, (
        (iv(rho), APoly(terms)) for (_, rho), terms in states.items()
    )))


def kostka(kappa, mu, nu, method="recursion"):
    """Coefficient of s_nu in h_{kappa,1} * s_mu.

    kappa is an arbitrary integer vector: any negative entry gives 0 and zero
    entries contribute unit factors.  Both methods fold a Pieri rule over the
    rows of kappa from the bottom up: the recursion method the stable rule,
    the tableaux method the tableau rule.  The tableaux method raises
    UsageError when a row falls outside its hypothesis, that is when the
    bottom-most nonempty row i has i - 1 >= l(mu), and so does an unknown
    method.  A non-partition mu or nu raises ValueError, whatever kappa.
    """
    require_partitions(mu, nu)
    # built per call, so the rules are the module bindings at call time
    rules = {"recursion": pieri_stable, "tableaux": pieri_tableau}
    if method not in rules:
        raise UsageError("method must be 'recursion' or 'tableaux'")
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
    lam, mu = require_partitions(lam, mu)
    return jacobi_trudi_fold(lam, SchurSum.single(mu), lambda s, p, i: multiply_by_h(p, i - 1, s))


def c_alternating(lam, mu, nu):
    """The coefficient of s_nu in alternating_product(lam, mu)."""
    require_partitions(nu)
    return alternating_product(lam, mu).coeff(nu)


def c_theorem(lam, mu, nu):
    """Tableau rule, the paper's Theorem: LR tableau weights in row order."""
    lam, mu, nu = require_partitions(lam, mu, nu)
    c = _theorem_product(lam, mu).terms.get(nu)
    return APoly.zero() if c is None else c


def c_corollary(lam, mu, nu):
    """Tableau rule, the paper's Corollary: the same weights read in column order."""
    lam, mu, nu = require_partitions(lam, mu, nu)
    c = _theorem_product(lam, mu).terms.get(nu)
    return APoly.zero() if c is None else c


def theorem_product(lam, mu):
    """s_lam * s_mu as a SchurSum: c_theorem at every nu, from one tableau search.

    The result is shared with the cell rules: read it, never write it.
    """
    return _theorem_product(*require_partitions(lam, mu))


@lru_cache(maxsize=4)
def _theorem_product(lam, mu):
    """theorem_product for a trimmed, checked pair.

    Every sweep goes pair by pair, so a few pairs are enough: a table for
    every pair of weight 8 held 478 MB.
    """
    return SchurSum({nu: APoly(terms) for nu, terms in lr_weight_table(lam, mu).items()})
