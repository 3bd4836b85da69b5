"""Structure coefficients via tableau rules and the alternating determinant sum.

The coefficient of s_nu in s_lam * s_mu is computed three independent ways:

* c_theorem / c_corollary: direct tableau sums over shape-lam fillings with a
  Yamanouchi column word, weighted with the row-order (theorem) or
  column-order (corollary) prefix partitions; the weights are summed during
  the tableau search, and fillings with a zero binomial are cut off;
* c_alternating: the signed sum of Kostka-like coefficients over the
  permuted-staircase shapes lam^omega, where each Kostka-like coefficient is
  an iterated Pieri product.

All three agree, specialize at a = 0 to the classical Littlewood-Richardson
numbers, and are homogeneous of degree |lam| + |mu| - |nu|.
"""

from .apoly import APoly
from .schursum import SchurSum
from .shapes import (
    iv,
    pad,
    size,
    contains,
    lambda_omega,
    all_permutations,
    partitions_of,
)
from .sparse import accumulate
from .stable_ring import multiply_by_h
from .tableaux import lr_weight_sum


def _good_monomial_sum(kappa, mu, nu):
    """Sum of signed monomial weights of good stacked monomial tableaux.

    Fills shape kappa in row order (bottom row first).  Each row is one Pieri
    factor applied to the intermediate partition rho grown so far; within a
    row whose intermediate partition has length L, good monomial tableaux
    have plain unprimed values at most L and primed values k in boxes of
    content c with k - c <= L - y, where y counts the barred (L+1)'s in that
    row.  These are exactly the monomials that survive the telescoping of
    the unbounded plain tail, so the sum is finite and matches the stable
    recursion.  Branches where a nonempty row starts with L < its row index
    fall outside the rule's hypothesis and raise.
    """
    kappa = tuple(kappa)
    mu = iv(mu)
    nu = iv(nu)
    ln = len(nu)
    rho = list(pad(mu, ln))
    if any(rho[k] > nu[k] for k in range(ln)):
        return APoly.zero()
    rows = [
        (i, [(i, j) for j in range(1, kappa[i - 1] + 1)])
        for i in range(len(kappa), 0, -1)
    ]
    total = APoly.zero()

    def fill_row(r, t, L, y, hi, pending, weight):
        nonlocal total
        i, boxes = rows[r]
        if t == len(boxes):
            if all(k - c <= L - y for k, c in pending):
                do_rows(r + 1, weight)
            return
        bi, bj = boxes[t]
        c = bj - bi
        # barred: grow rho, keep every prefix a partition inside nu
        for k in range(1, ln + 1):
            if k > hi or rho[k - 1] >= nu[k - 1]:
                continue
            if k > 1 and rho[k - 2] <= rho[k - 1]:
                continue
            rho[k - 1] += 1
            fill_row(r, t + 1, L, y + (1 if k == L + 1 else 0), k, pending, weight)
            rho[k - 1] -= 1
        # plain unprimed: value at most L, weight a_{k - rho_k}
        for k in range(1, min(L, hi) + 1):
            fill_row(
                r, t + 1, L, y, k, pending, weight * APoly.var(k - rho[k - 1])
            )
        # plain primed: weight -a_{k - c}; exact bound checked at row end
        for k in range(1, min(L - y + c, hi) + 1):
            fill_row(
                r,
                t + 1,
                L,
                y,
                k,
                pending + [(k, c)],
                weight * APoly.var(k - c, coeff=-1),
            )

    def do_rows(r, weight):
        nonlocal total
        if r == len(rows):
            if rho == list(pad(nu, ln)):
                total = total + weight
            return
        i, boxes = rows[r]
        if not boxes:
            do_rows(r + 1, weight)
            return
        L = sum(1 for v in rho if v > 0)
        if i - 1 >= L:
            raise ValueError(
                "unsupported hypothesis: a Pieri factor outruns the "
                "intermediate partition length"
            )
        fill_row(r, 0, L, 0, ln + L + sum(len(b) for _, b in rows), [], weight)

    do_rows(0, APoly.one())
    return total


def pieri_tableau(p, e, mu):
    """Tableau form of the Pieri rule: expand h_{p,e} * s_mu over partitions nu.

    Sums good monomial tableaux of the single-row shape (0,...,0,p) with
    Yamanouchi row word mu -> nu.  Only the range e < l(mu) is supported
    (the rule's hypothesis); use pieri_stable outside it.
    """
    mu = iv(mu)
    if not 0 <= e < len(mu):
        raise ValueError("unsupported hypothesis: require 0 <= e < l(mu)")
    shape = (0,) * e + (p,)
    return SchurSum(accumulate({}, (
        (nu, _good_monomial_sum(shape, mu, nu))
        for add in range(p + 1)
        for nu in partitions_of(size(mu) + add, max_len=len(mu) + 1)
        if contains(nu, mu)
    )))


def kostka(kappa, mu, nu, method="recursion"):
    """Coefficient of s_nu in h_{kappa,1} * s_mu.

    kappa is an arbitrary integer vector: any negative entry gives 0 and zero
    entries contribute unit factors.  The recursion method folds the stable
    Pieri rule over the rows of kappa from the bottom up; the tableaux method
    sums row-order weights over stacked-Pieri fillings of shape kappa.
    """
    kappa = tuple(kappa)
    mu = iv(mu)
    nu = iv(nu)
    if any(k < 0 for k in kappa):
        return APoly.zero()
    if method == "recursion":
        s = SchurSum.single(mu)
        for i in range(len(kappa), 0, -1):
            s = multiply_by_h(kappa[i - 1], i - 1, s)
        return s.coeff(nu)
    if method == "tableaux":
        return _good_monomial_sum(kappa, mu, nu)
    raise ValueError("method must be 'recursion' or 'tableaux'")


def c_alternating(lam, mu, nu):
    """The signed sum of Kostka-like coefficients over shapes lam^omega."""
    lam = iv(lam)
    total = APoly.zero()
    for omega in all_permutations(len(lam)):
        kappa, sign = lambda_omega(lam, omega)
        total = total + kostka(kappa, mu, nu) * sign
    return total


def _c_tableau(lam, mu, nu, order):
    lam = iv(lam)
    mu = iv(mu)
    nu = iv(nu)
    if not contains(nu, mu) or size(nu) > size(lam) + size(mu):
        return APoly.zero()
    return APoly(lr_weight_sum(lam, mu, nu, order))


def c_theorem(lam, mu, nu):
    """Tableau rule with row-order prefix weights."""
    return _c_tableau(lam, mu, nu, "row")


def c_corollary(lam, mu, nu):
    """Tableau rule with column-order prefix weights."""
    return _c_tableau(lam, mu, nu, "column")
