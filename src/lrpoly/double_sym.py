"""Symmetric polynomials in x_1..x_n with exact coefficients in Z[a].

Provides Schur elements via the branching rule over horizontal strips (the
combinatorial reverse-tableau formula), decomposition in the Schur basis,
and a brute-force oracle for the structure coefficients.  XPoly is the
dense form that the schur command prints.  Also contains an independent
classical (all a_i = 0) Littlewood-Richardson implementation used as a
cross-check.

Every memo is a functools.lru_cache function (_schur_sym_branch, _product,
_classical_table), so cache_info() and cache_clear() reach it; the values
are shared: read them, never write them.
"""

from functools import lru_cache
from itertools import product

from .apoly import APoly, _mul_into
from .schursum import SchurSum
from .shapes import (
    conjugate, iv, pad, is_partition, jacobi_trudi_fold, partitions_of, require_partitions,
)
from .sparse import Terms, accumulate

# product_decomposition is for callers outside the package: c_oracle reads
# the memo behind it directly, with the shapes it has already trimmed
__all__ = ["XPoly", "double_schur_n", "product_decomposition", "c_oracle", "classical_lr"]


class XPoly(Terms):
    """Polynomial in x_1..x_n over Z[a]; terms map exponent tuples to APoly."""

    __slots__ = ("n",)

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = terms if terms is not None else {}

    def _like(self, terms):
        return XPoly(self.n, terms)

    def __eq__(self, other):
        return Terms.__eq__(self, other) and self.n == other.n

    def to_json(self):
        return {
            "n": self.n,
            "terms": [
                {"x": list(e), "coeff": self.terms[e].to_json()}
                for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
            ],
        }

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            mono = "*".join(
                f"x_{i+1}" if k == 1 else f"x_{i+1}^{k}"
                for i, k in enumerate(e)
                if k
            )
            c = self.terms[e]
            parts.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(parts)

    def __repr__(self):
        return f"XPoly(n={self.n}, {self})"


class _Sym(Terms):
    """Symmetric polynomial stored by one sorted exponent representative per orbit.

    terms maps trimmed weakly decreasing exponent tuples (partitions) to APoly
    coefficients.  The coefficient stored for key nu is the coefficient of the
    single monomial x^nu; all other orbit members carry the same coefficient
    by symmetry and are never materialized.
    """

    __slots__ = ("n",)

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = terms if terms is not None else {}

    def _like(self, terms):
        return _Sym(self.n, terms)

    def __eq__(self, other):
        return Terms.__eq__(self, other) and self.n == other.n

    def __mul__(self, other):
        """Orbit-wise product: convolve over candidate target partitions.

        coeff(nu) of the product is the sum over componentwise splits
        u + w = nu of coeff(sort(u)) * coeff(sort(w)); candidate nu are all
        partitions of a reachable degree with bounded length and first part.
        """
        if self.is_zero() or other.is_zero():
            return _Sym(self.n, {})
        # constant operands reduce to scaling
        if len(self.terms) == 1 and () in self.terms:
            c = self.terms[()]
            return other if c == APoly.one() else other.scale(c)
        if len(other.terms) == 1 and () in other.terms:
            c = other.terms[()]
            return self if c == APoly.one() else self.scale(c)
        degs1 = {sum(e) for e in self.terms}
        degs2 = {sum(e) for e in other.terms}
        degs = {d1 + d2 for d1 in degs1 for d2 in degs2}
        max1 = max((e[0] for e in self.terms if e), default=0)
        max2 = max((e[0] for e in other.terms if e), default=0)
        p1, p2 = self.terms, other.terms
        out = {}
        for d in degs:
            for nu in partitions_of(d, max_len=self.n, max_part=max1 + max2):
                acc = {}
                for u in product(*(range(v + 1) for v in nu)):
                    cu = p1.get(iv(sorted(u, reverse=True)))
                    if cu is None:
                        continue
                    cw = p2.get(
                        iv(sorted((v - x for v, x in zip(nu, u)), reverse=True))
                    )
                    if cw is not None:
                        _mul_into(acc, cu.terms, cw.terms)
                if acc:
                    out[nu] = APoly(acc)
        return _Sym(self.n, out)


def _distinct_permutations(values):
    """All distinct orderings of a multiset, without repetition."""
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    n = len(values)
    out = []

    def rec(prefix):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in sorted(counts):
            if counts[v]:
                counts[v] -= 1
                prefix.append(v)
                rec(prefix)
                prefix.pop()
                counts[v] += 1

    rec([])
    return out


def _sym_expand(S):
    """Dense polynomial with the full symmetric orbit of every stored term."""
    out = {}
    for nu, c in S.terms.items():
        for e in _distinct_permutations(pad(nu, S.n)):
            out[e] = c
    return XPoly(S.n, out)


def _strip_removals(lam):
    """All (mu, strip boxes) with lam/mu a horizontal strip (mu = lam included)."""
    lam = iv(lam)
    l = len(lam)
    out = []

    def rec(i, built):
        if i == l:
            mu = iv(built)
            boxes = [
                (r + 1, c + 1)
                for r in range(l)
                for c in range((built[r] if r < len(built) else 0), lam[r])
            ]
            out.append((mu, boxes))
            return
        lo = lam[i + 1] if i + 1 < l else 0
        for v in range(lo, lam[i] + 1):
            rec(i + 1, built + [v])

    rec(0, [])
    return out


@lru_cache(maxsize=None)
def _schur_sym_branch(lam, n):
    """Symmetric representative of the Schur element via variable splitting.

    Splitting off the boxes holding the minimal entry (a horizontal strip
    lam/mu whose boxes carry factors x_1 - a_{1-c}) expresses the element
    through shape-mu elements in one fewer variable with all a-indices
    shifted by one.  This is the combinatorial formula for factorial Schur
    functions (Molev-Sagan, Trans. AMS 1999); its equality with the
    Jacobi-Trudi determinant in the shifted h's is asserted by
    tests/test_double_sym.py::test_branching_matches_jacobi_trudi_determinant.
    lam is a trimmed partition tuple.
    """
    if not lam:
        return {(): APoly.one()}
    if len(lam) > n:
        return {}
    result = {}
    for mu, boxes in _strip_removals(lam):
        inner = _schur_sym_branch(mu, n - 1)
        if not inner:
            continue
        s = len(boxes)
        # elementary symmetric sums of the strip's -a_{1-c(box)} values
        elem = [APoly.one()]
        for (r, c) in boxes:
            val = APoly.var(1 - (c - r), coeff=-1)
            elem.append(APoly.zero())
            for t in range(len(elem) - 1, 0, -1):
                elem[t] = elem[t] + elem[t - 1] * val
        for ktail, coeff in inner.items():
            shifted = coeff.shift_indices(1)
            lo = ktail[0] if ktail else 0
            accumulate(result, (
                ((k1,) + ktail if k1 else ktail, shifted * elem[s - k1])
                for k1 in range(lo, s + 1)
            ))
    return result


def double_schur_n(lam, n):
    """Schur element of shape lam in n variables, as a dense polynomial."""
    lam = iv(lam)
    if not is_partition(lam):
        raise ValueError("shape must be a partition")
    return _sym_expand(_Sym(n, _schur_sym_branch(lam, n)))


def _decompose_sym(S):
    """Greedy Schur-basis elimination on a symmetric representative.

    Among the terms of maximal total degree, the lexicographically greatest
    partition is the leading monomial of a unique basis element, whose
    coefficient is read off directly and subtracted.  A basis element whose
    leading coefficient is not exactly 1 would leave that term behind; it is
    reported as an ArithmeticError instead of looping forever.
    """
    n = S.n
    # private raw term dicts: the basis and input APolys may be cache-owned,
    # so the in-place subtraction below must never reach them
    work = {e: dict(c.terms) for e, c in S.terms.items()}
    result = {}
    while work:
        nu = max(work, key=lambda e: (sum(e), e))
        if len(nu) > n:
            # every input key has at most n parts, so only a broken basis gets here
            raise RuntimeError(f"not in span: leading exponent {nu} has more than n={n} parts")
        # snapshot before the pass below, which also zeroes work[nu]
        result[nu] = APoly(dict(work[nu]))
        neg = {m: -k for m, k in work[nu].items()}
        for e, p in _schur_sym_branch(nu, n).items():
            d = work.get(e)
            if d is None:
                d = work[e] = {}
            _mul_into(d, p.terms, neg)
            if not d:
                del work[e]
        if nu in work:
            raise ArithmeticError(f"leading coefficient of s_{nu} in n={n} is not 1")
    return SchurSum(result)


def product_decomposition(lam, mu, n):
    """Decomposition of s_lam * s_mu in n variables; (lam, mu) and (mu, lam) share one memo."""
    return _product(*sorted((iv(lam), iv(mu))), n)


@lru_cache(maxsize=None)
def _product(lam, mu, n):
    return _decompose_sym(_Sym(n, _schur_sym_branch(lam, n)) * _Sym(n, _schur_sym_branch(mu, n)))


def c_oracle(lam, mu, nu):
    """Structure coefficient of s_nu in s_lam * s_mu, by brute force.

    Expands the product in n0 = min(l(nu), nu_1) variables (1 for the empty
    nu).  When nu_1 < l(nu) it brute-forces the conjugate cell instead and
    maps the answer back by conjugation duality,
    c^nu_{lam,mu}(a) = c^{nu'}_{lam',mu'}(a') with a'_i = -a_{1-i}: the
    involution omega of Molev, "Comultiplication rules for the double Schur
    functions and Cauchy identities" (EJC 2009).  So on a flipped cell the
    value rests on that theorem as well as on brute force;
    tests/test_double_sym.py checks the theorem by brute force on both
    sides of a whole grid.

    On the cell it expands, n0 = max(l(nu), 1) is the smallest count at
    which s_nu is nonzero.  This is enough: the evaluation phi_n
    (x_n := a_n) is a ring homomorphism sending s_kappa in n variables to
    s_kappa in n - 1 variables, or to 0 when l(kappa) = n, and it leaves the
    a-coefficients alone.  So the coefficient of s_nu in s_lam * s_mu is the
    same for every n >= l(nu).  The decomposition at n0 + 1 may hold
    partitions of length n0 + 1; restricted to length <= n0 it must equal
    the one at n0, which checks that argument at run time.
    tests/test_acceptance.py checks phi_n on the Schur elements
    themselves (criterion 05).
    """
    lam, mu, nu = iv(lam), iv(mu), iv(nu)
    require_partitions(lam, mu, nu)
    flip = bool(nu) and nu[0] < len(nu)
    if flip:
        lam, mu, nu = conjugate(lam), conjugate(mu), conjugate(nu)
    n0 = max(len(nu), 1)
    pair = sorted((lam, mu))
    d1 = _product(*pair, n0)
    d2 = _product(*pair, n0 + 1)
    if d1 != SchurSum({k: c for k, c in d2.terms.items() if len(k) <= n0}):
        raise ArithmeticError(f"unstable at chosen n: n0={n0} vs n0+1 disagree")
    c = d1.coeff(nu)
    return c.dual() if flip else c


def _horizontal_strip_extensions(mu, p):
    """All partitions obtained from mu by adding a horizontal strip of p boxes."""
    mu = iv(mu)
    l = len(mu)
    out = []

    def rec(i, prev_cap, remaining, built):
        if i == l + 1:
            if remaining == 0:
                out.append(iv(built))
            return
        base = mu[i] if i < l else 0
        hi = min(prev_cap, base + remaining)
        for v in range(base, hi + 1):
            rec(i + 1, base, remaining - (v - base), built + [v])

    rec(0, mu[0] + p if l else p, p, [])
    return out


def classical_lr(lam, mu, nu):
    """Classical Littlewood-Richardson coefficient, all a_i = 0.

    Independent integer implementation: the classical Jacobi-Trudi
    determinant folded row by row (jacobi_trudi_fold), each row an
    iterated classical Pieri multiplication (horizontal strips) on integer
    counts, with no call to the stable Pieri rule.  The sum is taken once
    per (lam, mu) for every nu at once, by the cached _classical_table.
    """
    require_partitions(nu)
    return _classical_table(iv(lam), iv(mu)).get(iv(nu), 0)


@lru_cache(maxsize=None)
def _classical_table(lam, mu):
    """{nu: classical coefficient} of s_lam * s_mu; shared, never written."""
    require_partitions(lam, mu)

    def add_strips(counts, p, _i):
        out = {}
        for part, cnt in counts.terms.items():
            accumulate(out, ((ext, cnt) for ext in _horizontal_strip_extensions(part, p)))
        return Terms(out)

    return jacobi_trudi_fold(lam, Terms({mu: 1}), add_strips).terms
