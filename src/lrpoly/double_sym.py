"""Symmetric polynomials in x_1..x_n with exact coefficients in Z[a].

Provides Schur elements via the branching rule over horizontal strips (the
combinatorial reverse-tableau formula), decomposition in the Schur basis,
and a brute-force oracle for the structure coefficients.  The oracle works
on the orbit form, a plain dict {partition nu: APoly} holding the
coefficient of the single monomial x^nu; the other members of its orbit
carry the same coefficient by symmetry and are never built.  XPoly is the
dense form that the schur command prints.  Also contains an independent
classical (all a_i = 0) Littlewood-Richardson implementation used as a
cross-check.

The oracle expands only the degrees its answer reads.  Each basis element
s_kappa has x-degree |kappa| and leading monomial x^kappa with coefficient
1, so the greedy elimination reaches a coefficient of degree d having read
only terms of degree >= d; _sym_mul, _decompose_sym and _product take a
degree floor low and skip every term below it.

Every memo is a functools.lru_cache function, so cache_info() and
cache_clear() reach it; the values are shared: read them, never write
them.  _schur_sym_branch is per (lam, n), _splits per target partition
(shared by every product and every n), _product per sorted pair, n and
low, _stable_product per sorted pair, n0 and low (the checked product
c_oracle reads), and _classical_table per (lam, mu).
"""

from functools import lru_cache
from itertools import product

from .apoly import APoly, _mul_into
from .schursum import SchurSum
from .shapes import (
    conjugate, interlacing, iv, pad, jacobi_trudi_fold, partitions_of,
    require_partitions, size,
)
from .sparse import Terms, accumulate


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

    def _rendered(self, convert):
        """(exponent, convert(coeff)) by descending degree, then exponent.

        The members of an orbit share one coefficient object, so each
        distinct object is converted once.
        """
        done = {}
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            out = done.get(id(c))
            if out is None:
                out = done[id(c)] = convert(c)
            yield e, out

    def to_json(self):
        """The terms by descending degree; the terms of one orbit share one coeff list."""
        return {
            "n": self.n,
            "terms": [{"x": list(e), "coeff": c} for e, c in self._rendered(APoly.to_json)],
        }

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self._rendered(str):
            mono = "*".join(
                f"x_{i+1}" if k == 1 else f"x_{i+1}^{k}"
                for i, k in enumerate(e)
                if k
            )
            parts.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(parts)

    def __repr__(self):
        return f"XPoly(n={self.n}, {self})"


@lru_cache(maxsize=None)
def _splits(nu):
    """{sort(u): ((sort(nu - u), count), ...)} over the u <= nu componentwise.

    Each u splits nu into u + (nu - u); both parts are sorted and trimmed
    to the orbit keys they read, and count is how many u give that pair of
    keys.  It depends on nu alone, so every product and every n shares it.
    """
    table = {}
    for u in product(*(range(v + 1) for v in nu)):
        key = iv(sorted(u, reverse=True))
        rest = iv(sorted((v - x for v, x in zip(nu, u)), reverse=True))
        partners = table.setdefault(key, {})
        partners[rest] = partners.get(rest, 0) + 1
    return {key: tuple(partners.items()) for key, partners in table.items()}


def _sym_mul(t1, t2, n, low):
    """Product of two orbit forms in n variables, at the target degrees >= low only.

    coeff(nu) of the product is the sum over componentwise splits
    u + w = nu of t1[sort(u)] * t2[sort(w)]; candidate nu are all
    partitions of a reachable degree >= low with bounded length and first
    part.  Each t1[sort(u)] is multiplied once, by the count-weighted sum of
    the t2 entries it pairs with (_splits).
    """
    degs1 = {sum(e) for e in t1}
    degs2 = {sum(e) for e in t2}
    degs = {d1 + d2 for d1 in degs1 for d2 in degs2 if d1 + d2 >= low}
    max1 = max((e[0] for e in t1 if e), default=0)
    max2 = max((e[0] for e in t2 if e), default=0)
    out = {}
    for d in degs:
        for nu in partitions_of(d, max_len=n, max_part=max1 + max2):
            acc = {}
            for key, partners in _splits(nu).items():
                cu = t1.get(key)
                if cu is None:
                    continue
                found = [(t2[rest], count) for rest, count in partners if rest in t2]
                if len(found) == 1 and found[0][1] == 1:
                    cw = found[0][0].terms  # only read by _mul_into
                else:
                    cw = {}
                    for c, count in found:
                        accumulate(cw, ((m, count * k) for m, k in c.terms.items()))
                if cw:
                    _mul_into(acc, cu.terms, cw)
            if acc:
                out[nu] = APoly(acc)
    return out


def _orbit(e):
    """The distinct reorderings of the tuple e.

    Each value is inserted at every place of every arrangement so far, the
    most frequent values first, so the set stays small until the end.
    """
    orbit = {()}
    for v in sorted(e, key=e.count, reverse=True):
        orbit = {o[:i] + (v,) + o[i:] for o in orbit for i in range(len(o) + 1)}
    return orbit


@lru_cache(maxsize=None)
def _schur_sym_branch(lam, n):
    """Orbit form of the Schur element via variable splitting.

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
    for mu in interlacing(lam, lam[1:] + (0,)):
        inner = _schur_sym_branch(iv(mu), n - 1)
        if not inner:
            continue
        # elementary symmetric sums of the strip's -a_{1-c(box)} values
        elem = [APoly.one()]
        for r, (top, low) in enumerate(zip(lam, mu)):
            for c in range(low, top):
                val = APoly.var(1 - (c - r), coeff=-1)
                elem.append(APoly.zero())
                for t in range(len(elem) - 1, 0, -1):
                    elem[t] = elem[t] + elem[t - 1] * val
        s = len(elem) - 1
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
    try:
        (lam,) = require_partitions(lam)
    except ValueError:
        raise ValueError("shape must be a partition") from None
    return XPoly(n, {
        e: c for nu, c in _schur_sym_branch(lam, n).items() for e in _orbit(pad(nu, n))
    })


def _decompose_sym(terms, n, low):
    """Greedy Schur-basis elimination on an orbit form in n variables, at degrees >= low.

    Among the terms of maximal total degree, the lexicographically greatest
    partition is the leading monomial of a unique basis element, whose
    coefficient is read off directly and subtracted.  A basis element whose
    leading coefficient is not exactly 1 would leave that term behind; it is
    reported as an ArithmeticError instead of looping forever.

    The basis element s_kappa has degree |kappa|, so a subtraction never
    raises a degree, and the terms of degree >= low evolve the same whether
    or not the lower ones are kept.  They are dropped from the input and
    from every subtraction, and the result holds exactly the coefficients
    of degree >= low of the whole decomposition.
    """
    # private raw term dicts: the basis and input APolys may be cache-owned,
    # so the in-place subtraction below must never reach them
    work = {e: dict(c.terms) for e, c in terms.items() if sum(e) >= low}
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
            if sum(e) < low:
                continue
            d = work.get(e)
            if d is None:
                d = work[e] = {}
            _mul_into(d, p.terms, neg)
            if not d:
                del work[e]
        if nu in work:
            raise ArithmeticError(f"leading coefficient of s_{nu} in n={n} is not 1")
    return SchurSum(result)


@lru_cache(maxsize=None)
def _product(lam, mu, n, low):
    """Decomposition of s_lam * s_mu in n variables at degrees >= low, for a sorted pair lam <= mu.

    The empty lam sorts first, and s_() = 1 leaves s_mu as it is.  With
    low = 0 it is the whole decomposition.
    """
    terms = _schur_sym_branch(mu, n)
    if lam:
        terms = _sym_mul(_schur_sym_branch(lam, n), terms, n, low)
    return _decompose_sym(terms, n, low)


@lru_cache(maxsize=None)
def _stable_product(lam, mu, n0, low):
    """_product at n0, checked once against _product at n0 + 1 restricted to length <= n0.

    Raises ArithmeticError when they differ; lru_cache stores no exception,
    so every later call checks again and raises again.
    """
    d1 = _product(lam, mu, n0, low)
    d2 = _product(lam, mu, n0 + 1, low)
    if d1 != SchurSum({k: c for k, c in d2.terms.items() if len(k) <= n0}):
        raise ArithmeticError(f"unstable at chosen n: n0={n0} vs n0+1 disagree")
    return d1


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

    Both expansions keep only the degrees >= low = min(|lam|, |mu|, |nu|)
    (see _decompose_sym), which holds degree |nu|, so the coefficient is
    exact, and the stability check covers every coefficient this call can
    return.  low is symmetric in the pair and the same for every nu that
    contains lam or mu, so the cells of a pair share one memo entry per n0.
    """
    lam, mu, nu = require_partitions(lam, mu, nu)
    flip = bool(nu) and nu[0] < len(nu)
    if flip:
        lam, mu, nu = conjugate(lam), conjugate(mu), conjugate(nu)
    low = min(size(lam), size(mu), size(nu))
    c = _stable_product(*sorted((lam, mu)), max(len(nu), 1), low).terms.get(nu)
    if c is None:
        return APoly.zero()
    return c.dual() if flip else c


def classical_lr(lam, mu, nu):
    """Classical Littlewood-Richardson coefficient, all a_i = 0.

    Independent integer implementation: the classical Jacobi-Trudi
    determinant folded row by row (jacobi_trudi_fold), each row an
    iterated classical Pieri multiplication (horizontal strips) on integer
    counts, with no call to the stable Pieri rule.  The sum is taken once
    per (lam, mu) for every nu at once, by the cached _classical_table.
    """
    lam, mu, nu = require_partitions(lam, mu, nu)
    return _classical_table(lam, mu).get(nu, 0)


@lru_cache(maxsize=None)
def _classical_table(lam, mu):
    """{nu: classical coefficient} of s_lam * s_mu (lam, mu checked by classical_lr); read only."""

    def add_strips(counts, p, _i):
        out = {}
        for part, cnt in counts.terms.items():
            # nu/part a horizontal strip of p boxes: only row 1 may pass part_1
            grown = interlacing(((part[0] if part else 0) + p,) + part, part + (0,))
            d = size(part) + p
            accumulate(out, ((iv(nu), cnt) for nu in grown if sum(nu) == d))
        return Terms(out)

    return jacobi_trudi_fold(lam, Terms({mu: 1}), add_strips).terms
