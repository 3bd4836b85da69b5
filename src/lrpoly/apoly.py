"""Sparse exact polynomials in the variables a_i, i in Z, over arbitrary-precision integers.

A monomial is a tuple of (index, exponent) pairs with strictly increasing
indices and positive exponents; the empty tuple is the constant monomial.
An APoly stores a dict mapping monomials to nonzero integer coefficients,
so equal polynomials always have equal term dicts.
"""

from fractions import Fraction

from .sparse import Terms, accumulate

ONE_MONO = ()


_MONO_MUL_CACHE = {}


def _mono_mul(m1, m2):
    """Product of two monomials (merge sorted index lists); memoized."""
    if not m1:
        return m2
    if not m2:
        return m1
    key = (m1, m2)
    cached = _MONO_MUL_CACHE.get(key)
    if cached is not None:
        return cached
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        (i1, e1), (i2, e2) = m1[i], m2[j]
        if i1 < i2:
            out.append(m1[i])
            i += 1
        elif i1 > i2:
            out.append(m2[j])
            j += 1
        else:
            out.append((i1, e1 + e2))
            i += 1
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    result = tuple(out)
    _MONO_MUL_CACHE[key] = result
    return result


def _mul_into(out, t1, t2):
    """Add the product of the term dicts t1 and t2 into the term dict out.

    The one fused monomial-product kernel: integer coefficients, keys that
    cancel are dropped.  Returns out.
    """
    for m1, k1 in t1.items():
        for m2, k2 in t2.items():
            m = _mono_mul(m1, m2)
            k = out.get(m, 0) + k1 * k2
            if k:
                out[m] = k
            else:
                del out[m]
    return out


def _mono_degree(m):
    return sum(e for _, e in m)


def _mono_key(m):
    # graded, then lexicographic on the (index, exponent) list
    return (_mono_degree(m), m)


class APoly(Terms):
    """Element of Z[a_i : i in Z] with canonical sparse representation."""

    __slots__ = ()

    @staticmethod
    def const(c):
        c = int(c)
        return APoly({ONE_MONO: c} if c else {})

    @staticmethod
    def one():
        return APoly.const(1)

    @staticmethod
    def var(i, exp=1, coeff=1):
        """The monomial coeff * a_i**exp."""
        if coeff == 0:
            return APoly.zero()
        if exp == 0:
            return APoly.const(coeff)
        return APoly({((i, exp),): coeff})

    def __eq__(self, other):
        if isinstance(other, int):
            other = APoly.const(other)
        return isinstance(other, APoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = APoly.const(other)
        return APoly(accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = APoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return APoly.const(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return APoly(_mul_into({}, self.terms, other.terms))

    __rmul__ = __mul__

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(_mono_degree(m) for m in self.terms)

    def is_homogeneous(self, d=None):
        """True iff every term has the same total degree (equal to d if given)."""
        degs = {_mono_degree(m) for m in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return d is None or degs == {d}

    def shift_indices(self, k):
        """Ring automorphism sending a_i to a_{i+k}."""
        if k == 0:
            return self
        return APoly(
            {tuple((i + k, e) for i, e in m): c for m, c in self.terms.items()}
        )

    def substitute(self, assignment):
        """Exact rational evaluation; assignment maps variable index to a number."""
        total = Fraction(0)
        for m, c in self.terms.items():
            val = Fraction(c)
            for i, e in m:
                if i not in assignment:
                    raise KeyError(f"no value assigned to variable index {i}")
                val *= Fraction(assignment[i]) ** e
            total += val
        return total

    def at_zero(self):
        """Constant term: the image under a_i -> 0 for all i."""
        return self.terms.get(ONE_MONO, 0)

    def sorted_terms(self):
        """Terms in graded-lexicographic order (deterministic serialization)."""
        return sorted(self.terms.items(), key=lambda mc: _mono_key(mc[0]))

    def to_json(self):
        return [
            {"coeff": str(c), "vars": [[i, e] for i, e in m]}
            for m, c in self.sorted_terms()
        ]

    @staticmethod
    def from_json(data):
        return APoly(accumulate({}, (
            (tuple((int(i), int(e)) for i, e in t["vars"]), int(t["coeff"]))
            for t in data
        )))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = "*".join(
                f"a_{i}" if e == 1 else f"a_{i}^{e}" for i, e in m
            )
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = factors
            else:
                body = f"{abs(c)}*{factors}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        s = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            s += f" {sign} {body}"
        return s

    def __repr__(self):
        return f"APoly({self})"


A_ZERO = APoly.zero()
A_ONE = APoly.one()


def a(i):
    """Shorthand for the variable a_i."""
    return APoly.var(i)
