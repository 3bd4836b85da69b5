"""Sparse exact polynomials in the variables a_i, i in Z, over arbitrary-precision integers.

A monomial is stored as one non-negative int key, so a monomial product is
one integer addition.  The key is a row of B-bit fields, B = 8:

- field 0 (bits [0, B)) holds the total degree;
- the exponent of a_i sits in field 2i+1 when i >= 0 and in field -2i when
  i < 0 (a zigzag order, so small indices give small keys).

Every exponent is at most the degree, so adding two keys cannot carry from
one field into the next while the degree stays below 2^(B-1) = 128.
_mul_into checks that guard bit on every product and raises ArithmeticError
when it is set; nothing carries silently.  Because adding a key never
carries, integer comparison of keys is a monomial order; ONE_MONO = 0, the
constant monomial, is its minimum.  shift_indices and dual move fields
with masks (_shift_up, _shift_down, _reflect) that span the indices
-255..255, and raise ArithmeticError past them.

unpack(m) gives back the (index, exponent) pairs by increasing index;
printing and JSON convert there, sorting graded, then lexicographically on
those pairs.  An APoly stores a dict mapping keys to nonzero integer
coefficients, so equal polynomials always have equal term dicts.
"""

from .sparse import Terms, accumulate

B = 8
ONE_MONO = 0
_FIELD = (1 << B) - 1  # field 0, the degree
_GUARD = 1 << (B - 1)
_SPAN = 255  # shift_indices keeps indices in [-_SPAN, _SPAN] shiftable
_SPAN_BITS = B * (2 * _SPAN + 2)  # a key at or above 1 << _SPAN_BITS is past the masks


def _fields(slots):
    return sum(_FIELD << B * s for s in slots)


_ODD = _fields(range(1, 2 * _SPAN + 2, 2))  # a_0, a_1, ...
_EVEN = _fields(range(2, 2 * _SPAN + 2, 2))  # a_-1, a_-2, ...
_SLOT1, _SLOT2 = _fields([1]), _fields([2])


def _shift_up(m):
    """a_i -> a_{i+1}: odd fields move up two, even fields down two, a_-1 to a_0."""
    return (
        (m & _FIELD) | (m & _ODD) << 2 * B
        | (m & (_EVEN ^ _SLOT2)) >> 2 * B | (m & _SLOT2) >> B
    )


def _shift_down(m):
    """a_i -> a_{i-1}: the inverse of _shift_up."""
    return (
        (m & _FIELD) | (m & _EVEN) << 2 * B
        | (m & (_ODD ^ _SLOT1)) >> 2 * B | (m & _SLOT1) << B
    )


def _reflect(m):
    """a_i -> a_{-i}: odd fields past a_0 move down one, even fields up one."""
    return (m & (_FIELD | _SLOT1)) | (m & (_ODD ^ _SLOT1)) >> B | (m & _EVEN) << B


def _require_span(terms):
    """Raise ArithmeticError if a key of terms holds an index past the masks."""
    if terms and max(terms) >> _SPAN_BITS:
        raise ArithmeticError(f"index outside the shift span [-{_SPAN}, {_SPAN}]")


def var_key(i, e=1):
    """The key of the monomial a_i**e."""
    if not 0 <= e < _GUARD:
        raise ArithmeticError(f"exponent {e} outside the packed range [0, {_GUARD})")
    return e | e << B * (2 * i + 1 if i >= 0 else -2 * i)


def pack(pairs):
    """The key of the product of a_i**e over the (index, exponent) pairs."""
    m = ONE_MONO
    for i, e in pairs:
        m += var_key(i, e)
        if m & _GUARD:
            raise ArithmeticError("monomial degree outside the packed range")
    return m


def unpack(m):
    """The (index, exponent) pairs of the key m, by increasing index."""
    pairs = []
    m >>= B
    s = 1
    while m:
        e = m & _FIELD
        if e:
            pairs.append((s >> 1 if s & 1 else -(s >> 1), e))
        m >>= B
        s += 1
    pairs.sort()
    return tuple(pairs)


def _mul_into(out, t1, t2):
    """Add the product of the term dicts t1 and t2 into the term dict out.

    The one fused monomial-product kernel: integer coefficients, keys that
    cancel are dropped.  Returns out.  t1 and t2 are only read, so either
    may be a shared memo.
    """
    get = out.get
    for m1, k1 in t1.items():
        for m2, k2 in t2.items():
            m = m1 + m2
            if m & _GUARD:
                raise ArithmeticError("monomial degree outside the packed range")
            k = get(m, 0) + k1 * k2
            if k:
                out[m] = k
            else:
                del out[m]
    return out


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
    def var(i, coeff=1):
        """The monomial coeff * a_i."""
        if coeff == 0:
            return APoly.zero()
        return APoly({var_key(i): coeff})

    def __eq__(self, other):
        if isinstance(other, int):
            other = APoly.const(other)
        return isinstance(other, APoly) and self.terms == other.terms

    def __hash__(self):
        # a constant equals its int, so it hashes as that int (zero as 0)
        if self.terms.keys() <= {ONE_MONO}:
            return hash(self.terms.get(ONE_MONO, 0))
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

    def is_homogeneous(self, d):
        """True iff every term has total degree d; the zero polynomial is, for every d."""
        return all(m & _FIELD == d for m in self.terms)

    def shift_indices(self, k):
        """Ring automorphism sending a_i to a_{i+k}, one unit step at a time."""
        terms = self.terms
        step = _shift_up if k > 0 else _shift_down
        for _ in range(abs(k)):
            _require_span(terms)
            terms = {step(m): c for m, c in terms.items()}
        return self if terms is self.terms else APoly(terms)

    def dual(self):
        """The involution a_i -> -a_{1-i}: a monomial of degree k gains the sign (-1)^k.

        It is the coefficient map of conjugation duality: c^{nu'}_{lam',mu'}
        is the dual of c^nu_{lam,mu}, with ' the conjugate partition.  A key
        maps as a_i -> a_{-i} -> a_{1-i}; its lowest bit is the degree's parity.
        """
        _require_span(self.terms)
        return APoly({
            _shift_up(_reflect(m)): -c if m & 1 else c for m, c in self.terms.items()
        })

    def at_zero(self):
        """Constant term: the image under a_i -> 0 for all i."""
        return self.terms.get(ONE_MONO, 0)

    def sorted_terms(self):
        """Terms by degree, then by unpacked pairs (deterministic serialization)."""
        return sorted(self.terms.items(), key=lambda mc: (mc[0] & _FIELD, unpack(mc[0])))

    def to_json(self):
        return [
            {"coeff": str(c), "vars": [[i, e] for i, e in unpack(m)]}
            for m, c in self.sorted_terms()
        ]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = "*".join(
                f"a_{i}" if e == 1 else f"a_{i}^{e}" for i, e in unpack(m)
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

