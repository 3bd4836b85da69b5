"""Sparse linear combinations stored as term dicts without zero coefficients.

Every linear combination in the package (APoly, SchurSum, XPoly, and the
plain dicts of double_sym's orbit form and formal_ring's words) maps keys to
nonzero coefficients, so equal elements have equal dicts.  accumulate is the
one loop that keeps that form while adding; Terms is the arithmetic the
three classes share.
Coefficients are ints or APolys.  Values are replaced, never mutated, so a
dict may be accumulated into even when its values are shared with a cache;
the dict itself must belong to the caller.
"""


def accumulate(out, pairs):
    """Add every (key, coeff) of pairs into the term dict out; return out.

    A key whose coefficient sums to zero is dropped, and a zero coefficient
    for an absent key is never stored.
    """
    get = out.get
    for key, c in pairs:
        old = get(key)
        if old is not None:
            c = old + c
        if c:
            out[key] = c
        elif old is not None:
            del out[key]
    return out


class Terms:
    """A linear combination held as the dict ``terms``: key -> nonzero coeff."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    def _like(self, terms):
        """A new element of the same kind as self, holding terms."""
        return type(self)(terms)

    @classmethod
    def zero(cls):
        """The zero element."""
        return cls()

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __add__(self, other):
        return self._like(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        """Multiply every coefficient by the scalar c (an int or an APoly)."""
        if not c:
            return self._like({})
        return self._like({k: v * c for k, v in self.terms.items()})
