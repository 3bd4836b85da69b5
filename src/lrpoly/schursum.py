"""Finitely supported maps from partitions to exact coefficient polynomials.

A SchurSum represents an element sum_nu c_nu(a) * s_nu of the Schur basis,
stored as a dict {partition tuple: nonzero APoly}.
"""

from .apoly import APoly
from .shapes import iv, require_partitions
from .sparse import Terms


class SchurSum(Terms):
    """Linear combination of Schur basis elements with APoly coefficients."""

    __slots__ = ()

    @staticmethod
    def single(nu):
        """The basis element s_nu."""
        return SchurSum({iv(nu): APoly.one()})

    def coeff(self, nu):
        """Coefficient of s_nu (zero polynomial if absent); nu may be a list or untrimmed.

        ValueError unless nu is a partition (see shapes.require_partitions).
        """
        (nu,) = require_partitions(nu)
        c = self.terms.get(nu)
        return APoly.zero() if c is None else c

    def partitions(self):
        """Support, sorted by size then reverse-lexicographically."""
        return sorted(self.terms, key=lambda nu: (sum(nu), tuple(-e for e in nu)))

    def to_json(self):
        return [
            {"nu": list(nu), "coeff": self.terms[nu].to_json()}
            for nu in self.partitions()
        ]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for nu in self.partitions():
            c = self.terms[nu]
            label = "s" + str(list(nu)).replace(" ", "")
            parts.append(f"({c})*{label}")
        return " + ".join(parts)

    def __repr__(self):
        return f"SchurSum({self})"
