"""A fixed pure-Python kernel that measures how fast the host runs at the moment.

The host this benchmark was tuned on is shared: its speed drifts by up to
1.7x over minutes, and lrpoly's ops slow down and speed up with it.  A pass
runs one slice of this kernel after every op, outside the op's timed span,
and the median slice time of the pass says how fast the host ran during it.

A slice does what lrpoly's hot loops do: a sparse product of two
polynomials whose monomials are tuples of (index, exponent) pairs, with a
memo of monomial products and big-integer coefficients.  It imports nothing
from lrpoly, so no change to lrpoly changes its time.
"""

import random
import time

# Times are reported scaled to a host on which one slice takes this long.
NOMINAL_SLICE_S = 0.001


def _factors():
    """Two fixed polynomials of 24 terms each, from a fixed seed."""
    rng = random.Random(12345)

    def monomial():
        indices = sorted(rng.sample(range(12), rng.randint(1, 4)))
        return tuple((i, rng.randint(1, 3)) for i in indices)

    out = []
    for _ in range(2):
        terms = {}
        while len(terms) < 24:
            terms[monomial()] = rng.choice([c for c in range(-9, 10) if c])
        out.append(list(terms.items()))
    return out


def _merge(m1, m2):
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
    return tuple(out)


class Reference:
    """Runs slices of the kernel and keeps their durations."""

    def __init__(self):
        self._a, self._b = _factors()
        self.slices = []

    def run_slice(self):
        t0 = time.perf_counter()
        memo, out = {}, {}
        for _ in range(2):
            for m1, c1 in self._a:
                for m2, c2 in self._b:
                    key = (m1, m2)
                    m = memo.get(key)
                    if m is None:
                        m = memo[key] = _merge(m1, m2)
                    out[m] = out.get(m, 0) + c1 * c2 * 1000003
        self.slices.append(time.perf_counter() - t0)
        return len(out)
