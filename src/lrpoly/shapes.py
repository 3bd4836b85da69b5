"""Integer vectors and partitions: predicates, enumerations and the Jacobi-Trudi fold.

Integer vectors are plain tuples of ints with trailing zeros trimmed; two
vectors are equal iff their trimmed tuples are equal.  Partitions are
integer vectors satisfying is_partition, and compositions_of lists the
compositions of a size; apply_rbar is the one raising operator left, which
the psi check applies.  All functions here are pure and all values
immutable.

partitions_of lists partitions in reverse-lexicographic order: largest
first part first, and among equal first parts by the rest in the same
order.  Case order, verify output and the benchmark digests depend on this
order.  The finished table of each request is memoized once, as a tuple in
the lru_cache function _partitions keyed by (n, max_len, max_part) with
both bounds cut to n; every call returns a fresh list.  The predicates
contains, is_partition and is_horizontal_strip compare entries in one pass
of operator.ge without padded copies.

require_partitions, the shape check of every cell entry point, checks each
shape through the lru_cache function _checked_partition, keyed by the
vector as the caller passed it.  Tuples go to the memo as they are; only a
call with a shape of another type, such as a list, copies its shapes to
tuples, so a warm query on tuples pays one memo lookup per shape and no
copy.  A vector with an entry that is not an integer, such as 2.5 or '1',
is not a partition, so it fails the check rather than being truncated.  A
failed check raises and is not stored, so a non-partition raises on every
call.
"""

from functools import lru_cache
from itertools import chain, islice, product, repeat, starmap, zip_longest
from operator import ge


def iv(entries):
    """Canonical integer vector: tuple with trailing zeros trimmed."""
    entries = tuple(map(int, entries))
    if entries and entries[-1]:
        return entries
    n = len(entries)
    while n > 0 and entries[n - 1] == 0:
        n -= 1
    return entries[:n]


def pad(alpha, l):
    """alpha extended with zeros to length at least l."""
    alpha = tuple(alpha)
    return alpha + (0,) * (l - len(alpha)) if len(alpha) < l else alpha


def size(alpha):
    return sum(alpha)


def is_partition(alpha):
    """True iff alpha is non-increasing with nonnegative entries."""
    return not alpha or (alpha[-1] >= 0 and all(map(ge, alpha, alpha[1:])))


def require_partitions(*shapes):
    """The vectors trimmed by iv (lam, mu, nu of a cell); ValueError unless all are partitions.

    Each shape is checked once per distinct vector: _checked_partition
    memoizes the check keyed by the vector as a tuple.  Tuples are passed
    as they are; a shape of another type makes _checked_partition raise
    TypeError, and the call is redone with every shape copied to a tuple.
    """
    try:
        return tuple(map(_checked_partition, shapes))
    except TypeError:  # a shape that is not a tuple, such as an unhashable list
        return tuple(map(_checked_partition, map(tuple, shapes)))


@lru_cache(maxsize=None)
def _checked_partition(alpha):
    """iv(alpha) for a tuple alpha; ValueError, never cached, unless it is a partition.

    Any other hashable alpha raises TypeError on its miss, before it is read,
    so require_partitions copies it to a tuple: every key is a tuple, and an
    iterator is neither consumed nor kept.  Every entry must equal its int,
    so 2.0 and True pass as 2 and 1, while 2.5 and '1' raise ValueError.
    """
    if type(alpha) is not tuple:
        raise TypeError("a memoized shape is a tuple")
    parts = tuple(map(int, alpha))
    if parts != alpha or not is_partition(parts):
        raise ValueError("lam, mu and nu must be partitions")
    return iv(parts)


def contains(alpha, beta):
    """True iff alpha_i >= beta_i for every i (missing entries read as 0)."""
    return all(starmap(ge, zip_longest(alpha, beta, fillvalue=0)))


def conjugate(lam):
    """The conjugate partition, by one walk down the parts: part j counts the parts above j - 1."""
    out = []
    i = len(lam)
    for j in range(lam[0] if lam else 0):
        while lam[i - 1] <= j:
            i -= 1
        out.append(i)
    return tuple(out)


def is_horizontal_strip(nu, mu):
    """True iff mu is contained in nu and nu/mu has at most one box per column."""
    return contains(nu, mu) and all(map(ge, chain(mu, repeat(0)), islice(nu, 1, None)))


def interlacing(tops, lows):
    """Every tuple v with lows[i] <= v[i] <= tops[i], in lexicographic order, untrimmed.

    With tops = lam and lows = (lam_2, ..., lam_l, 0) these are the mu with
    lam/mu a horizontal strip; with tops = (mu_1 + p, mu_1, ..., mu_l) and
    lows = (mu_1, ..., mu_l, 0), the nu with nu/mu a horizontal strip and
    nu_1 <= mu_1 + p.
    """
    return product(*(range(lo, top + 1) for top, lo in zip(tops, lows)))


def bad_compositions(mu, p):
    """Compositions nu >= mu with 0 < |nu - mu| <= p that are not horizontal strips.

    nu has at most l(mu) + 1 parts; the list runs by added size, then by the
    added vector in lexicographic order.
    """
    mu = iv(mu)
    ln = len(mu) + 1
    mup = pad(mu, ln)
    out = []
    for total in range(1, p + 1):
        for added in compositions_of(total, ln):
            nu = iv(m + k for m, k in zip(mup, pad(added, ln)))
            if not is_horizontal_strip(nu, mu):
                out.append(nu)
    return out


def apply_rbar(i, j, alpha):
    """Swap entries i and j, then decrease entry i by 1 and increase entry j by 1.

    This is an involution on integer vectors.
    """
    if not 1 <= i < j:
        raise ValueError("require 1 <= i < j")
    a = list(pad(alpha, j))
    a[i - 1], a[j - 1] = a[j - 1] - 1, a[i - 1] + 1
    return iv(a)


def perm_sign(omega):
    """Sign of a permutation given as a tuple of 1-based images."""
    inv = 0
    for i in range(len(omega)):
        for j in range(i + 1, len(omega)):
            if omega[i] > omega[j]:
                inv += 1
    return -1 if inv % 2 else 1


def jacobi_trudi_fold(lam, start, times):
    """The Jacobi-Trudi sum s_lam = sum_omega sgn(omega) h_{lam^omega} applied to start.

    The determinant det(h_{lam_k - k + i}) is expanded row by row: position
    i, from l(lam) down to 1, takes a source row k not yet placed with
    p = lam_k - k + i >= 0, times(value, p, i) applies that factor, and the
    sign is (-1)^#{placed k' < k}.  Values that have placed the same set of
    sources are added before the next factor, so at most 2^l(lam) are held.
    The thresholds k - lam_k increase with k, and a set is never built if
    the r-th unplaced source has a threshold above r, since those sources
    could not fill the positions left.  Values are Terms; for the empty lam
    the result is start itself.
    """
    lam = iv(lam)
    l = len(lam)
    states = {frozenset(): start}
    for i in range(l, 0, -1):
        nxt = {}
        for placed, value in states.items():
            for k in range(1, l + 1):
                p = lam[k - 1] - k + i
                if k in placed or p < 0:
                    continue
                rest = [r for r in range(1, l + 1) if r != k and r not in placed]
                if any(r - lam[r - 1] > n for n, r in enumerate(rest, 1)):
                    continue
                term = times(-value if sum(r < k for r in placed) % 2 else value, p, i)
                key = placed | {k}
                nxt[key] = nxt[key] + term if key in nxt else term
        states = nxt
    (value,) = states.values()
    return value


def compositions_of(p, max_len):
    """All compositions of p (as trimmed vectors) with length at most max_len.

    The recursion holds itself through its closure, so it is unbound once
    it returns or raises: without that, each call's lists would live until
    a cyclic GC pass.
    """
    out = []

    def rec(prefix, rest, slots):
        if slots == 0:
            if rest == 0:
                out.append(iv(prefix))
            return
        for k in range(rest + 1):
            rec(prefix + [k], rest - k, slots - 1)

    try:
        rec([], p, max_len)
    finally:
        del rec
    return out


def partitions_of(n, max_len=None, max_part=None):
    """All partitions of n, optionally bounded in length and largest part.

    The list runs in reverse-lexicographic order and is a fresh copy of the
    memoized table.
    """
    max_len = n if max_len is None else min(max_len, n)
    max_part = n if max_part is None else min(max_part, n)
    return list(_partitions(n, max_len, max_part))


@lru_cache(maxsize=None)
def _partitions(n, max_len, max_part):
    """The partitions_of table, walked from each partition to its successor.

    The walk starts at the greedy partition (max_part, ..., max_part, rest).
    Each step lowers the last part x[h] that can drop by one and refills
    everything after it greedily with parts of the lowered value r: that
    refill is the next partition in reverse-lexicographic order, and the
    shortest one with this prefix.  If it needs more than max_len parts, no
    partition with this prefix fits, so x[h] is freed whole and the step
    moves to the part before it.  Only parts above 1 can drop, and they all
    come before the trailing ones.
    """
    if n == 0:
        return ((),)
    if n < 0 or max_part < 1:
        return ()
    q, rest = divmod(n, max_part)
    x = [max_part] * q + ([rest] if rest else [])
    if len(x) > max_len:
        return ()
    out = [tuple(x)]
    h = len(x) - 1  # the last part above 1, or -1 once all parts are 1
    while h >= 0 and x[h] == 1:
        h -= 1
    while h >= 0:
        r = x[h] - 1
        t = len(x) - h  # the refill: the ones after x[h], and one from x[h]
        while h + 1 + -(-t // r) > max_len:
            h -= 1
            if h < 0:
                return tuple(out)
            t += r + 1
            r = x[h] - 1
        q, rest = divmod(t, r)
        del x[h:]
        x += [r] * (q + 1)
        if rest:
            x.append(rest)
        out.append(tuple(x))
        # the last part above 1 is now rest, the last r, or the one before x[h]
        h = len(x) - 1 if rest > 1 else h + q if r > 1 else h - 1
    return tuple(out)


def partitions_up_to(n, **kwargs):
    """All partitions of size 0..n."""
    out = []
    for k in range(n + 1):
        out.extend(partitions_of(k, **kwargs))
    return out


def lr_targets(lam, mu):
    """Every partition nu containing mu with |mu| <= |nu| <= |lam| + |mu|.

    The list runs by size, then in partitions_of order.  It is the target grid
    of the coefficient checks: c^nu_{lam,mu}(a) vanishes unless nu contains mu.
    """
    return [
        nu
        for extra in range(size(lam) + 1)
        for nu in partitions_of(size(mu) + extra)
        if contains(nu, mu)
    ]
