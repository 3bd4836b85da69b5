"""Integer vectors, compositions, partitions, and raising operators.

Integer vectors are plain tuples of ints with trailing zeros trimmed; two
vectors are equal iff their trimmed tuples are equal.  Partitions and
compositions are just integer vectors satisfying extra predicates.  All
functions here are pure and all values immutable.
"""


def iv(entries):
    """Canonical integer vector: tuple with trailing zeros trimmed."""
    entries = tuple(map(int, entries))
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


def is_composition(alpha):
    return all(e >= 0 for e in alpha)


def is_partition(alpha):
    return list(alpha) == sorted(alpha, reverse=True) and (not alpha or alpha[-1] >= 0)


def require_partitions(*shapes):
    """Raise ValueError unless every given tuple is a partition (lam, mu, nu of a cell)."""
    if not all(map(is_partition, shapes)):
        raise ValueError("lam, mu and nu must be partitions")


def contains(alpha, beta):
    """True iff alpha_i >= beta_i for every i (missing entries read as 0)."""
    l = max(len(alpha), len(beta))
    a, b = pad(alpha, l), pad(beta, l)
    return all(a[i] >= b[i] for i in range(l))


def conjugate(lam):
    """The conjugate partition: its j-th part counts the parts of lam above j - 1."""
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0))


def is_horizontal_strip(nu, mu):
    """True iff mu is contained in nu and nu/mu has at most one box per column."""
    if not contains(nu, mu):
        return False
    mu = pad(mu, len(nu))
    return all(nu[i + 1] <= mu[i] for i in range(len(nu) - 1))


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


def apply_raising(s, t, alpha):
    """Raising operator R_{st}: add 1 at position s, subtract 1 at position t (1-based)."""
    if not 1 <= s < t:
        raise ValueError("require 1 <= s < t")
    a = list(pad(alpha, t))
    a[s - 1] += 1
    a[t - 1] -= 1
    return iv(a)


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


def lambda_omega(lam, omega):
    """Permuted-staircase composition and its sign.

    With pi = (l-1, ..., 1, 0) and omega a permutation of {1..l}, returns
    (omega(lam + pi) - pi, sgn(omega)) where omega moves the entry at
    position i to position omega(i).  Entries may be negative.
    """
    l = len(omega)
    lam = pad(lam, l)
    if len(lam) > l:
        raise ValueError("permutation shorter than partition")
    pi = tuple(l - 1 - k for k in range(l))
    shifted = [lam[k] + pi[k] for k in range(l)]
    out = [0] * l
    for k in range(l):
        out[omega[k] - 1] = shifted[k]
    return iv(out[k] - pi[k] for k in range(l)), perm_sign(omega)


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
    """All compositions of p (as trimmed vectors) with length at most max_len."""
    out = []

    def rec(prefix, rest, slots):
        if slots == 0:
            if rest == 0:
                out.append(iv(prefix))
            return
        for k in range(rest + 1):
            rec(prefix + [k], rest - k, slots - 1)

    rec([], p, max_len)
    return out


def partitions_of(n, max_len=None, max_part=None):
    """All partitions of n, optionally bounded in length and largest part."""
    if max_len is None:
        max_len = n
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        if max_len < 1:
            break
        for rest in partitions_of(n - first, max_len - 1, first):
            out.append((first,) + rest)
    return out


def partitions_up_to(n, **kwargs):
    """All partitions of size 0..n."""
    out = []
    for k in range(n + 1):
        out.extend(partitions_of(k, **kwargs))
    return out


def lr_targets(lam, mu):
    """Every partition nu with |mu| <= |nu| <= |lam| + |mu|.

    The list runs by size, then in partitions_of order; it is the target
    grid of the coefficient checks, which filter it by containment of mu.
    """
    return [
        nu
        for extra in range(size(lam) + 1)
        for nu in partitions_of(size(mu) + extra)
    ]
