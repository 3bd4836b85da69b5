"""Reverse tableaux with barred/plain (optionally primed) entries.

A reverse tableau fills the boxes of a composition shape with entries whose
absolute values weakly decrease along each row.  Barred entries drive the
word, read in row order; plain entries carry binomial weights
a_{k - rho_k} - a_{k - c}, where rho is the partition grown so far by the
word prefix and c is the box content.  Priming a plain entry selects the
second (negated) monomial of its weight, which is how tableau weights
expand into monomials.  Outside the search, every word, rho and weight
comes from one row-order walk, reading, which yields each box with rho_k
and grows rho with add_box.

One backtracking search (_enumerate) finds every filling, either for one
target nu or, with no nu bound, for every nu at once.
enumerate_k_tableaux, the stacked-Pieri enumeration behind the involution
checks, collects its fillings for one nu as ReverseTableau objects;
lr_weight_table, behind the tableau rule, builds none: its one every-nu
search sums the weights of the LR tableaux under the nu each filling ends
on, which expands a whole product s_lam * s_mu, and the cell rules read
their coefficient from that table.
A binomial is zero exactly when rho_k = c, so a zero binomial cuts off its
branch with every completion below it.  At every plain entry of an LR
filling, rho_k read in row order equals rho_k read in column order (see
lr_weight_table), so a filling weighs the same in both orders, and one
search, in column order, gives the sums of the paper's Theorem (row order)
and of its Corollary (column order) alike.  Each plain entry only records
its binomial; a filling's weight is multiplied out when the search reaches
it, from the longest product of recorded binomials it shares with the
fillings before it, so a branch that no filling completes multiplies
nothing.  With strict columns a box in row i holds at most the largest
value less i - 1, which caps each row before any value is tried.
What depends only on the shape (the traversal, each box's neighbours,
content and row, the rows' ceilings, the rows, and the rows left after
each box) is built once per shape and column_strict by _plan: the
column-strict plan runs in column order and the other in row order, and
also serves reading its box order.  The entries and binomials the search
places are shared memos too; all three are functools.lru_cache functions,
so cache_info() and cache_clear() reach them.  The search's recursive
closure refers to itself, so _enumerate unbinds it when the search returns
or raises: without that, the cycle would keep each call's lists alive until
a cyclic GC pass.

Text format, as to_text writes it: one line per row, top to bottom; entries
space-separated with a trailing "~" for bars and a trailing "'" for primes,
e.g. "2 2~ 1~".
"""

from functools import lru_cache
from operator import ge
from typing import NamedTuple

from .apoly import APoly, ONE_MONO, _mul_into, var_key
from .shapes import iv, is_partition, require_partitions
from .sparse import accumulate


class Entry(NamedTuple):
    """A single tableau entry: positive value, barred or plain, optionally primed."""

    value: int
    barred: bool = False
    primed: bool = False


def format_entry(entry):
    if entry.barred:
        return f"{entry.value}~"
    return f"{entry.value}'" if entry.primed else str(entry.value)


class ReverseTableau:
    """Rows of entries over a composition shape (zero-length rows allowed).

    The shape, the tuple of row lengths, is stored at construction: the
    rows never change afterwards.
    """

    __slots__ = ("rows", "shape")

    def __init__(self, rows):
        self.rows = tuple(map(tuple, rows))
        self.shape = tuple(map(len, self.rows))

    def is_valid(self):
        """Row condition: absolute values weakly decrease along each row."""
        for row in self.rows:
            for e in row:
                if e.value < 1 or (e.barred and e.primed):
                    return False
            for a, b in zip(row, row[1:]):
                if a.value < b.value:
                    return False
        return True

    def to_text(self):
        return "\n".join(" ".join(format_entry(e) for e in row) for row in self.rows)

    def __eq__(self, other):
        return isinstance(other, ReverseTableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"ReverseTableau({self.to_text()!r})"


def row_order(shape):
    """Boxes (i, j) read in rows from bottom to top, left to right in each row."""
    out = []
    for i in range(len(shape), 0, -1):
        for j in range(1, shape[i - 1] + 1):
            out.append((i, j))
    return out


def column_order(shape):
    """Boxes (i, j) read in columns left to right, bottom to top in each column."""
    out = []
    width = max(shape, default=0)
    for j in range(1, width + 1):
        for i in range(len(shape), 0, -1):
            if shape[i - 1] >= j:
                out.append((i, j))
    return out


def reading(T, mu):
    """Read T box by box in row order, growing rho from mu.

    Yields (i, j, entry, rho_k) for every box, where rho_k is part k of rho
    for the entry's value k, read before a barred entry adds its box to row k.
    The boxes come from the shape's cached row-order search plan.
    """
    rho = list(mu)
    for i, j in _plan(T.shape, False).boxes:
        e = T.rows[i - 1][j - 1]
        k = e.value
        yield i, j, e, rho[k - 1] if k <= len(rho) else 0
        if e.barred:
            add_box(rho, k)


def add_box(rho, s):
    """Add a box to row s of the list rho in place, extending it as needed.

    Returns whether rows s-1, s and s+1 still weakly decrease.
    """
    if s > len(rho):
        rho.extend([0] * (s - len(rho)))
    rho[s - 1] += 1
    return (s == 1 or rho[s - 2] >= rho[s - 1]) and (s == len(rho) or rho[s - 1] >= rho[s])


def row_word(T):
    """Values of the barred entries, read in row order."""
    return tuple(e.value for _, _, e, _ in reading(T, ()) if e.barred)


def apply_word(mu, word):
    """Grow mu by adding a box to row s for each s in the word.

    Returns (terminal composition, yamanouchi) where yamanouchi is True iff
    every intermediate stage (including mu itself) is a partition.
    """
    rho = list(mu)
    good = is_partition(tuple(rho))
    for s in word:
        good = add_box(rho, s) and good
    return iv(rho), good


def tableau_weight(T, mu):
    """Product of the weights of all plain entries, read in row order (empty product is 1).

    The first zero binomial (rho_k = c) makes the product zero.  Each
    binomial is a term dict of its own, not the search's _binomial memo,
    so the tests can hold the search against this as a reference.
    """
    total = {ONE_MONO: 1}
    for i, j, e, rk in reading(T, mu):
        if not e.barred:
            p, q = e.value - rk, e.value - (j - i)
            if p == q:
                return APoly.zero()
            total = _mul_into({}, total, {var_key(p): 1, var_key(q): -1})
    return APoly(total)


class _Plan(NamedTuple):
    """The shape-only part of one search: every field a tuple, indexed by position.

    The search keeps the values it places in one int list, in traversal
    order, followed by one slot per row for that row's ceiling and a last
    slot that holds 0.  boxes lists the boxes in traversal order; left
    gives the slot that bounds each box from above: its left neighbour, or
    the ceiling of its row for the first box of a row; below gives the slot
    that bounds it from below: the box below it when columns are strict,
    else the 0 slot; content holds j - i and row holds i - 1; drop[i - 1]
    is how far row i's ceiling lies below the largest value: i - 1 when
    columns are strict, since the i - 1 boxes above a box of row i hold
    larger values, and 0 otherwise; rows lists each row's positions from
    the top row down; rows_from[t] counts the rows with a box at position t
    or later (rows_from[len(boxes)] is 0).
    """

    boxes: tuple
    left: tuple
    below: tuple
    content: tuple
    row: tuple
    drop: tuple
    rows: tuple
    rows_from: tuple


@lru_cache(maxsize=None)
def _plan(shape, column_strict):
    """A shape's search plan, in column order if column_strict, else in row order."""
    if column_strict:  # a column-strict search needs a partition shape
        require_partitions(shape)
    boxes = tuple(column_order(shape) if column_strict else row_order(shape))
    n, height = len(boxes), len(shape)
    pos = {box: t for t, box in enumerate(boxes)}
    zero = n + height
    return _Plan(
        boxes=boxes,
        left=tuple(pos.get((i, j - 1), n + i - 1) for i, j in boxes),
        below=tuple(pos.get((i + 1, j), zero) if column_strict else zero for i, j in boxes),
        content=tuple(j - i for i, j in boxes),
        row=tuple(i - 1 for i, _ in boxes),
        drop=tuple(range(height)) if column_strict else (0,) * height,
        rows=tuple(
            tuple(pos[(i, j)] for j in range(1, shape[i - 1] + 1))
            for i in range(1, height + 1)
        ),
        rows_from=tuple(len({i for i, _ in boxes[t:]}) for t in range(n + 1)),
    )


@lru_cache(maxsize=None)
def _entries(top):
    """One barred and one plain Entry per value 1..top, each tuple indexed by value."""
    values = range(1, top + 1)
    return (None, *(Entry(k, True) for k in values)), (None, *(Entry(k) for k in values))


def _enumerate(plan, mu, nu, caps, leaf, weight=None):
    """Backtracking core of _tableaux and lr_weight_table.

    Fills the boxes of the plan in its traversal order; the word of barred
    values in that order must be Yamanouchi from mu and reach nu.  mu and nu
    are partitions with trailing zeros trimmed, checked by the callers
    (_tableaux, lr_weight_table) and not here.  caps[i - 1] is the largest
    plain value allowed in row i; a plan built with column_strict
    additionally requires each value to be strictly larger than the entry
    directly below, so the largest value, less i - 1, caps row i.

    With nu None the search has no target and finds the fillings of every
    nu at once: any number of boxes may be barred, a barred k only has to
    keep rho a partition, and barred values are bounded by the largest plain
    cap.  A filling counts only if its plain values are also at most l(rho)
    at its end, which is the cap l(nu) of the cell it belongs to.  Values
    weakly decrease along a row and every plan reads a row left to right,
    so each row adds at most one row to rho; a branch whose rows left
    cannot lengthen rho to its largest plain value is cut.

    Calls leaf(grid, rho) for every filling, rho being the live list of mu
    grown by the whole word, padded with zeros (read it, never keep it).
    rho is a partition that always ends in the 0 marking l(rho), so
    rho[:rho.index(0)] is the trimmed nu the filling ends on.
    Without a weight, grid lists the filling's entries in traversal order.
    With a term dict weight (only lr_weight_table passes one, and always
    with nu None), grid is None, no entry is stored, and leaf
    returns the term dict that the filling's weight is added into: weight
    times the binomial a_{k - rho_k} - a_{k - c} of every plain entry k in a
    box of content c, where rho is mu grown by the barred prefix in
    traversal order.  A plain entry whose binomial is zero (rho_k = c) is
    cut off together with every completion below it.

    The d-th plain entry of a filling stores its binomial in factors[d - 1]
    and multiplies nothing.  prefix[d] is weight times factors[:d], kept for
    every d up to ready; storing factors[d] drops ready to d.  A leaf with
    d > 0 plain entries expands prefix[ready + 1..d - 1] and multiplies
    prefix[d - 1] by factors[d - 1] straight into the dict leaf returned; a
    leaf with none adds weight there.  So a branch that reaches no leaf runs
    no product, fillings that share their first plain entries share those
    products, and no leaf builds a dict of its own.

    The recursion rec holds itself through its closure, so it is unbound
    once the search returns or raises: without that, each call's lists and
    leaf would live until a cyclic GC pass.
    """
    left, below, content, row = plan.left, plan.below, plan.content, plan.row
    n = len(left)
    if nu is None:
        # no target: rho never reaches the bound, and no count of plain
        # boxes is ever used up
        top = max(caps, default=0)
        ln, limit, reach = top, n + 1, plan.rows_from
        nu = (sum(mu) + n + 1,) * top
    else:
        ln = len(nu)
        if len(mu) > ln or not all(map(ge, nu, mu)):
            return
        # limit counts the plain boxes: all but the |nu| - |mu| barred
        limit = n - sum(nu) + sum(mu)
        if limit < 0:
            return
        top, reach = max(ln, 0, *caps), None
    rho = [*mu, *[0] * (top - len(mu)), 0]  # the trailing 0 marks l(rho)
    vals = [0] * n + [top - d for d in plan.drop] + [0]
    if weight is None:
        bars, plains = _entries(top)
        grid = [None] * n
    else:
        grid = None
        factors = [None] * n
        prefix = [weight] + [None] * n
        ready = 0

    def rec(t, d, high):
        nonlocal ready
        if reach is not None and high > rho.index(0) + reach[t]:
            return  # the rows left cannot lengthen rho to the largest plain value
        if t == n:
            if weight is None:
                leaf(grid, rho)
                return
            if not d:
                accumulate(leaf(grid, rho), weight.items())
                return
            if ready < d - 1:
                for e in range(ready, d - 1):
                    prefix[e + 1] = _mul_into({}, prefix[e], factors[e])
                ready = d - 1
            _mul_into(leaf(grid, rho), prefix[d - 1], factors[d - 1])
            return
        hi = vals[left[t]]
        lo = vals[below[t]] + 1
        # barred candidates: stay inside nu and keep every prefix a partition
        for k in range(lo, (hi if hi < ln else ln) + 1):
            rk = rho[k - 1]
            if rk >= nu[k - 1] or k > 1 and rho[k - 2] <= rk:
                continue
            rho[k - 1] = rk + 1
            vals[t] = k
            if grid is not None:
                grid[t] = bars[k]
            rec(t + 1, d, high)
            rho[k - 1] = rk
        if d == limit:
            return  # every box left must be barred
        cap = caps[row[t]]
        if reach is not None:
            cap = min(cap, rho.index(0) + reach[t + 1])
        for k in range(lo, (hi if hi < cap else cap) + 1):
            vals[t] = k
            h = k if k > high else high
            if grid is not None:
                grid[t] = plains[k]
            else:
                rk, c = rho[k - 1], content[t]
                if rk == c:
                    continue
                factors[d] = _binomial(k - rk, k - c)
                if ready > d:
                    ready = d
            rec(t + 1, d + 1, h)

    try:
        rec(0, 0, 0)
    finally:
        del rec


@lru_cache(maxsize=None)
def _binomial(p, q):
    """The term dict of a_p - a_q, shared by every caller: read it, never write it."""
    return {var_key(p): 1, var_key(q): -1}


def _tableaux(shape, mu, nu, caps, column_strict):
    """Every filling found, as a ReverseTableau of the shape; checks mu and nu (None: any nu)."""
    if nu is None:
        (mu,) = require_partitions(mu)
    else:
        mu, nu = require_partitions(mu, nu)
    plan = _plan(shape, column_strict)
    out = []

    def leaf(grid, _rho):
        out.append(ReverseTableau([[grid[t] for t in row] for row in plan.rows]))

    _enumerate(plan, mu, nu, caps, leaf)
    return out


def lr_weight_table(lam, mu):
    """The weights of the LR tableaux of every cell (lam, mu, nu), as {nu: nonzero term dict}.

    An LR tableau has shape lam, strict columns, plain values at most l(nu)
    and a Yamanouchi column word from mu to nu; the entry at nu sums
    tableau_weight(T, mu) over those T.  One search with no nu bound (see
    _enumerate) adds each filling's weight under the partition nu its
    barred word ends on, and counts it only if its largest plain value is
    at most l(nu), the per-cell cap.  Each row of lam adds at most one row
    to mu, so l(mu) + l(lam) bounds every l(nu) and caps the search.  Only
    nu containing mu appear, with |nu| - |mu| at most |lam|.  No tableau is
    built, and each leaf is filed under the trimmed nu cut from the live rho
    at its 0 marker, with no iv.  Raises ValueError unless lam and mu are
    partitions.

    The weight is tableau_weight, read in row order (the paper's Theorem),
    and equally the weight read in column order (its Corollary; weight_in
    in tests/definitions.py): at a plain k in box (i, j), the boxes that
    one order reads before (i, j) and the other does not lie either below
    and right of it (read first in row order), where strict columns and
    weakly decreasing rows make every value smaller than k, or above and
    left of it (read first in column order), where every value is larger
    than k.  Neither holds a barred k, so rho_k at the box is the same in
    both orders.  The search runs in column order; a zero binomial cuts its
    branch off, and each filling's weight is expanded only once the filling
    is complete.
    """
    lam, mu = require_partitions(lam, mu)
    cap = len(mu) + len(lam)
    out = {}
    leaf = lambda _grid, rho: out.setdefault(tuple(rho[:rho.index(0)]), {})
    _enumerate(_plan(lam, True), mu, None, (cap,) * len(lam), leaf, weight={ONE_MONO: 1})
    return {nu: terms for nu, terms in out.items() if terms}


def enumerate_k_tableaux(kappa, mu, nu, cap=None):
    """Shape-kappa stacked-Pieri tableaux with Yamanouchi row word mu -> nu.

    No column conditions; plain values in row i are capped at
    l(mu) + l(kappa) - i + 1 (override with a constant cap).
    """
    kappa = tuple(kappa)
    if any(k < 0 for k in kappa):
        return []
    lk = len(kappa)
    if cap is None:
        lm = len(iv(mu))
        caps = tuple(range(lm + lk, lm, -1))
    else:
        caps = (cap,) * lk
    return _tableaux(kappa, mu, nu, caps, column_strict=False)
