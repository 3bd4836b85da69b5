"""Reverse tableaux with barred/plain (optionally primed) entries.

A reverse tableau fills the boxes of a composition shape with entries whose
absolute values weakly decrease along each row.  Barred entries drive the
word, read in row or column order; plain entries carry binomial weights
a_{k - rho_k} - a_{k - c}, where rho is the partition grown so far by the
word prefix and c is the box content.  Priming a plain entry selects the second (negated)
monomial of its weight, which is how tableau weights expand into monomials.
Outside the search, every word, rho and weight comes from one walk,
reading, which yields each box with rho_k and grows rho with add_box.

One backtracking search (_enumerate) finds every filling, either for one
target nu or, with no nu bound, for every nu at once.
enumerate_k_tableaux, the stacked-Pieri enumeration behind the involution
checks, collects its fillings as ReverseTableau objects; lr_weight_sum,
behind the tableau rules, builds none and sums the weights of the LR
tableaux during the search instead, and lr_weight_table files the weights
of one every-nu search under the nu each filling ends on, which expands a
whole product s_lam * s_mu.
A binomial is zero exactly when rho_k = c, so in column order (the search's
own order) a zero binomial cuts off its branch with every completion below
it, and in row order it drops its filling before any product is formed.
What depends only on the shape (the traversal, each box's neighbours and
content, the rows, the row reading and the rows left after each box) is
built once per shape by _plan, which also serves reading its box order,
and the entries and binomials the search places are shared memos too; all
three are functools.lru_cache functions, so cache_info() and cache_clear()
reach them.

Text format: one line per row, top to bottom; entries space-separated with a
trailing "~" for bars and a trailing "'" for primes, e.g. "2 2~ 1~".
"""

from functools import lru_cache
from typing import NamedTuple

from .apoly import APoly, ONE_MONO, _mul_into, var_key
from .shapes import iv, pad, is_partition, contains, require_partitions
from .sparse import accumulate


class Entry(NamedTuple):
    """A single tableau entry: positive value, barred or plain, optionally primed."""

    value: int
    barred: bool = False
    primed: bool = False


def bar(k):
    """A barred entry with value k."""
    if k < 1:
        raise ValueError("entry values must be positive")
    return Entry(k, barred=True)


def plain(k, primed=False):
    """A plain (unbarred) entry with value k, optionally primed."""
    if k < 1:
        raise ValueError("entry values must be positive")
    return Entry(k, barred=False, primed=primed)


def format_entry(entry):
    if entry.barred:
        return f"{entry.value}~"
    return f"{entry.value}'" if entry.primed else str(entry.value)


def parse_entry(text):
    body = text
    barred = primed = False
    if body.endswith("~"):
        barred = True
        body = body[:-1]
    elif body.endswith("'"):
        primed = True
        body = body[:-1]
    value = int(body)
    if value < 1:
        raise ValueError("entry values must be positive")
    if barred and primed:
        raise ValueError("barred entries are never primed")
    return Entry(value, barred, primed)


class ReverseTableau:
    """Rows of entries over a composition shape (zero-length rows allowed)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)

    @property
    def shape(self):
        return tuple(len(r) for r in self.rows)

    def entry(self, i, j):
        """The entry in row i, column j (both 1-based)."""
        return self.rows[i - 1][j - 1]

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

    @staticmethod
    def from_text(text):
        rows = []
        for line in text.split("\n"):
            parts = line.split()
            rows.append(tuple(parse_entry(p) for p in parts))
        return ReverseTableau(rows)

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


def _boxes_in(order, shape):
    if order == "row":
        return row_order(shape)
    if order == "column":
        return column_order(shape)
    raise ValueError("order must be 'row' or 'column'")


def reading(T, mu, order):
    """Read T box by box in the given order, growing rho from mu.

    Yields (i, j, entry, rho_k) for every box, where rho_k is part k of rho
    for the entry's value k, read before a barred entry adds its box to row k.
    The boxes come from the shape's cached search plan.
    """
    rho = list(mu)
    for i, j in _plan(T.shape, order, False).boxes:
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
    return tuple(e.value for _, _, e, _ in reading(T, (), "row") if e.barred)


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


def tableau_weight(T, mu, order):
    """Product of the weights of all plain entries (empty product is 1)."""
    total = APoly.one()
    for i, j, e, rk in reading(T, mu, order):
        if not e.barred:
            total = total * (APoly.var(e.value - rk) - APoly.var(e.value - (j - i)))
            if total.is_zero():
                return total
    return total


class _Plan(NamedTuple):
    """The shape-only part of one search: every field a tuple, indexed by position.

    boxes lists the boxes in traversal order; left and below give the
    position of each box's left neighbour and, when columns are strict, of
    the box below it (None where there is none); content holds j - i; rows
    lists each row's positions from the top row down; reading pairs each
    position with its content in row order; rows_from[t] counts the rows
    with a box at position t or later (rows_from[len(boxes)] is 0).
    """

    boxes: tuple
    left: tuple
    below: tuple
    content: tuple
    rows: tuple
    reading: tuple
    rows_from: tuple


@lru_cache(maxsize=None)
def _plan(shape, order, column_strict):
    """The search plan of a shape, traversed in the given order; built once per key."""
    if column_strict:  # an LR search, whose lam is checked once per cached plan
        require_partitions(shape)
    boxes = tuple(_boxes_in(order, shape))
    pos = {box: t for t, box in enumerate(boxes)}
    rows = tuple(
        tuple(pos[(i, j)] for j in range(1, shape[i - 1] + 1))
        for i in range(1, len(shape) + 1)
    )
    content = tuple(j - i for i, j in boxes)
    return _Plan(
        boxes=boxes,
        left=tuple(pos.get((i, j - 1)) for i, j in boxes),
        below=tuple(pos.get((i + 1, j)) if column_strict else None for i, j in boxes),
        content=content,
        rows=rows,
        reading=tuple((t, content[t]) for row in reversed(rows) for t in row),
        rows_from=tuple(len({i for i, _ in boxes[t:]}) for t in range(len(boxes) + 1)),
    )


@lru_cache(maxsize=None)
def _entries(top):
    """One barred and one plain Entry per value 1..top, each tuple indexed by value."""
    values = range(1, top + 1)
    return (None, *(Entry(k, True) for k in values)), (None, *(Entry(k) for k in values))


def _enumerate(plan, mu, nu, plain_cap, leaf, weight=None):
    """Backtracking core of _tableaux and the weighted LR sums.

    Fills the boxes of the plan in its traversal order; the word of barred
    values in that order must be Yamanouchi from mu and reach nu.  plain_cap
    maps a row number to the largest allowed plain value; a plan built with
    column_strict additionally requires each value to be strictly larger
    than the entry directly below.

    With nu None the search has no target and finds the fillings of every
    nu at once: any number of boxes may be barred, a barred k only has to
    keep rho a partition, and barred values are bounded by the largest plain
    cap.  A filling counts only if its plain values are also at most l(rho)
    at its end, which is the cap l(nu) of the cell it belongs to.  Values
    weakly decrease along a row and every plan reads a row left to right,
    so each row adds at most one row to rho; a branch whose rows left
    cannot lengthen rho to its largest plain value is cut.

    Calls leaf(grid, w, rho) for every filling, grid listing its entries in
    traversal order and rho the live list of mu grown by the whole word,
    padded with zeros (read it, never keep it).  With a term dict weight, w
    is weight times the binomial a_{k - rho_k} - a_{k - c} of every plain
    entry k in a box of content c, where rho is mu grown by the barred
    prefix in traversal order; a plain entry whose binomial is zero
    (rho_k = c) is cut off together with every completion below it.
    Without a weight, w is None.
    """
    mu = tuple(mu)
    require_partitions(mu, () if nu is None else tuple(nu))
    boxes, left, below, content = plan.boxes, plan.left, plan.below, plan.content
    n = len(boxes)
    caps = [plain_cap(i) for i, _ in boxes]
    if nu is None:
        # no target: rho never reaches the bound, and need stays below
        # n - t, so neither count cuts a branch
        top = max(caps, default=0)
        ln, need, reach = top, -1, plan.rows_from
        nu = (sum(mu) + n + 1,) * top
    else:
        nu = tuple(nu)
        ln = len(nu)
        if not contains(nu, mu):
            return
        need = sum(nu) - sum(mu)
        if need < 0 or need > n:
            return
        top, reach = max([ln, *caps]), None
    bars, plains = _entries(top)
    rho = [*pad(mu, top), 0]  # the trailing 0 marks l(rho)
    grid = [None] * n

    def rec(t, need, w, high):
        if need > n - t:
            return
        if reach is not None and high > rho.index(0) + reach[t]:
            return  # the rows left cannot lengthen rho to the largest plain value
        if t == n:
            leaf(grid, w, rho)
            return
        hi = top if left[t] is None else grid[left[t]].value
        lo = 1 if below[t] is None else grid[below[t]].value + 1
        # barred candidates: stay inside nu and keep every prefix a partition
        for k in range(lo, min(hi, ln) + 1):
            if rho[k - 1] >= nu[k - 1]:
                continue
            if k > 1 and rho[k - 2] <= rho[k - 1]:
                continue
            rho[k - 1] += 1
            grid[t] = bars[k]
            rec(t + 1, need - 1, w, high)
            rho[k - 1] -= 1
        if need == n - t:
            return  # every box left must be barred
        cap = caps[t] if reach is None else min(caps[t], rho.index(0) + reach[t + 1])
        for k in range(lo, min(cap, hi) + 1):
            grid[t] = plains[k]
            h = k if k > high else high
            if w is None:
                rec(t + 1, need, None, h)
                continue
            rk, c = rho[k - 1], content[t]
            if rk != c:
                rec(t + 1, need, _mul_into({}, w, _binomial(k - rk, k - c)), h)

    rec(0, need, weight, 0)


@lru_cache(maxsize=None)
def _binomial(p, q):
    """The term dict of a_p - a_q, shared by every caller: read it, never write it."""
    return {var_key(p): 1, var_key(q): -1}


def _tableaux(shape, order, mu, nu, plain_cap, column_strict):
    """Every filling the search finds, as a ReverseTableau of the given shape."""
    plan = _plan(shape, order, column_strict)
    out = []

    def leaf(grid, _, __):
        out.append(ReverseTableau([[grid[t] for t in row] for row in plan.rows]))

    _enumerate(plan, mu, nu, plain_cap, leaf)
    return out


def _lr_search(lam, mu, nu, cap, order, out):
    """Add the weight of every LR filling into the term dict out.

    The fillings have shape lam, strict columns, plain values at most cap
    and a Yamanouchi column word from mu to nu; with nu None (the every-nu
    search of _enumerate) each weight goes into out[nu] instead, for the
    partition nu the filling ends on.  The weight is tableau_weight in the
    given order.  In column order, the search's own order, it is multiplied
    up as boxes are placed and zero binomials cut their branch off.  In row
    order, each filling gets one integer pass that grows rho in row order; a
    filling with a zero binomial is dropped, and the others multiply their
    binomials.
    """
    if order not in ("row", "column"):
        raise ValueError("order must be 'row' or 'column'")
    plan = _plan(tuple(lam), "column", True)
    table = nu is None
    if order == "column":
        if table:
            leaf = lambda _grid, w, rho: accumulate(out.setdefault(iv(rho), {}), w.items())
        else:
            leaf = lambda _grid, w, _rho: accumulate(out, w.items())
        _enumerate(plan, mu, nu, lambda i: cap, leaf, weight={ONE_MONO: 1})
        return
    reading = plan.reading
    start = pad(mu, cap)

    def leaf(grid, _, end):
        rho = list(start)
        binomials = []
        for t, c in reading:
            k, barred, _ = grid[t]
            rk = rho[k - 1]
            if barred:
                rho[k - 1] = rk + 1
            elif rk == c:
                return
            else:
                binomials.append(_binomial(k - rk, k - c))
        w = binomials[0] if binomials else {ONE_MONO: 1}
        for b in binomials[1:]:
            w = _mul_into({}, w, b)
        accumulate(out.setdefault(iv(end), {}) if table else out, w.items())

    _enumerate(plan, mu, nu, lambda i: cap, leaf)


def lr_weight_sum(lam, mu, nu, order):
    """The sum of tableau_weight(T, mu, order) over the LR tableaux T.

    These have shape lam, strict columns, plain values at most l(nu) and a
    Yamanouchi column word taking mu to nu.  Returned as a term dict.  No
    tableau is built.  Raises ValueError unless lam, mu and nu are partitions;
    the sum is empty unless nu contains mu and has at most |lam| more boxes.
    """
    out = {}
    _lr_search(lam, mu, nu, len(tuple(nu)), order, out)
    return out


def lr_weight_table(lam, mu, order):
    """lr_weight_sum(lam, mu, nu, order) at every nu, as {nu: nonzero term dict}.

    One search with no nu bound (see _enumerate): each filling adds its
    weight under the partition nu that its barred word ends on, and counts
    only if its largest plain value is at most l(nu), the per-cell cap.
    Each row of lam adds at most one row to mu, so l(mu) + l(lam) bounds
    every l(nu) and caps the search.  Only nu containing mu appear, with
    |nu| - |mu| at most |lam|.  The table costs the sum of its cells; use it
    when every nu is wanted.
    """
    out = {}
    _lr_search(lam, mu, None, len(tuple(mu)) + len(tuple(lam)), order, out)
    return {nu: terms for nu, terms in out.items() if terms}


def enumerate_k_tableaux(kappa, mu, nu, cap=None):
    """Shape-kappa stacked-Pieri tableaux with Yamanouchi row word mu -> nu.

    No column conditions; plain values in row i are capped at
    l(mu) + l(kappa) - i + 1 (override with a constant cap).
    """
    kappa = tuple(kappa)
    if any(k < 0 for k in kappa):
        return []
    lm = len(tuple(mu))
    lk = len(kappa)
    if cap is None:
        caps = lambda i: lm + lk - i + 1
    else:
        caps = lambda i: cap
    return _tableaux(kappa, "row", mu, nu, caps, column_strict=False)
