"""Sign- and weight-cancellation machinery on tableaux.

Three constructions live here, each one move:

* psi = psi2 . psi1, an involution pairing each "bad" stacked-Pieri tableau
  of shape kappa with a bad tableau of the swapped shape R-bar_{i,i+1} kappa,
  holding the row-word target fixed.  Bad tableaux are the fillings that feed
  the alternating Kostka sum but not the direct tableau rule; their weights
  cancel in aggregate across the two shapes (not entry by entry).  Both
  maps start from the one cell (i, j) of classify_bad, a C2c cell being C2b
  at j = kappa_i + 1: psi1 is one tail swap between rows i and i+1 there,
  and psi2 reorders barred entries so the row word grows partitions again.
* monomial_involution, a weight-reversing involution on bad monomial (primed)
  tableaux of a single Pieri row: the entry of largest bad subscript turns
  from plain to primed or back, and the row is rebuilt from its unprimed
  entries and primed subscripts.
* pieri_bad_pair, a weight-preserving bijection between monomial tableaux
  whose row words target a non-horizontal-strip composition nu and those
  targeting R-bar_{i,i+1} nu.  One move serves both directions: a tail of
  unprimed entries changes value between i+1 and i, and the primed entries
  are placed back with their subscripts unchanged.
"""

from typing import NamedTuple, Optional

from .apoly import APoly, pack
from .shapes import iv, pad, is_horizontal_strip
from .tableaux import (
    Entry,
    ReverseTableau,
    format_entry,
    row_word,
    apply_word,
    reading,
    add_box,
)


class BadCell(NamedTuple):
    """Location and kind of the defect that makes a tableau bad."""

    row: int
    col: int
    condition: str  # "C2a" | "C2b" | "C2c"


def monomial_weight(U, mu):
    """Signed monomial weight of a monomial (primed) tableau.

    Plain unprimed entries contribute a_{k - rho_k} with rho the partition
    grown by the barred prefix in row order; primed entries contribute
    -a_{k - c}.  Barred entries only advance rho.  The weight is one
    monomial, so its key is the sum of the factors' keys (pack raises
    ArithmeticError past the packed degree range).
    """
    sign, pairs = 1, []
    for i, j, e, rk in reading(U, mu):
        if e.primed:
            sign = -sign
            pairs.append((e.value - (j - i), 1))
        elif not e.barred:
            pairs.append((e.value - rk, 1))
    return APoly({pack(pairs): sign})


def _p1_break_column(rows, mu, i, end):
    """Leftmost column before end where the column word of rows >= i stops being Yamanouchi.

    The word reads columns 1..end-1 left to right, each from the bottom row
    up to row i.  Returns None if it stays Yamanouchi when applied to mu.
    """
    rho = list(mu)
    bottom_up = rows[i - 1 :][::-1]
    for j in range(1, end):
        for row in bottom_up:
            if j <= len(row):
                e = row[j - 1]
                if e.barred and not add_box(rho, e.value):
                    return j
    return None


def classify_bad(T, mu) -> Optional[BadCell]:
    """The unique bad cell of a stacked-Pieri tableau, or None if it is good.

    A tableau is bad when some row i exhibits one of: a non-Yamanouchi prefix
    of the column word of rows >= i (P1), a column-strictness failure against
    row i+1 (P2), or a shorter row than the one below it (P3).  The cell is
    fixed by taking i maximal, then the smallest offending column: C2b where
    the entry is at most the one below it, C2a from the P1 break column on.
    A row bad by P3 alone is C2c, the cell just past row i at column
    kappa_i + 1, and both maps treat it as C2b there.
    """
    rows = T.rows
    for i in range(len(rows), 0, -1):
        ri = rows[i - 1]
        ri1 = rows[i] if i < len(rows) else ()
        # the first C2b column, else one past row i; only a P1 break left of it wins
        jb = len(ri) + 1
        for j, (e, f) in enumerate(zip(ri, ri1), 1):
            if e.value <= f.value:
                jb = j
                break
        bc = _p1_break_column(rows, mu, i, jb)
        if bc is not None:
            return BadCell(i, bc, "C2a")
        if jb <= len(ri):
            return BadCell(i, jb, "C2b")
        if len(ri) < len(ri1):
            return BadCell(i, len(ri) + 1, "C2c")
    return None


def _text(row):
    """A row of entries in the text format."""
    return " ".join(map(format_entry, row))


def _turn(segment, value, right):
    """The segment turned one place, right (last entry first) or left, bars kept.

    Every entry takes the value.  The maps turn runs of one value: turned
    right, P^y0 B P^y1 B ... P^ym B (P plain, B barred) becomes
    B P^y0 B P^y1 ... B P^ym, the same plain blocks in the same order, each
    now after a barred entry; a left turn undoes it.  Raises RuntimeError,
    naming the segment, if the entry that goes round is plain.
    """
    moved = segment[-1] if right else segment[0]
    if not moved.barred:
        side = "end" if right else "start"
        raise RuntimeError(f"segment {_text(segment)!r} must {side} with a barred entry")
    turned = (moved, *segment[:-1]) if right else (*segment[1:], moved)
    return tuple([Entry(value, e.barred) for e in turned])


def psi1(T, cell):
    """Tail swap: move the rows-i/i+1 tails across, landing on shape R-bar kappa.

    Row i keeps its first j-1 entries and takes row i+1 from column r+1 on;
    row i+1 keeps its first j entries and takes row i from column q+1 on.
    For C2b, (q, r) = (j-1, j); C2c is C2b at j = kappa_i + 1.  For C2a, the
    segment of b's from column j through the last b (column q) and the
    segment of c's from column j+1 through the matching barred c (column r)
    are turned on the way across ("fixing the column ordering"): row i gets
    the c's turned right and made b's, row i+1 the b's turned left and made c's.
    Only rows i and i+1 are rebuilt; the other rows keep their tuples.
    """
    i, j, cond = cell
    rows = list(T.rows)
    ri = rows[i - 1]
    ri1 = rows[i]
    after = before = ()
    if cond != "C2a":
        q, r = j - 1, j
    else:
        b = ri[j - 1].value
        if not ri[j - 1].barred or b != ri1[j - 1].value + 1:
            raise RuntimeError(
                f"C2a cell {tuple(cell)} of {T.to_text()!r} must hold a barred entry"
                " one above its column partner"
            )
        c = ri1[j - 1].value
        q = max(t + 1 for t, e in enumerate(ri) if e.value == b)
        n = sum(e.barred for e in ri[j - 1 : q])
        # r: column of the n-th barred c at or right of column j+1 in row i+1
        r = _nth_barred(ri1, c, n, j, len(ri1), from_end=False)
        after = _turn(ri1[j:r], b, right=True)
        before = _turn(ri[j - 1 : q], c, right=False)
    rows[i - 1] = ri[: j - 1] + after + ri1[r:]
    rows[i] = ri1[:j] + before + ri[q:]
    return ReverseTableau(rows)


def _nth_barred(row, value, n, lo, hi, from_end):
    """Where row[lo:hi] splits off its first (or last) n barred entries of the value.

    Returns the end of the shortest prefix, or with from_end the start of the
    shortest suffix, of row[lo:hi] that holds n such entries; raises
    RuntimeError, naming the row, if row[lo:hi] holds fewer.
    """
    hits = [t for t in range(lo, hi) if row[t].barred and row[t].value == value]
    if len(hits) < n:
        raise RuntimeError(
            f"fewer than {n} barred {value}'s to count in entries {lo}..{hi - 1}"
            f" of row {_text(row)!r}"
        )
    if from_end:
        return hits[-n] if n else hi
    return hits[n - 1] + 1 if n else lo


def _run_bounds(row, value):
    """Half-open index range of the entries with the given absolute value."""
    lo = 0
    while lo < len(row) and row[lo].value > value:
        lo += 1
    hi = lo
    while hi < len(row) and row[hi].value == value:
        hi += 1
    return lo, hi


def psi2(T1, cell, mu):
    """Reorder barred entries so the row word again grows partitions.

    For each k up to the column partner value c, exchanges n_k barred k's at
    the end of row i+1 against n_k barred (k-1)'s at the start of the (k-1)
    run in row i: the (k-1)'s through the n_k-th barred one are turned right
    and made k's, and the k's from the n_k-th-from-last barred one on are
    turned left and made (k-1)'s.  Only rows i and i+1 are copied, and only
    when some n_k is nonzero; with none, T1 itself is returned.
    """
    i = cell.row
    rows = T1.rows
    ri, ri1 = rows[i - 1], rows[i]
    c = ri1[cell.col - 1].value
    mup = pad(mu, c)
    # the barred values from row i down and from row i+2 down; only their
    # counts are read, so the order they are listed in does not matter
    from_i = [e.value for row in rows[i - 1 :] for e in row if e.barred]
    below_i1 = [e.value for row in rows[i + 1 :] for e in row if e.barred]
    replacements = []
    for k in range(2, c + 1):
        n_k = max(mup[k - 1] + from_i.count(k) - mup[k - 2] - below_i1.count(k - 1), 0)
        if n_k == 0:
            continue
        # P_k: through the first n_k barred (k-1)'s in row i
        lo, hi = _run_bounds(ri, k - 1)
        end = _nth_barred(ri, k - 1, n_k, lo, hi, from_end=False)
        # Q_k: from the n_k-th-from-last barred k in row i+1 through its run
        lo1, hi1 = _run_bounds(ri1, k)
        start = _nth_barred(ri1, k, n_k, lo1, hi1, from_end=True)
        seg_i = _turn(ri[lo:end], k, right=True)
        seg_i1 = _turn(ri1[start:hi1], k - 1, right=False)
        replacements.append((lo, end, seg_i, start, hi1, seg_i1))
    if not replacements:
        return T1
    rows = list(rows)
    ri = rows[i - 1] = list(ri)
    ri1 = rows[i] = list(ri1)
    for lo, end, seg_i, start, hi1, seg_i1 in replacements:
        ri[lo:end] = seg_i
        ri1[start:hi1] = seg_i1
    return ReverseTableau(rows)


def psi(T, mu):
    """The full bad-tableau involution: tail swap, then reorder barred entries."""
    cell = classify_bad(T, mu)
    if cell is None:
        raise ValueError("tableau is good")
    return psi2(psi1(T, cell), cell, mu)


def _subscripts(U, mu):
    """Weight subscript per box in row order: k - rho_k plain, k - c primed, None barred.

    The bottom row, the only one of a Pieri-row tableau, comes first.
    """
    return [
        None if e.barred else e.value - (j - i if e.primed else rk)
        for i, j, e, rk in reading(U, mu)
    ]


def _pieri_row(U, mu):
    """The last row of U, a monomial tableau of shape (0^e, p) over mu.

    Raises ValueError, naming U and mu, unless the rows above it are empty,
    e <= l(mu), the row weakly decreases and its barred values are at most
    l(mu) + 1.  Below row l(mu) + 1 a primed entry can need a value below 1.
    """
    l = len(iv(mu))
    row = U.rows[-1]
    bounded = len(U.rows) <= l + 1 and all(e.value <= l + 1 for e in row if e.barred)
    if any(U.rows[:-1]) or not bounded or not U.is_valid():
        raise ValueError(f"{U.to_text()!r} is not a Pieri row over mu={iv(mu)}")
    return row


def monomial_involution(U, mu):
    """Weight-reversing involution on bad monomial tableaux of a Pieri row.

    An entry is bad if it is plain unprimed with value above l = l(mu), or
    primed with subscript above l - y (y counting the barred (l+1)'s).  The
    largest bad subscript k is traded with one move: a primed entry of
    subscript k (weight -a_k) becomes the plain entry v = max(k, l+1), put
    among the unprimed entries just after the (v-k)-th barred v (first when
    v = k) so that its weight is a_k; otherwise the leftmost plain entry of
    subscript k becomes a primed one.  The primed entries are then placed
    back by their subscripts, so double application restores the original.
    Raises ValueError, naming U and mu, outside the domain (see _pieri_row).
    """
    row = _pieri_row(U, mu)
    l = len(iv(mu))
    y = row_word(U).count(l + 1)
    subs = _subscripts(U, mu)
    bad_subs = [
        s
        for e, s in zip(row, subs)
        if s is not None
        and ((not e.primed and e.value > l) or (e.primed and s > l - y))
    ]
    if not bad_subs:
        raise ValueError("tableau is good")
    k = max(bad_subs)
    unprimed = [e for e in row if not e.primed]
    primed = [s for e, s in zip(row, subs) if e.primed]
    if k in primed:
        primed.remove(k)
        v = max(k, l + 1)
        at = _nth_barred(unprimed, v, v - k, 0, len(unprimed), from_end=False)
        unprimed.insert(at, Entry(v))
    else:
        # the leftmost plain unprimed entry with subscript k (barred ones have None)
        del unprimed[[s for e, s in zip(row, subs) if not e.primed].index(k)]
        primed.append(k)
    return _place_primed(U, mu, unprimed, primed)


def derived_monomial_tableaux(p, e, mu, nu, vmax):
    """Single-row monomial tableaux whose weakly decreasing word takes mu to nu.

    Verification plumbing: enumerates every filling of the shape
    (0,...,0,p) whose barred entries realize the multiset nu - mu, with
    plain and primed values capped at vmax.  The word need not be
    Yamanouchi, so bad compositions nu are reachable.  The recursive
    generator holds itself through its closure, so it is unbound once the
    walk ends, raises or is closed early: without that, each call's lists
    would live until a cyclic GC pass.
    """
    mu = iv(mu)
    nu = tuple(nu)
    ln = len(nu)
    mup = pad(mu, ln)
    counts = [nu[k] - mup[k] for k in range(ln)]
    if any(c < 0 for c in counts):
        return
    need = sum(counts)
    row = []

    def rec(t, need):
        if need > p - t:
            return
        if t == p:
            if need == 0:
                yield ReverseTableau([[]] * e + [list(row)])
            return
        hi = row[-1].value if row else max(vmax, ln)
        for k in range(1, ln + 1):
            if k > hi or counts[k - 1] == 0:
                continue
            counts[k - 1] -= 1
            row.append(Entry(k, True, False))
            yield from rec(t + 1, need - 1)
            row.pop()
            counts[k - 1] += 1
        for k in range(1, min(hi, vmax) + 1):
            for primed in (False, True):
                row.append(Entry(k, False, primed))
                yield from rec(t + 1, need)
                row.pop()

    try:
        yield from rec(0, need)
    finally:
        del rec


def _bad_row_index(mu, nu):
    """Minimal i with nu_{i+1} - mu_i > 0 (the non-horizontal-strip witness)."""
    ln = len(nu)
    mup = pad(mu, ln)
    for i in range(1, ln):
        if nu[i] - mup[i - 1] > 0:
            return i
    raise RuntimeError(f"nu={nu} is a horizontal strip over mu={mu}")


def _place_primed(U, mu, unprimed, subs):
    """U with its last row rebuilt from unprimed entries and primed subscripts.

    In that row e1 = len(U.rows), box j has content c = j - e1, and a primed
    entry of subscript s there has value s + c.  Each box takes the primed
    entry with the largest value that fits between the left neighbour and
    the next unprimed value (and is at least 1), otherwise the next unprimed
    entry.  On a weakly decreasing row this rebuilds the row itself.  Raises
    RuntimeError, naming U and mu, when some primed entry finds no box.
    """
    e1 = len(U.rows)
    subs = sorted(subs, reverse=True)
    row = []
    u = 0
    for c in range(1 - e1, len(unprimed) + len(subs) + 1 - e1):
        left = row[-1].value if row else float("inf")
        nxt = unprimed[u].value if u < len(unprimed) else 1
        s = next((t for t in subs if nxt <= t + c <= left), None)
        if s is not None:
            subs.remove(s)
            row.append(Entry(s + c, False, True))
        elif u < len(unprimed):
            row.append(unprimed[u])
            u += 1
        else:
            raise RuntimeError(
                f"no weakly decreasing place for the primed entries of {U.to_text()!r}"
                f" over mu={iv(mu)}"
            )
    return ReverseTableau(U.rows[:-1] + (row,))


def pieri_bad_pair(U, mu):
    """Weight-preserving pairing across the two bad compositions nu and R-bar nu.

    With d = nu_{i+1} - nu_i - 1, the unprimed entries of the source run
    (i+1 when d > 0, i when d < 0) from its |d|-th-from-last barred entry
    on take the other value, bars kept, and move to the end of that value's
    run.  The primed entries keep their subscripts, hence their weights, and
    _place_primed puts them back.  The partner's d is -d, so applied to the
    partner the same move undoes this one whenever both pick the same i.
    Raises ValueError, naming U and mu, outside the domain (see _pieri_row),
    and RuntimeError if the move cannot be made.
    """
    mu = iv(mu)
    row = _pieri_row(U, mu)
    nu, _ = apply_word(mu, row_word(U))
    if is_horizontal_strip(nu, mu):
        raise ValueError("nu is good")
    i = _bad_row_index(mu, nu)
    nu_p = pad(nu, i + 1)
    d = nu_p[i] - nu_p[i - 1] - 1
    src, dst = (i + 1, i) if d > 0 else (i, i + 1)
    unprimed = [e for e in row if not e.primed]
    lo, hi = _run_bounds(unprimed, src)
    start = _nth_barred(unprimed, src, abs(d), lo, hi, from_end=True)
    tail = [Entry(dst, e.barred) for e in unprimed[start:hi]]
    rest = unprimed[:start] + unprimed[hi:]
    at = sum(1 for e in rest if e.value >= dst)
    subs = [s for e, s in zip(row, _subscripts(U, mu)) if e.primed]
    return _place_primed(U, mu, rest[:at] + tail + rest[at:], subs)
