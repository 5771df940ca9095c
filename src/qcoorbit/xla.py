"""Exact dense linear algebra over Q(q) (or plain Fractions).

Entries are duck-typed field elements: anything immutable supporting
``+ - * /``, ``bool`` (nonzero test) and ``==`` works, so the same routines
serve the symbolic field and its rational specializations.

Elimination first splits the nonzero rows into independent blocks: two rows
share a block when a chain of rows sharing nonzero columns links them
(union-find over the column supports).  The co-orbit matrices, ideal spans
and images at diagonal points are block-diagonal by torus weight, so each
block is small.  Row operations never leave a block, so each block is
eliminated on its own columns and the rows are merged back in pivot order.

Within a block the rule is: while eliminating, rows are kept as cleared
polynomial rows (denominators multiplied out) and their content is stripped
after every round, which keeps coefficient growth in check; the final
reduced echelon form is then normalized (pivots scaled to 1, cleared upward),
making it the unique RREF — so row-set equality of RREFs is subspace equality.
Pivoting is deterministic (leftmost nonzero, first available row).

The kernel eliminates the matrix with its columns reversed.  The vector it
reads off for a free column then starts with a 1 at that column and is zero
at every other free column, so the vectors are already the kernel's RREF
and need no second elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import Poly, Scalar


def _clear_content(row):
    """Rescale a row by a nonzero field constant to tame entry growth.

    Scalar rows: clear to common-denominator polynomial entries and divide
    out their polynomial/rational content.  Fraction rows: clear to integers
    and divide by the integer gcd.  Other types pass through untouched.
    """
    probe = next((e for e in row if e), None)
    if probe is None:
        return row
    if isinstance(probe, Fraction):
        den = lcm(*(e.denominator for e in row))
        ints = [int(e * den) for e in row]
        g = gcd(*ints)
        if g > 1:
            ints = [v // g for v in ints]
        return [Fraction(v) for v in ints]
    if not isinstance(probe, Scalar):
        return row
    den = Poly((1,))
    for e in row:
        if e and not e.den.is_one():
            g = Poly.gcd(den, e.den)
            den = den * e.den.exact_div(g) if g.degree > 0 else den * e.den
    cleared = [e * Scalar(den) if e else e for e in row]
    nums = [e.num for e in cleared if e]
    g = nums[0]
    for p in nums[1:]:
        if g.degree == 0:
            break
        g = Poly.gcd(g, p)
    if g.degree > 0:
        inv = Scalar(Poly((1,)), g)
        cleared = [e * inv if e else e for e in cleared]
    # strip the rational content so integer coefficients stay small
    lead = next(e for e in cleared if e)
    c = lead.num.leading
    if c != 1:
        cleared = [e / c if e else e for e in cleared]
    return cleared


def _eliminate(rows):
    """Fraction-free elimination of one block, normalized to its RREF.

    Returns ``(rref_rows, pivot_columns)``; zero rows are dropped.
    """
    work = [_clear_content(list(r)) for r in rows]
    work = [r for r in work if any(r)]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    r = 0
    for col in range(ncols):
        src = next((i for i in range(r, len(work)) if work[i][col]), None)
        if src is None:
            continue
        work[r], work[src] = work[src], work[r]
        pv = work[r][col]
        for i in range(r + 1, len(work)):
            ci = work[i][col]
            if ci:
                work[i] = _clear_content(
                    [pv * a - ci * b for a, b in zip(work[i], work[r])])
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    work = work[:r]
    # normalize: pivots to 1, clear above
    for k in range(r - 1, -1, -1):
        col = pivots[k]
        pv = work[k][col]
        work[k] = [a / pv for a in work[k]]
        for j in range(k):
            cj = work[j][col]
            if cj:
                work[j] = [a - cj * b for a, b in zip(work[j], work[k])]
    return work, pivots


def _blocks(supports):
    """Indices of the rows in each block, linked by shared columns.

    ``supports`` holds the nonzero columns of each row, none empty.  Blocks
    come in the order of their first row, rows in their given order.
    """
    parent = {}

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    for sup in supports:
        root = find(parent.setdefault(sup[0], sup[0]))
        for c in sup[1:]:
            other = find(parent.setdefault(c, c))
            if other != root:
                parent[other] = root
    blocks = {}
    for i, sup in enumerate(supports):
        blocks.setdefault(find(sup[0]), []).append(i)
    return list(blocks.values())


def echelon(rows):
    """Reduced row echelon form.

    Returns ``(rref_rows, pivot_columns, rank)``; zero rows are dropped.
    """
    rows = [r for r in rows if any(r)]
    if not rows:
        return [], [], 0
    ncols = len(rows[0])
    probe = next(e for e in rows[0] if e)
    zero = probe - probe
    supports = [[c for c, e in enumerate(r) if e] for r in rows]
    merged = []
    for block in _blocks(supports):
        cols = sorted({c for i in block for c in supports[i]})
        rref, pivots = _eliminate([[rows[i][c] for c in cols] for i in block])
        for row, p in zip(rref, pivots):
            full = [zero] * ncols
            for c, e in zip(cols, row):
                full[c] = e
            merged.append((cols[p], full))
    merged.sort(key=lambda pair: pair[0])
    return [row for _p, row in merged], [p for p, _row in merged], len(merged)


def kernel(rows, ncols: int, one):
    """Basis of the right null space of the matrix given by ``rows``.

    ``one`` is the multiplicative unit of the entry field (needed so the
    kernel of an all-zero map can still be built).  The columns are
    eliminated in reverse order, so each vector starts with a 1 at its free
    column and is zero at the other free columns: in ascending free-column
    order the vectors are the kernel's unique reduced echelon basis.
    """
    zero = one - one
    last = ncols - 1
    rref, pivots, _rank = echelon([r[::-1] for r in rows])
    pivot_set = set(pivots)
    basis = []
    for f in range(last, -1, -1):
        if f in pivot_set:
            continue
        vec = [zero] * ncols
        vec[last - f] = one
        for row, p in zip(rref, pivots):
            coeff = row[f]
            if coeff:
                vec[last - p] = -coeff
        basis.append(vec)
    return basis


def member(vector, rref_rows, pivots) -> bool:
    """Is ``vector`` in the row space described by an RREF?"""
    v = list(vector)
    for rr, p in enumerate(pivots):
        c = v[p]
        if c:
            v = [a - c * b for a, b in zip(v, rref_rows[rr])]
    return not any(v)
