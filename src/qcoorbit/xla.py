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

Within a block the rule is plain Gauss-Jordan elimination in the entry
field: each pivot row is scaled to 1 and clears the rows below it, then the
rows are cleared upward from the bottom one.  Entries stay small because
every field operation returns a reduced element (``Scalar`` and
``Fraction`` both keep themselves in lowest terms), so rows need no
separate clearing of denominators or content.  The result is the unique
RREF, so row-set equality of RREFs is subspace equality.  Pivoting is
deterministic (leftmost nonzero, first available row).

The kernel eliminates the matrix with its columns reversed.  The vector it
reads off for a free column then starts with a 1 at that column and is zero
at every other free column, so the vectors are already the kernel's RREF
and need no second elimination.
"""

from __future__ import annotations


def _eliminate(rows):
    """Gauss-Jordan elimination of one block, to its RREF.

    Returns ``(rref_rows, pivot_columns)``; zero rows are dropped.
    """
    work = [list(r) for r in rows if any(r)]
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
        work[r] = prow = [a / pv if a else a for a in work[r]]
        for i in range(r + 1, len(work)):
            c = work[i][col]
            if c:
                work[i] = [a - c * b if b else a
                           for a, b in zip(work[i], prow)]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    work = work[:r]
    # clear upward from the bottom row
    for k in range(r - 1, 0, -1):
        col = pivots[k]
        for j in range(k):
            c = work[j][col]
            if c:
                work[j] = [a - c * b if b else a
                           for a, b in zip(work[j], work[k])]
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
            v = [a - c * b if b else a for a, b in zip(v, rref_rows[rr])]
    return not any(v)
