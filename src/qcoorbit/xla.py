"""Exact sparse linear algebra over Q(q) (or plain Fractions).

Vectors are ``{column: entry}`` dicts with no zero entry, over any hashable
column labels; an ``order`` dict gives each column its position.  Entries
are duck-typed field elements: anything immutable supporting ``+ - * /``,
``bool`` (nonzero test) and ``==`` works, so the same routines serve the
symbolic field and its rational specializations.

Elimination first splits the rows into independent blocks: two rows share a
block when a chain of rows sharing columns links them (union-find over the
row supports).  The co-orbit matrices, ideal spans and images at diagonal
points are block-diagonal by torus weight, so each block is small.  Row
operations never leave a block, so each block is eliminated on its own
columns and the rows are merged back in pivot order.

Within a block the rule is plain Gauss-Jordan elimination in the entry
field: each pivot row is scaled to 1 and clears the rows below it, then the
rows are cleared upward from the bottom one.  The pivot entry becomes
``pv ** 0``, the entry's own 1, with no division.  A row operation drops
the pivot column, which always cancels, with no arithmetic, visits only the
pivot row's other entries and drops those that cancel.  Every field
operation returns a reduced element (``Scalar`` and ``Fraction`` keep
themselves in lowest terms), so rows need no separate clearing of
denominators or content.  The result is the unique RREF, so row-set
equality of RREFs is subspace equality.

Columns are taken in ``order``.  For each column the pivot row is the
candidate whose entry there is a unit of Q[q, 1/q], c*q^k, if one exists,
then the one with the fewest entries, then the first: dividing by c*q^k keeps
Laurent rows Laurent, and a short row touches few entries of the rows it
clears.  Which row serves as pivot cannot change the result, because the RREF
of a matrix with its columns in a fixed order is unique.  An entry says it is
c*q^k through an ``is_monomial()`` method; an entry without one (a
``Fraction``) counts as a unit, so over Q the rule is "shortest row".

The kernel eliminates with the column order reversed.  The vector it reads
off for a free column then has a 1 there and no entry at any other free
column, so the vectors are already the kernel's RREF.
"""

from __future__ import annotations


def _clear(row, col, prow):
    """Clear column ``col`` of ``row`` in place by the pivot row ``prow``,
    whose entry there is 1: ``row -= c * prow`` for the entry c of ``row``
    at ``col``.  That column always cancels, so it is dropped without
    arithmetic; the other entries that cancel are dropped too."""
    c = row.pop(col, None)
    if c is None:
        return
    for k, b in prow.items():
        if k != col:
            a = row.pop(k, None)
            a = -(c * b) if a is None else a - c * b
            if a:
                row[k] = a


def _pivot_rank(row, col):
    """Sort key of a candidate pivot row: units c*q^k first, then short
    rows (entries without ``is_monomial`` count as units)."""
    is_monomial = getattr(row[col], "is_monomial", None)
    return (is_monomial is not None and not is_monomial(), len(row))


def _eliminate(rows, cols):
    """Gauss-Jordan elimination of one block over its columns ``cols``, in
    that order, to its RREF.

    Returns ``(rref_rows, pivot_columns)``; zero rows are dropped.
    """
    work = [dict(r) for r in rows]
    pivots = []
    r = 0
    for col in cols:
        candidates = [i for i in range(r, len(work)) if col in work[i]]
        if not candidates:
            continue
        src = min(candidates, key=lambda i: _pivot_rank(work[i], col))
        work[r], work[src] = work[src], work[r]
        pv = work[r][col]
        work[r] = prow = {k: pv ** 0 if k == col else a / pv
                          for k, a in work[r].items()}
        for i in range(r + 1, len(work)):
            _clear(work[i], col, prow)
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    work = work[:r]
    # clear upward from the bottom row
    for k in range(r - 1, 0, -1):
        for j in range(k):
            _clear(work[j], pivots[k], work[k])
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


def echelon(rows, order):
    """Reduced row echelon form of a list of rows, with the columns in
    ``order``.

    Returns ``(rref_rows, pivot_columns, rank)``; zero rows are dropped, and
    the given rows are left as they are.
    """
    rows = [r for r in rows if r]
    merged = []
    for block in _blocks([list(r) for r in rows]):
        cols = sorted({c for i in block for c in rows[i]},
                      key=order.__getitem__)
        rref, pivots = _eliminate([rows[i] for i in block], cols)
        merged.extend(zip(pivots, rref))
    merged.sort(key=lambda pair: order[pair[0]])
    return [row for _p, row in merged], [p for p, _row in merged], len(merged)


def kernel(rows, columns, one):
    """Basis of the right null space of the matrix given by ``rows``, whose
    columns are the list ``columns``.

    ``one`` is the multiplicative unit of the entry field (needed so the
    kernel of an all-zero map can still be built).  The columns are
    eliminated in reverse order, so each vector has a 1 at its free column
    and no entry at the other free columns: in the order of their free
    columns the vectors are the kernel's unique reduced echelon basis.
    """
    reverse = {c: -i for i, c in enumerate(columns)}
    rref, pivots, _rank = echelon(rows, reverse)
    pivot_set = set(pivots)
    basis = []
    for f in columns:
        if f in pivot_set:
            continue
        vec = {f: one}
        for row, p in zip(rref, pivots):
            coeff = row.get(f)
            if coeff is not None:
                vec[p] = -coeff
        basis.append(vec)
    return basis


def reduce(vector, rref_rows, pivots):
    """``vector`` with its entries at the pivot columns cleared by the rows
    of an RREF, as a new dict: the part of it outside their row space."""
    v = dict(vector)
    for row, p in zip(rref_rows, pivots):
        _clear(v, p, row)
    return v


def member(vector, rref_rows, pivots) -> bool:
    """Is ``vector`` in the row space described by an RREF?"""
    return not reduce(vector, rref_rows, pivots)
