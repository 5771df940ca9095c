"""Exact dense linear algebra over Q(q) (or plain Fractions).

Entries are duck-typed field elements: anything immutable supporting
``+ - * /``, ``bool`` (nonzero test) and ``==`` works, so the same routines
serve the symbolic field and its rational specializations.

The elimination strategy follows one rule: while eliminating, rows are kept
as cleared polynomial rows (denominators multiplied out) and their content is
stripped after every round, which keeps coefficient growth in check; the final
reduced echelon form is then normalized (pivots scaled to 1, cleared upward),
making it the unique RREF — so row-set equality of RREFs is subspace equality.
Pivoting is deterministic (leftmost nonzero, first available row).
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


def echelon(rows):
    """Reduced row echelon form.

    Returns ``(rref_rows, pivot_columns, rank)``; zero rows are dropped.
    """
    work = [_clear_content(list(r)) for r in rows]
    work = [r for r in work if any(r)]
    if not work:
        return [], [], 0
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
    return work, pivots, r


def kernel(rows, ncols: int, one):
    """Basis of the right null space of the matrix given by ``rows``.

    ``one`` is the multiplicative unit of the entry field (needed so the
    kernel of an all-zero map can still be built).  Vectors come out in
    ascending free-column order and form the canonical RREF-style basis.
    """
    zero = one - one
    rref, pivots, rk = echelon(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for rr, p in enumerate(pivots):
            coeff = rref[rr][f]
            if coeff:
                vec[p] = -coeff
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
