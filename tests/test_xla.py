import ast
import random
from fractions import Fraction

from qcoorbit import xla
from qcoorbit.scalars import PoleError, Poly, Scalar
from qcoorbit.xla import _blocks

q = Scalar.q()
one = Scalar.of(1)
zero = Scalar.of(0)


def S(x):
    return Scalar.of(x)


# -- dense adapters: the checks below state their matrices as lists of rows;
# xla works on {column: entry} dicts, here over the columns 0, 1, 2, ...


def _sparse(rows):
    return [{c: e for c, e in enumerate(r) if e} for r in rows]


def _dense(vectors, ncols, zero_entry):
    return [[v.get(c, zero_entry) for c in range(ncols)] for v in vectors]


def _columns(rows):
    ncols = len(rows[0]) if rows else 0
    return ncols, {c: c for c in range(ncols)}


def echelon(rows):
    ncols, order = _columns(rows)
    rref, pivots, rk = xla.echelon(_sparse(rows), order)
    zero_entry = rows[0][0] - rows[0][0] if rows else None
    return _dense(rref, ncols, zero_entry), pivots, rk


def _eliminate(rows):
    ncols, order = _columns(rows)
    rref, pivots = xla._eliminate(_sparse(rows), list(order))
    return _dense(rref, ncols, rows[0][0] - rows[0][0]), pivots


def kernel(rows, ncols, one_entry):
    basis = xla.kernel(_sparse(rows), list(range(ncols)), one_entry)
    return _dense(basis, ncols, one_entry - one_entry)


def member(vector, rref_rows, pivots):
    return xla.member(_sparse([vector])[0], _sparse(rref_rows), pivots)


def rank(rows):
    return echelon(rows)[2]


def rref(rows):
    """The reduced echelon rows: equal exactly when the spans are equal."""
    return echelon(rows)[0]


def test_xla_imports_nothing_from_the_package():
    """Elimination sees its entries only through + - * /, bool and ==, so
    only qcoorbit.scalars knows how a Scalar is stored."""
    with open(xla.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.unparse(node)
            assert not (node.module or "").startswith("qcoorbit"), \
                ast.unparse(node)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert not alias.name.startswith("qcoorbit"), \
                    ast.unparse(node)


def test_sparse_rows_stay_sparse_and_inputs_unchanged():
    """Entries that cancel leave the rows, labels of any kind serve as
    columns, and the input dicts are not changed (the co-orbit images that
    reach elimination are the memoized ones)."""
    rows = [{"a": one, "b": q}, {"a": one, "b": q, "c": q + 1}]
    saved = [dict(r) for r in rows]
    rref, pivots, rk = xla.echelon(rows, {"a": 0, "b": 1, "c": 2})
    assert (rref, pivots, rk) == ([{"a": one, "b": q}, {"c": one}],
                                  ["a", "c"], 2)
    assert xla.kernel(rows, ["a", "b", "c"], one) == [{"a": one, "b": -1 / q}]
    assert xla.member(rows[1], rref, pivots)
    assert not xla.member({"b": one}, rref, pivots)
    assert rows == saved
    assert rref == [{"a": one, "b": q}, {"c": one}]


def test_identity_full_rank():
    ident = [[S(int(i == j)) for j in range(3)] for i in range(3)]
    rref, pivots, rk = echelon(ident)
    assert rk == 3
    assert pivots == [0, 1, 2]
    assert rref == ident


def test_proportional_rows_rank_one():
    m = [[q, q**2], [one, q]]  # row2 = q^-1 * row1
    assert rank(m) == 1
    rref, pivots, rk = echelon(m)
    assert rref == [[one, q]]


def test_kernel_of_zero_map_is_full_space():
    basis = kernel([], 4, one)
    assert len(basis) == 4
    for i, v in enumerate(basis):
        assert v[i] == one and sum(1 for e in v if e) == 1


def test_kernel_vectors_annihilate_exactly():
    m = [[one, q, zero], [q, q**2, zero]]
    for v in kernel(m, 3, one):
        for row in m:
            assert not sum((a * b for a, b in zip(row, v)), zero)


def test_member_reduces_to_zero():
    rows = [[one, zero, q], [zero, one, -q]]
    rref, pivots, _ = echelon(rows)
    assert not member([q, -q, zero], rref, pivots)
    assert member([q, -q, 2 * q**2], rref, pivots)  # q*row1 - q*row2
    assert member([one + zero, one, zero], rref, pivots)  # row1 + row2
    assert not member([zero, zero, one], rref, pivots)


def test_subspace_equal_is_equivalence():
    a = [[one, q], [zero, one]]
    b = [[one + q * 0, q], [q, q**2 + 1]]  # same span, different presentation
    c = [[one, zero]]
    assert rref(a) == rref(a)
    assert rref(a) == rref(b)
    assert rref(a) != rref(c)


def test_symbolic_rank_bounds_specialized_rank():
    rnd = random.Random(7)
    m = [[Scalar.of(rnd.randint(-3, 3)) * q ** rnd.randint(0, 2)
          - Scalar.of(rnd.randint(0, 1))
          for _ in range(5)] for _ in range(4)]
    rk_sym = rank(m)
    hits = 0
    for q0 in (Fraction(5), Fraction(7, 2), Fraction(-3, 4)):
        rk_spec = rank([[e.specialize(q0) for e in row] for row in m])
        assert rk_spec <= rk_sym
        hits += rk_spec == rk_sym
    assert hits == 3  # overwhelming probability at 3 random points


def test_fraction_entries_supported():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rank(m) == 1
    kv = kernel(m, 2, Fraction(1))
    assert len(kv) == 1
    assert m[0][0] * kv[0][0] + m[0][1] * kv[0][1] == 0


def test_rref_is_canonical():
    rows1 = [[q, q**2, one], [one, q, q]]
    rows2 = [[q + 1, q**2 + q, one + q], [one, q, q]]
    r1, p1, _ = echelon(rows1)
    r2, p2, _ = echelon(rows2)
    assert p1 == p2 and r1 == r2


# -- block split and the kernel contract ------------------------------------


def _fraction(rnd):
    return Fraction(rnd.choice([v for v in range(-4, 5) if v]),
                    rnd.randint(1, 3))


def _scalar(rnd):
    e = S(rnd.choice([-2, -1, 1, 2])) * q ** rnd.randint(0, 2) \
        + S(rnd.randint(-2, 2))
    return e if e else one


def _shuffled_blocks(rnd, shapes, entry, zero, zero_rows=0, zero_cols=0):
    """A matrix that is block-diagonal with blocks of the given (rows, cols)
    shapes, plus all-zero rows and columns, with rows and columns shuffled.
    Every block entry is nonzero and each block of two or more rows also
    gets a row that is a sum of two of its rows, so the rank drops."""
    ncols = sum(c for _r, c in shapes) + zero_cols
    order = list(range(ncols))
    rnd.shuffle(order)
    rows, start = [], 0
    for nr, nc in shapes:
        block = [[entry(rnd) for _ in range(nc)] for _ in range(nr)]
        if nr >= 2:
            block.append([a + b for a, b in zip(block[0], block[-1])])
        for br in block:
            row = [zero] * ncols
            for j, e in enumerate(br):
                row[order[start + j]] = e
            rows.append(row)
        start += nc
    rows += [[zero] * ncols for _ in range(zero_rows)]
    rnd.shuffle(rows)
    return rows


BLOCK_SHAPES = [
    [(3, 4)],                          # a single full block
    [(1, 1), (1, 1), (1, 1)],          # one-entry blocks
    [(2, 3), (1, 1), (3, 2)],
    [(2, 2), (3, 3), (1, 2), (1, 1)],
]


def test_block_split_matches_one_unsplit_pass():
    """The block-split echelon gives what one pass of the elimination loop
    over the whole matrix gives, over Fractions and over Q(q)."""
    cases = [(_fraction, Fraction(0), seed) for seed in range(12)]
    cases += [(_scalar, zero, seed) for seed in range(4)]
    for entry, zero_entry, seed in cases:
        rnd = random.Random(seed)
        for shapes in BLOCK_SHAPES:
            m = _shuffled_blocks(rnd, shapes, entry, zero_entry,
                                 zero_rows=seed % 3, zero_cols=seed % 2)
            split = echelon(m)
            rows, pivots = _eliminate(m)
            assert split == (rows, pivots, len(rows)), (seed, shapes)
            supports = [[c for c, e in enumerate(r) if e] for r in m]
            assert len(_blocks([s for s in supports if s])) == len(shapes)


def test_member_agrees_with_rank():
    """member(v, rref, pivots) is rank(rref + [v]) == rank(rref), over
    Fractions and over Q(q), on sparse RREFs and on vectors inside the span
    (seeded combinations of the rows, some coefficients zero) and outside
    it (seeded sparse vectors and unit vectors)."""
    seen = {True: 0, False: 0}
    cases = [(_fraction, Fraction(0), seed) for seed in range(8)]
    cases += [(_scalar, zero, seed) for seed in range(4)]
    for entry, zero_entry, seed in cases:
        rnd = random.Random(100 + seed)
        for shapes in BLOCK_SHAPES:
            m = _shuffled_blocks(rnd, shapes, entry, zero_entry,
                                 zero_cols=seed % 2)
            ncols = len(m[0])
            rows, pivots, rk = echelon(m)
            vectors = []
            for _ in range(4):
                v = [zero_entry] * ncols
                for r in m:
                    c = entry(rnd) if rnd.random() < 0.6 else zero_entry
                    v = [a + c * b for a, b in zip(v, r)]
                vectors.append(v)
            for _ in range(4):
                vectors.append([entry(rnd) if rnd.random() < 0.4
                                else zero_entry for _ in range(ncols)])
            unit = entry(rnd)
            vectors += [[unit if j == c else zero_entry for j in range(ncols)]
                        for c in range(ncols)]
            for v in vectors:
                inside = rank(rows + [v]) == rk
                assert member(v, rows, pivots) == inside, (seed, shapes, v)
                seen[inside] += 1
    assert min(seen.values()) >= 100, seen


def _free_columns(m, ncols):
    """Column c starts a kernel vector exactly when it lies in the span of
    the columns to its right, i.e. adding it leaves the rank unchanged."""
    def suffix_rank(c):
        return rank([r[c:] for r in m]) if c < ncols else 0
    return [c for c in range(ncols) if suffix_rank(c) == suffix_rank(c + 1)]


def test_kernel_is_its_own_rref():
    """The kernel vectors are the kernel's reduced echelon basis, with the
    free columns as pivots; each is annihilated and dim = ncols - rank."""
    cases = []
    for seed in range(6):
        rnd = random.Random(seed)
        entry, one_entry, zero_entry = \
            (_fraction, Fraction(1), Fraction(0)) if seed % 2 \
            else (_scalar, one, zero)
        shapes = [(rnd.randint(1, 2), rnd.randint(1, 3)) for _ in range(3)]
        m = _shuffled_blocks(rnd, shapes, entry, zero_entry, zero_cols=1)
        cases.append((m, len(m[0]), one_entry, zero_entry))
    cases.append(([], 3, one, zero))                              # zero map
    cases.append(([[zero] * 3, [zero] * 3], 3, one, zero))        # zero map
    cases.append(([[one, q], [q, one]], 2, one, zero))            # full rank
    cases.append(([[one, q, zero], [q, one, one]], 3, one, zero))  # onto
    for m, ncols, one_entry, zero_entry in cases:
        basis = kernel(m, ncols, one_entry)
        free = _free_columns(m, ncols)
        assert echelon(basis) == (basis, free, len(free))
        assert len(basis) == ncols - rank(m)
        for v in basis:
            for row in m:
                assert not sum((a * b for a, b in zip(row, v)), zero_entry)


# -- an independent oracle: RREF commutes with specialization ----------------


def _gauss_jordan(m):
    """Textbook Gauss-Jordan over Fractions: every pivot row is scaled to 1
    and clears all other rows at once.  Returns the RREF rows and pivots."""
    rows = [list(r) for r in m]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        src = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        rows[r] = [a / rows[r][col] for a in rows[r]]
        for i in range(len(rows)):
            if i != r:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows[:len(pivots)], pivots


DENOMINATORS = [q - 1, q + 2, q ** 2 + 1, 2 * q + 3]


def _rational_scalar(rnd):
    """A nonzero entry outside Q[q, 1/q]: a small polynomial over one of
    the DENOMINATORS."""
    num = S(rnd.choice([-2, -1, 1, 2])) * q ** rnd.randint(0, 2) \
        + S(rnd.randint(-2, 2))
    return (num if num else one) / rnd.choice(DENOMINATORS)


def test_rref_specializes_to_the_rref_at_a_point():
    """At every rational q0 where no entry has a pole and the specialized
    matrix keeps the generic pivot columns, echelon(M) evaluated at q0 is
    the RREF of M(q0), computed by the textbook oracle above."""
    points = [Fraction(v) for v in (1, -2, 3, -1, 2, 5)]
    points += [Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3)]
    hits = 0
    for seed in range(4):
        rnd = random.Random(seed)
        for shapes in BLOCK_SHAPES:
            m = _shuffled_blocks(rnd, shapes, _rational_scalar, zero,
                                 zero_rows=seed % 2, zero_cols=seed % 3)
            rows, pivots, _rank = echelon(m)
            for q0 in points:
                try:
                    m0 = [[e.specialize(q0) for e in r] for r in m]
                except PoleError:
                    continue
                rows0, pivots0 = _gauss_jordan(m0)
                if pivots0 != pivots:
                    continue
                assert [[e.specialize(q0) for e in r] for r in rows] \
                    == rows0, (seed, shapes, q0)
                hits += 1
    assert hits >= 90


# -- the pivot rule: any candidate row gives the same RREF -------------------


def _mixed_entry(rnd):
    """A nonzero entry of one of three kinds: c*q^k, a Laurent polynomial
    that is no c*q^k, or a rational function outside Q[q, 1/q]."""
    c = S(rnd.choice([-3, -2, -1, 1, 2, 3]))
    kind = rnd.randrange(3)
    if kind == 0:
        return c * q ** rnd.randint(-2, 2)
    if kind == 1:
        return c * q ** rnd.randint(-1, 1) + S(rnd.choice([-2, -1, 1, 2]))
    return _rational_scalar(rnd)


def _oracle_kernel(m, ncols, one_entry):
    """The kernel basis read off the textbook RREF of the matrix with its
    columns reversed, as dense rows over the original columns."""
    rows, pivots = _gauss_jordan([r[::-1] for r in m])
    basis = []
    for f in range(ncols):
        if ncols - 1 - f in pivots:
            continue
        vec = [one_entry - one_entry] * ncols
        vec[f] = one_entry
        for row, p in zip(rows, pivots):
            vec[ncols - 1 - p] = -row[ncols - 1 - f]
        basis.append(vec)
    return basis


def test_pivot_choice_leaves_the_rref_unchanged():
    """echelon and kernel give the same output under every seeded row order,
    and it is what the textbook oracle gives, over Q(q) with entries mixing
    c*q^k, Laurent and general rational functions, and over Fractions,
    where the rule reduces to taking the shortest row."""
    cases = [(_mixed_entry, one, seed) for seed in range(6)]
    cases += [(_fraction, Fraction(1), seed) for seed in range(6)]
    for entry, one_entry, seed in cases:
        zero_entry = one_entry - one_entry
        rnd = random.Random(300 + seed)
        for shapes in BLOCK_SHAPES:
            m = _shuffled_blocks(rnd, shapes, entry, zero_entry,
                                 zero_rows=seed % 2, zero_cols=seed % 3)
            # thin some rows out, so that rows differ in length
            m = [[e if rnd.random() < 0.7 else zero_entry for e in r]
                 for r in m]
            ncols = len(m[0])
            expected = echelon(m)
            oracle_rows, oracle_pivots = _gauss_jordan(m)
            assert expected == (oracle_rows, oracle_pivots,
                                len(oracle_pivots)), (seed, shapes)
            basis = kernel(m, ncols, one_entry)
            assert basis == _oracle_kernel(m, ncols, one_entry), (seed, shapes)
            for _ in range(3):
                shuffled = m[:]
                rnd.shuffle(shuffled)
                assert echelon(shuffled) == expected, (seed, shapes)
                assert kernel(shuffled, ncols, one_entry) == basis


def test_laurent_block_needs_no_gcd(monkeypatch):
    """In a Laurent block where every column has a c*q^k candidate pivot,
    elimination divides only by c*q^k, so it asks for no polynomial gcd,
    although the rows met first have pivot entries such as 2 + q."""
    calls = []
    gcd = Poly.gcd

    def counting(a, b):
        calls.append((a, b))
        return gcd(a, b)

    rnd = random.Random(7)
    ncols = 6
    laurent = [q ** -1 - 2, q + 1, 3 * q ** 2 - q, zero, S(2) - q ** 3]
    # rows with c*q^k first in column i and Laurent entries after it
    triangular = []
    for i in range(ncols):
        row = [zero] * ncols
        row[i] = S(rnd.choice([-2, -1, 1, 3])) * q ** rnd.randint(-2, 2)
        for j in range(i + 1, ncols):
            row[j] = rnd.choice(laurent)
        triangular.append(row)
    # Laurent combinations of them, none with a c*q^k in its first column
    combos = []
    for a, b in [(0, 1), (1, 3), (2, 4), (0, 5)]:
        ca, cb = q + 2, S(1) - q ** 2
        combos.append([ca * x + cb * y
                       for x, y in zip(triangular[a], triangular[b])])
    m = combos + triangular
    assert not any(e.is_monomial() for e in (combos[0][0], combos[3][0]))
    monkeypatch.setattr(Poly, "gcd", staticmethod(counting))
    rows, pivots, rk = echelon(m)
    assert calls == []
    assert (pivots, rk) == (list(range(ncols)), ncols)
    assert all(e.den.is_monomial() for r in rows for e in r if e)


def test_pivot_entry_is_the_unit_with_no_gcd(monkeypatch):
    """Scaling a pivot row sets its pivot entry to pv ** 0, the shared unit
    q**0, instead of dividing pv by itself, which for a pivot such as 2 + q
    costs a polynomial gcd; q / (2 + q) needs none."""
    calls = []
    gcd = Poly.gcd

    def counting(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(Poly, "gcd", staticmethod(counting))
    rows, pivots, rk = xla.echelon([{"a": 2 + q, "b": q}], {"a": 0, "b": 1})
    assert calls == []
    assert (pivots, rk) == (["a"], 1)
    assert rows[0]["a"] is q ** 0
    assert rows[0]["b"] == q / (2 + q)
