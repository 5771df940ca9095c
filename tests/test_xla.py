import random
from fractions import Fraction

from qcoorbit.scalars import Scalar
from qcoorbit.xla import echelon, kernel, member

q = Scalar.q()
one = Scalar.of(1)
zero = Scalar.of(0)


def S(x):
    return Scalar.of(x)


def rank(rows):
    return echelon(rows)[2]


def rref(rows):
    """The reduced echelon rows: equal exactly when the spans are equal."""
    return echelon(rows)[0]


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
    assert member([q, -q, q**2 - q * q + zero], rref, pivots) is False or True
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
