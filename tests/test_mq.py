"""Tests for the quantum matrix algebra: straightening, minors, gradings."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qcoorbit
from qcoorbit.mq import MatrixAlgebra, Monomial
from qcoorbit.scalars import Fp, Scalar


@pytest.fixture(scope="module")
def A2():
    return MatrixAlgebra(2)


@pytest.fixture(scope="module")
def A3():
    return MatrixAlgebra(3)


def test_same_column_swap(A2):
    x = A2.generator
    q = A2.q
    assert x(2, 1) * x(1, 1) == x(1, 1) * x(2, 1) * (q ** -1)
    assert str(x(2, 1) * x(1, 1)) == "(1/q)*x11*x21"


def test_same_row_swap(A2):
    x = A2.generator
    assert x(1, 1) * x(1, 2) == x(1, 2) * x(1, 1) * A2.q


def test_antidiagonal_commutes(A2):
    x = A2.generator
    assert x(1, 2) * x(2, 1) == x(2, 1) * x(1, 2)


def test_diagonal_rule(A2):
    x = A2.generator
    q = A2.q
    lhs = x(2, 2) * x(1, 1)
    rhs = x(1, 1) * x(2, 2) - (q - q ** -1) * x(1, 2) * x(2, 1)
    assert lhs == rhs
    assert str(lhs) == "x11*x22 - ((q^2 - 1)/q)*x12*x21"


def test_determinant_n2(A2):
    x = A2.generator
    det = A2.quantum_determinant()
    assert det == x(1, 1) * x(2, 2) - A2.q * x(1, 2) * x(2, 1)
    # the other classical expansion agrees after straightening
    assert det == x(2, 2) * x(1, 1) - A2.q ** -1 * x(1, 2) * x(2, 1)


def test_determinant_central(A2, A3):
    for A in (A2, A3):
        det = A.quantum_determinant()
        for g in A.generators():
            assert det * g == g * det


def test_minor_example(A3):
    x = A3.generator
    m = A3.quantum_minor((1, 2), (1, 3))
    assert m == x(1, 1) * x(2, 3) - A3.q * x(1, 3) * x(2, 1)


def word_element(A, w):
    """The left-to-right product of the generators x_ij of the word w of
    (i, j) pairs; the empty word gives 1."""
    out = A.one_element()
    for i, j in w:
        out = out * A.generator(i, j)
    return out


@pytest.mark.parametrize("q", [None, Fraction(3, 2), Fp(1)],
                         ids=["symbolic", "3/2", "Fp(1)"])
def test_minors_match_the_permutation_sum(q):
    """Every quantum minor at n <= 4 is the permutation sum
    [I|J] = sum_s (-q)^inv(s) x_{i_1 j_s(1)} ... x_{i_t j_s(t)}; a repeated
    call returns the cached object, and a coefficient equal to 1 is the
    algebra's unit object."""
    for n in range(1, 5):
        A = MatrixAlgebra(n, q)
        for t in range(n + 1):
            for I, J in product(combinations(range(1, n + 1), t), repeat=2):
                want = A.zero_element()
                for s in permutations(range(t)):
                    inv = sum(s[a] > s[b] for a, b in combinations(range(t), 2))
                    word = [(I[a], J[s[a]]) for a in range(t)]
                    want = want + word_element(A, word).scale((-A.q) ** inv)
                got = A.quantum_minor(I, J)
                assert got == want, (n, I, J)
                assert A.quantum_minor(I[::-1], J) is got
                assert all(c is A.one for c in got.terms.values()
                           if c == A.one)


def test_minor_validation(A3):
    with pytest.raises(ValueError):
        A3.quantum_minor((1, 2), (1,))
    with pytest.raises(ValueError):
        A3.quantum_minor((1, 1), (1, 2))
    with pytest.raises(ValueError):
        A3.quantum_minor((1, 4), (1, 2))


def test_tau_values_n2(A2):
    x = A2.generator
    q = A2.q
    assert A2.tau(1) == q ** -2 * x(1, 1) + q ** -4 * x(2, 2)
    assert A2.tau(2) == q ** -6 * A2.quantum_determinant()


def test_sigma_tau_commute(A2, A3):
    # each family is commutative on its own (sigma and tau need not
    # commute with each other: already sigma_1 and tau_1 fail for N=2)
    for A in (A2, A3):
        for fams in ([A.sigma(i) for i in range(1, A.n + 1)],
                     [A.tau(i) for i in range(1, A.n + 1)]):
            for i in range(len(fams)):
                for j in range(i + 1, len(fams)):
                    assert fams[i] * fams[j] == fams[j] * fams[i]


def test_monomial_basis_counts(A2, A3):
    assert len(A2.monomial_basis(3)) == 1 + 4 + 10 + 20
    assert len(A3.monomial_basis(2)) == 1 + 9 + 45
    basis = A2.monomial_basis(2)
    assert basis == sorted(basis, key=Monomial.sort_key)
    assert len(set(basis)) == len(basis)


# sha256 of the str of every product m1 * m2 over the 15 monomials of
# degree <= 2 in x11..x22, at symbolic q and then at q = 3/2, joined by
# newlines (450 lines).  Taken at 3920dd7, by running this same loop.
PRODUCTS_SHA256 = \
    "74ab46ce459dcd2f8f3e1c6be4589ca51af793df6a44be969d5fc33987ef52c3"


def test_products_pinned():
    lines = []
    for q in (None, Fraction(3, 2)):
        A = MatrixAlgebra(2, q)
        monos = [A.monomial_element(m) for m in A.monomial_basis(2)]
        lines += [str(m1 * m2) for m1, m2 in product(monos, repeat=2)]
    assert len(lines) == 450
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PRODUCTS_SHA256


def test_det_power_cache(A2):
    det = A2.quantum_determinant()
    assert A2.det_power(0) == A2.one_element()
    assert A2.det_power(3) == det * det * det


def test_parse_and_render_roundtrip(A2):
    det = A2.quantum_determinant()
    assert A2.parse("x11*x22 - q*x12*x21") == det
    assert A2.parse(str(det)) == det
    e = A2.parse("(q - q^-1)*x12*x21 + 3/2*x11^2")
    assert A2.parse(str(e)) == e
    with pytest.raises(ValueError):
        A2.parse("x11 & x22")
    with pytest.raises(ValueError):
        A2.parse("x11 / x12")


def test_parse_degree_bound(A2):
    for text in ["x11^101", "x11^60 * x22^41", "(x11 * x22 + x12)^51",
                 "q^100000 * x11", "(q^600 * q^600) * x11", "x11 / q^1001"]:
        with pytest.raises(ValueError):
            A2.parse(text)
    assert A2.parse("x11^100").degree() == 100
    assert A2.parse("x11^60 * x22^40").degree() == 100
    # straightening may give coefficients of any degree
    assert A2.parse("x12^50 * x11^50") == \
        A2.parse("x11^50 * x12^50").scale(A2.q ** -2500)


def test_import_keeps_recursion_limit():
    """Importing the package leaves the interpreter's recursion limit alone,
    and straightening long words fits under the default limit."""
    script = (
        "import sys\n"
        "before = sys.getrecursionlimit()\n"
        "import qcoorbit\n"
        "assert sys.getrecursionlimit() == before, sys.getrecursionlimit()\n"
        "from qcoorbit.mq import MatrixAlgebra\n"
        "for n in (2, 3):\n"
        "    A = MatrixAlgebra(n)\n"
        "    assert (A.generator(n, n) ** 300 * A.generator(1, 1)).degree() == 301\n"
    )
    src = Path(qcoorbit.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", script], env=env, check=True,
                   timeout=120)


def test_specialized_algebra_matches_symbolic(A2):
    q0 = Fraction(7, 2)
    B = MatrixAlgebra(2, q0)
    y = B.generator
    lhs = y(2, 2) * y(1, 1)
    sym = A2.generator(2, 2) * A2.generator(1, 1)
    spec = {m: c.specialize(q0) for m, c in sym.terms.items()}
    assert lhs.terms == spec
    assert B.quantum_determinant() * y(2, 1) == y(2, 1) * B.quantum_determinant()


words = st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)),
                 min_size=0, max_size=5)


@settings(max_examples=40, deadline=None)
@given(words, words)
def test_normal_form_multiplicative(w1, w2):
    A = MatrixAlgebra(2)
    assert word_element(A, w1 + w2) == \
        word_element(A, w1) * word_element(A, w2)


@settings(max_examples=30, deadline=None)
@given(words)
def test_normal_form_specializes(w):
    """Straightening commutes with specializing q."""
    q0 = Fraction(3, 2)
    A = MatrixAlgebra(2)
    B = MatrixAlgebra(2, q0)
    sym = word_element(A, w)
    spec = word_element(B, w)
    assert spec.terms == {m: c.specialize(q0) for m, c in sym.terms.items()}


@settings(max_examples=30, deadline=None)
@given(words)
def test_normal_form_at_q_one_is_commutative(w):
    """At q = 1 every word collapses to its sorted monomial, coefficient 1."""
    B = MatrixAlgebra(2, Fraction(1))
    nf = word_element(B, w)
    assert len(nf.terms) == 1
    ((mono, coeff),) = nf.terms.items()
    assert coeff == 1
    expected = [0, 0, 0, 0]
    for (i, j) in w:
        expected[(i - 1) * 2 + (j - 1)] += 1
    assert mono == Monomial(2, expected)


def test_scalar_coefficient_interop(A2):
    x = A2.generator
    e = 2 * x(1, 1) - x(1, 1)
    assert e == x(1, 1)
    assert (x(1, 1) + 1) - 1 == x(1, 1)
    assert x(1, 1).scale(Fraction(1, 2)) * 2 == x(1, 1)
    assert (x(1, 1) ** 0) == A2.one_element()
    with pytest.raises(ValueError):
        x(1, 1) ** -1


@pytest.mark.parametrize("q", [Fraction(1), Fraction(-1), Fp(1), Fp(-1)],
                         ids=["1", "-1", "Fp(1)", "Fp(-1)"])
def test_rules_at_q_plus_minus_one_have_one_term(q):
    """At q = +-1 the q - 1/q term of the rules is 0 and is left out, so no
    rule holds a zero coefficient; at q = 1, over Q and over F_p, 1/q is
    the unit object, and so is every rule's coefficient."""
    unit = q == q ** 0
    for n in (1, 2, 3):
        A = MatrixAlgebra(n, q)
        assert (A.qinv is A.one) == unit
        for big in range(n * n):
            for small in range(big):
                rule = A._letter_rule(big, small)
                assert len(rule) == 1 and all(c for c, _ in rule)
                assert not unit or rule[0][0] is A.one


def _seeded_monomial_pairs(rng, n, dmax, count):
    """Every pair of letters, then ``count`` seeded pairs of monomials of
    degree <= dmax."""
    letters = [Monomial(n, [int(k == i) for k in range(n * n)])
               for i in range(n * n)]
    pairs = list(product(letters, repeat=2))
    for _ in range(count):
        exps = []
        for _ in range(2):
            e = [0] * (n * n)
            for _ in range(rng.randint(0, dmax)):
                e[rng.randrange(n * n)] += 1
            exps.append(Monomial(n, e))
        pairs.append(tuple(exps))
    return pairs


def test_monomial_products_at_q_plus_minus_one_are_monomials():
    """At q = 1 a product of two ordered monomials is the one monomial of
    the summed exponents, with the unit object as coefficient; at q = -1 it
    is that monomial times (-1)^N, N the pairs of a letter of the left
    factor after a letter of the right one in the same row or column: for
    every pair of letters and seeded pairs up to degree 4, at n <= 3."""
    rng = random.Random(25)
    for n in (1, 2, 3):
        plus, minus = MatrixAlgebra(n, Fraction(1)), MatrixAlgebra(n, -1)
        for m1, m2 in _seeded_monomial_pairs(rng, n, 4, 60):
            total = Monomial(n, [a + b for a, b in zip(m1.exps, m2.exps)])
            out = plus._mul_monos(m1, m2)
            assert list(out) == [total] and out[total] is plus.one
            swaps = sum(1 for a in m1.word() for b in m2.word()
                        if a > b and (a // n == b // n or a % n == b % n))
            assert minus._mul_monos(m1, m2) == {total: (-1) ** swaps}
