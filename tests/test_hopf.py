"""Tests for the Hopf layer: coproduct, antipode, coactions, projections."""

import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qcoorbit.coorbit import CoorbitMap, Point
from qcoorbit.hopf import HopfContext, TensorElement
from qcoorbit.mq import MatrixAlgebra, Monomial, accumulate


@pytest.fixture(scope="module")
def H2():
    return HopfContext(MatrixAlgebra(2))


@pytest.fixture(scope="module")
def H3():
    return HopfContext(MatrixAlgebra(3))


def mono(H, i, j):
    return Monomial.generator(H.n, i, j)


def mult_s_id(H, a):
    """m (S (x) id) Delta(a), an element of the localization."""
    total = H.scalar_gl(0)
    for (u, v), c in H.comultiply(a).terms.items():
        su = H.antipode(H.alg.monomial_element(u))
        total = total + (su * H.embed(H.alg.monomial_element(v))).scale(c)
    return total


def mult_id_s(H, a):
    total = H.scalar_gl(0)
    for (u, v), c in H.comultiply(a).terms.items():
        sv = H.antipode(H.alg.monomial_element(v))
        total = total + (H.embed(H.alg.monomial_element(u)) * sv).scale(c)
    return total


# -- coproduct ---------------------------------------------------------------------


def test_coproduct_on_generators(H2):
    x = H2.alg.generator
    d = H2.comultiply(x(1, 2))
    assert d.terms == {
        (mono(H2, 1, 1), mono(H2, 1, 2)): H2.alg.one,
        (mono(H2, 1, 2), mono(H2, 2, 2)): H2.alg.one,
    }


def test_coproduct_multiplicative(H2):
    A = H2.alg
    x = A.generator
    a, b = x(2, 1), x(1, 1) * x(2, 2)
    assert H2.comultiply(a * b) == H2.comultiply(a) * H2.comultiply(b)


def test_coproduct_of_determinant_is_grouplike(H2, H3):
    for H in (H2, H3):
        det = H.alg.quantum_determinant()
        expected = {}
        for m1, c1 in det.terms.items():
            for m2, c2 in det.terms.items():
                expected[(m1, m2)] = c1 * c2
        assert H.comultiply(det).terms == expected


def test_coassociativity(H2):
    A = H2.alg
    for elem in (A.generator(2, 1), A.generator(1, 1) * A.generator(2, 2)):
        for m, c0 in elem.terms.items():
            two = H2._delta2_mono(m)
            # recompute as (Delta (x) id) Delta
            redo = {}
            for (u, v), c in H2._delta_mono(m).items():
                for (u1, u2), cc in H2._delta_mono(u).items():
                    key = (u1, u2, v)
                    redo[key] = redo.get(key, A.zero) + c * cc
            redo = {k: c for k, c in redo.items() if c}
            assert redo == two
            # and as (id (x) Delta) Delta
            redo = {}
            for (u, v), c in H2._delta_mono(m).items():
                for (v1, v2), cc in H2._delta_mono(v).items():
                    key = (u, v1, v2)
                    redo[key] = redo.get(key, A.zero) + c * cc
            redo = {k: c for k, c in redo.items() if c}
            assert redo == two


def test_coproduct_is_counit_in_the_middle(H2, H3):
    """Delta is Delta^2 with the counit applied to the middle leg."""
    for H, d in ((H2, 3), (H3, 1)):
        A = H.alg
        for m in A.monomial_basis(d):
            expected = {}
            for (u, v, w), c in H._delta2_mono(m).items():
                if H._counit_mono(v):
                    expected[(u, w)] = expected.get((u, w), A.zero) + c
            expected = {k: c for k, c in expected.items() if c}
            assert H.comultiply(A.monomial_element(m)).terms == expected


def test_counit(H2):
    A = H2.alg
    x = A.generator
    assert H2.counit(x(1, 1)) == A.one
    assert not H2.counit(x(1, 2))
    assert H2.counit(A.quantum_determinant()) == A.one
    assert H2.counit(H2.embed(A.one_element(), 1)) == A.one
    # (counit (x) id) Delta = id
    a = x(2, 1) * x(1, 1) + x(2, 2)
    recovered = A.zero_element()
    for (u, v), c in H2.comultiply(a).terms.items():
        recovered = recovered + A.monomial_element(v).scale(c * H2._counit_mono(u))
    assert recovered == a


# -- antipode -----------------------------------------------------------------------


def test_antipode_table_n2(H2):
    A = H2.alg
    x = A.generator
    dinv = H2.embed(A.one_element(), 1)
    assert H2.antipode(x(1, 1)) == H2.embed(x(2, 2)) * dinv
    assert H2.antipode(x(2, 2)) == H2.embed(x(1, 1)) * dinv
    assert H2.antipode(x(1, 2)) == H2.embed(x(1, 2)).scale(-A.q ** -1) * dinv
    assert H2.antipode(x(2, 1)) == H2.embed(x(2, 1)).scale(-A.q) * dinv


def test_antipode_entry_n3(H3):
    A = H3.alg
    x = A.generator
    expected = H3.embed(x(2, 2) * x(3, 3) - A.q * x(2, 3) * x(3, 2), 1)
    assert H3.antipode(x(1, 1)) == expected


def test_hopf_axiom(H2, H3):
    for H in (H2, H3):
        for g in H.alg.generators():
            expected = H.scalar_gl(H.counit(g))
            assert mult_s_id(H, g) == expected
            assert mult_id_s(H, g) == expected


def test_hopf_axiom_on_products(H2):
    x = H2.alg.generator
    a = x(1, 1) * x(1, 2) + 2 * x(2, 1)
    expected = H2.scalar_gl(H2.counit(a))
    assert mult_s_id(H2, a) == expected
    assert mult_id_s(H2, a) == expected


def test_antipode_antimultiplicative(H2):
    x = H2.alg.generator
    for a, b in [(x(1, 1), x(2, 2)), (x(2, 1), x(1, 2)), (x(1, 1), x(2, 1))]:
        assert H2.antipode(a * b) == H2.antipode(b) * H2.antipode(a)


def test_antipode_of_determinant(H2):
    A = H2.alg
    det = A.quantum_determinant()
    assert H2.antipode(det) == H2.embed(A.one_element(), 1)
    assert H2.antipode(H2.embed(A.one_element(), 1)) == H2.embed(det)


# -- adjoint coactions -----------------------------------------------------------------


def test_beta_fixes_tau_family(H2, H3):
    for H in (H2, H3):
        for i in range(1, H.n + 1):
            assert H.is_coinvariant(H.alg.tau(i), "beta")


def test_alpha_fixes_sigma_family(H2, H3):
    for H in (H2, H3):
        for i in range(1, H.n + 1):
            assert H.is_coinvariant(H.alg.sigma(i), "alpha")


def test_families_not_swapped(H2):
    assert not H2.is_coinvariant(H2.alg.tau(1), "alpha")
    assert not H2.is_coinvariant(H2.alg.sigma(1), "beta")
    assert not H2.is_coinvariant(H2.alg.generator(1, 1), "beta")


def test_determinant_coinvariant_both_ways(H2):
    det = H2.alg.quantum_determinant()
    assert H2.is_coinvariant(det, "beta")
    assert H2.is_coinvariant(det, "alpha")


def test_coaction_weights(H2):
    """Every second-leg term of a coaction has torus weight coldeg - rowdeg
    of the source monomial, whatever the first leg is."""
    A = H2.alg
    for m in (Monomial.generator(2, 2, 1),
              Monomial(2, (0, 1, 1, 0)),
              Monomial(2, (1, 0, 2, 0))):
        want = tuple(c - r for c, r in zip(m.coldeg(), m.rowdeg()))
        for which in ("beta", "alpha"):
            t = H2.coaction(A.monomial_element(m), which)
            p = t.detpows[1]
            for (_v, u) in t.terms:
                assert tuple(c - p for c in u.coldeg()) == want


def test_coaction_on_sums_lifts_det_powers(H2):
    A = H2.alg
    a = A.tau(1) + A.tau(2)  # mixed degrees force a common det power
    t = H2.coaction(a, "beta")
    expected = TensorElement(
        H2, ("mq", "glq"),
        {(m, Monomial.one(2)): c for m, c in a.terms.items()}, (None, 0))
    assert t == expected


def per_monomial_coaction(H, a, which):
    """The coaction as a sum over monomials: each monomial's two-fold
    coproduct conjugated on its own, over det^deg(m), scaled by its
    coefficient."""
    total = TensorElement(H, ("mq", "glq"), {}, (None, 0))
    for m, c in a.terms.items():
        conj = H._conjugate(H._delta2_mono(m), which)
        total = total + TensorElement(
            H, ("mq", "glq"), {k: c * cc for k, cc in conj.items()},
            (None, m.deg))
    return total


def seeded_element(H, seed, max_deg, nterms):
    """A seeded element whose i-th term has degree i mod (max_deg + 1), with
    coefficients that are neither all 1 nor all Laurent polynomials."""
    rng = random.Random(seed)
    A = H.alg
    q = A.q
    coeffs = (A.one, -A.one, 2 * A.one, q, -q ** -2, q - 1 / q,
              (q + 1) / (q - 2), Fraction(3, 5))
    a = A.scalar_element(0)
    for i in range(nterms):
        exps = [0] * H.n ** 2
        for _ in range(i % (max_deg + 1)):
            exps[rng.randrange(H.n ** 2)] += 1
        a = a + A.monomial_element(Monomial(H.n, tuple(exps))).scale(
            rng.choice(coeffs))
    return a


def assert_same_coaction(H, a, which):
    got = H.coaction(a, which)
    want = per_monomial_coaction(H, a, which)
    assert got.detpows == want.detpows
    assert got.terms == want.terms
    assert str(got) == str(want)


def test_coaction_by_part_matches_per_monomial_n2(H2):
    A = H2.alg
    x = A.generator
    q = A.q
    # x11 x22 - x22 x11 = (q - 1/q) x12 x21: this sum straightens to zero
    zero = x(1, 1) * x(2, 2) - x(2, 2) * x(1, 1) - (q - 1 / q) * x(1, 2) * x(2, 1)
    assert zero.terms == {}
    cases = [seeded_element(H2, seed, 3, 6) for seed in range(4)]
    cases += [
        seeded_element(H2, 4, 3, 5) + A.scalar_element(q + 2),
        seeded_element(H2, 5, 2, 4) + zero.scale(q + 3),
        A.quantum_determinant() - x(1, 1) * x(2, 2) + x(1, 2) + 7,
        A.scalar_element(0),
    ]
    assert all({m.deg for m in a.terms} == {0, 1, 2, 3} for a in cases[:4])
    for a in cases:
        for which in ("beta", "alpha"):
            assert_same_coaction(H2, a, which)


def test_coaction_by_part_matches_per_monomial_n3(H3):
    for seed in range(2):
        a = seeded_element(H3, 10 + seed, 2, 4)
        for which in ("beta", "alpha"):
            assert_same_coaction(H3, a, which)


def test_summed_fold_of_determinant_is_grouplike(H2, H3):
    """det is group-like, so the coefficient-weighted sum of the two-fold
    coproducts of its monomials is det (x) det (x) det."""
    for H, size in ((H2, 8), (H3, 216)):
        det = H.alg.quantum_determinant().terms
        folded = {}
        for m, c in det.items():
            for key, cc in H._delta2_mono(m).items():
                accumulate(folded, key, c * cc)
        cube = {(u, v, w): cu * cv * cw for (u, cu), (v, cv), (w, cw)
                in product(det.items(), repeat=3)}
        assert len(cube) == size
        assert folded == cube


# -- tensor plumbing ---------------------------------------------------------------------


def test_tensor_eq_lifts(H2):
    A = H2.alg
    one = Monomial.one(2)
    m11 = mono(H2, 1, 1)
    t1 = TensorElement(H2, ("mq", "glq"), {(m11, one): A.one}, (None, 0))
    det = A.quantum_determinant()
    t2 = TensorElement(H2, ("mq", "glq"),
                       {(m11, m): c for m, c in det.terms.items()}, (None, 1))
    assert t1 == t2
    assert (t1 - t2).is_zero()


def test_tensor_shape_mismatch(H2):
    t = TensorElement(H2, ("mq", "mq"), {})
    u = TensorElement(H2, ("mq", "glq"), {}, (None, 0))
    with pytest.raises(ValueError):
        _ = t + u


def test_tensor_with_scalars(H2):
    """A scalar scales a tensor from either side; adding a scalar or taking
    a power (whose 0-th power would be a unit) is refused."""
    x11 = H2.alg.generator(1, 1)
    t = H2.comultiply(x11)
    assert t * 2 == 2 * t == t + t
    assert (t * 0).is_zero()
    with pytest.raises(TypeError):
        _ = t + 1
    with pytest.raises(TypeError):
        _ = t ** 2


# -- torus coinvariance ----------------------------------------------------------------


def test_diag_coinvariance(H2):
    A = H2.alg
    x = A.generator
    assert H2.is_diag_coinvariant(H2.embed(x(1, 1) * x(2, 2), 1))
    assert H2.is_diag_coinvariant(H2.embed(x(1, 2) * x(2, 1), 1))
    assert not H2.is_diag_coinvariant(H2.embed(x(1, 1) ** 2, 1))
    assert not H2.is_diag_coinvariant(H2.embed(x(1, 1)))
    assert H2.is_diag_coinvariant(H2.scalar_gl(1))


# -- localization ------------------------------------------------------------------


def test_mixed_det_powers(H2, H3):
    """num / det^p equals num det^k / det^(p+k); sums and differences lift
    both sides to the larger power."""
    for H in (H2, H3):
        A = H.alg
        x = A.generator
        det = A.quantum_determinant()
        for a in (x(1, 2), x(2, 1) * x(1, 1) - 3, A.one_element()):
            for p, k in ((0, 1), (1, 2), (2, 1)):
                assert H.embed(a, p) == H.embed(a * det ** k, p + k)
                assert H.embed(a * det ** k, p + k) == H.embed(a, p)
            assert H.embed(a, 1) != H.embed(a, 2)
        a, b = x(1, 1), x(1, 2) * x(2, 1)
        s = H.embed(a, 1) + H.embed(b, 3)
        assert s.detpow == 3 and s.num == a * det ** 2 + b
        assert s == H.embed(b, 3) + H.embed(a, 1)
        assert s - H.embed(b, 3) == H.embed(a, 1)
        assert (H.embed(a, 1) - H.embed(a * det, 2)).is_zero()
        assert H.embed(a, 1) + 2 == H.embed(a + 2 * det, 1)
        assert H.embed(a, 1).numerator_at(1) == a
        assert H.embed(a, 1).numerator_at(3) == a * det ** 2
        with pytest.raises(ValueError):
            H.embed(a, 2).numerator_at(1)
    A, det = H2.alg, H2.alg.quantum_determinant()
    a = A.generator(1, 2) * A.generator(2, 1)
    assert H2.antipode(H2.embed(a, 1)) == H2.antipode(H2.embed(a * det, 2))
    assert H2.antipode(H2.embed(a, 3) + H2.embed(a)) == \
        H2.antipode(H2.embed(a, 3)) + H2.antipode(a)


def test_powers_from_the_unit(H2):
    A, sl = H2.alg, H2.sl_algebra
    for e, one in ((A.generator(1, 2) + A.generator(2, 1), A.one_element()),
                   (sl.generator("a") + sl.generator("b"), sl.one_element()),
                   (H2.embed(A.generator(1, 1), 1) + H2.embed(A.generator(2, 2)),
                    H2.scalar_gl(1))):
        assert e ** 0 == one and (e - e) ** 0 == one
        assert e ** 1 == e
        assert e ** 3 == e * e * e
        assert e ** 4 == (e * e) * (e * e)
        with pytest.raises(ValueError):
            e ** -1
    assert (H2.embed(A.one_element(), 1) ** 3).detpow == 3

# -- the SL_2 quotient ----------------------------------------------------------------


def test_sl_relations(H2):
    sl = H2.sl_algebra
    q = sl.q
    a, b, c, d = (sl.generator(t) for t in "abcd")
    assert a * b == q * (b * a)
    assert a * c == q * (c * a)
    assert b * c == c * b
    assert b * d == q * (d * b)
    assert c * d == q * (d * c)
    assert a * d == sl.one_element() + q * (b * c)
    assert d * a == sl.one_element() + q ** -1 * (b * c)
    assert a * d - d * a == (q - q ** -1) * (b * c)


def test_sl_projection(H2):
    A = H2.alg
    x = A.generator
    sl = H2.sl_algebra
    assert H2.project_sl(A.quantum_determinant()) == sl.one_element()
    assert H2.project_sl(H2.embed(A.one_element(), 1)) == sl.one_element()
    got = H2.project_sl(x(1, 1) * x(2, 2))
    assert got == sl.one_element() + sl.q * (sl.generator("b") * sl.generator("c"))
    # projection is an algebra map on a sample product
    u, v = x(2, 1) * x(1, 2), x(1, 1) + x(2, 2)
    assert H2.project_sl(u * v) == H2.project_sl(u) * H2.project_sl(v)


def test_sl_antipode_through_projection(H2):
    A = H2.alg
    x = A.generator
    sl = H2.sl_algebra
    a, b, c, d = (sl.generator(t) for t in "abcd")
    q = sl.q
    assert H2.project_sl(H2.antipode(x(1, 1))) == d
    assert H2.project_sl(H2.antipode(x(1, 2))) == -(q ** -1) * b
    assert H2.project_sl(H2.antipode(x(2, 1))) == -q * c
    assert H2.project_sl(H2.antipode(x(2, 2))) == a


def test_sl_specialized_coefficients():
    H = HopfContext(MatrixAlgebra(2, Fraction(3, 2)))
    sl = H.sl_algebra
    a, d = sl.generator("a"), sl.generator("d")
    assert a * d == sl.one_element() + Fraction(3, 2) * (sl.generator("b") * sl.generator("c"))
    assert H.is_coinvariant(H.alg.tau(1), "beta")


def sl_basis_words(d):
    """Exponents (i, j, k, l) of the SL_2 basis words a^i b^j c^k d^l of
    degree <= d (i and l never both positive), by degree then exponents."""
    return sorted((e for e in product(range(d + 1), repeat=4)
                   if sum(e) <= d and not (e[0] and e[3])),
                  key=lambda e: (sum(e), e))


def sl_word(sl, e):
    """The basis word a^i b^j c^k d^l of exponents e, as a product of the
    generators."""
    out = sl.one_element()
    for name, k in zip("abcd", e):
        out = out * sl.generator(name) ** k
    return out


# sha256 of the str of every product sl_word(e1) * sl_word(e2)
# over the 14 basis words of degree <= 2, at symbolic q and then at q = 3/2,
# joined by newlines (392 lines).  Taken at 9168894, while SL_2 still kept
# its own six-rule table, by running this loop over the basis words.
SL_PRODUCTS_SHA256 = \
    "d2c6a424594ee6844fedc2a31d462f96019a8d0b0b9f210dee6da2315d6238dd"


def test_sl_products_pinned():
    lines = []
    for q in (None, Fraction(3, 2)):
        sl = HopfContext(MatrixAlgebra(2, q)).sl_algebra
        words = sl_basis_words(2)
        for e1, e2 in product(words, repeat=2):
            lines.append(str(sl_word(sl, e1) * sl_word(sl, e2)))
    assert len(lines) == 392
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SL_PRODUCTS_SHA256


def test_sl_product_associative(H2):
    sl = H2.sl_algebra
    elems = [sl_word(sl, e) for e in sl_basis_words(1)]
    for u, v, w in product(elems, repeat=3):
        assert (u * v) * w == u * (v * w)



def localization_lines():
    """str of antipodes, co-orbit images, coactions and powers, in the
    localization and in SL_2, at symbolic q and then at q = 3/2."""
    lines = []
    for q in (None, Fraction(3, 2)):
        H = HopfContext(MatrixAlgebra(2, q))
        A = H.alg
        monos = [A.monomial_element(m) for m in A.monomial_basis(2)]
        lines += [str(H.antipode(m)) for m in monos]
        H3 = HopfContext(MatrixAlgebra(3, q))
        lines += [str(H3.antipode(H3.alg.monomial_element(m)))
                  for m in H3.alg.monomial_basis(1)]
        lines += [str(H.antipode(H.embed(m, 1))) for m in monos]
        x = A.generator
        elems = (A.tau(1) + A.tau(2), x(1, 1) + x(2, 1) ** 2,
                 x(1, 2) * x(2, 1) - 1)
        for w in ("beta", "alpha"):
            cm = CoorbitMap(H, Point.diagonal([2, 3]), w)
            lines += [str(cm(a)) for a in elems]
            lines.append(str(H.coaction(A.tau(1) + A.tau(2), w)))
        lines.append(str((H.embed(x(1, 1), 1) + H.embed(x(2, 2))) ** 3))
        a, b, c, d = (H.sl_algebra.generator(t) for t in "abcd")
        lines += [str((a + b) ** 4), str((c * d) ** 3)]
    return lines


# sha256 of the newline-joined localization_lines() (102 lines), taken at
# 00a06fd, while the localization still multiplied by det powers in four
# places, by running this same function.
LOCALIZATION_SHA256 = \
    "4f39b2573bcc3ad65fa68f94e46c2dc408db04b6f769c79a1f5bf75b6dbde0b4"


def test_localization_pinned():
    lines = localization_lines()
    assert len(lines) == 102
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == LOCALIZATION_SHA256

words2 = st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)),
                  min_size=1, max_size=3)


@settings(max_examples=15, deadline=None)
@given(words2)
def test_antipode_axiom_random_words(w):
    H = HopfContext(MatrixAlgebra(2))
    a = H.alg.normal_form(w)
    expected = H.scalar_gl(H.counit(a))
    assert mult_s_id(H, a) == expected


@settings(max_examples=15, deadline=None)
@given(words2, words2)
def test_coproduct_hom_random_words(w1, w2):
    H = HopfContext(MatrixAlgebra(2))
    a, b = H.alg.normal_form(w1), H.alg.normal_form(w2)
    assert H.comultiply(a * b) == H.comultiply(a) * H.comultiply(b)
