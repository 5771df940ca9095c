"""Tests for characters: arithmetic, decomposition, the difference identity,
and the specialize-first consistency check."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcoorbit.chars import (Character, SpecializationReport, chi_irreducible,
                            character_of, compare_at_q1,
                            coordinate_truncation_character,
                            coordinate_truncation_dimension,
                            decompose_sl2, difference_identity, image_at)
from qcoorbit.coorbit import CoorbitMap, Point, sphere_span
from qcoorbit.hopf import HopfContext
from qcoorbit.mq import MatrixAlgebra
from qcoorbit.scalars import PoleError, Scalar


@pytest.fixture(scope="module")
def H2():
    return HopfContext(MatrixAlgebra(2))


@pytest.fixture(scope="module")
def H3():
    return HopfContext(MatrixAlgebra(3))


@pytest.fixture(scope="module")
def H4():
    return HopfContext(MatrixAlgebra(4))


def test_character_arithmetic():
    a = Character("z", {2: 1, 0: 1})
    b = Character("z", {0: 1, -2: 1})
    assert (a + b).mults == {2: 1, 0: 2, -2: 1}
    assert (a - a).is_zero()
    assert sum(a.mults.values()) == 2
    with pytest.raises(ValueError):
        a + Character("t", {(1, -1): 1})
    with pytest.raises(ValueError):
        Character("z", {(1,): 1})
    with pytest.raises(ValueError):
        Character("q", {})


def test_character_refuses_what_it_cannot_do():
    """A character adds only characters and scales by integers: sums with
    an integer, powers and products of two characters raise TypeError."""
    c = chi_irreducible(2)
    for op in (lambda: c + 1, lambda: 1 + c, lambda: c - 1, lambda: 1 - c,
               lambda: c ** 0, lambda: c ** 2, lambda: c * c,
               lambda: Character.zero() * Character.zero()):
        with pytest.raises(TypeError):
            op()
    assert (c * 2).mults == (2 * c).mults == {-2: 2, 0: 2, 2: 2}


def test_character_rendering():
    c = Character("z", {2: 1, 0: 2, -2: 1})
    assert str(c) == "z^2 + 2 + z^-2"
    assert str(Character.zero()) == "0"
    assert str(Character("t", {(1, -1): 3, (0, 0): 1})) == "1 + 3*t1*t2^-1"


def test_chi_irreducible():
    assert chi_irreducible(0).mults == {0: 1}
    assert chi_irreducible(4).mults == {w: 1 for w in (-4, -2, 0, 2, 4)}
    assert sum(chi_irreducible(4).mults.values()) == 5
    with pytest.raises(ValueError):
        chi_irreducible(-2)


def test_decompose_sl2_roundtrip():
    total = Character.zero()
    for m, k in ((0, 2), (2, 1), (6, 3)):
        for _ in range(k):
            total = total + chi_irreducible(m)
    assert decompose_sl2(total) == {0: 2, 2: 1, 6: 3}
    with pytest.raises(ValueError):
        decompose_sl2(Character("z", {-2: 1}))
    with pytest.raises(ValueError):
        decompose_sl2(chi_irreducible(2) - chi_irreducible(0) - chi_irreducible(0))


def test_coordinate_truncation_dimension_matches_character():
    for r in range(6):
        c = coordinate_truncation_character(r)
        assert sum(c.mults.values()) == coordinate_truncation_dimension(r)


def test_difference_identity():
    for r in range(1, 6):
        assert difference_identity(r)


def test_image_characters(H2):
    cm = CoorbitMap(H2, Point.diagonal([2, 3]))
    img = cm.image_data(2)
    zc = character_of(img, "z")
    assert zc == chi_irreducible(0) + chi_irreducible(2) + chi_irreducible(4)
    assert decompose_sl2(zc) == {0: 1, 2: 1, 4: 1}
    tc = character_of(img, "t")
    assert tc.mults[(0, 0)] == 3
    assert sum(tc.mults.values()) == 9


def test_resonant_image_character(H2):
    cm = CoorbitMap(H2, Point.diagonal([H2.alg.q ** 2, 1]))
    zc = character_of(cm.image_data(2), "z")
    assert zc == chi_irreducible(0) + chi_irreducible(2)
    assert zc.mults == {2: 1, 0: 2, -2: 1}


def test_sphere_span_character(H2):
    zc = character_of(sphere_span(H2, 1), "z")
    assert zc == chi_irreducible(0) + chi_irreducible(2)
    tc = character_of(sphere_span(H2, 1), "t")
    assert tc == Character("t", {(1, -1): 1, (0, 0): 2, (-1, 1): 1})


def _domain_weight(m):
    """Torus weight of a domain monomial: column degrees minus row degrees."""
    return tuple(c - r for c, r in zip(m.coldeg(), m.rowdeg()))


@pytest.mark.parametrize("which", ["beta", "alpha"])
@pytest.mark.parametrize("n,d,entries", [
    (2, 3, [[2, 0], [0, 3]]),
    (2, 3, [[Scalar.q() ** 2, 0], [0, 1]]),
    (2, 3, [[0, 1], [0, 0]]),
    (3, 2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
], ids=["diag(2,3)", "diag(q^2,1)", "nilpotent", "size-3"])
def test_torus_grading_checks_characters_read_off_keys(H2, H3, which, n, d,
                                                       entries):
    """The co-orbit map carries a domain monomial of weight coldeg - rowdeg
    to numerator keys k over det^p with coldeg(k) - p equal to it, at every
    point (the weight character_of reads off a key).  So, weight by weight,
    the image's t character and the kernel's weights add up to the weights
    of the domain (rank-nullity)."""
    hopf = {2: H2, 3: H3}[n]
    cm = CoorbitMap(hopf, Point(entries), which)
    domain = hopf.alg.monomial_basis(d)
    for m in domain:
        for k in cm.of_monomial(m):
            assert tuple(c - m.deg for c in k.coldeg()) == \
                _domain_weight(m), (m, k)
    kernel_weights = []
    for row in cm.kernel_basis(d).rows:
        ws = {_domain_weight(m) for m in row}
        assert len(ws) == 1, row   # every kernel row is weight-pure
        kernel_weights.append(ws.pop())
    kernel = Character.from_weights("t", kernel_weights)
    image = character_of(cm.image_data(d), "t")
    assert image + kernel == Character.from_weights(
        "t", [_domain_weight(m) for m in domain])


def _koszul_character(alg, d):
    """The image t character of the degree <= d truncation wherever the
    kernel is the ideal of the shifted invariants tau_i - tau_i(xi): these
    have weight 0 and degrees 1..n and form a regular sequence (Kostant,
    Amer. J. Math. 85, 1963), so the quotient by them has the t character

        sum_{k <= d} [s^k] (sum_k s^k char P_k) prod_{i <= n} (1 - s^i),

    char P_k the weights coldeg - rowdeg of the monomials of degree k.
    Returns it with the number of monomials of degree <= d, from one walk
    over them."""
    domain = alg.monomial_basis(d)
    layers = [Counter() for _ in range(d + 1)]
    for m in domain:
        layers[m.deg][_domain_weight(m)] += 1
    koszul = [1]   # prod_i (1 - s^i), low coefficients first
    for i in range(1, alg.n + 1):
        koszul = [a - (koszul[j - i] if j >= i else 0)
                  for j, a in enumerate(koszul + [0] * i)]
    char = Counter()
    for k in range(d + 1):
        for j, c in enumerate(koszul[:k + 1]):
            for w, mult in layers[k - j].items():
                char[w] += c * mult
    return Character("t", char), len(domain)


# diag(2, 3), diag(2, 3, 5), diag(2, 3, 5, 7) and the generic points of the
# `truncations` benchmark workload at seeds 1-3 (perfbench/workloads.py),
# whose resonant points are diag(c q^2, c) at c = -6, 3, 3; with the largest
# degree each.  Library maps have no degree ceiling: diag(2, 3, 5) at d = 3
# and diag(2, 3, 5, 7) at d = 2 are over the CLI's.
KOSZUL_POINTS = [((2, 3), 4), ((2, 3, 5), 3), ((2, 3, 5, 7), 2),
                 ((-7, -1), 4), ((7, 6, 9), 2),
                 ((-7, 9), 4), ((5, 4, 3), 2),
                 ((9, -5), 4), ((7, -1, -2), 2)]


@pytest.mark.parametrize("which", ["beta", "alpha"])
def test_images_match_the_koszul_closed_form(H2, H3, H4, which):
    """At generic diagonal points the image character is the closed form of
    :func:`_koszul_character` at every degree, and the kernel dimension is
    the monomial count less its total (rank-nullity), an oracle for the
    certified reads and the eliminations.  At the resonant points
    diag(c q^2, c) of the same seeds the beta image is strictly smaller."""
    hopf = {2: H2, 3: H3, 4: H4}
    for diag, dmax in KOSZUL_POINTS:
        H = hopf[len(diag)]
        cm = CoorbitMap(H, Point.diagonal(diag), which)
        for d in range(1, dmax + 1):
            want, size = _koszul_character(H.alg, d)
            assert image_at(cm, d)[1] == want, (diag, d)
            assert cm.kernel_basis(d).dim == size - sum(want.mults.values())
    if which == "alpha":
        return
    q = H2.alg.q
    for c in (-6, 3):
        cm = CoorbitMap(H2, Point.diagonal([c * q ** 2, c]))
        for d in (2, 3):
            want, size = _koszul_character(H2.alg, d)
            dim = image_at(cm, d)[0]
            assert dim < sum(want.mults.values()), (c, d)
            assert cm.kernel_basis(d).dim == size - dim


def test_character_of_rejects_other_types():
    with pytest.raises(TypeError):
        character_of([1, 2, 3])


@pytest.mark.parametrize("entries, d", [([2, 3], 4), ([2, 3, 5], 2),
                                        ([[0, 1], [0, 0]], 3)],
                         ids=["diag(2,3)", "diag(2,3,5)", "single-entry"])
def test_image_at_reads_the_certificate(entries, d):
    """At symbolic q and a diagonal point, image_at reads the image off a
    certificate mod p and builds no exact ideal truncation; at the
    single-entry point it takes the exact route.  Either way it gives the
    dimension, t character and coinvariance of the image's reduced echelon
    basis, which lies in the diagonal coinvariants at the diagonal points
    only."""
    point = Point(entries) if isinstance(entries[0], list) \
        else Point.diagonal(entries)
    cm = CoorbitMap(HopfContext(MatrixAlgebra(point.n)), point)
    dim, tchar, coinv = image_at(cm, d)
    assert (cm.image_weights(d) is not None) == point.is_diagonal()
    assert not cm._ideals
    exact = cm.image_data(d)
    assert (dim, tchar) == (exact.dim, character_of(exact, "t"))
    assert coinv == all(set(m.rowdeg()) <= {d} for m in exact.keys) \
        == point.is_diagonal()


def test_compare_at_q1(H2):
    reps = compare_at_q1(CoorbitMap(H2, Point.diagonal([2, 3])), 2)
    assert len(reps) == 2
    rep = reps[-1]
    assert isinstance(rep, SpecializationReport)
    assert rep.match
    assert rep.symbolic == rep.specialized
    assert sum(rep.symbolic.mults.values()) == 9


def test_compare_at_q1_specializes_scalar_entries(H2):
    pt = Point.diagonal([H2.alg.q ** 2, 1])
    rep, = compare_at_q1(CoorbitMap(H2, pt), 1)
    # at q = 1 the resonance collapses to the scalar matrix diag(1, 1)
    assert sum(rep.specialized.mults.values()) == 1
    assert not rep.match
    pole = Point.diagonal([Scalar.q() / (Scalar.q() - 1), 1])
    with pytest.raises(PoleError):
        compare_at_q1(CoorbitMap(H2, pole), 1)


@pytest.mark.parametrize("entries", [[2, 3], ["q^2", 1]],
                         ids=["diag(2,3)", "diag(q^2,1)"])
def test_compare_at_q1_matches_fresh_maps_per_degree(entries):
    """The two maps shared across degrees give, degree by degree, the
    reports of a fresh symbolic and a fresh q = 1 map built for that degree
    alone."""
    H = HopfContext(MatrixAlgebra(2))
    point = Point.diagonal([Scalar.parse(str(e)) for e in entries])
    H1 = HopfContext(MatrixAlgebra(2, Fraction(1)))
    fresh = []
    for d in (1, 2, 3):
        sym = image_at(CoorbitMap(H, point), d)[1]
        spec = image_at(CoorbitMap(H1, point.specialize(Fraction(1))), d)[1]
        fresh.append(SpecializationReport(sym == spec, sym, spec))
    assert compare_at_q1(CoorbitMap(H, point), 3) == fresh


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8).map(lambda k: 2 * k),
                          st.integers(1, 3)), min_size=0, max_size=4))
def test_decompose_recovers_any_sum(pieces):
    total = Character.zero()
    expected = {}
    for m, k in pieces:
        expected[m] = expected.get(m, 0) + k
        for _ in range(k):
            total = total + chi_irreducible(m)
    assert decompose_sl2(total) == {m: k for m, k in sorted(expected.items()) if k}
