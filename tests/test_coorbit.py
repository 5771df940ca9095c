"""Tests for co-orbit maps: points, truncated kernels/ideals/images."""

import hashlib
import json
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qcoorbit import coorbit, scalars, xla
from qcoorbit.chars import Character, character_of
from qcoorbit.cli import main
from qcoorbit.coorbit import (CoorbitMap, Point, TruncatedSubspace,
                              diag_coinv_keys, evaluate, sphere_span,
                              validate_point)
from qcoorbit.hopf import GlqElement, HopfContext
from qcoorbit.mq import MatrixAlgebra, Monomial, MqElement, accumulate
from qcoorbit.scalars import Fp, Poly, Scalar


@pytest.fixture(scope="module")
def H2():
    return HopfContext(MatrixAlgebra(2))


@pytest.fixture(scope="module")
def H3():
    return HopfContext(MatrixAlgebra(3))


@pytest.fixture(scope="module")
def generic(H2):
    return CoorbitMap(H2, Point.diagonal([2, 3]))


@pytest.fixture(scope="module")
def nilpotent(H2):
    return CoorbitMap(H2, Point([[0, 1], [0, 0]]))


@pytest.fixture(scope="module")
def resonant(H2):
    return CoorbitMap(H2, Point.diagonal([H2.alg.q ** 2, 1]))


# -- points and evaluation --------------------------------------------------------


def test_point_validation(H2):
    A = H2.alg
    validate_point(Point.diagonal([2, 3]), A)
    validate_point(Point([[0, 1], [0, 0]]), A)
    validate_point(Point([[0, 0], [5, 0]]), A)
    with pytest.raises(ValueError, match="same-row"):
        validate_point(Point([[1, 1], [0, 0]]), A)
    with pytest.raises(ValueError, match="same-column"):
        validate_point(Point([[1, 0], [2, 0]]), A)
    with pytest.raises(ValueError, match="antidiagonal"):
        validate_point(Point([[0, 1], [1, 0]]), A)
    with pytest.raises(ValueError, match="size"):
        validate_point(Point.diagonal([1, 2, 3]), A)
    # every point with two entries 1: the verdict follows from the positions
    for n in (2, 3):
        A, A1 = MatrixAlgebra(n), MatrixAlgebra(n, Fraction(1))
        cells = [(i, j) for i in range(n) for j in range(n)]
        for (i, j), (k, l) in combinations(cells, 2):
            pt = Point([[int((r, c) in ((i, j), (k, l))) for c in range(n)]
                        for r in range(n)])
            kind = "same-row" if i == k else "same-column" if j == l \
                else "antidiagonal" if j > l else None
            if kind is None:
                assert validate_point(pt, A)[k][l] == 1
            else:
                with pytest.raises(ValueError, match=kind):
                    validate_point(pt, A)
            validate_point(pt, A1)


def test_any_matrix_is_a_point_at_q_one():
    A1 = MatrixAlgebra(2, Fraction(1))
    validate_point(Point([[1, 2], [3, 4]]), A1)
    # and the same matrix fails at generic q
    with pytest.raises(ValueError):
        validate_point(Point([[1, 2], [3, 4]]), MatrixAlgebra(2))


def test_evaluate_is_algebra_map(H2):
    A = H2.alg
    x = A.generator
    pt = Point.diagonal([2, 3])
    a = x(1, 1) * x(2, 2) - A.q * x(1, 2) * x(2, 1)
    assert evaluate(a, pt) == A.coerce(6)
    u, v = x(2, 2) * x(1, 1), x(1, 1) + 7
    assert evaluate(u * v, pt) == evaluate(u, pt) * evaluate(v, pt)
    assert evaluate(A.tau(1), pt) == A.q ** -2 * 2 + A.q ** -4 * 3


# -- the map itself ------------------------------------------------------------------


def slow_coorbit(H, point, a, which):
    """Definitional composite: evaluate the first leg of the coaction."""
    t = H.coaction(a, which)
    p = t.detpows[1]
    num = {}
    for (v, u), c in t.terms.items():
        val = c * evaluate(H.alg.monomial_element(v), point)
        if val:
            w = num.get(u)
            w = val if w is None else w + val
            if w:
                num[u] = w
            elif u in num:
                del num[u]
    return H.embed(MqElement(H.alg, num), p)


@pytest.mark.parametrize("which", ["beta", "alpha"])
def test_fast_path_matches_definition(H2, H3, which):
    """The co-orbit map agrees with the coaction followed by evaluation, on
    every monomial of degree <= 3 at size 2, of degree <= 1 at size 3 and,
    where the one-letter step runs on images that are themselves built by
    it, of degree 2 at one size-3 diagonal point."""
    q = H2.alg.q
    x = H2.alg.generator
    cases = [
        (H2, 3, [Point.diagonal([2, 3]), Point([[0, 1], [0, 0]]),
                 Point.diagonal([q ** 2, 1])],
         [H2.alg.tau(2), x(1, 1) + x(2, 1) ** 2]),
        (H3, 1, [Point([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
                 Point.diagonal([q ** 2, 1, q ** -2])], []),
        (H3, 2, [Point.diagonal([2, 3, 5])], []),
    ]
    for H, d, points, extra in cases:
        samples = [H.alg.monomial_element(m) for m in H.alg.monomial_basis(d)]
        for pt in points:
            cm = CoorbitMap(H, pt, which)
            for a in samples + extra:
                assert cm(a) == slow_coorbit(H, pt, a, which)


def _evaluated_first_leg(H, coaction, point, values):
    """The paper's psi = (ev (x) id) beta (or alpha): the first leg of
    ``{(v, numerator monomial): coeff}`` evaluated at the point, whose
    value at each monomial v is memoized in ``values``."""
    out = {}
    for (v, pm), c in coaction.items():
        if v not in values:
            values[v] = evaluate(H.alg.monomial_element(v), point)
        accumulate(out, pm, c * values[v])
    return out


def _recursion_points(rng, n, q):
    """A seeded generic diagonal point, a resonant one, the single-entry
    nilpotent one and one with entries outside Q[q, 1/q]."""
    c = rng.choice([2, 3, -5, 7])
    single = [[int((i, j) == (0, 1)) for j in range(n)] for i in range(n)]
    if n == 2:
        resonant = [c * q ** 2, c]
        rational = [(q + 1) / (q - 1), 3 * q ** 2 + 2]
    else:
        resonant = [c * q ** 2, c, c * q ** -2]
        rational = [(q + 1) / (q - 1), 2, q + 3]
    return [Point.diagonal(_generic_diagonals(rng, n, 1)[0]),
            Point.diagonal(resonant), Point(single),
            Point.diagonal(rational)]


@pytest.mark.parametrize("which", ["beta", "alpha"])
@pytest.mark.parametrize("q1", [None, Fraction(-3, 2)],
                         ids=["symbolic", "rational"])
def test_one_letter_step_matches_fold_then_conjugate(which, q1):
    """Each image, built one letter at a time from the image of a shorter
    monomial, equals the coaction of the monomial (its two-fold coproduct
    conjugated by the antipode) with the first leg evaluated at the point:
    on every monomial of degree <= 4 at size 2 and of degree <= 2 at size
    3, at seeded points, under symbolic q and at a rational q."""
    rng = random.Random(19)
    for n, dmax in ((2, 4), (3, 2)):
        H = HopfContext(MatrixAlgebra(n, q1))
        points = _recursion_points(rng, n, MatrixAlgebra(n).q)
        if q1 is not None:
            points = [pt.specialize(q1) for pt in points]
        maps = [(CoorbitMap(H, pt, which), {}) for pt in points]
        for m in H.alg.monomial_basis(dmax):
            coaction = H._coaction_mono([(m, H.alg.one)], which)
            for cm, values in maps:
                num = cm.of_monomial(m)
                assert cm(H.alg.monomial_element(m)) == \
                    GlqElement(H, num, m.deg)
                assert num == _evaluated_first_leg(H, coaction, cm.point,
                                                   values), (cm.point, m)


def test_coinvariants_map_to_their_values(H2, generic):
    A = H2.alg
    for i in (1, 2):
        t = A.tau(i)
        assert generic(t) == H2.scalar_gl(evaluate(t, generic.point))
    assert generic(A.one_element()) == H2.scalar_gl(1)


def test_map_validates_input(H2, generic):
    with pytest.raises(ValueError):
        generic("not an element")
    other = MatrixAlgebra(2)
    with pytest.raises(ValueError):
        generic(other.generator(1, 1))
    with pytest.raises(ValueError):
        CoorbitMap(H2, Point.diagonal([2, 3]), "gamma")
    with pytest.raises(ValueError):
        CoorbitMap(H2, Point([[1, 1], [0, 0]]))


# -- truncated kernels, ideals, images --------------------------------------------------


def _complete_intersection_dim(n, d):
    """Dimension in degree <= d of an ideal cut out by a regular sequence of
    degrees 1..n in n^2 variables: the monomial count minus the quotient's,
    whose Hilbert series is prod_i (1 - t^i) / (1 - t)^(n^2)."""
    m = n * n
    series = [comb(k + m - 1, m - 1) for k in range(d + 1)]
    for i in range(1, n + 1):
        series = [c - (series[k - i] if k >= i else 0)
                  for k, c in enumerate(series)]
    return comb(d + m, m) - sum(series)


def _generic_diagonals(rng, n, count):
    """Seeded diagonal entries whose pairwise ratios are no +- power of q:
    for integers that means distinct absolute values."""
    entries = [v for v in range(-9, 10) if v]
    out = []
    while len(out) < count:
        diag = rng.sample(entries, n)
        if len({abs(v) for v in diag}) == n:
            out.append(diag)
    return out


def test_generic_point_dimensions(H2, H3, generic):
    """At a generic diagonal point the shifted coinvariants tau_i - c_i form
    a regular sequence, so the truncated kernel has the complete-intersection
    dimension (1, 6, 19 at size 2; 1, 11 at size 3) and equals the ideal
    truncation: at diag(2, 3), whose image dimensions are checked too, at
    four seeded size-2 points up to degree 3 and at two size-3 points up to
    degree 2, and at one point of each size with entries in Q(q) that are
    not Laurent polynomials, where elimination divides."""
    for d, im in ((1, 4), (2, 9), (3, 16)):
        assert generic.image_data(d).dim == im
    maps = [(2, 3, generic)]
    maps += [(2, 3, CoorbitMap(H2, Point.diagonal(diag)))
             for diag in _generic_diagonals(random.Random(2), 2, 4)]
    maps += [(3, 2, CoorbitMap(H3, Point.diagonal(diag)))
             for diag in _generic_diagonals(random.Random(3), 3, 2)]
    q = H2.alg.q
    maps += [(2, 3, CoorbitMap(H2, Point.diagonal([(q + 1) / (q - 1),
                                                   3 * q ** 2 + 2]))),
             (3, 2, CoorbitMap(H3, Point.diagonal([(q + 1) / (q - 1), 2,
                                                   q + 3])))]
    for n, dmax, bmap in maps:
        for d in range(1, dmax + 1):
            kernel = bmap.kernel_basis(d)
            assert kernel.dim == _complete_intersection_dim(n, d), bmap.point
            assert kernel == bmap.ideal_truncation(d), bmap.point


def test_kernel_basis_is_already_canonical(H2, generic):
    """kernel_basis stores the kernel vectors without a second elimination;
    echelonizing them again changes nothing, at a generic and at a resonant
    point."""
    resonant = CoorbitMap(H2, Point.diagonal([2 * H2.alg.q ** 2, 2]))
    for cm in (generic, resonant):
        for d in range(1, 4):
            kernel = cm.kernel_basis(d)
            again = TruncatedSubspace(kernel.keys, kernel.rows)
            assert kernel == again, (cm.point, d)
            assert kernel.pivots == again.pivots, (cm.point, d)


def _full_kernel(cm, d):
    """The kernel by eliminating every domain column of the matrix whose
    columns are the lifted images: the route that ignores the ideal."""
    domain = cm.hopf.alg.monomial_basis(d)
    lifted = cm._lifted_images(d, domain)
    rows = {}
    for m, num in zip(domain, lifted):
        for k, c in num.items():
            rows.setdefault(k, {})[m] = c
    vectors = xla.kernel(list(rows.values()), domain, cm.hopf.alg.one)
    return TruncatedSubspace._of_rref(domain, vectors)


def _recording_kernel_columns(monkeypatch):
    """The column list of each later xla.kernel call."""
    columns = []
    kernel = xla.kernel

    def recording(rows, cols, one):
        columns.append(list(cols))
        return kernel(rows, cols, one)

    monkeypatch.setattr(xla, "kernel", recording)
    return columns


@pytest.mark.parametrize("which", ["beta", "alpha"])
def test_kernel_modulo_ideal_matches_full_elimination(monkeypatch, which):
    """Once the ideal truncation lies in the kernel, kernel_basis either
    certifies K_d = I_d mod p and returns the ideal with no xla.kernel call,
    or eliminates only the columns that are no pivot of the ideal.  Either
    way its reduced echelon basis, rows and pivots, equals the one of the
    full elimination: at seeded generic, resonant, single-entry and
    rational-entry points, up to degree 4 at size 2 and degree 2 at size 3.
    Both routes are taken."""
    columns = _recording_kernel_columns(monkeypatch)
    rng = random.Random(21)
    routes = set()
    for n, dmax in ((2, 4), (3, 2)):
        H = HopfContext(MatrixAlgebra(n))
        for point in _recursion_points(rng, n, H.alg.q):
            cm = CoorbitMap(H, point, which)
            for d in range(1, dmax + 1):
                calls = len(columns)
                kernel = cm.kernel_basis(d)
                ideal = cm.ideal_truncation(d)
                assert cm.ideal_inside_kernel(d), (point, d)
                if len(columns) == calls:
                    routes.add("certified")
                    assert kernel is ideal
                else:
                    routes.add("reduced")
                    assert columns[-1] == [m for m in kernel.keys
                                           if m not in ideal.pivots]
                full = _full_kernel(cm, d)
                assert kernel.rows == full.rows, (point, d)
                assert kernel.pivots == full.pivots, (point, d)
    assert routes == {"certified", "reduced"}


def test_certificate_needs_the_full_rank(monkeypatch):
    """With the image mod p of one free monomial replaced by the sum of two
    others, the rank mod p is one short of |F|: the certificate fails, and
    kernel_basis takes the exact route, which still finds the kernel."""
    real = CoorbitMap._lifted_images

    def dependent(self, d, domain):
        lifted = real(self, d, domain)
        if isinstance(self.hopf.alg.q, Fp):
            last = dict(lifted[0])
            for k, c in lifted[1].items():
                accumulate(last, k, c)
            lifted[-1] = last
        return lifted

    monkeypatch.setattr(CoorbitMap, "_lifted_images", dependent)
    H = HopfContext(MatrixAlgebra(2))
    for which in ("beta", "alpha"):
        cm = CoorbitMap(H, Point.diagonal([2, 3]), which)
        assert cm._certificate(2) is None
        kernel, full = cm.kernel_basis(2), _full_kernel(cm, 2)
        assert (kernel.rows, kernel.pivots) == (full.rows, full.pivots)
        assert kernel == cm.ideal_truncation(2)


def _point_spec(point):
    return json.dumps({"entries": [[str(e) for e in row]
                                   for row in point.entries]})


@pytest.mark.parametrize("which", ["beta", "alpha"])
def test_certified_and_exact_routes_agree(monkeypatch, capsys, which):
    """With the certificate and with the exact route alone (the certificate
    patched to fail), kernel_basis gives the same rows and pivots, and the
    image and character commands the same bytes: at seeded generic,
    resonant, single-entry and rational-entry points, up to degree 4 at
    size 2 and degree 2 at size 3.  The images are read off a certificate
    mod p at some of them, not at all."""
    read = []
    image_weights = CoorbitMap.image_weights

    def recording(self, d):
        out = image_weights(self, d)
        read.append(out is not None)
        return out

    monkeypatch.setattr(CoorbitMap, "image_weights", recording)
    rng = random.Random(22)
    for n, dmax in ((2, 4), (3, 2)):
        H = HopfContext(MatrixAlgebra(n))
        for point in _recursion_points(rng, n, H.alg.q):
            runs = []
            for exact in (False, True):
                with monkeypatch.context() as patch:
                    if exact:
                        patch.setattr(CoorbitMap, "_certificate",
                                      lambda self, d, ideal=None: None)
                    cm = CoorbitMap(H, point, which)
                    kernels = [cm.kernel_basis(d) for d in range(1, dmax + 1)]
                    reports = []
                    for command in ("image", "character"):
                        code = main([command, "--point", _point_spec(point),
                                     "--degree", str(dmax),
                                     "--coaction", which])
                        reports.append((code, capsys.readouterr().out))
                runs.append(([(k.rows, k.pivots) for k in kernels], reports))
            assert runs[0] == runs[1], point
    assert any(read) and not all(read)


# sha256 prefixes of the kernel, image and character reports at the point
# and degree below, as printed by the exact route before the certificate
# existed
FALLBACK_POINTS = {
    "pole": ('{"entries": [["1/(q - 3141592653589793)", "0"], ["0", "3"]]}',
             "3", {"beta": ("bda9e4713848b778", "74a34f17adf14a09",
                            "cd10e1e0146ef334"),
                   "alpha": ("85d3591e27a9e2a0", "50dc4d9896ece87b",
                             "b4ef02ccc8f1a330")}),
    "pivot": (None, "4", {"beta": ("05b98968450eb9bc", "692afead7e891308",
                                   "6b08848f7181daae"),
                          "alpha": ("a597ce66dc5ba58b", "44e52b73dd3cea8e",
                                    "22644b35b55c3772")}),
}


def _q_free_twin_at_two(monkeypatch):
    """Build the twin of a q-free point, which the map builds at q = 1,
    at q = 2 instead."""
    def at_two(n, q):
        assert q == Fp(1)
        return MatrixAlgebra(n, Fp(2))

    monkeypatch.setattr(coorbit, "MatrixAlgebra", at_two)


@pytest.mark.parametrize("case", FALLBACK_POINTS)
@pytest.mark.parametrize("which", ["beta", "alpha"])
def test_forced_fallback_keeps_the_report_bytes(monkeypatch, capsys, case,
                                                 which):
    """Where the certificate fails, the exact route prints the bytes it
    printed before there was a certificate: at a point entry with a pole at
    q0 mod p, where it is never tried, and with the q-free twin's q set to
    2 at diag(4, 1) for beta and diag(1, 4) for alpha, where q^2 is the
    ratio of the entries, so a pivot vanishes mod p at some degree."""
    spec, degree, digests = FALLBACK_POINTS[case]
    if spec is None:
        _q_free_twin_at_two(monkeypatch)
        entries = ("4", "1") if which == "beta" else ("1", "4")
        spec = '{"entries": [["%s", "0"], ["0", "%s"]]}' % entries
    results = []
    certificate = CoorbitMap._certificate

    def recording(self, d, ideal=None):
        out = certificate(self, d, ideal)
        results.append(out is not None)
        return out

    monkeypatch.setattr(CoorbitMap, "_certificate", recording)
    for command, digest in zip(("kernel", "image", "character"),
                               digests[which]):
        assert main([command, "--point", spec, "--degree", degree,
                     "--coaction", which]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest()[:16] == digest, command
    assert results and not all(results)
    if case == "pole":
        assert not any(results)


def _q_free(point):
    """Is every entry of the point a rational number?"""
    return all(Scalar.of(e).is_constant() for row in point.entries
               for e in row)


def test_twin_images_are_the_exact_images_mod_p():
    """The twin over F_p builds each image of degree <= 2 as the exact image
    with every coefficient specialized at the twin's q and reduced mod p
    (zeros dropped): at sizes 1 to 3, for beta and alpha, at seeded
    generic, resonant, single-entry and rational-entry points.  The twin's
    q is 1 at some q-free points and q0 at the others."""
    rng = random.Random(23)
    twin_qs = set()
    for n in (1, 2, 3):
        H = HopfContext(MatrixAlgebra(n))
        q = H.alg.q
        points = (_recursion_points(rng, n, q) if n > 1 else
                  [Point([[5]]), Point([[(q + 1) / (q - 1)]])])
        for point in points:
            for which in ("beta", "alpha"):
                cm = CoorbitMap(H, point, which)
                twin = cm._twin_map()
                q0 = twin.hopf.alg.q.v
                assert q0 == scalars.FP_Q0 or q0 == 1 and _q_free(point)
                twin_qs.add(q0)
                for m in H.alg.monomial_basis(2):
                    reduced = {k: Fp.of(c.specialize(q0))
                               for k, c in cm.of_monomial(m).items()}
                    assert twin.of_monomial(m) == \
                        {k: c for k, c in reduced.items() if c}, m
    assert twin_qs == {1, scalars.FP_Q0}


@pytest.mark.parametrize("which", ["beta", "alpha"])
def test_twin_states(monkeypatch, which):
    """At symbolic q a map builds its twin at construction, at q = 1 at a
    regular point with rational entries and at q0 elsewhere, and keeps it
    while the certificate holds; there is no twin at a rational q or at a
    pole mod p, and none after the first failed certificate."""
    H = HopfContext(MatrixAlgebra(2))
    q = H.alg.q
    cm = CoorbitMap(H, Point.diagonal([2, 3]), which)
    assert isinstance(cm._twin, CoorbitMap)
    assert cm._twin.hopf.alg.q == Fp(1)
    assert cm._twin._twin is None
    assert cm._certificate(2) is not None and cm._twin is not None
    for entries in ([2 * q ** 2, 3], [2, 2]):
        other = CoorbitMap(H, Point.diagonal(entries), which)
        assert other._twin.hopf.alg.q == Fp(scalars.FP_Q0)
    H1 = HopfContext(MatrixAlgebra(2, Fraction(1)))
    assert CoorbitMap(H1, Point.diagonal([2, 3]), which)._twin is None
    pole = Point.diagonal([Fraction(1, scalars.FP_PRIME), 3])
    assert CoorbitMap(H, pole, which)._twin is None
    monkeypatch.setattr(scalars, "FP_Q0", 2)
    pole = Point.diagonal([1 / (q - 2), 3])
    assert CoorbitMap(H, pole, which)._twin is None
    # at q0 = 2 the point diag(q + 2, 1) (diag(1, q + 2) for alpha) is
    # resonant mod p, so the degree-2 certificate fails and the twin is
    # dropped
    entries = [q + 2, 1] if which == "beta" else [1, q + 2]
    resonant = CoorbitMap(H, Point.diagonal(entries), which)
    assert resonant._twin.hopf.alg.q == Fp(2)
    assert resonant._certificate(2) is None and resonant._twin is None
    assert resonant.kernel_basis(2) == _full_kernel(resonant, 2)


def _twin_at(cm, q0):
    """The map's twin, built at q = q0 whatever the point."""
    point = Point([[Fp.of(x) for x in row] for row in cm.xi])
    return CoorbitMap(HopfContext(MatrixAlgebra(cm.hopf.n, Fp(q0))), point,
                      cm.which)


def _certified_weights(cm, dmax):
    """Per degree d <= dmax up to the first failed certificate, the
    weights coldeg - rowdeg of F, or None where the certificate fails."""
    out = []
    for d in range(1, dmax + 1):
        read = cm._certificate(d)
        if read is None:
            return out + [None]
        out.append(Counter(tuple(c - r for c, r in zip(m.coldeg(),
                                                       m.rowdeg()))
                           for m in read[0]))
    return out


@pytest.mark.parametrize("which", ["beta", "alpha"])
def test_classical_twin_certifies_like_a_generic_q_twin(which):
    """A map's own twin certifies a degree exactly when a twin at q0
    does, with the same weights of F, at q-free points: a seeded generic
    diagonal point, a point with equal eigenvalues and the regular
    nilpotent one at size 2, up to degree 4, and a seeded generic diagonal
    point and a single-entry one at size 3, up to degree 2.  The own twin
    is at q = 1 exactly at the regular points among them.  At the others
    a twin at q = 1 fails at some degree: at diag(c, c) for alpha at
    degree 1, where the twin at q0 certifies every degree."""
    rng = random.Random(25)
    c = rng.choice([2, 3, -5, 7])
    cases = [(2, 4, True, Point.diagonal(_generic_diagonals(rng, 2, 1)[0])),
             (2, 4, False, Point.diagonal([c, c])),
             (2, 4, True, Point([[0, 1], [0, 0]])),
             (3, 2, True, Point.diagonal(_generic_diagonals(rng, 3, 1)[0])),
             (3, 2, False, Point([[0, 0, 0], [0, 0, c], [0, 0, 0]]))]
    outcomes = set()
    for n, dmax, regular, point in cases:
        H = HopfContext(MatrixAlgebra(n))
        own, generic, classical = (CoorbitMap(H, point, which)
                                   for _ in range(3))
        assert own._twin.hopf.alg.q == Fp(1 if regular else scalars.FP_Q0)
        generic._twin = _twin_at(generic, scalars.FP_Q0)
        classical._twin = _twin_at(classical, 1)
        weights = _certified_weights(own, dmax)
        assert weights == _certified_weights(generic, dmax), point
        outcomes.update(w is None for w in weights)
        at_one = _certified_weights(classical, dmax)
        assert (at_one == weights) if regular else at_one[-1] is None
        if point == Point.diagonal([c, c]) and which == "alpha":
            assert at_one == [None] and None not in weights
    assert outcomes == {True, False}


def test_wrong_constant_falls_back_to_full_elimination(monkeypatch, capsys):
    """With tau_1's value at the point off by one, some spanner of the ideal
    survives, so kernel_basis eliminates every column and equals the full
    elimination, no image is read off a certificate, and the kernel report
    says the ideal is not inside the kernel and prints that same basis."""
    real = coorbit.evaluate

    def off_by_one(a, point):
        value = real(a, point)
        return value + 1 if all(m.deg == 1 for m in a.terms) else value

    monkeypatch.setattr(coorbit, "evaluate", off_by_one)
    columns = _recording_kernel_columns(monkeypatch)
    H = HopfContext(MatrixAlgebra(2))
    point = Point.diagonal([2, 3])
    for which in ("beta", "alpha"):
        cm = CoorbitMap(H, point, which)
        for d in range(1, 4):
            kernel = cm.kernel_basis(d)
            assert not cm.ideal_inside_kernel(d), (which, d)
            assert cm.image_weights(d) is None
            assert columns[-1] == list(kernel.keys)
            full = _full_kernel(cm, d)
            assert (kernel.rows, kernel.pivots) == (full.rows, full.pivots)
    code = main(["kernel", "--point",
                 '{"entries": [["2", "0"], ["0", "3"]]}', "--degree", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["all_pass"] is False
    cm = CoorbitMap(H, point)
    for row in report["degrees"]:
        full = _full_kernel(cm, row["degree"])
        assert row["ideal_inside_kernel"] is False
        assert row["kernel_basis"] == [str(MqElement(H.alg, r))
                                       for r in full.rows]


# Poly.gcd calls made by kernel_basis(2) at diag(2, 3, 5) from a fresh
# context, ideal truncation included, as counted when the kernel came to be
# taken modulo that ideal (326 when every column was eliminated; taking the
# first row with the pivot column, before the pivot rule, made 1,552).
KERNEL_GCD_CEILING = 125


def test_kernel_gcd_calls_stay_under_ceiling(monkeypatch):
    """A timing-free guard on the elimination's pivot rule: the kernel at a
    generic size-3 point needs no more polynomial gcds than the ceiling."""
    calls = []
    gcd = Poly.gcd

    def counting(a, b):
        calls.append(None)
        return gcd(a, b)

    monkeypatch.setattr(Poly, "gcd", staticmethod(counting))
    cm = CoorbitMap(HopfContext(MatrixAlgebra(3)), Point.diagonal([2, 3, 5]))
    assert cm.kernel_basis(2).dim == _complete_intersection_dim(3, 2)
    assert 0 < len(calls) <= KERNEL_GCD_CEILING


# MatrixAlgebra._mul_mono_letter calls made by the beta images of every
# monomial of degree <= 2 at diag(2, 3, 5) from a fresh context, as counted
# when each image became one letter-step from a shorter one; the two-fold
# coproduct fold conjugated by the antipode made 10,195.
LETTER_CALL_CEILING = 6055


def test_image_letter_calls_stay_under_ceiling(monkeypatch):
    """A timing-free guard on the co-orbit images: building those of
    degree <= 2 at a generic size-3 point straightens no more letters than
    the ceiling."""
    cm = CoorbitMap(HopfContext(MatrixAlgebra(3)), Point.diagonal([2, 3, 5]))
    calls = []
    real = MatrixAlgebra._mul_mono_letter

    def counting(alg, m, k):
        calls.append(None)
        return real(alg, m, k)

    monkeypatch.setattr(MatrixAlgebra, "_mul_mono_letter", counting)
    cm._lifted_images(2, cm.hopf.alg.monomial_basis(2))
    assert 0 < len(calls) <= LETTER_CALL_CEILING


@pytest.mark.parametrize("command", ["kernel", "image"])
@pytest.mark.parametrize("which", ["beta", "alpha"])
def test_truncations_skip_the_coproduct_fold(monkeypatch, capsys, command,
                                              which):
    """kernel and image form no coproduct, one- or two-fold, and conjugate
    nothing by the antipode: their images are built one letter at a time."""
    def refuse(*args):
        raise AssertionError("the co-orbit path folded or conjugated")

    for name in ("_delta_mono", "_delta2_mono", "_conjugate",
                 "_antipode_mono"):
        monkeypatch.setattr(HopfContext, name, refuse)
    point = ('{"entries": [["2", "0", "0"], ["0", "3", "0"], '
             '["0", "0", "5"]]}')
    assert main([command, "--point", point, "--degree", "2",
                 "--coaction", which]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True


@pytest.mark.parametrize("which", ["beta", "alpha"])
def test_deep_monomial_image_is_one_call(monkeypatch, which):
    """The image of x21^100 is built by a loop, not by recursion: it raises
    no RecursionError, takes seconds at most, and of_monomial is entered
    once."""
    H = HopfContext(MatrixAlgebra(2))
    cm = CoorbitMap(H, Point.diagonal([2, 3]), which)
    calls = []
    real = CoorbitMap.of_monomial

    def counting(self, m):
        calls.append(m)
        return real(self, m)

    monkeypatch.setattr(CoorbitMap, "of_monomial", counting)
    started = time.monotonic()
    num = cm.of_monomial(Monomial(2, (0, 0, 100, 0)))
    assert time.monotonic() - started < 5
    assert num and len(calls) == 1
    # the closed form at degree 1 and 2 still holds on the cached images
    assert all(cm.power_check(k) for k in (1, 2))


def test_nilpotent_point_dimensions(nilpotent):
    expected = {1: (1, 1, 4), 2: (6, 6, 9), 3: (19, 19, 16)}
    for d, (k, i, im) in expected.items():
        assert nilpotent.kernel_basis(d).dim == k
        assert nilpotent.ideal_truncation(d).dim == i
        assert nilpotent.image_data(d).dim == im


def test_resonant_point_kernel_grows(resonant):
    ker1, ideal1 = resonant.kernel_basis(1), resonant.ideal_truncation(1)
    assert ker1.dim == ideal1.dim == 1
    ker2, ideal2 = resonant.kernel_basis(2), resonant.ideal_truncation(2)
    assert ideal2.dim == 6
    assert ker2.dim == 11
    assert ideal2.is_subspace_of(ker2)
    assert not ker2.is_subspace_of(ideal2)
    # x21^2 itself is in the kernel but not in the ideal truncation
    A = resonant.hopf.alg
    key = Monomial(2, (0, 0, 2, 0))
    x21_sq = TruncatedSubspace(ker2.keys, [{key: A.one}])
    assert x21_sq.is_subspace_of(ker2)
    assert not x21_sq.is_subspace_of(ideal2)


def _torus_weights(image, d):
    """Torus weight of each image row: column degrees minus d at det^d;
    every row is pure in it."""
    out = []
    for row in image.rows:
        ws = {tuple(c - d for c in m.coldeg()) for m in row}
        assert len(ws) == 1, row
        out.append(ws.pop())
    return out


def test_resonant_image_stabilizes(resonant):
    img1 = resonant.image_data(1)
    img2 = resonant.image_data(2)
    assert img1.dim == img2.dim == 4
    assert sorted(_torus_weights(img1, 1)) == sorted(_torus_weights(img2, 2)) \
        == [(-1, 1), (0, 0), (0, 0), (1, -1)]


def test_image_weights_generic(generic):
    img = generic.image_data(2)
    # multidegree reasons force one basis vector per torus weight here
    z = sorted(w[0] - w[1] for w in _torus_weights(img, 2))
    assert z == [-4, -2, -2, 0, 0, 0, 2, 2, 4]


def test_images_are_diag_coinvariant(H2, resonant, generic):
    A = H2.alg
    for cm in (resonant, generic):
        for m in A.monomial_basis(2):
            num = cm.of_monomial(m)
            g = H2.embed(H2.embed(MqElement(A, num), m.deg).numerator_at(2),
                         2)
            assert all(k.is_diag_coinvariant(g.detpow) for k in g.terms)


def test_diag_coinv_keys_counts():
    assert [len(diag_coinv_keys(2, d)) for d in range(4)] == [1, 4, 9, 16]
    assert len(diag_coinv_keys(3, 1)) == 27
    for m in diag_coinv_keys(2, 2):
        assert m.rowdeg() == (2, 2)


def test_image_lies_in_diag_coinv_truncation(generic):
    d = 2
    keys = diag_coinv_keys(2, d)
    lifted = generic._lifted_images(d, generic.hopf.alg.monomial_basis(d))
    keyset = set(keys)
    for num in lifted:
        assert set(num) <= keyset


# -- closed forms -----------------------------------------------------------------------


def test_power_checks(H2, generic, nilpotent):
    """The map fixes the closed form: c^n a^n for beta and a^n c^n for
    alpha at a diagonal point (the zero point included), c^(2n) for beta at
    the single (1,2) entry."""
    zero = Point([[0, 0], [0, 0]])
    maps = [generic, nilpotent, CoorbitMap(H2, generic.point, "alpha"),
            CoorbitMap(H2, zero), CoorbitMap(H2, zero, "alpha")]
    for cm in maps:
        for n in (0, 1, 2, 3):
            assert cm.power_check(n), (cm.which, cm.point, n)


def test_power_check_validation(H2, H3, nilpotent):
    """No closed form for alpha at the single (1,2) entry, nor at the
    single (2,1) entry for either side; power checks are for size 2 and
    nonnegative powers."""
    low = Point([[0, 0], [5, 0]])
    for cm in (CoorbitMap(H2, nilpotent.point, "alpha"), CoorbitMap(H2, low),
               CoorbitMap(H2, low, "alpha")):
        with pytest.raises(ValueError, match="no closed form"):
            cm.power_check(1)
    with pytest.raises(ValueError, match="size 2"):
        CoorbitMap(H3, Point.diagonal([2, 3, 5])).power_check(1)
    with pytest.raises(ValueError, match="negative"):
        nilpotent.power_check(-1)


def test_resonant_kills_second_power(resonant):
    assert not resonant.of_monomial(Monomial(2, (0, 0, 2, 0)))
    # but the first power survives
    assert resonant.of_monomial(Monomial(2, (0, 0, 1, 0)))


# -- sphere -------------------------------------------------------------------------------


def test_sphere_span_dimensions(H2):
    for r in (1, 2, 3):
        assert sphere_span(H2, r).dim == (r + 1) ** 2


def test_resonant_image_is_sphere_span(resonant, H2):
    # the degree-2 image truncation and the length-1 sphere span, both
    # lifted to det^2 and compared over one key list
    image = resonant._lifted_images(2, H2.alg.monomial_basis(2))
    sphere = sphere_span(H2, 1)
    spanners = [GlqElement(H2, row, 1).numerator_at(2).terms
                for row in sphere.rows]
    keys = sorted({m for num in image + spanners for m in num},
                  key=Monomial.sort_key)
    got = TruncatedSubspace(keys, image)
    assert got == TruncatedSubspace(keys, spanners)
    assert got.dim == 4


# -- subspace plumbing -----------------------------------------------------------------


def test_truncated_subspace_plumbing(H2):
    A = H2.alg
    one = A.one
    keys = ("p", "r", "s")
    s = TruncatedSubspace(keys, [{"p": one, "r": one}, {"s": one}])
    assert s.dim == 2
    t = TruncatedSubspace(keys, [{"p": one + one, "r": one + one}])
    assert t.is_subspace_of(s)
    assert not s.is_subspace_of(t)
    with pytest.raises(ValueError):
        s.is_subspace_of(TruncatedSubspace(("a", "b"), []))
    with pytest.raises(ValueError):
        TruncatedSubspace(("a", "a"), [])


def test_row_weights_purity(H2):
    """character_of reads one torus weight per basis row and refuses a row
    that mixes weights: x11 x22 has weight (0, 0) over det, x11 x21 has
    (1, -1), and x12 x21 has (0, 0) again."""
    one = H2.alg.one
    x11x22, x11x21, x12x21 = (Monomial(2, e) for e in
                              ((1, 0, 0, 1), (1, 0, 1, 0), (0, 1, 1, 0)))
    keys = (x11x22, x11x21, x12x21)
    s = TruncatedSubspace(keys, [{x11x22: one, x11x21: one}])
    with pytest.raises(ValueError, match="mixes"):
        character_of(s, "t")
    t = TruncatedSubspace(keys, [{x11x22: one, x12x21: one}])
    assert character_of(t, "t") == Character("t", {(0, 0): 1})


diag_entries = st.integers(min_value=-3, max_value=3)


@settings(max_examples=8, deadline=None)
@given(diag_entries, diag_entries)
def test_ideal_always_inside_kernel(a, b):
    H = HopfContext(MatrixAlgebra(2))
    cm = CoorbitMap(H, Point.diagonal([a, b]))
    assert cm.ideal_truncation(2).is_subspace_of(cm.kernel_basis(2))
    assert cm.ideal_inside_kernel(2)
