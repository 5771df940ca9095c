import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcoorbit.scalars import PoleError, Poly, Scalar

q = Scalar.q()


def test_inverse_pair():
    assert q * (1 / q) == Scalar.of(1)


def test_polynomial_identity():
    assert (q - 1) * (q + 1) == q**2 - 1


def test_gcd_reduction_then_add():
    # (q^2-1)/(q-1) must reduce to q+1 (long division: q^2-1 = (q-1)(q+1)),
    # so adding 1 gives q+2.
    assert (q**2 - 1) / (q - 1) + Scalar.of(1) == q + 2


def test_division_by_zero_is_distinct_error():
    with pytest.raises(ZeroDivisionError):
        q / Scalar.of(0)


def test_specialize_square():
    assert (q**2).specialize(Fraction(1)) == 1


def test_specialize_after_reduction():
    assert ((q**2 - 1) / (q - 1)).specialize(1) == 2


def test_specialize_pole():
    with pytest.raises(PoleError):
        (1 / (q - 1)).specialize(1)


def test_canonical_form_monic_denominator():
    s = q / (2 * q + 2)
    assert s.den.is_monic()
    assert s == Scalar.parse("q/(2*q+2)")
    # syntactic equality on the canonical form
    assert s == (3 * q) / (6 * q + 6)
    assert hash(s) == hash((3 * q) / (6 * q + 6))


def test_parse_render_roundtrip_examples():
    for text in ["q", "0", "-q^2", "(q^2-1)/(q+1)", "1/q^3", "3/2*q - 1",
                 "q^2 - 2*q + 1", "(q^4 - 2*q^2 + 1)/q^2"]:
        s = Scalar.parse(text)
        assert Scalar.parse(str(s)) == s


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Scalar.parse("q +* 2")
    with pytest.raises(ValueError):
        Scalar.parse("x11")


def test_parse_degree_bound():
    start = time.perf_counter()
    for text in ["(q^100000+1)/(q+1)",      # exponent over the bound
                 "q^600 * q^600",           # product of degree 1200
                 "q^1001 / q",              # power of degree 1001
                 "1/q^600 + 1/(q+1)^600",   # common denominator of degree 1200
                 "(q^2 + 1)^501",           # power of degree 1002
                 "2^1001"]:                 # exponent over the bound
        with pytest.raises(ValueError, match="bound|over"):
            Scalar.parse(text)
    assert time.perf_counter() - start < 5
    assert Scalar.parse("q^1000").num.degree == 1000
    assert Scalar.parse("q^600 + q^600") == 2 * q**600   # no cross-multiplying
    assert Scalar.parse("(q^2 + 1)^500 / q^500").den.degree == 500


def test_negative_powers():
    assert q**-2 == 1 / q**2
    assert (q - q**-1) * q == q**2 - 1


def test_poly_gcd_and_exact_div():
    a = Poly((1, 0, -2, 0, 1))        # q^4 - 2q^2 + 1
    b = Poly((-1, 0, 1))              # q^2 - 1
    g = Poly.gcd(a, b)
    assert g == Poly((-1, 0, 1))      # monic q^2 - 1
    assert a.exact_div(g) == Poly((-1, 0, 1))
    with pytest.raises(ValueError):
        Poly((1, 1)).exact_div(Poly((0, 1)))


# -- property tests ----------------------------------------------------------

_ints = st.integers(min_value=-4, max_value=4)


@st.composite
def scalars(draw, nonzero=False):
    num = draw(st.lists(_ints, min_size=1, max_size=4))
    den = draw(st.lists(_ints, min_size=1, max_size=3))
    dp = Poly(den)
    if dp.is_zero():
        dp = Poly((1, 1))
    s = Scalar(Poly(num), dp)
    if nonzero and s.is_zero():
        s = s + 1
    return s


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(scalars(nonzero=True))
def test_multiplicative_inverse(a):
    assert a * (1 / a) == Scalar.of(1)


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars())
def test_specialize_is_ring_homomorphism(a, b):
    q0 = Fraction(3, 2)  # pole-free for these small denominators? check first
    try:
        sa, sb = a.specialize(q0), b.specialize(q0)
        sab = (a * b).specialize(q0)
        ssum = (a + b).specialize(q0)
    except PoleError:
        return
    assert sab == sa * sb
    assert ssum == sa + sb
