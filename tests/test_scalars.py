import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qcoorbit
from qcoorbit.coorbit import Point
from qcoorbit.mq import MatrixAlgebra, _ElementParser
from qcoorbit.scalars import PoleError, Poly, Scalar, ScalarParser

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


def test_parse_gcd_bound():
    """A parse step whose reduction needs a gcd of two polynomials, neither a
    power of q, is refused over degree 100 or over degree x bits 40,000."""
    start = time.perf_counter()
    A = MatrixAlgebra(2)
    for parse, text in [
            (Scalar.parse, "((q+2)^200 + 1)/((q+3)^200 + 7)"),    # degree 200
            (Scalar.parse, "((q+2)/(q+3))^150"),                  # degree 150
            (Scalar.parse, "1/(q+2)^60 - 1/(q+3)^60"),            # degree 120
            (Scalar.parse, "((q+2^10)^100 + 1)/((q+3^6)^100 + 7)"),  # 1952 bits
            (A.parse, "x11*((q+2)^200 + 1)/((q+3)^200 + 7)"),
            (A.parse, "(x11*(q+2)^2/(q+3)^2)^60")]:
        with pytest.raises(ValueError, match="gcd"):
            parse(text)
    assert time.perf_counter() - start < 5
    assert Scalar.parse("((q+2)^100 + 1)/((q+3)^100 + 7)").den.degree == 100
    assert Scalar.parse("((q+2)/(q+3))^100").den == ((q + 3) ** 100).num
    # a power of q on one side needs no gcd
    assert Scalar.parse("(q+2)^300 / q^299").den.degree == 299
    assert Scalar.parse("(q+2)^-300").num.degree == 0


def test_parse_height_bound():
    """Integers over 10,000 bits are refused at once, by both parsers and by
    the CLI (exit 2).  Runs in a subprocess, so that a regression fails on
    the timeout instead of hanging."""
    big = "((2^1000)^1000)^1000"
    script = (
        "from fractions import Fraction\n"
        "from qcoorbit.mq import MatrixAlgebra\n"
        "from qcoorbit.scalars import Scalar\n"
        "for parse in (Scalar.parse, MatrixAlgebra(2).parse,\n"
        "              MatrixAlgebra(2, Fraction(5, 2)).parse):\n"
        f"    for text in ({big!r}, '9' * 4000):\n"
        "        try:\n"
        "            parse(text)\n"
        "        except ValueError as e:\n"
        "            assert 'bits' in str(e), e\n"
        "        else:\n"
        "            raise AssertionError(text)\n"
    )
    src = Path(qcoorbit.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", script], env=env, check=True,
                   timeout=60)
    point = '{"entries": [["%s", "0"], ["0", "1"]]}' % big
    for argv in (["eval", big, "--point", point.replace(big, "2")],
                 ["kernel", "--point", point, "--degree", "1"]):
        done = subprocess.run([sys.executable, "-m", "qcoorbit", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 2 and "bits" in done.stderr


def test_parse_gcd_total_bound():
    """The gcd sizes of one parse add up to at most MAX_PARSE_GCD_TOTAL, so an
    input that repeats an admitted step is refused.  Five copies of a step
    that takes about a second exit 2 in under 2 s, through eval and through a
    point entry; the CLI runs in a subprocess, so that a regression fails on
    the timeout instead of hanging."""
    assert ScalarParser("((q+2)/(q+3))^100").parse() is not None
    twice = "((q+2)/(q+3))^100 + ((q+2)/(q+3))^100"
    for parse in (Scalar.parse, MatrixAlgebra(2).parse):
        with pytest.raises(ValueError, match="total"):
            parse(twice)
    five = "+".join(["((2*q+3)^90+1)/((3*q+2)^90+5)*0"] * 5)
    assert len(five) == 159
    point = '{"entries": [["%s", "0"], ["0", "1"]]}'
    script = ("import sys, time\n"
              "from qcoorbit.cli import main\n"
              "start = time.perf_counter()\n"
              "code = main(sys.argv[1:])\n"
              "print(time.perf_counter() - start)\n"
              "raise SystemExit(code)\n")
    src = Path(qcoorbit.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv in (["eval", five, "--point", point % 2],
                 ["kernel", "--point", point % five, "--degree", "1"]):
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2 and "total" in done.stderr
        assert float(done.stdout) < 2


def test_zero_factor_costs_no_gcd():
    """A product with a zero factor is 0 and needs no gcd: both parsers
    charge the same for it, nothing beyond its nonzero side."""
    def cost(parser):
        assert not parser.parse()
        return parser.gcd_total

    A = MatrixAlgebra(2)
    for text in ("((q+2)/(q+3))^10*0", "0*((q+2)/(q+3))^10", "(q+2)/(q+3)*0"):
        assert cost(ScalarParser(text)) == cost(_ElementParser(A, text))
    power = ScalarParser("((q+2)/(q+3))^10")
    power.parse()
    assert cost(ScalarParser("0*((q+2)/(q+3))^10")) == power.gcd_total

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


def fraction_long_division(a: Poly, b: Poly):
    """Quotient and remainder of a / b in Q[q], on Fraction coefficients."""
    rem = [a.coefficient(k) for k in range(a.degree + 1)]
    bc = [b.coefficient(k) for k in range(b.degree + 1)]
    quo = [Fraction(0)] * max(len(rem) - len(bc) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = rem[k + len(bc) - 1] / bc[-1]
        for j, bj in enumerate(bc):
            rem[k + j] -= c * bj
    return quo, rem


def as_poly(fractions):
    den = math.lcm(*(c.denominator for c in fractions))
    return Poly([int(c * den) for c in fractions], den)


def seeded_poly(rng, degree, den_choices=(1,)):
    coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice(
        (-7, -3, -2, -1, 1, 2, 5))]
    return Poly(coeffs, rng.choice(den_choices))


def test_exact_div_on_products():
    """(A * B).exact_div(B) == A over seeded pairs, and the Fraction long
    division agrees."""
    rng = random.Random(20)
    cases = []
    for _ in range(40):
        a = seeded_poly(rng, rng.randint(0, 6), (1, 2, 3, 12, 35))
        b = seeded_poly(rng, rng.randint(0, 4), (1, 4, 9, 10))
        cases.append((a, b))
    cases += [
        (Poly((1, 2, 3), 5), Poly((4, -6, 2))),        # non-primitive B
        (Poly((0, -1, 0, 7), 3), Poly((6, 0, -4), 9)),  # content with den
        (Poly((5, 1)), Poly((3, 1, -2))),              # negative leading B
        (Poly((2, 0, 1), 7), Poly((-6,), 5)),          # constant B
        (Poly(()), Poly((1, 1), 3)),                   # A = 0
        (Poly(()), Poly((-4,))),
    ]
    assert any(b.leading < 0 for _, b in cases)
    assert any(b.degree == 0 for _, b in cases)
    for a, b in cases:
        assert (a * b).exact_div(b) == a
        quo, rem = fraction_long_division(a * b, b)
        assert not any(rem) and as_poly(quo) == a


def test_exact_div_inexact_raises():
    rng = random.Random(21)
    cases = [(Poly((1, 1)), Poly((0, 1))),
             (Poly((1,)), Poly((1, 1))),               # deg a < deg b
             (Poly((3, 2, 1), 2), Poly((1, 2), 3)),
             (Poly((1, 0, 1)), Poly((2, 0, 2)))]       # exact: B = 2A
    for _ in range(40):
        a = seeded_poly(rng, rng.randint(0, 6), (1, 2, 5))
        b = seeded_poly(rng, rng.randint(1, 4), (1, 3))
        cases.append((a * b + seeded_poly(rng, 0), b))
    inexact = 0
    for a, b in cases:
        quo, rem = fraction_long_division(a, b)
        if any(rem):
            inexact += 1
            with pytest.raises(ValueError):
                a.exact_div(b)
        else:
            assert a.exact_div(b) == as_poly(quo)
    assert inexact >= 40


# -- property tests ----------------------------------------------------------

_ints = st.integers(min_value=-4, max_value=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-60, max_value=60), max_size=6),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=-60, max_value=60).filter(bool))
def test_poly_stored_form(coeffs, zeros, den):
    """Poly stores integer coefficients over a positive denominator with no
    common integer factor over 1, trailing zeros stripped; zero stores
    denominator 1."""
    coeffs = coeffs + [0] * zeros
    p = Poly(coeffs, den)
    assert p.den > 0 and (not p.coeffs or p.coeffs[-1])
    padded = p.coeffs + (0,) * (len(coeffs) - len(p.coeffs))
    assert [Fraction(c, p.den) for c in padded] == \
        [Fraction(c, den) for c in coeffs]
    assert not any(p.den % k == 0 and all(c % k == 0 for c in p.coeffs)
                   for k in range(2, p.den + 1))
    if not any(coeffs):
        assert p.den == 1


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


# -- the q-power fast path ----------------------------------------------------
#
# Sums and products of two Scalars whose denominators are powers of q skip
# the general reduction.  Each result must be the one the reduction gives
# for the unreduced fraction: Scalar(num, den) always reduces.

def _form(s):
    return s.num, s.den, s.qk, str(s)


def _poly_power(p, k):
    out = Poly((1,))
    for _ in range(k):
        out = out * p
    return out


@st.composite
def laurents(draw):
    """c(q)/(m q^k) for an integer polynomial c, an integer m and k <= 4."""
    num = draw(st.lists(_ints, max_size=4))
    den = draw(st.sampled_from([1, 1, 2, 3, -6]))
    k = draw(st.integers(min_value=0, max_value=4))
    return Scalar(Poly(num, den), Poly((0,) * k + (1,)))


_rationals = st.one_of(_ints, st.fractions(min_value=-3, max_value=3,
                                           max_denominator=6))


@st.composite
def laurent_pairs(draw):
    """Two operands, one of them possibly an int or a Fraction; the second
    may cancel the first wholly or in its low coefficients."""
    a = draw(laurents())
    how = draw(st.sampled_from(["free", "rational", "negated", "low"]))
    if how == "free":
        b = draw(laurents())
    elif how == "rational":
        b = draw(_rationals)
    elif how == "negated":
        b = -a
    else:
        coeffs = list(a.num.coeffs)
        cut = draw(st.integers(min_value=0, max_value=len(coeffs)))
        high = draw(st.lists(_ints, max_size=3))
        low = [-c for c in coeffs[:cut]]
        b = Scalar(Poly(low + high[len(low):], a.num.den), a.den)
    return (a, b) if draw(st.booleans()) else (b, a)


def _parts(x):
    s = Scalar.of(x)
    return s.num, s.den


@settings(max_examples=300, deadline=None)
@given(laurent_pairs())
def test_q_power_fast_path_matches_reduction(pair):
    a, b = pair
    (an, ad), (bn, bd) = _parts(a), _parts(b)
    assert _form(a + b) == _form(Scalar(an * bd + bn * ad, ad * bd))
    assert _form(a - b) == _form(Scalar(an * bd + -(bn * ad), ad * bd))
    assert _form(a * b) == _form(Scalar(an * bn, ad * bd))


@settings(max_examples=100, deadline=None)
@given(laurents(), st.integers(min_value=-3, max_value=3))
def test_q_power_fast_path_powers(a, k):
    num, den = a.num, a.den
    if k < 0 and not num.is_monomial():
        k = -k   # negative powers of c*q^j/q^k only: the rest leave Z[q, 1/q]
    elif k < 0:
        num, den = den, num
    e = abs(k)
    assert _form(a ** k) == \
        _form(Scalar(_poly_power(num, e), _poly_power(den, e)))


def test_q_power_fast_path_cases():
    cases = [((q + 1) / q, 1 - 1 / q),               # constant terms cancel
             (q ** -2 * (q + 2), -(2 / q ** 2)),        # low terms cancel
             (Fraction(1, 2) / q, Fraction(-1, 2) / q),  # zero result
             (3 * q / 4, Fraction(1, 4)),               # rational content
             (2, q ** -1), (Fraction(2, 3), q ** -3 - q)]
    for a, b in cases:
        for x, y in ((a, b), (b, a)):
            (xn, xd), (yn, yd) = _parts(x), _parts(y)
            assert _form(x + y) == _form(Scalar(xn * yd + yn * xd, xd * yd))
            assert _form(x * y) == _form(Scalar(xn * yn, xd * yd))
    assert _form((q + 1) / q + (1 - 1 / q)) == _form(Scalar.of(2))
    assert _form(Fraction(1, 2) / q + Fraction(-1, 2) / q) == \
        _form(Scalar.of(0))
    assert str((3 * q + 1) / (2 * q ** 2) * (2 * q)) == "(3*q + 1)/q"


def test_constant_scalar_hashes_as_its_rational():
    for x in (1, 0, -7, Fraction(3, 2)):
        assert Scalar.of(x) == x and hash(Scalar.of(x)) == hash(x)
        assert len({Scalar.of(x), x}) == 1
    assert hash(q * q ** -1) == hash(1)
    plain = Point([[1, 0], [0, Fraction(3, 2)]])
    lifted = Point([[Scalar.of(1), 0], [0, Scalar.of(Fraction(3, 2))]])
    assert plain == lifted and hash(plain) == hash(lifted)
