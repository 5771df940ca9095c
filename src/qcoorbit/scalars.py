"""Exact arithmetic in the rational function field Q(q).

:class:`Scalar` is an element of Q(q): a reduced fraction ``num/den`` of
polynomials in q, with ``den`` monic and gcd(num, den) = 1, so equality is
syntactic equality.  Rational numbers are the stdlib's
:class:`fractions.Fraction`.

Most scalars the engine builds lie in Z[q, 1/q] or Q[q, 1/q]: straightening
rules, minors, antipode cofactors and the ``tau`` weights all do.  Their
reduced denominator is a power q^k, and each Scalar records that k (or -1
for any other denominator).  A sum or product of two such scalars takes a
fast path: one polynomial sum or product of the numerators over q^k, then a
scan that strips the common power of q.  Nothing else can cancel, so the
result is already reduced and the gcd-based reduction is skipped.  The
stored form is the same either way.  In the benchmark's workloads every sum
and product of ``verify-coinvariants`` takes the fast path, and over 97 % of
those of the symbolic kernel and image commands do.  A product with the
shared unit ``q**0`` as a factor returns the other factor itself; the
straightening rules carry that one object, so their many products by 1 cost
an identity test.  Other fractions skip the gcd where only powers of q can
cancel: in a sum with a Laurent scalar, a product with c*q^k, a square and
a power.

A gcd is the one step whose cost the input's size does not bound.  So each
parse, and each CLI command from reading its input to its report, runs
under one :func:`gcd_budget`: each remainder step of a gcd is charged as it
runs, and input whose gcds would cost over MAX_PARSE_GCD_WORK is refused
with a ValueError.  A library parse closes its budget when it returns.

Scalars are immutable and hashable.  The whole engine is generic over the
coefficient type: run it with Scalars for symbolic q, or with plain Fractions
after specializing q to a rational number (see :meth:`Scalar.specialize`).
:class:`Fp` is the third type: the prime field F_p, p = 2^61 - 1, into
which :meth:`Fp.of` reduces a scalar at the fixed q = FP_Q0.  The co-orbit
maps use it to certify ranks, over an algebra whose q is FP_Q0 or, at a
regular point with rational entries, 1 (see ``CoorbitMap.kernel_basis``);
it needs no gcd and is not metered.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from fractions import Fraction


class PoleError(ArithmeticError):
    """Raised when a Scalar is specialized at a zero of its denominator."""


class Frozen:
    """Base of the immutable value types: ``__init__`` sets every slot with
    ``object.__setattr__``, and later assignment raises."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient tuples, ascending powers of q)
# ---------------------------------------------------------------------------

def _strip(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _convolve(a, b):
    """Product of nonempty integer coefficient tuples, as a list."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _valuation(coeffs, stop):
    """Number of leading zero coefficients, counted up to ``stop``."""
    v = 0
    while v < stop and v < len(coeffs) and coeffs[v] == 0:
        v += 1
    return v


def _int_primitive(coeffs):
    """Strip integer content and make the leading coefficient positive."""
    g = math.gcd(*coeffs) or 1
    if coeffs and coeffs[-1] < 0:
        g = -g
    return tuple(c // g for c in coeffs)


def _int_pseudo_rem(a, b):
    """Pseudo-remainder of integer coefficient tuples (deg a >= deg b)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        a = _strip(a)
        if not a or len(a) - 1 < db:
            break
        la, da = a[-1], len(a) - 1
        shift = da - db
        a = [c * lb for c in a]
        for k in range(db + 1):
            a[shift + k] -= la * b[k]
        a = list(_strip(a))
    return _strip(a)


# Gcd work spent under the open gcd_budget, or None when none is open.
_gcd_work = None
MAX_PARSE_GCD_WORK = 1_500_000_000


def _int_gcd_poly(a, b):
    """Primitive gcd of integer coefficient tuples (leading coeff positive).

    Under an open gcd_budget each pseudo-remainder step is charged before it
    runs: len(a) products per degree that a sheds, each costing (h/8)^2 for
    h = a's height in bits plus a word.  That is about 10^9 units a second."""
    global _gcd_work
    a, b = _int_primitive(a), _int_primitive(b)
    while b:
        if _gcd_work is not None:
            h = max(max(a), -min(a)).bit_length() + 64
            _gcd_work += max(len(a) - len(b) + 1, 0) * len(a) * h * h // 64
            if _gcd_work > MAX_PARSE_GCD_WORK:
                raise ValueError(f"input needing gcd work over the bound "
                                 f"{MAX_PARSE_GCD_WORK}")
        a, b = b, _int_primitive(_int_pseudo_rem(a, b))
    return a


@contextmanager
def gcd_budget():
    """Meter every gcd of the block against MAX_PARSE_GCD_WORK; a nested
    budget shares the outer one."""
    global _gcd_work
    outer = _gcd_work
    _gcd_work = outer or 0
    try:
        yield
    finally:
        if outer is None:
            _gcd_work = None


class Poly(Frozen):
    """Polynomial in q with rational coefficients.

    Stored as an integer coefficient tuple (ascending powers) over a shared
    positive integer denominator, with gcd(coefficients, denominator) = 1.
    """

    __slots__ = ("coeffs", "den")

    def __init__(self, coeffs, den=1):
        if den == 0:
            raise ZeroDivisionError("polynomial with zero denominator")
        if den < 0:
            coeffs, den = [-c for c in coeffs], -den
        coeffs = _strip(coeffs)
        if den > 1:
            g = math.gcd(den, *coeffs)  # den itself for zero, which stores 1
            if g > 1:
                coeffs = tuple(c // g for c in coeffs)
                den //= g
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_rational(cls, x) -> "Poly":
        x = Fraction(x)
        return cls((x.numerator,), x.denominator)

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        return Fraction(self.coeffs[-1], self.den)

    def is_one(self) -> bool:
        return self.coeffs == (1,) and self.den == 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.den

    def is_monomial(self) -> bool:
        return bool(self.coeffs) and not any(self.coeffs[:-1])

    def valuation(self) -> int:
        """Largest k with q^k dividing the polynomial (0 for the constant 1)."""
        return _valuation(self.coeffs, len(self.coeffs))

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return Fraction(self.coeffs[k], self.den)
        return Fraction(0)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(*_shifted_sum(self, other, 0))

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs], self.den)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.coeffs or not other.coeffs:
            return _P_ZERO
        return Poly(_convolve(self.coeffs, other.coeffs), self.den * other.den)

    def scale(self, x: Fraction) -> "Poly":
        x = Fraction(x)
        return Poly([c * x.numerator for c in self.coeffs], self.den * x.denominator)

    def evaluate(self, q0) -> Fraction:
        q0 = Fraction(q0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc / self.den

    # -- gcd / exact division -------------------------------------------------

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        """Monic gcd in Q[q] of two polynomials with at least two terms each.

        Neither operand may be zero or of the form c*q^k: ``Scalar._reduce``,
        the only caller, settles those cases before it asks.
        """
        va, vb = a.valuation(), b.valuation()
        v = min(va, vb)
        core = _int_gcd_poly(a.coeffs[va:], b.coeffs[vb:])
        if len(core) <= 1:
            return Poly((0,) * v + (1,))
        return Poly((0,) * v + core, core[-1])

    def exact_div(self, g: "Poly") -> "Poly":
        """Exact quotient self / g; raises if the division leaves a remainder.

        Divides the integer numerators by g's primitive part, in Z[q]: by
        Gauss's lemma a quotient in Q[q] then lies in Z[q], so every step is
        an exact integer division, and one that is not proves a remainder.
        The two denominators and g's content rescale the result.
        """
        if g.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        content = math.gcd(*g.coeffs)
        gp = [c // content for c in g.coeffs]
        top, lg = len(gp) - 1, gp[-1]
        quo = [0] * max(len(rem) - top, 0)
        for k in range(len(quo) - 1, -1, -1):
            c, r = divmod(rem[k + top], lg)
            if r:
                raise ValueError("not an exact polynomial division")
            quo[k] = c
            if c:
                for j, gj in enumerate(gp):
                    rem[k + j] -= c * gj
        if any(rem):
            raise ValueError("not an exact polynomial division")
        return Poly([c * g.den for c in quo], self.den * content)

    # -- plumbing -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.coeffs == other.coeffs
                and self.den == other.den)

    def __hash__(self):
        return hash((self.coeffs, self.den))

    def __repr__(self):
        return f"Poly({self.coeffs!r}, {self.den!r})"

    def __str__(self):
        return _poly_str(self)


_P_ZERO = Poly(())
_P_ONE = Poly((1,))
_P_Q = Poly((0, 1))


def _shifted_sum(a: Poly, b: Poly, shift: int):
    """Integer coefficient list and denominator of a + q^shift * b."""
    d1, d2 = a.den, b.den
    if d1 == d2:
        out, m2 = list(a.coeffs), 1
    else:
        d1 = math.lcm(d1, d2)
        m1, m2 = d1 // a.den, d1 // d2
        out = [c * m1 for c in a.coeffs]
    n = shift + len(b.coeffs)
    if len(out) < n:
        out += [0] * (n - len(out))
    for j, c in enumerate(b.coeffs, shift):
        out[j] += c * m2
    return out, d1


# _Q_POWERS[k] is the denominator q^k, shared by every Scalar that has it.
# Only the powers that some Scalar has are stored, so one q^k costs O(k),
# as much as the Scalar itself, and not the O(k^2) of every power below it.
_Q_POWERS = {0: _P_ONE}


def _q_power(k: int) -> Poly:
    p = _Q_POWERS.get(k)
    if p is None:
        p = _Q_POWERS[k] = Poly((0,) * k + (1,))
    return p


def _strip_q(num: Poly, den: Poly):
    """num and den divided by the largest power of q that divides both."""
    v = min(num.valuation(), den.valuation())
    if v:
        num, den = Poly(num.coeffs[v:], num.den), Poly(den.coeffs[v:], den.den)
    return num, den


def _poly_str(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coefficient(k)
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if k == 0:
            body = str(c)
        else:
            var = "q" if k == 1 else f"q^{k}"
            body = var if c == 1 else f"{c}*{var}"
        parts.append((sign, body))
    sign0, body0 = parts[0]
    text = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


class Scalar(Frozen):
    """An element of the field Q(q), kept in reduced canonical form.

    ``num/den`` with monic ``den`` and gcd(num, den) = 1, so ``==`` is plain
    syntactic equality.  ``qk`` is k when ``den`` is q^k and -1 otherwise.
    Construct with :meth:`of`, :meth:`q`, or :meth:`parse`; arithmetic is by
    the usual operators, with ints and Fractions coerced.

    >>> q = Scalar.q()
    >>> str((q**2 - 1) / (q - 1))
    'q + 1'
    >>> q * q**-1 == 1
    True
    """

    __slots__ = ("num", "den", "qk")

    def __init__(self, num: Poly, den: Poly = _P_ONE):
        if den.is_zero():
            raise ZeroDivisionError("scalar with zero denominator")
        num, den = self._reduce(num, den)
        k = den.degree if den.is_monomial() else -1   # den is monic
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", _Q_POWERS.get(k, den))
        object.__setattr__(self, "qk", k)

    @staticmethod
    def _reduce(num: Poly, den: Poly):
        if num.is_zero():
            return _P_ZERO, _P_ONE
        if not den.is_monic():
            lead = den.leading
            num, den = num.scale(1 / lead), den.scale(1 / lead)
        if den.is_one():
            return num, den
        if num.is_monomial() or den.is_monomial():
            # the only common factors are powers of q: strip the valuation
            return _strip_q(num, den)
        g = Poly.gcd(num, den)
        if g.degree > 0:
            num, den = num.exact_div(g), den.exact_div(g)
            if not den.is_monic():
                lead = den.leading
                num, den = num.scale(1 / lead), den.scale(1 / lead)
        return num, den

    # -- constructors ---------------------------------------------------------

    @classmethod
    def of(cls, x) -> "Scalar":
        """Coerce an int, Fraction, or Scalar to a Scalar."""
        if isinstance(x, Scalar):
            return x
        return _new(Poly.from_rational(x), _P_ONE, 0)

    @classmethod
    def q(cls) -> "Scalar":
        return _S_Q

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_monomial(self) -> bool:
        """True for c*q^k (c != 0, k any integer), the units of Q[q, 1/q]:
        dividing a Laurent scalar by one keeps it on the q-power fast path."""
        return self.qk >= 0 and self.num.is_monomial()

    def is_constant(self) -> bool:
        """True for a rational number, a scalar with no q in it."""
        return self.qk == 0 and self.num.degree <= 0

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.of(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        k1, k2 = self.qk, o.qk
        if k1 >= 0 and k2 >= 0:
            if k1 >= k2:
                return _laurent(*_shifted_sum(self.num, o.num, k1 - k2), k1)
            return _laurent(*_shifted_sum(o.num, self.num, k2 - k1), k2)
        if k1 >= 0 or k2 >= 0:
            # a/b + p/q^k with a, b coprime: (a*q^k + p*b)/(b*q^k) has no
            # common factor but powers of q, so no gcd is needed
            return _new(*_strip_q(self.num * o.den + o.num * self.den,
                                  self.den * o.den), -1)
        if self.den == o.den:
            return Scalar(self.num + o.num, self.den)
        return Scalar(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.num, self.den, self.qk)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o is _S_ONE:
            return self
        if self is _S_ONE:
            return o
        if self.qk >= 0 and o.qk >= 0:
            a, b = self.num, o.num
            if not a.coeffs or not b.coeffs:
                return _S_ZERO
            return _laurent(_convolve(a.coeffs, b.coeffs), a.den * b.den,
                            self.qk + o.qk)
        if o is self:   # the square of a reduced fraction is reduced
            return self ** 2
        if self.is_monomial() or o.is_monomial():
            # a reduced fraction times c*q^k: only powers of q can cancel
            return _new(*_strip_q(self.num * o.num, self.den * o.den), -1)
        return Scalar(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        """num^k / den^k, with no gcd: powers of coprime polynomials are
        coprime, and powers of a monic denominator are monic."""
        if k == 0:
            return _S_ONE
        num, den = self.num, self.den
        if k < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            num, den, k = den, num, -k
            if not den.is_monic():
                lead = den.leading
                num, den = num.scale(1 / lead), den.scale(1 / lead)
        a, b = num.coeffs, den.coeffs
        for bit in bin(k)[3:]:   # left to right: no square past the last bit
            a, b = _convolve(a, a), _convolve(b, b)
            if bit == "1":
                a, b = _convolve(a, num.coeffs), _convolve(b, den.coeffs)
        num, den = Poly(a, num.den ** k), Poly(b, den.den ** k)
        qk = den.degree if den.is_monomial() else -1
        return _new(num, _Q_POWERS.get(qk, den), qk)

    # -- specialization & rendering -------------------------------------------

    def specialize(self, q0) -> Fraction:
        """Evaluate at q = q0 (a rational); raises PoleError at a pole."""
        q0 = Fraction(q0)
        d = self.den.evaluate(q0)
        if d == 0:
            raise PoleError(f"pole at q = {q0}")
        return self.num.evaluate(q0) / d

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        if self.is_constant():
            return hash(self.num.coefficient(0))   # as the equal Fraction
        return hash((self.num, self.den))

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        num_s = _poly_str(self.num)
        if self.den.is_one():
            return num_s
        den_s = _poly_str(self.den)
        if _needs_parens(self.num):
            num_s = f"({num_s})"
        if _needs_parens(self.den):
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        """Parse the scalar grammar: q, integers, + - * / ^ and parentheses.

        >>> Scalar.parse("(q^2-1)/(q+1)") == Scalar.q() - 1
        True
        """
        return ScalarParser(text).parse()


def _needs_parens(p: Poly) -> bool:
    terms = sum(1 for c in p.coeffs if c)
    if terms > 1:
        return True
    return bool(p.coeffs) and p.coeffs[-1] < 0


def _new(num: Poly, den: Poly, k: int) -> Scalar:
    """A Scalar from a form already reduced, with its ``qk``."""
    s = object.__new__(Scalar)
    object.__setattr__(s, "num", num)
    object.__setattr__(s, "den", den)
    object.__setattr__(s, "qk", k)
    return s


def _laurent(coeffs, den: int, k: int) -> Scalar:
    """The Scalar (coeffs/den) / q^k, coeffs an integer list in ascending
    powers: the common power of q is stripped by a scan of the low
    coefficients, and nothing else needs reducing."""
    v = _valuation(coeffs, k)
    num = Poly(coeffs[v:] if v else coeffs, den)
    if not num.coeffs:
        return _S_ZERO
    return _new(num, _q_power(k - v), k - v)


_S_ONE = _new(_P_ONE, _P_ONE, 0)
_S_ZERO = _new(_P_ZERO, _P_ONE, 0)
_S_Q = _new(_P_Q, _P_ONE, 0)


# The prime of Fp (a Mersenne prime) and the value of q at which Fp.of
# reduces a scalar.  Both are fixed: a rank mod p never exceeds the rank
# over Q(q), at any q0.  A co-orbit map's twin takes q0 = 1 instead at a
# regular point with rational entries, where every scalar it meets is a
# Laurent polynomial in q (see CoorbitMap._twin_map).
FP_PRIME = 2 ** 61 - 1
FP_Q0 = 3_141_592_653_589_793


class Fp(Frozen):
    """An element of the prime field F_p, p = FP_PRIME, as an int in
    0..p-1; ints and Fractions are coerced in arithmetic.

    :meth:`of` reduces a rational function at q = FP_Q0 mod p.  On the
    scalars with no pole there that is a ring map onto F_p, so the engine
    run over ``MatrixAlgebra(n, Fp(FP_Q0))`` computes the reductions of the
    exact results, and a minor that is nonzero mod p is nonzero over Q(q).
    So does q -> 1 on Laurent polynomials, for the engine run over
    ``MatrixAlgebra(n, Fp(1))``; :meth:`of` reduces a rational number, a
    scalar with no q in it, to the same element at either q.
    """

    __slots__ = ("v",)

    def __init__(self, v: int):
        object.__setattr__(self, "v", v % FP_PRIME)

    @classmethod
    def of(cls, x) -> "Fp":
        """Reduce an int, Fraction, Scalar or Fp; raises PoleError where the
        denominator vanishes mod p at q = FP_Q0."""
        if isinstance(x, Fp):
            return x
        if isinstance(x, Scalar):
            top = _fp_value(x.num.coeffs) * x.den.den
            bottom = _fp_value(x.den.coeffs) * x.num.den
        else:
            x = Fraction(x)
            top, bottom = x.numerator, x.denominator
        if bottom % FP_PRIME == 0:
            raise PoleError(f"pole mod {FP_PRIME} at q = {FP_Q0}")
        return _fp(top * pow(bottom, -1, FP_PRIME) % FP_PRIME)

    @staticmethod
    def _coerce(other):
        if isinstance(other, Fp):
            return other
        if isinstance(other, (int, Fraction)):
            return Fp.of(other)
        return None

    def __bool__(self) -> bool:
        return self.v != 0

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _fp((self.v + o.v) % FP_PRIME)

    __radd__ = __add__

    def __neg__(self):
        return _fp(-self.v % FP_PRIME)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _fp((self.v - o.v) % FP_PRIME)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _fp(self.v * o.v % FP_PRIME)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.v:
            raise ZeroDivisionError("division by zero mod p")
        return _fp(self.v * pow(o.v, -1, FP_PRIME) % FP_PRIME)

    def __pow__(self, k: int):
        if k < 0 and not self.v:
            raise ZeroDivisionError("negative power of zero")
        return _fp(pow(self.v, k, FP_PRIME))

    def __eq__(self, other):
        return isinstance(other, Fp) and self.v == other.v

    def __hash__(self):
        return hash(self.v)

    def __repr__(self):
        return f"Fp({self.v})"


def _fp(v: int) -> Fp:
    """An Fp from an int already in 0..p-1."""
    s = object.__new__(Fp)
    object.__setattr__(s, "v", v)
    return s


def _fp_value(coeffs) -> int:
    """An integer polynomial at q = FP_Q0, mod p (Horner)."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * FP_Q0 + c) % FP_PRIME
    return acc


_TOKEN_RE = re.compile(r"\s*(\d+|q|\*|/|\+|-|\^|\(|\))")

# Parsed input builds no scalar with a numerator or denominator degree over
# this bound, no power with a larger exponent and no integer of more than
# MAX_PARSE_BITS bits.  Its gcds are metered where they run, by gcd_budget.
MAX_PARSE_DEGREE = 1000
MAX_PARSE_BITS = 10_000
# Parentheses nest at most this deep: each level costs the recursive descent
# four stack frames, and 200 levels would reach Python's default limit.
MAX_PARSE_NESTING = 199


def check_power(degree: int, k: int, bound: int = MAX_PARSE_DEGREE) -> None:
    """Refuse parsing base^k for a base of the given degree when the
    exponent is over MAX_PARSE_DEGREE or the power's degree over ``bound``."""
    if abs(k) > MAX_PARSE_DEGREE:
        raise ValueError(f"exponent {k} is over the parser's bound "
                         f"{MAX_PARSE_DEGREE}")
    if degree * abs(k) > bound:
        raise ValueError(f"power of degree {degree * abs(k)} is over the "
                         f"parser's bound {bound}")


def _bits(s: Scalar) -> int:
    """Bit length of the largest integer stored in a Scalar."""
    return max(abs(c).bit_length()
               for p in (s.num, s.den) for c in p.coeffs + (p.den,))


def _check_bits(bits: int) -> None:
    """Refuse a parsed result whose integers have the given bit length."""
    if bits > MAX_PARSE_BITS:
        raise ValueError(f"integers of about {bits} bits are over the "
                         f"parser's bound {MAX_PARSE_BITS}")


def parse_int(token: str) -> int:
    """An integer literal, refused over MAX_PARSE_BITS bits."""
    v = int(token)
    _check_bits(v.bit_length())
    return v


def check_scalar_power(v, k: int) -> None:
    """Refuse parsing v^k (v a Scalar or Fraction) over the degree or
    height bounds."""
    v = Scalar.of(v)
    check_power(max(v.num.degree, v.den.degree), k)
    terms = max(len(v.num.coeffs), len(v.den.coeffs))
    _check_bits(abs(k) * (_bits(v) + terms.bit_length()))


def check_scalar_op(a, op: str, b) -> None:
    """Refuse parsing ``a op b`` (op in + - * /, a and b Scalars or
    Fractions) when its unreduced result has a numerator or denominator
    degree over MAX_PARSE_DEGREE, or when a and b hold more than
    MAX_PARSE_BITS bits together."""
    a, b = Scalar.of(a), Scalar.of(b)
    an, ad, bn, bd = a.num, a.den, b.num, b.den
    if op == "/":
        bn, bd = bd, bn
    if op in "*/":
        degrees = (an.degree + bn.degree, ad.degree + bd.degree)
    elif ad == bd:
        degrees = (max(an.degree, bn.degree), ad.degree)
    else:
        degrees = (max(an.degree + bd.degree, bn.degree + ad.degree),
                   ad.degree + bd.degree)
    if max(degrees) > MAX_PARSE_DEGREE:
        raise ValueError(f"scalar input of degree over {MAX_PARSE_DEGREE}")
    _check_bits(_bits(a) + _bits(b))


class ScalarParser:
    """Recursive descent over the scalar grammar: sums of products of signed
    powers of atoms, with parentheses.

    Subclasses extend the grammar by overriding ``TOKEN_RE`` and ``WHAT``
    (the input's name in error messages) and the hooks ``_check(v, op, w)``,
    run before each binary operation, ``_divide``, ``_power`` and ``_leaf``,
    which reads an atom other than a parenthesis.
    """

    TOKEN_RE = _TOKEN_RE
    WHAT = "scalar"

    def __init__(self, text: str):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = self.TOKEN_RE.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ValueError(f"bad {self.WHAT} syntax at {text[pos:]!r}")
                break
            self.tokens.append(m.group(1))
            pos = m.end()
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def parse(self):
        """The value of the input, reduced under one :func:`gcd_budget`."""
        with gcd_budget():
            v = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing {self.WHAT} input at {self.peek()!r}")
        return v

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            w = self.term()
            self._check(v, op, w)
            v = v + w if op == "+" else v - w
        return v

    def term(self):
        v = self.unary()
        while self.peek() in ("*", "/"):
            op = self.next()
            w = self.unary()
            self._check(v, op, w)
            v = v * w if op == "*" else self._divide(v, w)
        return v

    def unary(self):
        """A signed power: leading minus signs (read in a loop, not by
        recursion), then an atom with an optional integer exponent."""
        negate = False
        while self.peek() == "-":
            self.next()
            negate = not negate
        v = self.atom()
        if self.peek() == "^":
            self.next()
            sign = 1
            if self.peek() == "-":
                self.next()
                sign = -1
            t = self.next()
            if t is None or not t.isdigit():
                raise ValueError("expected integer exponent after ^")
            v = self._power(v, sign * int(t))
        return -v if negate else v

    def atom(self):
        t = self.next()
        if t is None:
            raise ValueError(f"unexpected end of {self.WHAT} input")
        if t == "(":
            if self.depth == MAX_PARSE_NESTING:
                raise ValueError(f"{self.WHAT} input is nested too deeply: "
                                 f"over {MAX_PARSE_NESTING} parentheses")
            self.depth += 1
            v = self.expr()
            self.depth -= 1
            if self.next() != ")":
                raise ValueError(f"unbalanced parenthesis in {self.WHAT} input")
            return v
        return self._leaf(t)

    # -- the scalar grammar's hooks ---------------------------------------------

    _check = staticmethod(check_scalar_op)

    def _divide(self, v: Scalar, w: Scalar) -> Scalar:
        return v / w

    def _power(self, v: Scalar, k: int) -> Scalar:
        check_scalar_power(v, k)
        return v ** k

    def _leaf(self, t: str):
        if t == "q":
            return _S_Q
        if t.isdigit():
            return Scalar.of(parse_int(t))
        raise ValueError(f"unexpected token {t!r} in {self.WHAT} input")
