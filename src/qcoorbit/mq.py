"""The algebra of N x N quantum matrices.

Generators x_ij (1-based row/column), subject to the four q-relation
families; elements are kept in PBW normal form with respect to the row-major
generator order x11 < x12 < ... < xNN.  The four relations, read as rewrite
rules moving smaller generators left, strictly reduce the inversion count,
so rewriting terminates and the ordered monomials form a basis.

A :class:`MatrixAlgebra` is a context object: it fixes the size N and the
coefficient q (a symbolic Scalar by default, or a Fraction to run the whole
engine with q specialized *before* any computation), and memoizes the
straightening tables and the quantum minors so repeated products are cheap.
Most rules carry the unit object ``one`` as coefficient; straightening, and
:meth:`MatrixAlgebra._product`, the one product of two straightened sums,
skip products by it.  At q = +-1 no rule has a second term, and at q = 1
every rule carries ``one``, so there a product of two monomials is the one
monomial of the summed exponents, with coefficient ``one``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations, product

from .scalars import (Frozen, Scalar, ScalarParser, check_power,
                      check_scalar_op, check_scalar_power, parse_int)

# MatrixAlgebra.parse refuses products and powers of higher total degree;
# the coefficients it combines obey the bounds of Scalar.parse
MAX_ELEMENT_DEGREE = 100


class Monomial(Frozen):
    """An ordered monomial: exponent vector over the row-major generators."""

    __slots__ = ("n", "exps", "deg", "_hash")

    def __init__(self, n: int, exps):
        exps = tuple(exps)
        if len(exps) != n * n:
            raise ValueError("exponent vector has wrong length")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "deg", sum(exps))
        object.__setattr__(self, "_hash", hash((n, exps)))

    @classmethod
    def one(cls, n: int) -> "Monomial":
        return cls(n, (0,) * (n * n))

    @classmethod
    def generator(cls, n: int, i: int, j: int) -> "Monomial":
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"generator x{i}{j} out of range for size {n}")
        e = [0] * (n * n)
        e[(i - 1) * n + (j - 1)] = 1
        return cls(n, e)

    # -- structure -----------------------------------------------------------

    def rowdeg(self):
        n = self.n
        return tuple(sum(self.exps[r * n:(r + 1) * n]) for r in range(n))

    def coldeg(self):
        n = self.n
        return tuple(sum(self.exps[c::n]) for c in range(n))

    def is_diag_coinvariant(self, p: int) -> bool:
        """Is every row degree p?  Over det^p the monomial is then
        coinvariant for the diagonal coaction."""
        return set(self.rowdeg()) <= {p}

    def word(self):
        """Flat letter indices in increasing order, with multiplicity."""
        out = []
        for k, e in enumerate(self.exps):
            out.extend([k] * e)
        return tuple(out)

    def first_letter(self) -> int:
        for k, e in enumerate(self.exps):
            if e:
                return k
        raise ValueError("the empty monomial has no letters")

    def last_letter(self) -> int:
        for k in range(len(self.exps) - 1, -1, -1):
            if self.exps[k]:
                return k
        raise ValueError("the empty monomial has no letters")

    def bumped(self, k: int) -> "Monomial":
        e = list(self.exps)
        e[k] += 1
        return Monomial(self.n, e)

    def stripped(self, k: int) -> "Monomial":
        e = list(self.exps)
        if e[k] <= 0:
            raise ValueError("letter not present")
        e[k] -= 1
        return Monomial(self.n, e)

    def sort_key(self):
        """Sorts by (degree, then word-lexicographically)."""
        return (self.deg, tuple(-e for e in self.exps))

    # -- plumbing -------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Monomial) and self.n == other.n
                and self.exps == other.exps)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return f"Monomial({self})"

    def __str__(self):
        n = self.n
        return laurent_word([f"x{i + 1}{j + 1}" for i in range(n)
                             for j in range(n)], self.exps)


def accumulate(out: dict, key, c) -> None:
    """``out[key] += c``, dropping the key when the sum is zero."""
    v = out.get(key)
    if v is not None:
        c = v + c
    if c:
        out[key] = c
    elif v is not None:
        del out[key]


def _is_negative(c) -> bool:
    """True when the leading coefficient is negative (for display only)."""
    if isinstance(c, Scalar):
        return c.num.leading < 0
    return c < 0


def _coeff_str(c) -> str:
    s = str(c)
    body = s[1:] if s.startswith("-") else s
    if any(ch in body for ch in "+-/ "):
        return f"({s})"
    return s


def laurent_word(names, exps) -> str:
    """The word ``t1^2*t2^-1`` of an exponent vector over the variable
    names; "1" when every exponent is 0."""
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(names, exps) if e) or "1"


def render(terms) -> str:
    """Sign-aware sum of ``(coefficient, word)`` pairs, in the given order.

    The word "1" marks the constant term; an empty sum renders as "0".
    """
    text = ""
    for c, word in terms:
        neg = _is_negative(c)
        mag = -c if neg else c
        if word == "1":
            body = _coeff_str(mag)
        elif str(mag) == "1":
            body = word
        else:
            body = f"{_coeff_str(mag)}*{word}"
        if not text:
            text = f"-{body}" if neg else body
        else:
            text += f" - {body}" if neg else f" + {body}"
    return text or "0"


class SparseTerms(Frozen):
    """Arithmetic shared by the elements stored as ``{key: coefficient}``.

    ``terms`` never holds a zero coefficient.  A subclass supplies
    ``_like(terms)``, a new element with the same parent (and the same
    shape); ``_coerce(other)``, which turns ``other`` into an element with
    the same parent or raises; ``_coeff(c)``, the coefficient coercion used
    by :meth:`scale` (by default none); ``_rendered()``, the
    ``(coefficient, word)`` pairs in display order; and ``__mul__``, which
    scales by a coefficient and multiplies two elements of its own type
    (sums of monomials by :meth:`MatrixAlgebra._product`) or refuses to.
    Powers need ``_coerce(1)`` to be the unit.
    """

    __slots__ = ()

    def _coeff(self, c):
        return c

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __rmul__(self, other):
        # coefficients commute with everything, so scaling from the left
        # is the same as from the right
        return self.scale(other)

    def scale(self, c):
        """The element times the coefficient c.  Nothing is multiplied by
        the unit object, and a product equal to 1 becomes it (see
        :meth:`MatrixAlgebra.coerce`)."""
        c = self._coeff(c)
        if c is self._coeff(1):
            return self._like(self.terms)
        return self._like({k: self._coeff(c * v) for k, v in self.terms.items()}
                          if c else {})

    def __pow__(self, k: int):
        """The k-th power by repeated squaring; the 0-th is the unit."""
        if k < 0:
            raise ValueError("negative power")
        result = self._coerce(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def __str__(self):
        return render(self._rendered())


class MqElement(SparseTerms):
    """A finite linear combination of ordered monomials (normal form)."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "MatrixAlgebra", terms):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "terms", {m: c for m, c in terms.items() if c})

    # -- queries --------------------------------------------------------------

    def degree(self) -> int:
        """Total degree (-1 for the zero element)."""
        return max((m.deg for m in self.terms), default=-1)

    def constant_term(self):
        return self.terms.get(Monomial.one(self.algebra.n), self.algebra.zero)

    # -- the sparse-term hooks --------------------------------------------------

    def _like(self, terms) -> "MqElement":
        return MqElement(self.algebra, terms)

    def _coerce(self, other) -> "MqElement":
        if not isinstance(other, MqElement):
            return self.algebra.scalar_element(other)
        if self.algebra is not other.algebra:
            raise ValueError("elements from different algebras")
        return other

    def _coeff(self, c):
        return self.algebra.coerce(c)

    def __mul__(self, other):
        if not isinstance(other, MqElement):
            return self.scale(other)
        return MqElement(self.algebra, self.algebra._product(
            self.terms, self._coerce(other).terms))

    def _rendered(self):
        return [(self.terms[m], str(m))
                for m in sorted(self.terms, key=Monomial.sort_key)]

    def __eq__(self, other):
        if isinstance(other, MqElement):
            return self.algebra is other.algebra and self.terms == other.terms
        if isinstance(other, (int, Fraction, Scalar)):
            return self == self.algebra.scalar_element(other)
        return NotImplemented


class MatrixAlgebra:
    """Context for O(M_q) at a fixed size N and coefficient q.

    ``q`` defaults to the symbolic generator of Q(q); pass a Fraction (not 0,
    and not a root of unity for the theorems to apply) to run specialized.

    >>> A = MatrixAlgebra(2)
    >>> x = A.generator
    >>> print(x(2, 2) * x(1, 1))
    x11*x22 - ((q^2 - 1)/q)*x12*x21
    >>> print(A.quantum_determinant() * x(1, 2) - x(1, 2) * A.quantum_determinant())
    0
    """

    def __init__(self, n: int, q=None):
        if n < 1:
            raise ValueError("size must be at least 1")
        self.n = n
        if q is None:
            q = Scalar.q()
        elif isinstance(q, int):
            q = Fraction(q)
        if isinstance(q, Fraction) and q == 0:
            raise ValueError("q must be invertible")
        self.q = q
        self.one = q ** 0
        self.zero = self.one - self.one
        qinv = self.one / q
        # at q = 1 the same-row and same-column rules carry the unit object
        self.qinv = self.one if qinv == self.one else qinv
        self._rule_cache = {}
        self._ml_cache = {}
        self._mm_cache = {}
        self._minors = {}
        self._det_powers = None

    # -- coefficients -----------------------------------------------------------

    def coerce(self, c):
        """Coerce an int/Fraction/compatible coefficient into the field; a
        coefficient equal to 1 becomes the unit object ``one``."""
        if isinstance(c, type(self.one)):
            return self.one if c == self.one else c
        if isinstance(c, (int, Fraction)):
            return self.one if c == 1 else self.one * c
        raise TypeError(f"cannot use {type(c).__name__} as a coefficient here")

    # -- element constructors ----------------------------------------------------

    def zero_element(self) -> MqElement:
        return MqElement(self, {})

    def one_element(self) -> MqElement:
        return MqElement(self, {Monomial.one(self.n): self.one})

    def scalar_element(self, c) -> MqElement:
        c = self.coerce(c)
        return MqElement(self, {Monomial.one(self.n): c} if c else {})

    def monomial_element(self, mono: Monomial) -> MqElement:
        return MqElement(self, {mono: self.one})

    def generator(self, i: int, j: int) -> MqElement:
        return self.monomial_element(Monomial.generator(self.n, i, j))

    def generators(self):
        return [self.generator(i, j) for i in range(1, self.n + 1)
                for j in range(1, self.n + 1)]

    # -- straightening ------------------------------------------------------------

    def _letter_rule(self, big: int, small: int):
        """Rewrite x_big * x_small (big > small) as ordered pairs."""
        rule = self._rule_cache.get((big, small))
        if rule is None:
            n = self.n
            i1, j1 = divmod(big, n)
            i2, j2 = divmod(small, n)
            if i1 == i2 or j1 == j2:
                rule = ((self.qinv, (small, big)),)
            elif j1 < j2 or self.q == self.qinv:
                # at q = +-1 the term of the last rule, -(q - 1/q) x12 x21
                # for x22 x11, is 0 and left out
                rule = ((self.one, (small, big)),)
            else:
                mid1 = i2 * n + j1
                mid2 = i1 * n + j2
                rule = ((self.one, (small, big)),
                        (-(self.q - self.qinv), (mid1, mid2)))
            self._rule_cache[(big, small)] = rule
        return rule

    def _mul_mono_letter(self, m: Monomial, k: int):
        """Normal form of (ordered monomial m) * x_k, as {Monomial: coeff}."""
        out = self._ml_cache.get((m, k))
        if out is not None:
            return out
        if m.deg == 0:
            out = {m.bumped(k): self.one}
        else:
            last = m.last_letter()
            if k >= last:
                out = {m.bumped(k): self.one}
            else:
                rest = m.stripped(last)
                one = self.one
                out = {}
                for coeff, (a, b) in self._letter_rule(last, k):
                    for m1, c1 in self._mul_mono_letter(rest, a).items():
                        ca = (c1 if coeff is one
                              else coeff if c1 is one else coeff * c1)
                        for m2, c2 in self._mul_mono_letter(m1, b).items():
                            accumulate(out, m2, ca if c2 is one else ca * c2)
        self._ml_cache[(m, k)] = out
        return out

    def _mul_monos(self, m1: Monomial, m2: Monomial):
        """Normal form of m1 * m2, as {Monomial: coeff}."""
        if m2.deg == 0:
            return {m1: self.one}
        if m1.deg == 0:
            return {m2: self.one}
        out = self._mm_cache.get((m1, m2))
        if out is not None:
            return out
        one = self.one
        acc = {m1: one}
        for k in m2.word():
            step = {}
            for m, c in acc.items():
                for mm, cc in self._mul_mono_letter(m, k).items():
                    accumulate(step, mm,
                               c if cc is one else cc if c is one else c * cc)
            acc = step
        self._mm_cache[(m1, m2)] = acc
        return acc

    def _product(self, a: dict, b: dict) -> dict:
        """Normal form of the product of two ``{monomial: coeff}`` sums; a
        factor that is the unit object ``one`` is not multiplied by."""
        one = self.one
        out = {}
        for am, ac in a.items():
            for bm, bc in b.items():
                c = ac if bc is one else bc if ac is one else ac * bc
                for m, mc in self._mul_monos(am, bm).items():
                    accumulate(out, m, c if mc is one else mc if c is one
                               else c * mc)
        return out

    # -- quantum minors and coinvariant families -----------------------------------

    def quantum_minor(self, rows, cols) -> MqElement:
        """The quantum minor [I|J] of the rows I = (i_1 < ... < i_t) and the
        columns J = (j_1 < ... < j_t), equal-size subsets of 1..N:

            [I|J] = sum over permutations s of 1..t of
                    (-q)^inv(s) x_{i_1 j_s(1)} ... x_{i_t j_s(t)},

        with inv(s) the number of inversions of s.  Grouping the sum by the
        column s(t) = k of the last row, t - k of the other columns come
        after it, so

            [I|J] = sum_{k=1..t} (-q)^(t-k) [I - i_t | J - j_k] x_{i_t j_k}

        (the quantum Laplace expansion along the last row).  Each minor is
        built once per algebra by this expansion, one letter step per column
        from the minors one size smaller, and cached; the empty minor is 1.
        Every word has its rows in increasing order, so it is an ordered
        monomial and the letter steps straighten nothing.
        """
        rows = tuple(sorted(rows))
        cols = tuple(sorted(cols))
        out = self._minors.get((rows, cols))
        if out is not None:
            return out
        if len(rows) != len(cols):
            raise ValueError("row and column sets differ in size")
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("index sets must not repeat")
        if rows and not (1 <= rows[0] and rows[-1] <= self.n
                         and 1 <= cols[0] and cols[-1] <= self.n):
            raise ValueError("index out of range")
        t = len(rows)
        out = self.one_element() if t == 0 else self.zero_element()
        for k in range(t):
            smaller = self.quantum_minor(rows[:-1], cols[:k] + cols[k + 1:])
            out = out + (smaller * self.generator(rows[-1], cols[k])).scale(
                (-self.q) ** (t - 1 - k))
        self._minors[(rows, cols)] = out
        return out

    def quantum_determinant(self) -> MqElement:
        full = range(1, self.n + 1)
        return self.quantum_minor(full, full)

    def det_power(self, k: int) -> MqElement:
        """det_q^k, cached."""
        if k < 0:
            raise ValueError("negative determinant power")
        if self._det_powers is None:
            self._det_powers = [self.one_element()]
        while len(self._det_powers) <= k:
            self._det_powers.append(self._det_powers[-1] * self.quantum_determinant())
        return self._det_powers[k]

    def principal_weights(self, i: int, which: str) -> dict:
        """``{I: w_I}`` over the i-subsets I of 1..N, such that the
        coinvariant family of the coaction ``which`` is sum_I w_I [I|I]:
        tau_i (beta) weighs [I|I] by q^(-2 sum(I)), sigma_i (alpha) by 1."""
        if not (1 <= i <= self.n):
            name = "tau" if which == "beta" else "sigma"
            raise ValueError(f"{name} index out of range")
        return {I: self.q ** (-2 * sum(I)) if which == "beta" else self.one
                for I in combinations(range(1, self.n + 1), i)}

    def family(self, i: int, which: str) -> MqElement:
        """The coinvariant family of the coaction ``which``: tau_i for
        beta, sigma_i for alpha."""
        total = self.zero_element()
        for I, w in self.principal_weights(i, which).items():
            total = total + self.quantum_minor(I, I).scale(w)
        return total

    def sigma(self, i: int) -> MqElement:
        """Sum of the principal i x i quantum minors."""
        return self.family(i, "alpha")

    def tau(self, i: int) -> MqElement:
        """Weighted sum q^(-2w(I)) [I|I] of the principal i x i minors,
        with w(I) the sum of the elements of I."""
        return self.family(i, "beta")

    # -- bases and gradings ----------------------------------------------------------

    def monomial_basis(self, d: int):
        """All ordered monomials of total degree <= d, sorted by (degree, lex)."""
        if d < 0:
            raise ValueError("negative degree bound")
        slots = self.n * self.n
        out = []
        for deg in range(d + 1):
            for exps in _compositions(deg, slots):
                out.append(Monomial(self.n, exps))
        return out

    # -- parsing ------------------------------------------------------------------

    def parse(self, text: str) -> MqElement:
        """Parse the expression grammar: x{i}{j}, q, integers, + - * / ^, parens."""
        return _ElementParser(self, text).parse()


def _compositions(total, slots):
    if slots == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


_ELEM_TOKEN_RE = re.compile(r"\s*(x\d\d|\d+|q|\*|/|\+|-|\^|\(|\))")


class _ElementParser(ScalarParser):
    """The scalar grammar over the algebra's coefficients, plus the
    generators x{i}{j}."""

    TOKEN_RE = _ELEM_TOKEN_RE
    WHAT = "expression"

    def __init__(self, algebra: MatrixAlgebra, text: str):
        super().__init__(text)
        self.algebra = algebra

    def _check(self, v: MqElement, op: str, w: MqElement) -> None:
        """Refuse ``v op w`` when a product would exceed MAX_ELEMENT_DEGREE,
        or when the scalar parser's bounds would refuse the same operation
        on two coefficients it combines (on a shared monomial for + and -)."""
        if op == "*" and v.degree() + w.degree() > MAX_ELEMENT_DEGREE:
            raise ValueError(f"expression of degree over {MAX_ELEMENT_DEGREE}")
        if op in "+-":
            pairs = ((v.terms[m], w.terms[m]) for m in v.terms.keys() & w.terms)
        else:
            pairs = product(v.terms.values(), w.terms.values())
        for a, b in pairs:
            check_scalar_op(a, op, b)

    def _divide(self, v: MqElement, w: MqElement) -> MqElement:
        if set(w.terms) - {Monomial.one(self.algebra.n)}:
            raise ValueError("division only by scalar expressions")
        c = w.constant_term()
        if not c:
            raise ZeroDivisionError("division by zero expression")
        return v.scale(self.algebra.one / c)

    def _power(self, v: MqElement, k: int) -> MqElement:
        check_power(v.degree(), k, MAX_ELEMENT_DEGREE)
        for c in v.terms.values():
            check_scalar_power(c, k)
        if set(v.terms) - {Monomial.one(self.algebra.n)}:
            if k < 0:
                raise ValueError("negative powers only of scalar expressions")
            return v ** k
        return self.algebra.scalar_element(v.constant_term() ** k)

    def _leaf(self, t: str) -> MqElement:
        if t == "q":
            return self.algebra.scalar_element(self.algebra.q)
        if t.isdigit():
            return self.algebra.scalar_element(parse_int(t))
        if t.startswith("x"):
            return self.algebra.generator(int(t[1]), int(t[2]))
        raise ValueError(f"unexpected token {t!r} in expression")
