"""Hopf structure on quantum GL: localization, coproduct, antipode, coactions.

Everything here lives over a fixed :class:`~qcoorbit.mq.MatrixAlgebra`.  The
localized algebra inverts the (central) quantum determinant; an element is a
pair (numerator, determinant power), and sums and comparisons lift both
numerators to the larger power through :meth:`HopfContext._lift`, the one
product by a power of det.  The coproduct is the matrix-coefficient one, Delta(x_ij) = sum_k x_ik (x) x_kj,
and the antipode sends x_ij to its signed quantum cofactor over det.

The two adjoint coactions are
    beta(h) = h_2 (x) S(h_1) h_3      (one-sided "conjugation" from the right)
    alpha(h) = h_2 (x) h_3 S(h_1)
computed by homogeneous part: the part's two-fold coproducts are summed,
then conjugated once (much of the sum cancels).  One fold computes that
coproduct with the middle leg either kept (the coactions) or evaluated at a
point: at the identity, where evaluation is the counit, it gives the
coproduct, and at a classical point the co-orbit map.  A :class:`HopfContext`
memoizes the tables that are read again: the two-fold coproduct of each
monomial (beta and alpha fold the same monomials), the antipode of each
monomial and of each letter.  Build one context per algebra and reuse it.
"""

from __future__ import annotations

from fractions import Fraction

from .mq import (MatrixAlgebra, Monomial, MqElement, SparseTerms, accumulate,
                 laurent_word)
from .scalars import Scalar


class GlqElement(SparseTerms):
    """An element of the localization: numerator / det^detpow.

    ``terms`` is the numerator, ``{Monomial: coefficient}``.  Sums and
    comparisons lift both sides to the larger determinant power.
    """

    __slots__ = ("hopf", "terms", "detpow")

    def __init__(self, hopf: "HopfContext", terms, detpow: int = 0):
        if detpow < 0:
            raise ValueError("determinant power must be >= 0")
        terms = {m: c for m, c in terms.items() if c}
        object.__setattr__(self, "hopf", hopf)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "detpow", detpow if terms else 0)

    @property
    def num(self) -> MqElement:
        return MqElement(self.hopf.alg, self.terms)

    def numerator_at(self, p: int) -> MqElement:
        """The numerator after raising the denominator to det^p."""
        if p < self.detpow:
            raise ValueError("cannot lower the determinant power")
        out = {}
        self.hopf._lift(out, self.terms, p - self.detpow)
        return MqElement(self.hopf.alg, out)

    # -- the sparse-term hooks ----------------------------------------------------

    def _like(self, terms) -> "GlqElement":
        return GlqElement(self.hopf, terms, self.detpow)

    def _coerce(self, other) -> "GlqElement":
        if not isinstance(other, GlqElement):
            return self.hopf.scalar_gl(other)
        if self.hopf is not other.hopf:
            raise ValueError("elements from different contexts")
        return other

    def _coeff(self, c):
        return self.hopf.alg.coerce(c)

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        p = max(self.detpow, other.detpow)
        out = {}
        for a in (self, other):
            self.hopf._lift(out, a.terms, p - a.detpow)
        return GlqElement(self.hopf, out, p)

    __radd__ = __add__

    def __mul__(self, other):
        """Numerators multiply and det powers add (det is central)."""
        if not isinstance(other, GlqElement):
            return self.scale(other)
        num = self.num * self._coerce(other).num
        return GlqElement(self.hopf, num.terms, self.detpow + other.detpow)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.hopf.scalar_gl(other)
        if not isinstance(other, GlqElement):
            return NotImplemented
        if self.hopf is not other.hopf:
            return False
        p = max(self.detpow, other.detpow)
        return self.numerator_at(p) == other.numerator_at(p)

    def __str__(self):
        if self.detpow == 0:
            return str(self.num)
        return f"({self.num})*det^-{self.detpow}"


class SlqAlgebra:
    """Quantum SL_2 = O(M_q(2)) / (det - 1), with a, b, c, d the images of
    x11 < x12 < x21 < x22.

    The PBW basis is {a^i b^j c^k, b^j c^k d^l}: any product of a and d
    reduces through ad = 1 + q bc.  Products are taken in the parent
    algebra, so its straightening rules are the only relations stated.
    Coefficients are shared with the parent (symbolic or specialized).
    """

    _NAMES = "abcd"

    def __init__(self, parent: MatrixAlgebra):
        if parent.n != 2:
            raise ValueError("the special quantum group layer is for size 2 only")
        self.parent = parent
        self.q = parent.q
        self.one = parent.one
        self.zero = parent.zero
        self._reduce_cache = {}
        self._word_cache = {}

    # -- elements --------------------------------------------------------------

    def one_element(self) -> "SlqElement":
        return SlqElement(self, {(0, 0, 0, 0): self.one})

    def scalar_element(self, c) -> "SlqElement":
        c = self.parent.coerce(c)
        return SlqElement(self, {(0, 0, 0, 0): c} if c else {})

    def generator(self, name: str) -> "SlqElement":
        k = self._NAMES.index(name)
        e = [0, 0, 0, 0]
        e[k] = 1
        return SlqElement(self, {tuple(e): self.one})

    # -- straightening -----------------------------------------------------------

    def _reduce(self, exps):
        """Rewrite a^i b^j c^k d^l (i, l possibly both positive) into the basis."""
        out = self._reduce_cache.get(exps)
        if out is not None:
            return out
        i, j, k, l = exps
        if i == 0 or l == 0:
            out = {exps: self.one}
        else:
            out = {}
            low = self._reduce((i - 1, j, k, l - 1))
            high = self._reduce((i - 1, j + 1, k + 1, l - 1))
            cl = self.q ** (j + k)
            ch = self.q ** (j + k + 1)
            for e, c in low.items():
                accumulate(out, e, cl * c)
            for e, c in high.items():
                accumulate(out, e, ch * c)
        self._reduce_cache[exps] = out
        return out

    def _mul_words(self, e1, e2):
        """Product of two basis words: their product in the parent algebra,
        pushed through the quotient map (an algebra map) monomial by
        monomial."""
        out = self._word_cache.get((e1, e2))
        if out is None:
            out = {}
            prod = self.parent._mul_monos(Monomial(2, e1), Monomial(2, e2))
            for m, c in prod.items():
                for e, cc in self._reduce(m.exps).items():
                    accumulate(out, e, c * cc)
            self._word_cache[(e1, e2)] = out
        return out


class SlqElement(SparseTerms):
    """Linear combination of PBW basis words of the quantum SL_2 algebra."""

    __slots__ = ("sl", "terms")

    def __init__(self, sl: SlqAlgebra, terms):
        object.__setattr__(self, "sl", sl)
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c})

    def _like(self, terms) -> "SlqElement":
        return SlqElement(self.sl, terms)

    def _coerce(self, other) -> "SlqElement":
        if not isinstance(other, SlqElement):
            return self.sl.scalar_element(other)
        if self.sl is not other.sl:
            raise ValueError("elements from different contexts")
        return other

    def _coeff(self, c):
        return self.sl.parent.coerce(c)

    def _mul_keys(self, e1, e2):
        return self.sl._mul_words(e1, e2)

    def _rendered(self):
        return [(self.terms[e], laurent_word(self.sl._NAMES, e))
                for e in sorted(self.terms, key=lambda e: (sum(e), e))]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.sl.scalar_element(other)
        if not isinstance(other, SlqElement):
            return NotImplemented
        return self.sl is other.sl and self.terms == other.terms


_LEG_TAGS = ("mq", "glq")


class TensorElement(SparseTerms):
    """An element of a tensor product of copies of the matrix algebra.

    ``tags`` names each leg: "mq" legs hold monomial keys, "glq" legs hold
    monomial numerators over a determinant power shared by the whole
    element, kept in ``detpows``.  Terms map a key tuple (one monomial per
    leg) to a coefficient.
    """

    __slots__ = ("hopf", "tags", "detpows", "terms")

    def __init__(self, hopf: "HopfContext", tags, terms, detpows=None):
        tags = tuple(tags)
        for t in tags:
            if t not in _LEG_TAGS:
                raise ValueError(f"unknown tensor leg tag {t!r}")
        if detpows is None:
            detpows = tuple(0 if t == "glq" else None for t in tags)
        detpows = tuple(detpows)
        object.__setattr__(self, "hopf", hopf)
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "detpows", detpows)
        object.__setattr__(self, "terms", {k: c for k, c in terms.items() if c})

    def _like(self, terms) -> "TensorElement":
        return TensorElement(self.hopf, self.tags, terms, self.detpows)

    def _coerce(self, other) -> "TensorElement":
        if not isinstance(other, TensorElement):
            raise TypeError("a tensor combines only with tensors and "
                            "multiplies by scalars")
        if self.hopf is not other.hopf or self.tags != other.tags:
            raise ValueError("tensor shapes do not match")
        return other

    def _coeff(self, c):
        return self.hopf.alg.coerce(c)

    def _lift_terms(self, detpows):
        """Terms after raising each glq leg to the given determinant power,
        one leg at a time."""
        terms = self.terms
        for i, (p, p0) in enumerate(zip(detpows, self.detpows)):
            if p == p0:
                continue
            lifted = {}
            for key, c in terms.items():
                leg = {}
                self.hopf._lift(leg, {key[i]: c}, p - p0)
                for m, cm in leg.items():
                    accumulate(lifted, key[:i] + (m,) + key[i + 1:], cm)
            terms = lifted
        return dict(terms)

    def _common_detpows(self, other):
        return tuple(max(a, b) if t == "glq" else None
                     for t, a, b in zip(self.tags, self.detpows, other.detpows))

    def __add__(self, other):
        other = self._coerce(other)
        dps = self._common_detpows(other)
        out = self._lift_terms(dps)
        for k, c in other._lift_terms(dps).items():
            accumulate(out, k, c)
        return TensorElement(self.hopf, self.tags, out, dps)

    def __mul__(self, other):
        """Legwise product (the algebra structure of the tensor product);
        a scalar scales."""
        if not isinstance(other, TensorElement):
            return self.scale(other)
        other = self._coerce(other)
        alg = self.hopf.alg
        dps = tuple(a + b if t == "glq" else None
                    for t, a, b in zip(self.tags, self.detpows, other.detpows))
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                partial = [((), c1 * c2)]
                for i in range(len(self.tags)):
                    factors = alg._mul_monos(k1[i], k2[i])
                    partial = [(key + (m,), c * cc)
                               for key, c in partial
                               for m, cc in factors.items()]
                for key, c in partial:
                    accumulate(out, key, c)
        return TensorElement(self.hopf, self.tags, out, dps)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        if self.hopf is not other.hopf or self.tags != other.tags:
            return False
        dps = self._common_detpows(other)
        return self._lift_terms(dps) == other._lift_terms(dps)

    def _key_str(self, key):
        parts = []
        for m, p in zip(key, self.detpows):
            parts.append(f"{m}*det^-{p}" if p else str(m))
        return " (x) ".join(parts)

    def _rendered(self):
        return [(self.terms[k], f"[{ks}]")
                for ks, k in sorted((self._key_str(k), k) for k in self.terms)]


class HopfContext:
    """Memoized Hopf operations over one matrix algebra.

    >>> H = HopfContext(MatrixAlgebra(2))
    >>> x = H.alg.generator
    >>> print(H.antipode(x(1, 2)))
    (-(1/q)*x12)*det^-1
    >>> H.counit(H.alg.quantum_determinant())
    Scalar(1)
    """

    def __init__(self, algebra: MatrixAlgebra):
        self.alg = algebra
        self.n = algebra.n
        self._one = algebra.one
        self._delta2_cache = {}
        self._anti_cache = {}
        self._s_letter_cache = {}
        self._sl = None
        n, zero = self.n, algebra.zero
        self._counit_middle = self._evaluating(
            [[self._one if i == j else zero for j in range(n)]
             for i in range(n)])

    # -- constructors -------------------------------------------------------------

    def embed(self, a: MqElement, detpow: int = 0) -> GlqElement:
        """a / det^detpow in the localization."""
        return GlqElement(self, a.terms, detpow)

    def scalar_gl(self, c) -> GlqElement:
        return self.embed(self.alg.scalar_element(c))

    @property
    def sl_algebra(self) -> SlqAlgebra:
        if self._sl is None:
            self._sl = SlqAlgebra(self.alg)
        return self._sl

    # -- localization ---------------------------------------------------------------

    def _lift(self, out: dict, num: dict, k: int, c=None) -> None:
        """Accumulate c * num * det^k into ``out`` (c = 1 when None): the
        one product by a determinant power."""
        alg = self.alg
        det_k = alg.det_power(k).terms
        for nm, nc in num.items():
            cnc = nc if c is None else c * nc
            if not k:
                accumulate(out, nm, cnc)
                continue
            for lm, lc in det_k.items():
                for mm, mc in alg._mul_monos(nm, lm).items():
                    accumulate(out, mm, cnc * lc * mc)

    # -- coproduct ------------------------------------------------------------------

    def _fold(self, m: Monomial, middle):
        """The two-fold coproduct of an ordered monomial, letter by letter.

        Delta^2(x_ij) = sum_{s,t} x_is (x) x_st (x) x_tj.  The outer legs are
        straightened; ``middle(v, k)`` gives the middle leg ``v`` times the
        letter ``x_k`` as ``{key: coeff}``.  Straightening it keeps the leg
        (the coactions); an entry table evaluates it (the co-orbit maps, and
        the coproduct itself with the counit), and an empty result skips the
        branch.  Returns ``{(u, v, w): coeff}``.
        """
        n = self.n
        alg = self.alg
        unit = Monomial.one(n)
        acc = {(unit, unit, unit): self._one}
        for k in m.word():
            i, j = divmod(k, n)
            nxt = {}
            for (u, v, w), c in acc.items():
                for s in range(n):
                    left = None
                    for t in range(n):
                        mid = middle(v, s * n + t)
                        if not mid:
                            continue
                        if left is None:
                            left = alg._mul_mono_letter(u, i * n + s)
                        right = alg._mul_mono_letter(w, t * n + j)
                        for um, uc in left.items():
                            cu = c * uc
                            for vm, vc in mid.items():
                                cuv = cu * vc
                                for wm, wc in right.items():
                                    accumulate(nxt, (um, vm, wm), cuv * wc)
            acc = nxt
        return acc

    def _evaluating(self, xi):
        """The middle-leg rule of :meth:`_fold` that evaluates at the point
        with entry table ``xi``; the middle key stays the empty monomial."""
        unit = Monomial.one(self.n)
        table = [{unit: x} if x else {} for row in xi for x in row]
        return lambda v, k: table[k]

    def _delta_mono(self, m: Monomial):
        """Coproduct of an ordered monomial, {(u, v): coeff}: the two-fold
        coproduct with the counit (evaluation at the identity) in the middle."""
        return {(u, w): c for (u, _v, w), c
                in self._fold(m, self._counit_middle).items()}

    def _delta2_mono(self, m: Monomial):
        """Two-fold coproduct: {(u, v, w): coeff}."""
        out = self._delta2_cache.get(m)
        if out is None:
            out = self._fold(m, self.alg._mul_mono_letter)
            self._delta2_cache[m] = out
        return out

    def comultiply(self, a: MqElement) -> TensorElement:
        """Delta(a) in (mq) (x) (mq)."""
        out = {}
        for m, c in a.terms.items():
            for key, cc in self._delta_mono(m).items():
                accumulate(out, key, c * cc)
        return TensorElement(self, ("mq", "mq"), out)

    # -- counit ---------------------------------------------------------------------

    def _counit_mono(self, m: Monomial):
        n = self.n
        for k, e in enumerate(m.exps):
            if e:
                i, j = divmod(k, n)
                if i != j:
                    return self.alg.zero
        return self._one

    def counit(self, a):
        """The counit; sends x_ij to delta_ij and det^-1 to 1."""
        total = self.alg.zero
        for m, c in a.terms.items():
            if self._counit_mono(m):
                total = total + c
        return total

    # -- antipode ---------------------------------------------------------------------

    def _s_letter(self, k: int):
        """S(x_ij) = (-q)^(i-j) [complement(j) | complement(i)] det^-1."""
        out = self._s_letter_cache.get(k)
        if out is None:
            n = self.n
            i, j = divmod(k, n)
            rows = tuple(r for r in range(1, n + 1) if r != j + 1)
            cols = tuple(c for c in range(1, n + 1) if c != i + 1)
            minor = self.alg.quantum_minor(rows, cols)
            sign = self._one if (i - j) % 2 == 0 else -self._one
            coeff = sign * self.alg.q ** (i - j)
            out = {m: coeff * c for m, c in minor.terms.items()}
            self._s_letter_cache[k] = out
        return out

    def _antipode_mono(self, m: Monomial):
        """S of an ordered monomial: (numerator terms, det power = degree)."""
        out = self._anti_cache.get(m)
        if out is not None:
            return out
        if m.deg == 0:
            out = {m: self._one}
        else:
            last = m.last_letter()
            rest = self._antipode_mono(m.stripped(last))
            head = self._s_letter(last)
            alg = self.alg
            out = {}
            for hm, hc in head.items():
                for rm, rc in rest.items():
                    c = hc * rc
                    for mm, mc in alg._mul_monos(hm, rm).items():
                        accumulate(out, mm, c * mc)
        self._anti_cache[m] = out
        return out

    def antipode(self, a) -> GlqElement:
        """The antipode, as an element of the localization.

        Anti-multiplicative; on the localization S(num det^-p) multiplies
        S(num) by det^p.
        """
        if isinstance(a, MqElement):
            a = self.embed(a)
        if not isinstance(a, GlqElement):
            raise TypeError("antipode expects an algebra element")
        # term m det^-p maps to S(m) det^p with S(m) = s_num(m) det^-deg(m),
        # each accumulated at the common power
        p = a.detpow
        cap = max([m.deg - p for m in a.terms] + [0])
        total = {}
        for m, c in a.terms.items():
            self._lift(total, self._antipode_mono(m), cap - m.deg + p, c)
        return GlqElement(self, total, cap)

    # -- adjoint coactions -----------------------------------------------------------

    def _conjugate(self, folded, which: str):
        """Send the first leg of ``{(u, v, w): coeff}`` through the antipode
        and multiply it into the last: S(u) w for beta, w S(u) for alpha.
        Returns ``{(v, numerator monomial): coeff}`` over det^deg(u)."""
        alg = self.alg
        out = {}
        for (u, v, w), c in folded.items():
            for sm, sc in self._antipode_mono(u).items():
                csc = c * sc
                pair = alg._mul_monos(sm, w) if which == "beta" \
                    else alg._mul_monos(w, sm)
                for pm, pc in pair.items():
                    accumulate(out, (v, pm), csc * pc)
        return out

    def _coaction_mono(self, part, which: str):
        """The coaction of one homogeneous part, given as its ``(monomial,
        coeff)`` pairs of one degree d: the coefficient-weighted sum of their
        two-fold coproducts, conjugated once.  Much of that sum cancels (the
        coinvariants are sums of minors, whose coproducts are short), so one
        conjugation of the sum does a fraction of the work of one per
        monomial.  Returns ``{(v, numerator monomial): coeff}`` over det^d.
        The benchmark's tracer (``perfbench/tracer.py``) times the Hopf
        layer under this name, so it is kept although the method takes a
        whole part, not one monomial."""
        folded = {}
        for m, c in part:
            for key, cc in self._delta2_mono(m).items():
                accumulate(folded, key, c * cc)
        return self._conjugate(folded, which)

    def coaction(self, a: MqElement, which: str) -> TensorElement:
        """The adjoint coaction: h_2 (x) S(h_1) h_3 for beta, h_2 (x) h_3 S(h_1)
        for alpha.  Output legs are (mq) (x) (glq)."""
        if which not in ("beta", "alpha"):
            raise ValueError("coaction kind must be 'beta' or 'alpha'")
        if not isinstance(a, MqElement):
            raise TypeError("coactions here take matrix-algebra elements")
        # a part of degree d lands over det^d; the sum lifts to the largest
        parts = {}
        for m, c in a.terms.items():
            parts.setdefault(m.deg, []).append((m, c))
        total = TensorElement(self, ("mq", "glq"), {}, (None, 0))
        for d in sorted(parts):
            total = total + TensorElement(
                self, ("mq", "glq"), self._coaction_mono(parts[d], which),
                (None, d))
        return total

    def coaction_beta(self, a: MqElement) -> TensorElement:
        return self.coaction(a, "beta")

    def is_coinvariant(self, a: MqElement, which: str) -> bool:
        """True when the adjoint coaction fixes a, i.e. equals a (x) 1."""
        expected = TensorElement(self, ("mq", "glq"),
                                 {(m, Monomial.one(self.n)): c
                                  for m, c in a.terms.items()},
                                 (None, 0))
        return self.coaction(a, which) == expected

    # -- projections -------------------------------------------------------------------

    def is_diag_coinvariant(self, a: GlqElement) -> bool:
        """True when every numerator monomial has row degree (p, ..., p)."""
        p = a.detpow
        return all(set(m.rowdeg()) <= {p} for m in a.terms)

    def project_sl(self, a) -> SlqElement:
        """Quotient to quantum SL_2 (size 2 only): x11, x12, x21, x22 map to
        a, b, c, d and det maps to 1."""
        sl = self.sl_algebra
        out = {}
        for m, c in a.terms.items():
            for e, ce in sl._reduce(m.exps).items():
                accumulate(out, e, c * ce)
        return SlqElement(sl, out)
