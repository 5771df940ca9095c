"""Hopf structure on quantum GL: localization, coproduct, antipode, coactions.

Everything here lives over a fixed :class:`~qcoorbit.mq.MatrixAlgebra`.  The
localized algebra inverts the (central) quantum determinant; an element is a
pair (numerator, determinant power), and sums and comparisons lift both
numerators to the larger power through :meth:`HopfContext._lift`, the one
product by a power of det.  The coproduct is the matrix-coefficient one, Delta(x_ij) = sum_k x_ik (x) x_kj,
and the antipode sends x_ij to its signed quantum cofactor over det.
Statements about quantum SL_n are checked here on degree-0 elements: with
deg x_ij = 1 and deg det^-1 = -n, the quotient by det - 1 is injective on
each homogeneous component.

The two adjoint coactions are
    beta(h) = h_2 (x) S(h_1) h_3      (one-sided "conjugation" from the right)
    alpha(h) = h_2 (x) h_3 S(h_1)
computed by homogeneous part: the part's two-fold coproducts are summed,
then conjugated once (much of the sum cancels).  One fold builds the
coproduct of a monomial from that of the monomial one letter shorter,
Delta(a x_ij) = sum_s a_1 x_is (x) a_2 x_sj, and the two-fold coproduct is
(id (x) Delta) Delta, read off the same table.  Products of two sums of
monomials, in the antipode, the conjugation and the lift by det powers, are
:meth:`MatrixAlgebra._product`.  The co-orbit maps of
:mod:`qcoorbit.coorbit` need no coproduct: since S is anti-multiplicative
and evaluation at a point is an algebra map, they extend an image by one
letter at a time, from the antipode of that letter
(:meth:`HopfContext._s_letter`).  A :class:`HopfContext` memoizes the tables
that are read again: the coproduct and the two-fold coproduct of each
monomial (beta and alpha fold the same monomials), the antipode of each
monomial and of each letter.  Build one context per algebra and reuse it.
Coproducts and coactions are :class:`TensorElement` values, whose
``detpows`` give each leg's kind: None for a leg in O(M_q), and the det
power p for a leg in the localization.

The coinvariant families are sums of principal quantum minors, and
:class:`Minors` computes their coactions on minors instead of monomials,
through quantum Cauchy-Binet and the quantum cofactor formula, after
checking both identities exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .mq import MatrixAlgebra, Monomial, MqElement, SparseTerms, accumulate
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


class TensorElement(SparseTerms):
    """An element of a tensor product of copies of the matrix algebra.

    Terms map a key tuple (one monomial per leg) to a coefficient.
    ``detpows`` gives each leg's kind: None for a leg in O(M_q), whose keys
    are monomials, and an int p for a leg in the localization, whose keys
    are numerator monomials over det^p, a power shared by the whole element.
    """

    __slots__ = ("hopf", "detpows", "terms")

    def __init__(self, hopf: "HopfContext", terms, detpows=(None, None)):
        object.__setattr__(self, "hopf", hopf)
        object.__setattr__(self, "detpows", tuple(detpows))
        object.__setattr__(self, "terms", {k: c for k, c in terms.items() if c})

    def _like(self, terms) -> "TensorElement":
        return TensorElement(self.hopf, terms, self.detpows)

    def _same_shape(self, other) -> bool:
        """The same context, and legs of the same kinds."""
        kinds = [[p is None for p in t.detpows] for t in (self, other)]
        return self.hopf is other.hopf and kinds[0] == kinds[1]

    def _coerce(self, other) -> "TensorElement":
        if not isinstance(other, TensorElement):
            raise TypeError("a tensor combines only with tensors and "
                            "multiplies by scalars")
        if not self._same_shape(other):
            raise ValueError("tensor shapes do not match")
        return other

    def _coeff(self, c):
        return self.hopf.alg.coerce(c)

    def _lift_terms(self, detpows):
        """Terms after raising each localized leg to the given determinant
        power, one leg at a time."""
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
        return tuple(None if a is None else max(a, b)
                     for a, b in zip(self.detpows, other.detpows))

    def __add__(self, other):
        other = self._coerce(other)
        dps = self._common_detpows(other)
        out = self._lift_terms(dps)
        for k, c in other._lift_terms(dps).items():
            accumulate(out, k, c)
        return TensorElement(self.hopf, out, dps)

    def __mul__(self, other):
        """Legwise product (the algebra structure of the tensor product);
        a scalar scales."""
        if not isinstance(other, TensorElement):
            return self.scale(other)
        other = self._coerce(other)
        alg = self.hopf.alg
        dps = tuple(None if a is None else a + b
                    for a, b in zip(self.detpows, other.detpows))
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                partial = [((), c1 * c2)]
                for i in range(len(dps)):
                    factors = alg._mul_monos(k1[i], k2[i])
                    partial = [(key + (m,), c * cc)
                               for key, c in partial
                               for m, cc in factors.items()]
                for key, c in partial:
                    accumulate(out, key, c)
        return TensorElement(self.hopf, out, dps)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        if not self._same_shape(other):
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
        self._delta_cache = {}
        self._delta2_cache = {}
        self._anti_cache = {}
        self._s_letter_cache = {}

    # -- constructors -------------------------------------------------------------

    def embed(self, a: MqElement, detpow: int = 0) -> GlqElement:
        """a / det^detpow in the localization."""
        return GlqElement(self, a.terms, detpow)

    def scalar_gl(self, c) -> GlqElement:
        return self.embed(self.alg.scalar_element(c))

    # -- localization ---------------------------------------------------------------

    def _lift(self, out: dict, num: dict, k: int, c=None) -> None:
        """Accumulate c * num * det^k into ``out`` (c = 1 when None): the
        one product by a determinant power."""
        if k:
            num = self.alg._product(num, self.alg.det_power(k).terms)
        for m, cm in num.items():
            accumulate(out, m, cm if c is None else c * cm)

    # -- coproduct ------------------------------------------------------------------

    def _delta_mono(self, m: Monomial):
        """Coproduct of an ordered monomial, {(u, w): coeff}, from the cached
        coproduct of ``a``, the monomial without its last letter x_ij:

            Delta(a x_ij) = sum_s a_1 x_is (x) a_2 x_sj,

        each leg straightened; a factor that is the unit object is not
        multiplied by."""
        out = self._delta_cache.get(m)
        if out is not None:
            return out
        alg, n, one = self.alg, self.n, self._one
        if m.deg == 0:
            out = {(m, m): one}
        else:
            last = m.last_letter()
            i, j = divmod(last, n)
            out = {}
            for (u, w), c in self._delta_mono(m.stripped(last)).items():
                for s in range(n):
                    right = alg._mul_mono_letter(w, s * n + j)
                    for um, uc in alg._mul_mono_letter(u, i * n + s).items():
                        cu = c if uc is one else uc if c is one else c * uc
                        for wm, wc in right.items():
                            accumulate(out, (um, wm), cu if wc is one else
                                       wc if cu is one else cu * wc)
        self._delta_cache[m] = out
        return out

    def _delta2_mono(self, m: Monomial):
        """Two-fold coproduct (id (x) Delta) Delta: {(u, v, w): coeff}."""
        out = self._delta2_cache.get(m)
        if out is None:
            one = self._one
            out = {}
            for (u, r), c in self._delta_mono(m).items():
                for (v, w), cr in self._delta_mono(r).items():
                    accumulate(out, (u, v, w), c if cr is one else
                               cr if c is one else c * cr)
            self._delta2_cache[m] = out
        return out

    def comultiply(self, a: MqElement) -> TensorElement:
        """Delta(a) in (mq) (x) (mq)."""
        out = {}
        for m, c in a.terms.items():
            for key, cc in self._delta_mono(m).items():
                accumulate(out, key, c * cc)
        return TensorElement(self, out)

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
        """S(x_ij) = (-q)^(i-j) [complement(j) | complement(i)] det^-1, the
        cofactor formula for 1-minors."""
        out = self._s_letter_cache.get(k)
        if out is None:
            i, j = divmod(k, self.n)
            out = Minors(self, 1).cofactor((i + 1,), (j + 1,)).terms
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
            out = self.alg._product(self._s_letter(last),
                                    self._antipode_mono(m.stripped(last)))
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
        out = {}
        for (u, v, w), c in folded.items():
            s = self._antipode_mono(u)
            pair = self.alg._product(s, {w: c}) if which == "beta" \
                else self.alg._product({w: c}, s)
            for pm, pc in pair.items():
                accumulate(out, (v, pm), pc)
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
        for alpha.  The first leg is in O(M_q), the second in the
        localization."""
        if which not in ("beta", "alpha"):
            raise ValueError("coaction kind must be 'beta' or 'alpha'")
        if not isinstance(a, MqElement):
            raise TypeError("coactions here take matrix-algebra elements")
        # a part of degree d lands over det^d; the sum lifts to the largest
        parts = {}
        for m, c in a.terms.items():
            parts.setdefault(m.deg, []).append((m, c))
        total = TensorElement(self, {}, (None, 0))
        for d in sorted(parts):
            total = total + TensorElement(
                self, self._coaction_mono(parts[d], which), (None, d))
        return total

    def _fixed(self, a: MqElement) -> TensorElement:
        """a (x) 1: the coaction of a coinvariant."""
        return TensorElement(self, {(m, Monomial.one(self.n)): c
                                    for m, c in a.terms.items()}, (None, 0))

    def is_coinvariant(self, a: MqElement, which: str) -> bool:
        """True when the adjoint coaction fixes a, i.e. equals a (x) 1."""
        return self.coaction(a, which) == self._fixed(a)

    def families_coinvariant(self):
        """``[(tau_r is beta-coinvariant, sigma_r is alpha-coinvariant)]``
        for r = 1..n, computed on r-minors (see :class:`Minors`).  The two
        identities behind the formulas are checked once per r, for both
        families; where they fail, both verdicts of that r are False."""
        out = []
        for r in range(1, self.n + 1):
            minors = Minors(self, r)
            holds = minors.identities_hold()
            out.append(tuple(holds and minors.is_fixed(which)
                             for which in ("beta", "alpha")))
        return out


class Minors:
    """The coactions of sums of principal quantum r-minors of one context,
    computed on the minors [I|J] that the algebra caches
    (:meth:`MatrixAlgebra.quantum_minor`).

    Two classical identities (B. Parshall and J.-P. Wang, *Quantum linear
    groups*, Mem. AMS 89, 1991) give the coproduct and the antipode of a
    minor as short sums of minors:

        Delta([I|J]) = sum_K [I|K] (x) [K|J]                (Cauchy-Binet)
        S([I|K]) = (-q)^(sum I - sum K) [K^c|I^c] det^-1    (cofactors)

    with K over the r-subsets of 1..n and ^c the complement.  Applying the
    first twice gives the coactions of a minor,

        beta([I|J])  = sum_{K,L} [K|L] (x) S([I|K]) [L|J]
        alpha([I|J]) = sum_{K,L} [K|L] (x) [L|J] S([I|K]),

    so the coaction of a family sum_I w_I [I|I] needs products of two
    minors, not the two-fold coproduct of every monomial.  The verdict stays
    a proof because :meth:`identities_hold` checks both identities exactly
    at the context's size and q.
    """

    def __init__(self, hopf: HopfContext, r: int):
        self.hopf = hopf
        self.r = r
        self.sets = list(combinations(range(1, hopf.n + 1), r))

    def cofactor(self, I, K) -> MqElement:
        """det S([I|K]) = (-q)^(sum I - sum K) [K^c|I^c]."""
        full = range(1, self.hopf.n + 1)
        rows = tuple(k for k in full if k not in K)
        cols = tuple(i for i in full if i not in I)
        return self.hopf.alg.quantum_minor(rows, cols).scale(
            (-self.hopf.alg.q) ** (sum(I) - sum(K)))

    def identities_hold(self) -> bool:
        """Both identities, for every pair of r-subsets I, J.

        Cauchy-Binet is compared with :meth:`HopfContext.comultiply`.  For
        the cofactors S', the check is sum_K S'([I|K]) [K|J] = delta_IJ, i.e.
        A'B = 1 for the matrices A' = (S'([I|K])) and B = ([K|J]).  The true
        S has BA = 1 (the antipode axiom through Cauchy-Binet), so
        A' = A'(BA) = (A'B)A = A: the cofactors are the antipode, at any q.
        """
        hopf = self.hopf
        minor = hopf.alg.quantum_minor
        det = hopf.alg.quantum_determinant()
        for I in self.sets:
            for J in self.sets:
                binet = {}
                for K in self.sets:
                    for u, cu in minor(I, K).terms.items():
                        for w, cw in minor(K, J).terms.items():
                            accumulate(binet, (u, w), cu * cw)
                if hopf.comultiply(minor(I, J)) != \
                        TensorElement(hopf, binet):
                    return False
                inverse = hopf.alg.zero_element()
                for K in self.sets:
                    inverse = inverse + self.cofactor(I, K) * minor(K, J)
                if inverse != (det if I == J else 0):
                    return False
        return True

    def coaction(self, weights, which: str) -> TensorElement:
        """The coaction ``which`` of sum_I w_I [I|I], for ``weights`` =
        ``{I: w_I}``, as sum_{K,L} [K|L] (x) X_KL det^-1 with the second legs
        X_KL summed over I first."""
        minor = self.hopf.alg.quantum_minor
        zero = self.hopf.alg.zero_element()
        legs = {}
        for I, w in weights.items():
            for K in self.sets:
                s = self.cofactor(I, K).scale(w)
                for L in self.sets:
                    right = minor(L, I)
                    x = s * right if which == "beta" else right * s
                    legs[(K, L)] = legs.get((K, L), zero) + x
        out = {}
        for (K, L), x in legs.items():
            for v, cv in minor(K, L).terms.items():
                for m, cm in x.terms.items():
                    accumulate(out, (v, m), cv * cm)
        return TensorElement(self.hopf, out, (None, 1))

    def is_fixed(self, which: str) -> bool:
        """Does the coaction ``which`` fix its family (tau_r for beta,
        sigma_r for alpha), i.e. send it to a (x) 1?"""
        alg = self.hopf.alg
        got = self.coaction(alg.principal_weights(self.r, which), which)
        return got == self.hopf._fixed(alg.family(self.r, which))
