"""Co-orbit maps at classical points of the quantum matrix space.

A :class:`Point` is a scalar N x N matrix whose entries satisfy the
commutative degenerations of the quantum matrix relations, so that entrywise
evaluation is an algebra map from the quantum matrix algebra to the field.
Evaluating the first leg of an adjoint coaction at such a point gives the
co-orbit map of the point,

    psi(h) = (ev (x) id) beta(h),      phi(h) = (ev (x) id) alpha(h),

a linear (not algebra) map into the localized algebra.  The implementation
never forms a coaction or a two-fold coproduct.  With Delta^2(a x_ij) =
sum_{s,t} a_1 x_is (x) a_2 x_st (x) a_3 x_tj, evaluation at the point xi an
algebra map and S anti-multiplicative, S(a_1 x_is) = S(x_is) S(a_1) gives

    psi(a x_ij) = sum_{s,t} xi_st S(x_is) psi(a) x_tj,
    phi(x_ij a) = sum_{s,t} xi_st x_tj phi(a) S(x_is),

so the image of an ordered monomial is one step from the image of the
monomial without its last letter (beta) or its first (alpha), which is
cached.  The image of m is a numerator over det^deg(m), and only the
numerator is stored.  Only the nonzero point entries branch, which keeps
sparse points (diagonal, single-entry) cheap.  The definition
(ev (x) id) beta, the coaction with its first leg evaluated, survives in
the tests as the oracle.

Truncations: kernels, ideal spans, and images of the co-orbit map restricted
to monomials of bounded degree, as :class:`TruncatedSubspace` values over
explicit key lists, computed by exact echelon reduction.  The kernel is
reduced modulo the ideal spanned by the shifted coinvariants, g_i = tau_i -
tau_i(xi) for beta and sigma_i - sigma_i(xi) for alpha, which the map kills
once it kills each g_i (stored once per map with that verdict): only the
monomials that are no pivot of the ideal's echelon basis are left, and
where a rank mod p of their images proves them independent, the kernel is
the ideal and no exact image is built (see :meth:`CoorbitMap.kernel_basis`).
At a diagonal point the image's dimension and weights are read off such
monomials of the ideal taken mod p, with no exact ideal at all
(:meth:`CoorbitMap.image_weights`).  Every vector, from a co-orbit image to
a stored basis row, is a sparse ``{monomial: coeff}`` dict; the kernel's
matrix rows are the images read by codomain monomial.

The size-2 closed forms and quantum sphere spans, stated in quantum SL_2,
are checked in the degree-0 part of the localization, where the quotient
onto SL_2 is injective.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product

from . import xla
from .hopf import GlqElement, HopfContext
from .mq import MatrixAlgebra, Monomial, MqElement, _compositions, accumulate
from .scalars import Fp, Frozen, PoleError, Scalar


class Point(Frozen):
    """A classical point: an N x N matrix of coefficients.

    Entries may be ints, Fractions, or field elements; they are coerced by
    the consuming algebra.  Use :func:`validate_point` (or a co-orbit
    constructor, which calls it) to check the point actually satisfies the
    required vanishing conditions.
    """

    __slots__ = ("n", "entries")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("a point is a square matrix of entries")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", rows)

    @classmethod
    def diagonal(cls, values) -> "Point":
        values = tuple(values)
        n = len(values)
        return cls(tuple(tuple(values[i] if i == j else 0 for j in range(n))
                         for i in range(n)))

    def specialize(self, q0) -> "Point":
        """The point with q specialized to the rational q0: symbolic
        entries are evaluated there (a pole raises), the others become
        Fractions."""
        return Point([[e.specialize(q0) if isinstance(e, Scalar)
                       else Fraction(e) for e in row]
                      for row in self.entries])

    def is_diagonal(self) -> bool:
        return all(not self.entries[i][j]
                   for i in range(self.n) for j in range(self.n) if i != j)

    def __eq__(self, other):
        return (isinstance(other, Point) and self.n == other.n
                and self.entries == other.entries)

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Point({[list(r) for r in self.entries]})"


def validate_point(point: Point, algebra):
    """Check that evaluation at the point is an algebra map, and return the
    entry table coerced into the algebra's coefficients.

    Evaluation is an algebra map exactly when it respects every
    straightening rule x_big x_small = sum c x_a x_b of the algebra.  On
    commuting scalars the rules say that two entries in one row or one
    column have zero product unless q = 1, and so do a top-right and a
    bottom-left entry unless q = 1/q; at q = 1 every matrix qualifies.
    Raises ValueError naming the entries of the first violated rule's last
    term (the two entries whose product has to vanish).
    """
    if point.n != algebra.n:
        raise ValueError("point size does not match the algebra")
    n = point.n
    xi = [[algebra.coerce(point.entries[i][j]) for j in range(n)]
          for i in range(n)]
    ev = [x for row in xi for x in row]
    for big in range(n * n):
        for small in range(big):
            rule = algebra._letter_rule(big, small)
            rhs = sum((c * ev[a] * ev[b] for c, (a, b) in rule), algebra.zero)
            if ev[big] * ev[small] != rhs:
                (i1, j1), (i2, j2) = divmod(big, n), divmod(small, n)
                kind = "same-row" if i1 == i2 else \
                    "same-column" if j1 == j2 else "antidiagonal"
                (i, j), (k, l) = (divmod(x, n) for x in rule[-1][1])
                raise ValueError(f"entries ({i+1},{j+1}) and ({k+1},{l+1}) "
                                 f"violate the {kind} vanishing condition")
    return xi


def evaluate(a: MqElement, point: Point):
    """Entrywise evaluation of an element at a point (an algebra map)."""
    alg = a.algebra
    if point.n != alg.n:
        raise ValueError("point size does not match the algebra")
    n = alg.n
    xi = [[alg.coerce(point.entries[i][j]) for j in range(n)] for i in range(n)]
    total = alg.zero
    for m, c in a.terms.items():
        val = c
        for k, e in enumerate(m.exps):
            if e:
                i, j = divmod(k, n)
                val = val * xi[i][j] ** e
                if not val:
                    break
        total = total + val
    return total


class TruncatedSubspace(Frozen):
    """A subspace of a finite coefficient space with labeled coordinates.

    Vectors are ``{key: coeff}`` dicts over the key list, with no zero
    coefficient.  Stores the unique reduced echelon basis, so two subspaces
    over the same keys are equal iff their bases coincide.  The constructor
    echelonizes any spanning vectors; :meth:`_of_rref` takes vectors that
    already are that basis (as :func:`xla.kernel` returns them) and stores
    them as they are.
    """

    __slots__ = ("keys", "rows", "pivots")

    def __init__(self, keys, vectors):
        order = {k: i for i, k in enumerate(keys)}
        rref, pivots, _rank = xla.echelon(vectors, order)
        self._store(keys, rref, pivots)

    @classmethod
    def _of_rref(cls, keys, rref):
        """The subspace whose reduced echelon basis is ``rref``, unchecked."""
        self = cls.__new__(cls)
        order = {k: i for i, k in enumerate(keys)}
        self._store(keys, rref, [min(r, key=order.__getitem__) for r in rref])
        return self

    def _store(self, keys, rref, pivots):
        keys = tuple(keys)
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate keys")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "rows", tuple(rref))
        object.__setattr__(self, "pivots", tuple(pivots))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_subspace_of(self, other: "TruncatedSubspace") -> bool:
        if self.keys != other.keys:
            raise ValueError("subspaces over different key lists")
        return all(xla.member(r, other.rows, other.pivots) for r in self.rows)

    def __eq__(self, other):
        return (isinstance(other, TruncatedSubspace)
                and self.keys == other.keys and self.rows == other.rows)

    def __repr__(self):
        return f"TruncatedSubspace(dim={self.dim}, ambient={len(self.keys)})"


def _span(vectors) -> TruncatedSubspace:
    """Span of ``{monomial: coeff}`` vectors over the monomials they use."""
    keys = sorted({m for v in vectors for m in v}, key=Monomial.sort_key)
    return TruncatedSubspace(keys, vectors)


class CoorbitMap:
    """The co-orbit map of one point, one side (beta or alpha), memoized.

    >>> from qcoorbit.mq import MatrixAlgebra
    >>> H = HopfContext(MatrixAlgebra(2))
    >>> cm = CoorbitMap(H, Point.diagonal([2, 3]))
    >>> cm(H.alg.tau(1)) == H.scalar_gl(evaluate(H.alg.tau(1), cm.point))
    True
    """

    def __init__(self, hopf: HopfContext, point: Point, which: str = "beta"):
        if which not in ("beta", "alpha"):
            raise ValueError("co-orbit side must be 'beta' or 'alpha'")
        self.xi = xi = validate_point(point, hopf.alg)
        self.hopf = hopf
        self.point = point
        self.which = which
        n, one = hopf.n, hopf.alg.one
        unit = Monomial.one(n)
        # at s * n + j: sum_t xi_st x_tj, the letters that x_is meets
        self._rows = [{unit.bumped(t * n + j): x
                       for t, x in enumerate(xi[s]) if x}
                      for s in range(n) for j in range(n)]
        self._mono_cache = {unit: {unit: one}}
        # i -> (tau_i - tau_i(xi) or sigma_i - sigma_i(xi), whether psi
        # kills it, None until checked)
        self._families = {}
        self._ideals = {}     # degree -> I_d
        # the twin over F_p, kept while the certificate holds; None at
        # rational q, at a pole mod p and after the first failed certificate
        self._twin = None
        if isinstance(hopf.alg.q, Scalar):
            try:
                self._twin = self._twin_map()
            except PoleError:
                pass

    def of_monomial(self, m: Monomial):
        """Image numerator of an ordered monomial, whose det power is its
        degree.

        Built by a loop from the cached image of the longest part of ``m``
        that leaves out its last letters (beta) or its first ones (alpha),
        one letter at a time by :meth:`_extend`, caching every image on the
        way; the loop keeps the stack depth independent of the degree.
        """
        cache = self._mono_cache
        out = cache.get(m)
        if out is not None:
            return out
        strip = Monomial.last_letter if self.which == "beta" \
            else Monomial.first_letter
        letters = []
        part = m
        while part not in cache:
            k = strip(part)
            letters.append(k)
            part = part.stripped(k)
        num = cache[part]
        for k in reversed(letters):
            part = part.bumped(k)
            num = cache[part] = self._extend(num, k)
        return num

    def _extend(self, num, k: int):
        """The image numerator of a monomial one letter x_k = x_ij longer
        than the monomial ``a`` of image numerator ``num``:

            beta:  psi(a x_ij) = sum_s S(x_is) psi(a) (sum_t xi_st x_tj),
            alpha: phi(x_ij a) = sum_s (sum_t xi_st x_tj) phi(a) S(x_is).

        S(x_is) is a numerator over det, so the det power grows by one.
        """
        hopf = self.hopf
        alg, n = hopf.alg, hopf.n
        i, j = divmod(k, n)
        out = {}
        for s in range(n):
            row = self._rows[s * n + j]
            if not row:
                continue
            anti = hopf._s_letter(i * n + s)
            left, right = (anti, row) if self.which == "beta" else (row, anti)
            for pm, pc in alg._product(alg._product(left, num), right).items():
                accumulate(out, pm, pc)
        return out

    def __call__(self, a: MqElement) -> GlqElement:
        alg = self.hopf.alg
        if not isinstance(a, MqElement) or a.algebra is not alg:
            raise ValueError("expected an element of the same matrix algebra")
        cap = max((m.deg for m in a.terms), default=0)
        total = {}
        for m, c in a.terms.items():
            self.hopf._lift(total, self.of_monomial(m), cap - m.deg, c)
        return GlqElement(self.hopf, total, cap)

    # -- truncations ----------------------------------------------------------

    def _lifted_images(self, d: int, domain):
        """Image numerators of the monomials in ``domain``, of degree <= d,
        at det power d."""
        lifted = []
        for m in domain:
            num = self.of_monomial(m)
            if m.deg < d:
                out = {}
                self.hopf._lift(out, num, d - m.deg)
                num = out
            lifted.append(num)
        return lifted

    def kernel_basis(self, d: int) -> TruncatedSubspace:
        """Kernel K_d of the co-orbit map on the span of monomials of degree
        <= d, over those monomials as keys.

        The kernel is taken modulo the ideal truncation I_d of
        :meth:`ideal_truncation`: for beta the right ideal of the
        tau_i - tau_i(xi), spanned by the (tau_i - tau_i(xi)) m, for alpha
        the left ideal of the sigma_i - sigma_i(xi), spanned by the
        m (sigma_i - sigma_i(xi)).  The map kills I_d as soon as it sends
        each tau_i (sigma_i) to its value, which
        :meth:`ideal_inside_kernel` checks exactly.  Then

            K_d = I_d (+) (K_d cap span F),

        F the monomials that are no pivot of I_d's reduced echelon basis:
        reducing a kernel vector by I_d's basis rows leaves a vector in
        span F, and still in K_d.  So K_d = I_d exactly when the images of
        F are linearly independent, and two routes follow.

        * Certified.  At symbolic q the images of F are taken over F_p,
          p = 2^61 - 1 (``scalars.FP_PRIME``), by the same map over
          ``Fp`` at q = q0: q0 = 1 at a regular point with rational
          entries, where straightening is coefficient-free, and
          q0 = 3141592653589793 (``FP_Q0``) elsewhere (see
          :meth:`_twin_map`).  Rank |F| mod p proves K_d = I_d
          (:meth:`_certificate`), and I_d is returned with no exact image
          and no exact elimination.
        * Reduced.  If the rank mod p is lower, or the map has no twin (a
          point entry has a pole mod p at q0, or q is a rational), the
          exact images of F are eliminated and the vectors found are
          merged with I_d's rows.  After the first degree at which the
          certificate fails, the map does not try it again; that saves
          work and changes no result.

        If I_d is not inside K_d, the zero subspace takes its place in the
        reduced route: every monomial is in F, and the merge adds nothing.
        Either route gives the unique reduced echelon basis of K_d.

        >>> from qcoorbit.mq import MatrixAlgebra
        >>> cm = CoorbitMap(HopfContext(MatrixAlgebra(2)),
        ...                 Point.diagonal([2, 3]))
        >>> cm.kernel_basis(2) == cm.ideal_truncation(2)
        True
        """
        ideal = self.ideal_truncation(d)
        if not self.ideal_inside_kernel(d):
            ideal = TruncatedSubspace._of_rref(ideal.keys, ())
        elif self._certificate(d, ideal) is not None:
            return ideal
        domain = ideal.keys
        pivots = set(ideal.pivots)
        columns = [m for m in domain if m not in pivots]
        lifted = self._lifted_images(d, columns)
        # one row per codomain monomial, one column per free domain monomial
        rows = {}
        for m, image in zip(columns, lifted):
            for k, c in image.items():
                rows.setdefault(k, {})[m] = c
        # Any row order gives the same RREF, but it breaks the pivot rule's
        # ties and so decides how large the rational functions met on the
        # way get: rows in insertion order, unsorted, made a `truncations`
        # benchmark pass about 5 % slower (270-279 loops against 254-264).
        rows = [rows[k] for k in sorted(rows, key=Monomial.sort_key)]
        vectors = xla.kernel(rows, columns, self.hopf.alg.one)
        if not vectors:
            return ideal
        # each vector has a 1 at its free column and no entry at another
        # one or at a pivot of I_d: clearing those columns from I_d's rows
        # leaves the reduced echelon basis of the sum
        order = {m: i for i, m in enumerate(domain)}
        free = [min(v, key=order.__getitem__) for v in vectors]
        merged = [xla.reduce(r, vectors, free) for r in ideal.rows] + vectors
        merged.sort(key=lambda r: order[min(r, key=order.__getitem__)])
        return TruncatedSubspace._of_rref(domain, merged)

    def ideal_inside_kernel(self, d: int) -> bool:
        """Does the co-orbit map kill the ideal truncation at degree d?

        Since evaluation at xi is an algebra map and S is
        anti-multiplicative,

            psi(a b) = sum ev(b_2) S(b_1) psi(a) b_3,
            phi(b a) = sum ev(b_2) b_3 phi(a) S(b_1),

        so psi(tau_i) = tau_i(xi) gives psi((tau_i - tau_i(xi)) b) =
        tau_i(xi) psi(b) - tau_i(xi) psi(b) = 0, and phi(sigma_i) =
        sigma_i(xi) gives phi(b (sigma_i - sigma_i(xi))) = 0.  The spanners
        with b = 1 are among those of I_d, so the check that each family
        with i <= min(n, d) maps to its value, that is, kills the generator
        g_i = tau_i - tau_i(xi) (psi(1) = 1), made exactly once per i, is
        equivalent to the check that every spanner maps to 0.
        """
        for i in range(1, min(self.hopf.n, d) + 1):
            g, killed = self._family(i)
            if killed is None:
                killed = self(g).is_zero()
                self._families[i] = (g, killed)
            if not killed:
                return False
        return True

    def _family(self, i: int):
        """The generator g_i = tau_i - tau_i(xi) (beta) or sigma_i -
        sigma_i(xi) (alpha), and whether the map kills it (None until
        checked)."""
        out = self._families.get(i)
        if out is None:
            fam = self.hopf.alg.family(i, self.which)
            g = fam - self.hopf.alg.scalar_element(evaluate(fam, self.point))
            out = self._families[i] = (g, None)
        return out

    def ideal_truncation(self, d: int) -> TruncatedSubspace:
        """Truncated span of the coinvariant-generated ideal, over the
        monomials of degree <= d; built once per degree.

        For beta this is the span of (tau_i - tau_i(point)) m, for alpha the
        span of m (sigma_i - sigma_i(point)); the co-orbit map kills both
        when it sends each family to its value (see
        :meth:`ideal_inside_kernel`).
        """
        ideal = self._ideals.get(d)
        if ideal is not None:
            return ideal
        alg = self.hopf.alg
        spanners = []
        for i in range(1, min(alg.n, d) + 1):
            g = self._family(i)[0]
            for m in alg.monomial_basis(d - i):
                me = alg.monomial_element(m)
                prod = g * me if self.which == "beta" else me * g
                spanners.append(prod.terms)
        ideal = self._ideals[d] = TruncatedSubspace(alg.monomial_basis(d),
                                                    spanners)
        return ideal

    def _certificate(self, d: int, ideal=None):
        """The monomials F that are no pivot of ``ideal`` and their images
        mod p at det^d, when those have rank |F| mod p; None when the map
        has no twin (see :meth:`_twin_map`) and when the rank is lower,
        which drops the twin, so that no later degree tries again.

        ``ideal`` is I_d or its reduction J mod p, by default the twin's
        own ``ideal_truncation(d)``.  Once I_d is checked to lie in K_d,
        rank |F| proves K_d = I_d.  The images mod p reduce from the exact
        ones: sending q to the twin's q0 and reducing mod p is a ring map
        on the scalars with no pole at q0, for any q0, q0 = 1 included
        (at a point with rational entries every coefficient of a spanner
        or an image is a Laurent polynomial in q).  A rank can only drop
        under it (J. T. Schwartz, J. ACM 27, 1980).  So, D the monomials
        of degree <= d,
        |D| - |F| = rank J <= dim I_d <= dim K_d = |D| - rank psi and
        rank psi >= |F|: all are equal.
        """
        twin = self._twin
        if twin is None:
            return None
        if ideal is None:
            ideal = twin.ideal_truncation(d)
        pivots = set(ideal.pivots)
        free = [m for m in ideal.keys if m not in pivots]
        images = twin._lifted_images(d, free)
        keys = dict.fromkeys(k for v in images for k in v)
        order = {k: i for i, k in enumerate(keys)}
        if xla.echelon(images, order)[2] < len(free):
            self._twin = None
            return None
        return free, images

    def _twin_map(self) -> "CoorbitMap":
        """The twin, built by the constructor at symbolic q: this map over
        the algebra whose q is an element q0 of F_p, at the point reduced
        mod p (:meth:`Fp.of`, which raises PoleError at a pole, where the
        map keeps no twin).  Reduction mod p is a ring map, so the reduced
        point is valid; the constructor checks it again, in microseconds.
        The twin's q is no Scalar, so it has no twin of its own.

        q0 is 1 at a regular point whose entries are rational numbers.
        There the rules carry no q - 1/q term and every product of two
        monomials straightens to one monomial (see :class:`MatrixAlgebra`),
        and the classical adjoint orbit is maximal, so by Kostant's theorem
        (Amer. J. Math. 85, 1963) the classical kernel is the ideal of the
        shifted invariants at every degree: at q = 1 the certificate can
        hold at every degree, as it does at a generic q by the paper's
        kernel theorem.  The proof of :meth:`_certificate` holds at any
        q0.  Any other point takes q0 = FP_Q0: an entry such as c*q^2
        would collapse at q = 1 and one such as (q + 1)/(q - 1) has a pole
        there, and at a point that is not regular the classical kernel
        outgrows the ideal while the quantum one need not (at diag(c, c)
        the alpha certificate holds at FP_Q0 up to degree 4 and fails at
        q = 1 at degree 1).
        """
        point = Point([[Fp.of(x) for x in row] for row in self.xi])
        classical = all(x.is_constant() for row in self.xi for x in row) \
            and _is_regular(point.entries)
        q0 = Fp(1) if classical else Fp.of(self.hopf.alg.q)
        return CoorbitMap(HopfContext(MatrixAlgebra(self.hopf.n, q0)), point,
                          self.which)

    def image_weights(self, d: int):
        """The torus weights of the image of the degree <= d truncation,
        read off the monomials F of a certificate on the twin's I_d mod p
        at a diagonal point; None elsewhere.  No exact ideal is built.

        The certified images of F are a basis of the image (see
        :meth:`_certificate`), and at a diagonal point each psi(m) is pure
        in the weight coldeg(m) - rowdeg(m), so the image has the weights
        of F.  Returns ``(weights, coinvariant)``: a Counter over weight
        tuples, and whether every monomial of the images of F mod p has row
        degree (d, ..., d), a check that proves nothing at other points.
        """
        if self._twin is None or not self.point.is_diagonal() \
                or not self.ideal_inside_kernel(d):
            return None
        read = self._certificate(d)
        if read is None:
            return None
        free, images = read
        weights = Counter(tuple(c - r for c, r in zip(m.coldeg(), m.rowdeg()))
                          for m in free)
        coinvariant = all(k.is_diag_coinvariant(d) for v in images for k in v)
        return weights, coinvariant

    def image_data(self, d: int) -> TruncatedSubspace:
        """Image of the degree <= d truncation, over the numerator monomials
        of its elements at det^d."""
        domain = self.hopf.alg.monomial_basis(d)
        return _span(self._lifted_images(d, domain))

    # -- closed-form checks ------------------------------------------------------

    def power_check(self, power: int) -> bool:
        """Compare the image of x21^power against its closed form, which
        the map's side and point fix: with a = x11 and c = x21, c^n a^n
        for beta and a^n c^n for alpha at a diagonal point (the zero point
        included), and c^(2n) for beta at the point whose only nonzero
        entry is x12.  Any other map has no closed form (ValueError).

        The closed form is stated in quantum SL_2 and compared here over
        det^n.  Both sides have degree 0 (deg x_ij = 1, deg det^-1 = -2),
        and the quotient onto SL_2 is injective on each homogeneous
        component: if a = (det - 1) b is homogeneous, the lowest- and
        highest-degree parts of b vanish, O(M_q(2)) being a domain.
        """
        hopf = self.hopf
        alg = hopf.alg
        if alg.n != 2:
            raise ValueError("power checks are for size 2")
        if power < 0:
            raise ValueError("negative power")
        q = alg.q
        a, c = alg.generator(1, 1), alg.generator(2, 1)
        (x1, x12), (x21, x2) = self.xi
        if self.point.is_diagonal():
            coeff = (-q) ** power
            if self.which == "beta":
                for i in range(power):
                    coeff = coeff * (x1 - q ** (2 * i) * x2)
                rhs = (c ** power * a ** power).scale(coeff)
            else:
                for i in range(1, power + 1):
                    coeff = coeff * (x1 - q ** (-2 * i) * x2)
                rhs = (a ** power * c ** power).scale(coeff)
        elif self.which == "beta" and not (x1 or x21 or x2):
            coeff = (-alg.one) ** power * q ** power * x12 ** power
            rhs = (c ** (2 * power)).scale(coeff)
        else:
            raise ValueError(f"no closed form of x21^n for the {self.which} "
                             f"map at {self.point}")
        num = self.of_monomial(Monomial(2, (0, 0, power, 0)))
        return GlqElement(hopf, num, power) == hopf.embed(rhs, power)


def _is_regular(xi) -> bool:
    """Are the powers 1, xi, ..., xi^(n-1) of the n x n matrix ``xi`` over
    F_p linearly independent?  Then its minimal polynomial has degree n:
    xi is regular, and its adjoint orbit has the largest dimension,
    n^2 - n.  A rank n mod p proves it for the rational matrix too."""
    n = len(xi)
    one, zero = Fp(1), Fp(0)
    power = [[one if i == j else zero for j in range(n)] for i in range(n)]
    vectors = []
    for _ in range(n):
        vectors.append({i * n + j: x for i, row in enumerate(power)
                        for j, x in enumerate(row) if x})
        power = [[sum((power[i][k] * xi[k][j] for k in range(n)), zero)
                  for j in range(n)] for i in range(n)]
    return xla.echelon(vectors, {k: k for k in range(n * n)})[2] == n


def diag_coinv_keys(n: int, d: int):
    """Numerator monomials of the torus-coinvariant truncation at det^-d:
    exponent matrices with every row sum equal to d, sorted."""
    rows = list(_compositions(d, n))
    return sorted((Monomial(n, sum(choice, ()))
                   for choice in product(rows, repeat=n)),
                  key=Monomial.sort_key)


def sphere_span(hopf: HopfContext, length: int) -> TruncatedSubspace:
    """Span of the products of length <= length of the quantum sphere
    generators ac, 1 + (q + 1/q) bc and db of SL_2, taken as ac/det,
    (det + (q + 1/q) bc)/det and db/det and lifted to det^length, over their
    numerator monomials.  The products have degree 0 (deg x_ij = 1,
    deg det^-1 = -2), where the quotient onto SL_2 is injective (see
    :meth:`CoorbitMap.power_check`), so this is the paper's span in SL_2.
    """
    alg = hopf.alg
    q = alg.q
    a, b, c, d = alg.generators()
    gens = [a * c, alg.quantum_determinant() + (q + q ** -1) * (b * c), d * b]
    level = [alg.one_element()]
    lifted = [hopf.embed(level[0]).numerator_at(length).terms]
    for k in range(1, length + 1):
        level = [e * g for e in level for g in gens]
        lifted += [hopf.embed(e, k).numerator_at(length).terms for e in level]
    return _span(lifted)
