"""Characters of truncated comodule spaces and their decompositions.

A :class:`Character` is a Laurent polynomial with integer multiplicities,
either in the circle variable z ("z" picture) or in the torus variables
t1..tn ("t" picture).  Image truncations of co-orbit maps decompose under
the torus weight grading; in the z picture (size 2) they decompose further
into the irreducible sl_2 characters chi(m) = z^m + z^(m-2) + ... + z^-m.

One read of an image's dimension, character and coinvariance,
:func:`image_at`, serves the ``image`` and ``character`` commands and both
sides of the q = 1 check.

Also here: the combinatorial character of the degree <= r coordinate-space
truncation and its difference identity, and the end-to-end consistency check
that re-runs a whole image computation with q specialized to 1 before any
linear algebra happens.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .coorbit import CoorbitMap, TruncatedSubspace
from .hopf import HopfContext
from .mq import MatrixAlgebra, SparseTerms, laurent_word


class Character(SparseTerms):
    """Integer-multiplicity weights, in the "z" or "t" picture.

    ``terms`` (also readable as ``mults``) maps a weight (an int in the z
    picture, a tuple in the t picture) to its multiplicity.
    """

    __slots__ = ("picture", "terms")

    def __init__(self, picture: str, mults):
        if picture not in ("z", "t"):
            raise ValueError("picture must be 'z' or 't'")
        for w, m in mults.items():
            if picture == "z" and not isinstance(w, int):
                raise ValueError("z-picture weights are integers")
            if picture == "t" and not isinstance(w, tuple):
                raise ValueError("t-picture weights are tuples")
            if int(m) != m:
                raise ValueError("multiplicities are integers")
        object.__setattr__(self, "picture", picture)
        object.__setattr__(self, "terms", {w: int(m) for w, m in mults.items() if m})

    @property
    def mults(self) -> dict:
        return self.terms

    @classmethod
    def zero(cls, picture: str = "z") -> "Character":
        return cls(picture, {})

    @classmethod
    def from_weights(cls, picture: str, weights) -> "Character":
        return cls(picture, Counter(weights))

    def z_picture(self) -> "Character":
        """The z character of a t character: a weight w goes to w1 - wn."""
        if self.picture != "t":
            raise ValueError("only a t character maps to the z picture")
        out = Counter()
        for w, m in self.terms.items():
            out[w[0] - w[-1]] += m
        return Character("z", out)

    def _like(self, terms) -> "Character":
        return Character(self.picture, terms)

    def _coerce(self, other) -> "Character":
        if not isinstance(other, Character):
            raise TypeError("a character combines only with characters and "
                            "scales by integers")
        if self.picture != other.picture:
            raise ValueError("characters in different pictures")
        return other

    def __mul__(self, other):
        if isinstance(other, Character):
            raise TypeError("characters do not multiply")
        return self.scale(other)

    def _rendered(self):
        if self.picture == "z":
            return [(self.terms[w], laurent_word("z", (w,)))
                    for w in sorted(self.terms, reverse=True)]
        return [(self.terms[w], laurent_word([f"t{i+1}" for i in range(len(w))], w))
                for w in sorted(self.terms)]

    def __eq__(self, other):
        return (isinstance(other, Character) and self.picture == other.picture
                and self.terms == other.terms)


def chi_irreducible(m: int) -> Character:
    """Character of the (m+1)-dimensional irreducible: z^m + ... + z^-m."""
    if m < 0:
        raise ValueError("highest weight must be nonnegative")
    return Character("z", {w: 1 for w in range(-m, m + 1, 2)})


def character_of(space, picture: str = "z") -> Character:
    """Character of an image truncation or of a sphere span: one weight per
    basis row, read off its keys.

    The keys are numerator monomials of degree n*p over det^p.  A key's
    torus weight is its column degrees minus p, which det leaves unchanged,
    and every basis row must be pure in it; the z picture maps it to
    w1 - wn, column-1 degree minus column-n degree
    (:meth:`Character.z_picture`).
    """
    if not isinstance(space, TruncatedSubspace):
        raise TypeError("expected a TruncatedSubspace")
    if picture not in ("z", "t"):
        raise ValueError("picture must be 'z' or 't'")
    weights = []
    for row in space.rows:
        ws = {tuple(c - m.deg // m.n for c in m.coldeg()) for m in row}
        if len(ws) != 1:
            raise ValueError("basis row mixes weights")
        weights.append(ws.pop())
    char = Character.from_weights("t", weights)
    return char.z_picture() if picture == "z" else char


def decompose_sl2(char: Character) -> dict:
    """Write a z-character as a sum of irreducible characters, greedily
    peeling the top weight; raises if the input is not such a sum."""
    if char.picture != "z":
        raise ValueError("decomposition works in the z picture")
    rest = char
    out = {}
    while rest:
        top = max(rest.mults)
        mult = rest.mults[top]
        if top < 0 or mult < 0:
            raise ValueError("not a nonnegative sum of irreducible characters")
        # the top weight drops with each step, so each appears once
        rest = rest - chi_irreducible(top).scale(mult)
        out[top] = mult
    return dict(sorted(out.items()))


def coordinate_truncation_character(r: int) -> Character:
    """z-character of the degree <= r coordinate truncation: one orbit of
    monomial families indexed by i+j+k <= r-1 and one by l+m+n <= r."""
    if r < 0:
        raise ValueError("negative truncation degree")
    mults = Counter()
    for i in range(r):
        for j in range(r - i):
            for k in range(r - i - j):
                mults[2 * (k - j)] += 1
    for l in range(r + 1):
        for m in range(r + 1 - l):
            for n in range(r + 1 - l - m):
                mults[2 * (m - l)] += 1
    return Character("z", mults)


def coordinate_truncation_dimension(r: int) -> int:
    return comb(r + 2, 3) + comb(r + 3, 3)


def difference_identity(r: int) -> bool:
    """The degree-r layer of the coordinate truncation is the sum of the
    even irreducibles up to weight 2r."""
    if r < 1:
        raise ValueError("needs r >= 1")
    lhs = coordinate_truncation_character(r) - coordinate_truncation_character(r - 1)
    rhs = sum((chi_irreducible(2 * s) for s in range(r + 1)), Character.zero())
    return lhs == rhs


class SpecializationReport(NamedTuple):
    match: bool
    symbolic: Character
    specialized: Character


def image_at(cm: CoorbitMap, d: int):
    """Dimension, t character and diagonal coinvariance of the image of the
    degree <= d truncation: read off a certificate mod p at a diagonal point
    (:meth:`CoorbitMap.image_weights`), else off the image's echelon basis."""
    read = cm.image_weights(d)
    if read is not None:
        weights, coinv = read
        return sum(weights.values()), Character("t", weights), coinv
    img = cm.image_data(d)
    coinv = all(m.is_diag_coinvariant(d) for m in img.keys)
    return img.dim, character_of(img, "t"), coinv


def compare_at_q1(cm: CoorbitMap, dmax: int) -> list:
    """One :class:`SpecializationReport` per degree d = 1..dmax: the torus
    character of the image of ``cm`` against that of the same map rebuilt
    once, for every degree, at q = 1 before any linear algebra, both read
    by :func:`image_at` like the ``image`` command's.  Point entries that
    are symbolic scalars are specialized too (a pole at q = 1 raises)."""
    alg1 = MatrixAlgebra(cm.hopf.n, Fraction(1))
    one = CoorbitMap(HopfContext(alg1), cm.point.specialize(alg1.q),
                     cm.which)
    out = []
    for d in range(1, dmax + 1):
        sym, spec = image_at(cm, d)[1], image_at(one, d)[1]
        out.append(SpecializationReport(sym == spec, sym, spec))
    return out
