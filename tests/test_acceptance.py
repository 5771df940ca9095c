"""Acceptance battery: one test per numbered acceptance criterion.

Each test prints a single ``acceptance N [...]: PASS/FAIL`` line (run with
``pytest -s`` to see the lines for passing criteria too) and collects every
violated sub-check before asserting, so a red criterion reports all of its
failures at once.  Runtime budgets are part of the criteria and are enforced.
"""

import time
from itertools import combinations
from math import comb

import pytest

from qcoorbit.chars import (Character, character_of, chi_irreducible,
                            compare_at_q1, difference_identity)
from qcoorbit.coorbit import CoorbitMap, Point, sphere_span
from qcoorbit.hopf import HopfContext, TensorElement
from qcoorbit.mq import MatrixAlgebra
from qcoorbit.scalars import Scalar


@pytest.fixture(scope="module")
def hopf2():
    return HopfContext(MatrixAlgebra(2))


@pytest.fixture(scope="module")
def hopf3():
    return HopfContext(MatrixAlgebra(3))


@pytest.fixture(scope="module")
def generic_beta(hopf2):
    return CoorbitMap(hopf2, Point.diagonal([2, 3]))


@pytest.fixture(scope="module")
def resonant_beta(hopf2):
    return CoorbitMap(hopf2, Point.diagonal([Scalar.q() ** 2, 1]))


def _report(number, label, failures, started, budget):
    elapsed = time.monotonic() - started
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeds the {budget}s budget")
    status = "FAIL" if failures else "PASS"
    print(f"acceptance {number} [{label}]: {status} "
          f"({elapsed:.1f}s of {budget}s)")
    for msg in failures:
        print(f"    - {msg}")
    assert not failures, f"acceptance {number} [{label}]: " + " | ".join(failures)


def _acc(table, key, value):
    old = table.get(key)
    table[key] = value if old is None else old + value


def test_1_adjoint_coinvariance(hopf2, hopf3):
    """beta fixes every tau_i, alpha fixes every sigma_i; families commute."""
    started = time.monotonic()
    failures = []
    for hopf in (hopf2, hopf3):
        alg = hopf.alg
        n = alg.n
        taus = [alg.tau(i) for i in range(1, n + 1)]
        sigmas = [alg.sigma(i) for i in range(1, n + 1)]
        for i, t in enumerate(taus, 1):
            if not hopf.is_coinvariant(t, "beta"):
                failures.append(f"n={n}: beta does not fix tau_{i}")
        for i, s in enumerate(sigmas, 1):
            if not hopf.is_coinvariant(s, "alpha"):
                failures.append(f"n={n}: alpha does not fix sigma_{i}")
        for name, family in (("tau", taus), ("sigma", sigmas)):
            for (i, a), (j, b) in combinations(enumerate(family, 1), 2):
                if a * b != b * a:
                    failures.append(f"n={n}: {name}_{i} and {name}_{j} "
                                    "do not commute")
    _report(1, "adjoint coinvariance", failures, started, budget=60)


def test_2_hopf_axioms(hopf2, hopf3):
    """Coassociativity, counit, and antipode axioms on generators; central det."""
    started = time.monotonic()
    failures = []
    for hopf in (hopf2, hopf3):
        alg = hopf.alg
        n = alg.n
        det = alg.quantum_determinant()
        for g in alg.generators():
            label = f"n={n} {g}"
            dg = hopf.comultiply(g)
            left, right = {}, {}
            for (m1, m2), c in dg.terms.items():
                for (a, b), c2 in hopf.comultiply(
                        alg.monomial_element(m1)).terms.items():
                    _acc(left, (a, b, m2), c * c2)
                for (a, b), c2 in hopf.comultiply(
                        alg.monomial_element(m2)).terms.items():
                    _acc(right, (m1, a, b), c * c2)
            if ({k: v for k, v in left.items() if v}
                    != {k: v for k, v in right.items() if v}):
                failures.append(f"{label}: comultiplication not coassociative")
            eps_left = alg.zero_element()
            eps_right = alg.zero_element()
            for (m1, m2), c in dg.terms.items():
                eps_left = eps_left + alg.monomial_element(m2).scale(
                    c * hopf.counit(alg.monomial_element(m1)))
                eps_right = eps_right + alg.monomial_element(m1).scale(
                    c * hopf.counit(alg.monomial_element(m2)))
            if eps_left != g or eps_right != g:
                failures.append(f"{label}: counit axiom fails")
            s_id = hopf.scalar_gl(0)
            id_s = hopf.scalar_gl(0)
            for (m1, m2), c in dg.terms.items():
                s_id = s_id + (hopf.antipode(alg.monomial_element(m1))
                               * hopf.embed(alg.monomial_element(m2))).scale(c)
                id_s = id_s + (hopf.embed(alg.monomial_element(m1))
                               * hopf.antipode(alg.monomial_element(m2))).scale(c)
            target = hopf.scalar_gl(hopf.counit(g))
            if s_id != target or id_s != target:
                failures.append(f"{label}: antipode axiom fails")
            if det * g != g * det:
                failures.append(f"{label}: determinant is not central")
    _report(2, "Hopf axioms on generators", failures, started, budget=60)


def test_3_power_closed_forms(hopf2):
    """Images of powers of the corner generator match their closed forms."""
    started = time.monotonic()
    failures = []
    q = Scalar.q()
    diag_points = [("diag(2,3)", Point.diagonal([2, 3]), 4),
                   ("diag(1,1)", Point.diagonal([1, 1]), 4),
                   ("diag(q^2,1)", Point.diagonal([q ** 2, 1]), 4),
                   ("diag(q^4,1)", Point.diagonal([q ** 4, 1]), 4)]
    for name, point, max_n in diag_points:
        beta = CoorbitMap(hopf2, point)
        for n in range(max_n + 1):
            if not beta.power_check(n):
                failures.append(f"beta-diag closed form fails at {name}, "
                                f"power {n}")
    alpha = CoorbitMap(hopf2, Point.diagonal([2, 3]), "alpha")
    for n in range(4):
        if not alpha.power_check(n):
            failures.append(f"alpha-diag closed form fails at power {n}")
    nilpotent = CoorbitMap(hopf2, Point([[0, 1], [0, 0]]))
    for n in range(5):
        if not nilpotent.power_check(n):
            failures.append(f"beta-nilpotent closed form fails at power {n}")
    _report(3, "power closed forms", failures, started, budget=120)


def test_4_kernel_equals_ideal(hopf2, generic_beta):
    """Truncated kernel equals the coinvariant-ideal truncation.

    Each target dimension at diag(2,3) is the spanner count minus the
    syzygy count.  The degree-<= d ideal truncation is spanned by
    ``(tau_1 - c_1) m`` for the C(d+3, 4) monomials m of degree <= d - 1 and
    ``(tau_2 - c_2) m`` for the C(d+2, 4) monomials of degree <= d - 2 in
    the 4 generators.  Since tau_1 and tau_2 commute, each monomial m of
    degree <= d - 3 gives the Koszul syzygy
    ``(tau_1 - c_1)(tau_2 - c_2) m = (tau_2 - c_2)(tau_1 - c_1) m`` among
    them, C(d+1, 4) in all: targets 1, 6, 19 for d = 1, 2, 3 (20 spanners,
    one relation, at d = 3).  See "Kernel dimension targets" in README.md.
    """
    started = time.monotonic()
    failures = []
    # Complete intersection of degrees 1 and 2 in 4 variables: spanners
    # minus Koszul syzygies.
    target_dims = {d: comb(d + 3, 4) + comb(d + 2, 4) - comb(d + 1, 4)
                   for d in (1, 2, 3)}
    for d in (1, 2, 3):
        kernel = generic_beta.kernel_basis(d)
        ideal = generic_beta.ideal_truncation(d)
        if kernel != ideal:
            failures.append(f"diag(2,3) degree {d}: kernel (dim {kernel.dim}) "
                            f"!= ideal truncation (dim {ideal.dim})")
        if kernel.dim != target_dims[d]:
            failures.append(f"diag(2,3) degree {d}: kernel dimension "
                            f"{kernel.dim} != target {target_dims[d]}")
    nilpotent_beta = CoorbitMap(hopf2, Point([[0, 1], [0, 0]]))
    for d in (1, 2, 3):
        kernel = nilpotent_beta.kernel_basis(d)
        ideal = nilpotent_beta.ideal_truncation(d)
        if kernel != ideal:
            failures.append(f"nilpotent degree {d}: kernel (dim {kernel.dim}) "
                            f"!= ideal truncation (dim {ideal.dim})")
    _report(4, "truncated kernel = coinvariant ideal", failures, started,
            budget=600)


def test_5_image_in_diagonal_coinvariants(hopf2, hopf3, generic_beta):
    """Co-orbit images of monomials are coinvariant for the diagonal coaction."""
    started = time.monotonic()
    failures = []
    cases = [(hopf2, generic_beta, 3),
             (hopf3, CoorbitMap(hopf3, Point.diagonal([2, 3, 5])), 2)]
    for hopf, bmap, dmax in cases:
        alg = hopf.alg
        images = (bmap(alg.monomial_element(m))
                  for m in alg.monomial_basis(dmax))
        bad = sum(1 for g in images
                  if not all(k.is_diag_coinvariant(g.detpow) for k in g.terms))
        if bad:
            failures.append(f"n={alg.n}: {bad} monomial image(s) of degree "
                            f"<= {dmax} are not diagonal-coinvariant")
    _report(5, "images are diagonal-coinvariant", failures, started, budget=300)


def test_6_character_matches_classical_specialization(hopf2):
    """Truncated image characters agree with the q = 1 recomputation."""
    started = time.monotonic()
    failures = []
    reports = compare_at_q1(CoorbitMap(hopf2, Point.diagonal([2, 3])), 3)
    if len(reports) != 3:
        failures.append(f"{len(reports)} reports for degrees 1..3")
    for d, outcome in enumerate(reports, 1):
        if not outcome.match:
            failures.append(
                f"degree {d}: symbolic character {outcome.symbolic} != "
                f"q=1 character {outcome.specialized}")
    _report(6, "character survives q = 1", failures, started, budget=600)


def test_7_character_identities(hopf2):
    """Difference identity, sphere span dimensions, and small characters."""
    started = time.monotonic()
    failures = []
    for r in range(1, 6):
        if not difference_identity(r):
            failures.append(f"difference identity fails at radius {r}")
    for r in range(5):
        span = sphere_span(hopf2, r)
        if span.dim != (r + 1) ** 2:
            failures.append(f"sphere span at length {r} has dimension "
                            f"{span.dim}, expected {(r + 1) ** 2}")
        expected = Character.zero("z")
        for l in range(r + 1):
            expected = expected + chi_irreducible(2 * l)
        if character_of(span) != expected:
            failures.append(f"sphere span character at length {r} is "
                            f"{character_of(span)}, expected {expected}")
    small = {0: {0: 1},
             2: {2: 1, 0: 1, -2: 1},
             4: {4: 1, 2: 1, 0: 1, -2: 1, -4: 1}}
    for m, mults in small.items():
        if dict(chi_irreducible(m).mults) != mults:
            failures.append(f"irreducible character at weight {m} is wrong")
    _report(7, "character identities", failures, started, budget=60)


def test_8_resonant_degeneration(hopf2, resonant_beta):
    """At diag(q^2, 1) the corner square dies and the image stabilizes."""
    started = time.monotonic()
    failures = []
    alg = hopf2.alg
    x21 = alg.generator(2, 1)
    if not resonant_beta(x21 * x21).is_zero():
        failures.append("square of the corner generator has nonzero image")
    if resonant_beta(x21).is_zero():
        failures.append("corner generator itself should have nonzero image")
    stable = chi_irreducible(0) + chi_irreducible(2)
    for d in (1, 2, 3):
        char = character_of(resonant_beta.image_data(d))
        if char != stable:
            failures.append(f"degree-{d} image character {char} is not the "
                            f"stable value {stable}")
    for d in (2, 3):
        kernel = resonant_beta.kernel_basis(d)
        ideal = resonant_beta.ideal_truncation(d)
        if not ideal.is_subspace_of(kernel):
            failures.append(f"degree-{d} ideal truncation not inside kernel")
        if kernel.dim <= ideal.dim:
            failures.append(f"degree-{d} kernel (dim {kernel.dim}) does not "
                            f"strictly contain the ideal (dim {ideal.dim})")
    _report(8, "resonant degeneration", failures, started, budget=300)


def test_9_coaction_laws(hopf2):
    """Comodule axiom on generators; multiplicativity against coinvariants."""
    started = time.monotonic()
    failures = []
    alg = hopf2.alg
    for g in alg.generators():
        bg = hopf2.coaction(g, "beta")
        p = bg.detpows[1]
        left, right = {}, {}
        for (m, u), c in bg.terms.items():
            for (u1, u2), c2 in hopf2.comultiply(
                    alg.monomial_element(u)).terms.items():
                _acc(left, (m, u1, u2), c * c2)
            inner = hopf2.coaction(alg.monomial_element(m), "beta")
            for (m2, v), c3 in inner.terms.items():
                _acc(right, (m2, v, u), c * c3)
        detpows = (None, p, p)
        if (TensorElement(hopf2, left, detpows)
                != TensorElement(hopf2, right, detpows)):
            failures.append(f"comodule axiom fails on {g}")
    for name, f in (("tau_1", alg.tau(1)), ("tau_2", alg.tau(2))):
        beta_f = hopf2.coaction(f, "beta")
        for m in alg.monomial_basis(2):
            h = alg.monomial_element(m)
            if (hopf2.coaction(f * h, "beta")
                    != beta_f * hopf2.coaction(h, "beta")):
                failures.append(f"coaction not multiplicative on {name} * {m}")
    _report(9, "coaction laws", failures, started, budget=120)
