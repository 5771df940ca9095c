"""Seeded command lists for the three benchmark workloads.

Every command is a ``qcoorbit`` argv plus what the oracle needs to judge its
report.  The seed picks the points and the ``--q1`` value; the program sees
only the generated points and ``--q1``.

* ``coinvariants``: ``verify-coinvariants`` at n=2 and n=3.  Straightening,
  antipode and coaction folds over Q(q), no elimination at all.  The command
  takes no point, so the seed changes nothing here.  The cheap n=2 check goes
  first because the first command of every run is re-run for determinism.
* ``truncations``: kernels and images at symbolic q, at a generic size-2
  point, a resonant point diag(c q^2, c) and a generic size-3 point, plus
  the identity battery.  Elimination over Q(q) dominates.
* ``specialized``: the same kernel and image commands with ``--q1``, so the
  co-orbit fold and elimination run on ``Fraction`` instead of ``Scalar``.

The same seed gives the same points in ``truncations`` and ``specialized``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("coinvariants", "truncations", "specialized")

# Non-unit rationals: at q = +-1 the algebra degenerates to the classical one.
Q1_CHOICES = ("2", "3", "-2", "3/2", "5/2", "-3/2", "2/3", "7/3")

# Small entries keep coefficient growth (and Scalar.parse exponents) small.
ENTRIES = tuple(v for v in range(-9, 10) if v)

# Truncation degrees.  RunConfig caps them at 4 for n=2 and 2 for n=3.
DEGREE = {2: 4, 3: 2}


@dataclass(frozen=True)
class Command:
    """One CLI call and what its report must say.

    ``point`` is "generic", "resonant" or None; ``q1`` is the ``--q1``
    value, None when q stays symbolic.
    """

    kind: str
    argv: tuple
    n: int
    degree: int = 0
    point: str | None = None
    q1: str | None = None


@dataclass(frozen=True)
class Inputs:
    q1: str
    generic2: tuple
    resonant_c: int
    generic3: tuple


def ratio_is_power(ratio: Fraction, q1: Fraction, kmax: int = 64) -> bool:
    """Is ``ratio`` +- a power of q (symbolic) or of ``q1``?

    Integer entries are +- a power of symbolic q only at ratio +-1.
    """
    r = abs(ratio)
    base = abs(q1)
    p = Fraction(1)
    for _ in range(kmax + 1):
        if r == p or r == 1 / p:
            return True
        p *= base
    return False


def _generic(rng: random.Random, n: int, q1: Fraction) -> tuple:
    """Distinct diagonal entries whose pairwise ratios are no power of q."""
    while True:
        entries = tuple(rng.sample(ENTRIES, n))
        if not any(ratio_is_power(Fraction(a, b), q1)
                   for i, a in enumerate(entries) for b in entries[i + 1:]):
            return entries


def draw_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    q1 = rng.choice(Q1_CHOICES)
    q1f = Fraction(q1)
    return Inputs(q1=q1,
                  generic2=_generic(rng, 2, q1f),
                  resonant_c=rng.choice(ENTRIES),
                  generic3=_generic(rng, 3, q1f))


def _point_json(diag) -> str:
    n = len(diag)
    rows = [[str(diag[i]) if i == j else "0" for j in range(n)]
            for i in range(n)]
    return json.dumps({"n": n, "entries": rows})


def _truncation(kind, diag, point, q1) -> Command:
    n = len(diag)
    argv = [kind, "--point", _point_json(diag), "--degree", str(DEGREE[n])]
    if n != 2:
        # size-3 points are rejected unless --n is given
        argv += ["--n", str(n)]
    if q1 is not None:
        # "--q1 -3/2" would parse as an option, so attach the value
        argv.append(f"--q1={q1}")
    return Command(kind, tuple(argv), n, DEGREE[n], point, q1)


def commands(workload: str, seed: int) -> list:
    """The command list of one pass of ``workload`` for ``seed``."""
    if workload == "coinvariants":
        return [Command("verify-coinvariants",
                        ("verify-coinvariants", "--n", str(n)), n)
                for n in (2, 3)]
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    inp = draw_inputs(seed)
    q1 = inp.q1 if workload == "specialized" else None
    c = inp.resonant_c
    resonant = (f"{c}*q^2", c)
    cmds = []
    if q1 is None:
        # cheapest command first: it is the one re-run for determinism
        cmds.append(Command("identities", ("identities",), 2))
    cmds += [
        _truncation("kernel", inp.generic2, "generic", q1),
        _truncation("kernel", resonant, "resonant", q1),
        _truncation("image", resonant, "resonant", q1),
        _truncation("kernel", inp.generic3, "generic", q1),
        _truncation("image", inp.generic3, "generic", q1),
    ]
    return cmds
