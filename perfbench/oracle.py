"""Independent checks on the reports the benchmark's commands print.

* Generic diagonal points: the shifted coinvariants tau_i - c_i (degrees
  1..n) cut out a complete intersection in n^2 variables (the quantum
  analogue of Kostant, Amer. J. Math. 85, 1963), so the truncated kernel has
  dimension C(d + n^2, n^2) - [t^d] prod_{i<=n} (1 - t^i) / (1 - t)^(n^2+1),
  and it equals the ideal truncation.
* The ideal truncation has that dimension at every point, resonant ones too:
  the leading forms tau_1..tau_n are the same regular sequence.
* Image dimension is domain dimension minus kernel dimension (rank-nullity),
  and the SL_2 decomposition and torus character both count the image.
* ``--q1`` runs must give the symbolic dimensions.  For the resonant point
  diag(c q^2, c) those are pinned in RESONANT_KERNEL_DIMS.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb

# Kernel dims at the resonant size-2 point diag(c q^2, c), beta coaction, as
# the symbolic engine computes them for every c tried.
RESONANT_KERNEL_DIMS = {1: 1, 2: 11, 3: 31, 4: 66}

# Checks in `identities` with its defaults (n=2, --max-n 4, degree 3):
# 4 antipode, 4 coinvariance, 12 power, 4 sphere, 3 q=1, 5 difference.
IDENTITY_CHECKS = 32


def domain_dim(n: int, d: int) -> int:
    """Number of monomials of degree <= d in n^2 variables."""
    return comb(d + n * n, n * n)


def generic_kernel_dim(n: int, d: int) -> int:
    m = n * n + 1
    num = [1]
    for i in range(1, n + 1):   # multiply by (1 - t^i)
        prod = num + [0] * i
        for k, a in enumerate(num):
            prod[k + i] -= a
        num = prod
    # [t^d] num(t) / (1 - t)^m, with [t^k] (1 - t)^-m = C(k + m - 1, m - 1)
    quotient = sum(c * comb(d - j + m - 1, m - 1)
                   for j, c in enumerate(num) if j <= d)
    return domain_dim(n, d) - quotient


def expected_kernel_dim(cmd, d: int) -> int:
    if cmd.point == "resonant":
        return RESONANT_KERNEL_DIMS[d]
    return generic_kernel_dim(cmd.n, d)


def character_dim(text: str) -> int:
    """Sum of the coefficients of a rendered Laurent character."""
    total = 0
    for term in text.split(" + "):
        m = re.match(r"(\d+)(\*|$)", term)
        total += int(m.group(1)) if m else 1
    return total


def _check_kernel(cmd, report, problems):
    for d, row in enumerate(report["degrees"], start=1):
        kdim, idim = row["kernel_dim"], row["ideal_dim"]
        want = expected_kernel_dim(cmd, d)
        if kdim != want:
            problems.append(f"degree {d}: kernel_dim {kdim}, expected {want}")
        if idim != generic_kernel_dim(cmd.n, d):
            problems.append(f"degree {d}: ideal_dim {idim}, expected "
                            f"{generic_kernel_dim(cmd.n, d)}")
        if row["ideal_inside_kernel"] is not True:
            problems.append(f"degree {d}: ideal not inside kernel")
        if row["kernel_equals_ideal"] is not (kdim == idim):
            problems.append(f"degree {d}: kernel_equals_ideal disagrees "
                            "with the dimensions")
        if cmd.point == "generic" and row["kernel_equals_ideal"] is not True:
            problems.append(f"degree {d}: kernel differs from the ideal at "
                            "a generic point")
        if len(row["kernel_basis"]) != kdim:
            problems.append(f"degree {d}: basis length {len(row['kernel_basis'])}"
                            f" is not kernel_dim {kdim}")


def _check_image(cmd, report, problems):
    for d, row in enumerate(report["degrees"], start=1):
        want = domain_dim(cmd.n, d) - expected_kernel_dim(cmd, d)
        dim = row["image_dim"]
        if dim != want:
            problems.append(f"degree {d}: image_dim {dim}, expected {want}")
        if row["det_power"] != d:
            problems.append(f"degree {d}: det_power {row['det_power']}")
        if row["inside_diag_coinvariants"] is not True:
            problems.append(f"degree {d}: image outside the diagonal "
                            "coinvariants")
        decomp = row["sl2_decomposition"]
        if decomp is not None and sum((int(m) + 1) * k
                                      for m, k in decomp.items()) != dim:
            problems.append(f"degree {d}: SL_2 decomposition does not "
                            "count the image")
        if character_dim(row["t_character"]) != dim:
            problems.append(f"degree {d}: torus character does not count "
                            "the image")


def _check_checks(report, count, problems):
    checks = report["checks"]
    if len(checks) != count:
        problems.append(f"{len(checks)} checks, expected {count}")
    for c in checks:
        if c["pass"] is not True:
            problems.append(f"check failed: {c['name']}")


def check(cmd, rc: int, text: str) -> list:
    """Everything wrong with one command's exit code and report."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        report = json.loads(text)
    except ValueError:
        return problems + ["report is not JSON"]
    try:
        q = "q" if cmd.q1 is None else str(Fraction(cmd.q1))
        for key, want in (("command", cmd.kind), ("n", cmd.n), ("q", q),
                          ("all_pass", True)):
            if report[key] != want:
                problems.append(f"{key} is {report[key]!r}, expected {want!r}")
        if cmd.kind in ("kernel", "image"):
            if [r["degree"] for r in report["degrees"]] != \
                    list(range(1, cmd.degree + 1)):
                problems.append(f"degrees are not 1..{cmd.degree}")
            if cmd.kind == "kernel":
                _check_kernel(cmd, report, problems)
            else:
                _check_image(cmd, report, problems)
        elif cmd.kind == "identities":
            _check_checks(report, IDENTITY_CHECKS, problems)
        elif cmd.kind == "verify-coinvariants":
            _check_checks(report, 2 * cmd.n, problems)
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        problems.append(f"malformed report: {e!r}")
    return problems
