"""Command-line interface: JSON reports over the symbolic engine.

Commands take points as JSON (inline or a file path), run exact
computations, and print a deterministic JSON report (sorted keys, no
timestamps) so reruns are byte-identical.  Exit status: 0 when every check
in the report passed, 1 when some check failed, 2 for usage or domain
errors (bad point, degree over the cost ceiling, pole in a specialization,
gcd work over the one budget that each command runs under).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .chars import (compare_at_q1, decompose_sl2, difference_identity,
                    image_at)
from .coorbit import CoorbitMap, Point, evaluate, sphere_span, validate_point
from .hopf import HopfContext
from .mq import MatrixAlgebra, MqElement
from .scalars import MAX_PARSE_BITS, PoleError, Scalar, gcd_budget

CONVENTIONS = {
    "generator_order": "row-major: x11 < x12 < ... < xNN",
    "coaction_beta": "h2 (x) S(h1) h3",
    "coaction_alpha": "h2 (x) h3 S(h1)",
    "beta_coinvariants": "tau_i = sum of principal minors [I|I] "
                         "scaled by q^(-2 sum(I))",
    "alpha_coinvariants": "sigma_i = sum of principal minors [I|I]",
    "sphere_generators": "ac, 1 + (q + 1/q) bc, db",
}


# Cost ceilings for truncation degrees, keyed by matrix size; point commands
# refuse every other size (kernel at a 6 x 6 point took about 20 s at
# degree 1).
DEGREE_CEILING = {1: 1, 2: 4, 3: 2, 4: 1}
# The largest --n of verify-coinvariants and identities, and the largest
# --max-n of identities (about 0.05 s at 14, 0.3 s at 30 and 6 s at 60).  On
# minors both commands take about 0.5 s at size 4; at size 5 the
# Cauchy-Binet and cofactor checks of the 4-minors alone take about 10-14 s.
SIZE_CEILING = 4
POWER_CEILING = 14


def check_degree(n: int, d: int | None = None) -> int:
    """The truncation degree ``d`` at size ``n`` (the ceiling when None);
    refuses a size or degree over the cost ceilings."""
    cap = DEGREE_CEILING.get(n)
    if cap is None:
        raise ValueError(f"size {n} is over the cost ceiling "
                         f"{max(DEGREE_CEILING)} of point commands")
    if d is None:
        return cap
    if d > cap:
        raise ValueError(
            f"degree {d} is over the cost ceiling {cap} for size {n}")
    if d < 1:
        raise ValueError("degree must be at least 1")
    return d


def parse_q1(text: str) -> Fraction:
    """The rational of ``--q1``.  Refused when its numerator or denominator
    has more than MAX_PARSE_BITS bits, like an integer of the scalar
    grammar; a decimal exponent over that bound is refused before Fraction
    builds its power of 10."""
    try:
        exponent = re.search(r"[eE]([+-]?[\d_]+)\s*$", text)
        small = not exponent or abs(int(exponent.group(1))) <= MAX_PARSE_BITS
        q0 = Fraction(text) if small else None
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"bad rational for --q1: {text!r}") from e
    if q0 is None or max(q0.numerator.bit_length(),
                         q0.denominator.bit_length()) > MAX_PARSE_BITS:
        raise ValueError(f"--q1 is over the parser's bound of "
                         f"{MAX_PARSE_BITS} bits")
    if q0 == 0:
        raise ValueError("--q1 must be nonzero")
    return q0


def load_point(spec: str, q=None) -> Point:
    """Read a point from inline JSON or from a JSON file.

    Format: {"n": 2, "entries": [["2", "0"], ["0", "q^2"]]} with entries
    given as integers or expression strings in the scalar grammar.  When a
    rational q is given (the engine runs specialized), the entries are
    specialized at it.  The caller validates the point once, through
    :func:`validate_point` or the co-orbit map; in a command, the reading,
    the validation and every fold at the point share the command's gcd
    budget.
    """
    text = spec.strip()
    if not text.startswith("{"):
        with open(spec, encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except RecursionError as e:
        raise ValueError("point JSON nests too deeply") from e
    if not isinstance(data, dict) or "entries" not in data:
        raise ValueError('point JSON needs an "entries" matrix')
    entries = data["entries"]
    if not isinstance(entries, list) or not all(isinstance(r, list)
                                                for r in entries):
        raise ValueError("point entries must be a list of rows")
    n = data.get("n", len(entries))
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f'point "n" must be an int, not {type(n).__name__}')
    if len(entries) != n or any(len(r) != n for r in entries):
        raise ValueError("point entries must form an n x n matrix")
    rows = []
    for row in entries:
        out = []
        for e in row:   # an int goes through the grammar's bounds too
            if isinstance(e, bool) or not isinstance(e, (int, str)):
                raise ValueError(f"point entries are ints or strings, not "
                                 f"{type(e).__name__}")
            out.append(Scalar.parse(str(e)))
        rows.append(out)
    return Point(rows) if q is None else Point(rows).specialize(q)


def _context(n: int, q1: str | None) -> HopfContext:
    if n > SIZE_CEILING:
        raise ValueError(f"--n {n} is over the cost ceiling {SIZE_CEILING}")
    q = parse_q1(q1) if q1 else None
    return HopfContext(MatrixAlgebra(n, q))


def _point_context(args):
    """A context of the point's own size, and the point (read once, not
    yet validated).  An explicit ``--n`` has to agree with the point.
    """
    q = parse_q1(args.q1) if args.q1 else None
    point = load_point(args.point, q)
    if args.n is not None and args.n != point.n:
        raise ValueError(
            f"--n {args.n} does not match the point size {point.n}")
    return HopfContext(MatrixAlgebra(point.n, q)), point


def _base_report(command: str, algebra) -> dict:
    return {
        "command": command,
        "conventions": CONVENTIONS,
        "n": algebra.n,
        "q": str(algebra.q),
    }


# -- commands --------------------------------------------------------------------


def cmd_verify_coinvariants(args):
    hopf = _context(args.n, args.q1)
    verdicts = hopf.families_coinvariant()
    checks = [{"name": f"tau_{r} is beta-coinvariant", "pass": tau}
              for r, (tau, _) in enumerate(verdicts, 1)]
    checks += [{"name": f"sigma_{r} is alpha-coinvariant", "pass": sigma}
               for r, (_, sigma) in enumerate(verdicts, 1)]
    report = _base_report("verify-coinvariants", hopf.alg)
    report["checks"] = checks
    return report, all(c["pass"] for c in checks)


def _point_setup(args):
    hopf, point = _point_context(args)
    d = check_degree(hopf.alg.n, args.degree)
    cm = CoorbitMap(hopf, point, args.coaction)
    return cm, d


def _point_json(point: Point):
    return [[str(e) for e in row] for row in point.entries]


def _degrees_report(command: str, cm: CoorbitMap, degrees) -> dict:
    """The report of a command run per truncation degree at a point."""
    report = _base_report(command, cm.hopf.alg)
    report["point"] = _point_json(cm.point)
    report["coaction"] = cm.which
    report["degrees"] = degrees
    return report


def cmd_kernel(args):
    cm, dmax = _point_setup(args)
    alg = cm.hopf.alg
    degrees = []
    ok = True
    for d in range(1, dmax + 1):
        ker = cm.kernel_basis(d)
        ideal = cm.ideal_truncation(d)
        inside = cm.ideal_inside_kernel(d)
        ok = ok and inside
        degrees.append({
            "degree": d,
            "kernel_dim": ker.dim,
            "ideal_dim": ideal.dim,
            "ideal_inside_kernel": inside,
            "kernel_equals_ideal": ker == ideal,
            "kernel_basis": [str(MqElement(alg, row)) for row in ker.rows],
        })
    return _degrees_report("kernel", cm, degrees), ok


def cmd_image(args):
    cm, dmax = _point_setup(args)
    degrees = []
    ok = True
    for d in range(1, dmax + 1):
        dim, tchar, coinv = image_at(cm, d)
        zchar = tchar.z_picture()
        try:
            decomp = {str(m): k for m, k in decompose_sl2(zchar).items()}
        except ValueError:
            decomp = None
        ok = ok and coinv
        degrees.append({
            "degree": d,
            "image_dim": dim,
            "det_power": d,
            "t_character": str(tchar),
            "z_character": str(zchar),
            "sl2_decomposition": decomp,
            "inside_diag_coinvariants": coinv,
        })
    return _degrees_report("image", cm, degrees), ok


def cmd_character(args):
    cm, dmax = _point_setup(args)
    degrees = []
    zchars = []
    for d in range(1, dmax + 1):
        dim, tchar, _coinv = image_at(cm, d)
        zchar = tchar.z_picture()
        zchars.append(zchar)
        degrees.append({
            "degree": d,
            "dim": dim,
            "z_character": str(zchar),
            "t_character": str(tchar),
        })
    report = _degrees_report("character", cm, degrees)
    report["stabilized"] = (len(zchars) >= 2 and zchars[-1] == zchars[-2])
    return report, True


def cmd_eval(args):
    hopf, point = _point_context(args)
    validate_point(point, hopf.alg)
    report = _base_report("eval", hopf.alg)
    report["point"] = _point_json(point)
    elem = hopf.alg.parse(args.expression)
    report["expression"] = str(elem)
    report["value"] = str(evaluate(elem, point))
    return report, True


def cmd_identities(args):
    nmax = args.max_n
    if not 0 <= nmax <= POWER_CEILING:
        raise ValueError(f"--max-n {nmax} is outside 0..{POWER_CEILING}")
    hopf = _context(args.n, args.q1)
    alg = hopf.alg
    dmax = check_degree(alg.n, args.max_degree if args.max_degree is not None
                        else min(3, DEGREE_CEILING[alg.n]))
    checks = []

    def add(name, value):
        checks.append({"name": name, "pass": bool(value)})

    # Hopf axiom suite on the generators
    for g, label in [(alg.generator(i, j), f"x{i}{j}")
                     for i in range(1, alg.n + 1)
                     for j in range(1, alg.n + 1)]:
        lhs = hopf.scalar_gl(0)
        rhs = hopf.scalar_gl(0)
        for (u, v), c in hopf.comultiply(g).terms.items():
            su = hopf.antipode(alg.monomial_element(u))
            sv = hopf.antipode(alg.monomial_element(v))
            lhs = lhs + (su * hopf.embed(alg.monomial_element(v))).scale(c)
            rhs = rhs + (hopf.embed(alg.monomial_element(u)) * sv).scale(c)
        expected = hopf.scalar_gl(hopf.counit(g))
        add(f"antipode axiom at {label}", lhs == expected and rhs == expected)

    # coinvariance of both families
    for r, (tau, sigma) in enumerate(hopf.families_coinvariant(), 1):
        add(f"tau_{r} beta-coinvariant", tau)
        add(f"sigma_{r} alpha-coinvariant", sigma)

    # power closed forms and sphere data live in the size-2 world
    if alg.n == 2:
        gen = Point.diagonal([2, 3])
        beta = CoorbitMap(hopf, gen)
        maps = [("beta-diag", beta),
                ("alpha-diag", CoorbitMap(hopf, gen, "alpha")),
                ("beta-nilpotent", CoorbitMap(hopf, Point([[0, 1], [0, 0]])))]
        for n in range(1, nmax + 1):
            for label, cm in maps:
                add(f"power closed form {label} n={n}", cm.power_check(n))
        for r in range(1, 5):
            add(f"sphere span dim at length {r} is {(r + 1) ** 2}",
                sphere_span(hopf, r).dim == (r + 1) ** 2)
        for d, rep in enumerate(compare_at_q1(beta, dmax), 1):
            add(f"specialize-first image character agrees at degree {d}",
                rep.match)
    for r in range(1, 6):
        add(f"difference identity at r={r}", difference_identity(r))

    report = _base_report("identities", alg)
    report["max_power"] = nmax
    report["max_degree"] = dmax
    report["checks"] = checks
    return report, all(c["pass"] for c in checks)


# -- plumbing ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcoorbit",
        description="Exact symbolic co-orbit computations for quantum "
                    "matrix algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        # options match by their full names only, never by a prefix
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    def common(p, point=False, degree=False, size=False):
        if point:
            p.add_argument("--point", required=True,
                           help="point as inline JSON or a JSON file path")
        if degree:   # a truncation command runs the co-orbit map of a coaction
            p.add_argument("--coaction", choices=("beta", "alpha"),
                           default="beta", help="which adjoint coaction")
            p.add_argument("--degree", type=int, default=None,
                           help="truncation degree (default: the ceiling)")
        if size:
            p.add_argument("--n", type=int, default=2,
                           help="matrix size (default 2)")
        else:
            # point commands take the size from the point
            p.add_argument("--n", type=int, default=None, help=argparse.SUPPRESS)
        p.add_argument("--q1", default=None, metavar="RATIONAL",
                       help="run with q specialized to this rational")
        p.add_argument("--out", default=None,
                       help="write the JSON report here instead of stdout")

    p = command("verify-coinvariants", "check the two coinvariant families")
    common(p, size=True)
    p.set_defaults(func=cmd_verify_coinvariants)

    p = command("kernel", "truncated kernel vs ideal at a point")
    common(p, point=True, degree=True)
    p.set_defaults(func=cmd_kernel)

    p = command("image", "truncated image data at a point")
    common(p, point=True, degree=True)
    p.set_defaults(func=cmd_image)

    p = command("character", "image characters degree by degree")
    common(p, point=True, degree=True)
    p.set_defaults(func=cmd_character)

    p = command("eval", "evaluate an expression at a point")
    p.add_argument("expression", help="expression in x{i}{j}, q, + - * / ^")
    common(p, point=True)
    p.set_defaults(func=cmd_eval)

    p = command("identities", "run the identity suite")
    common(p, size=True)
    p.add_argument("--max-n", type=int, default=4,
                   help="largest power for the closed-form checks")
    p.add_argument("--max-degree", type=int, default=None,
                   help="largest degree for the specialize-first check")
    p.set_defaults(func=cmd_identities)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with gcd_budget():   # one budget from reading the input to the report
            report, ok = args.func(args)
        report["all_pass"] = ok
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, PoleError, ZeroDivisionError, OSError,
            json.JSONDecodeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
