"""Command-line interface: JSON reports over the symbolic engine.

Commands take points as JSON (inline or a file path), run exact
computations, and print a deterministic JSON report (sorted keys, no
timestamps) so reruns are byte-identical.  Exit status: 0 when every check
in the report passed, 1 when some check failed, 2 for usage or domain
errors (bad point, degree over the cost ceiling, pole in a specialization).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .chars import (character_of, compare_at_q1, decompose_sl2,
                    difference_identity)
from .coorbit import CoorbitMap, Point, evaluate, sphere_span, validate_point
from .hopf import HopfContext
from .mq import MatrixAlgebra, MqElement
from .scalars import PoleError, Scalar

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
# --max-n of identities (about 1 s at 14, 33 s at 30).  At size 4 the
# coinvariance check of tau_2 alone takes about 7 s, that of tau_3 did not
# finish in 2 minutes, and identities ran for more than 60 s.
SIZE_CEILING = 3
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
    try:
        q0 = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"bad rational for --q1: {text!r}") from e
    if q0 == 0:
        raise ValueError("--q1 must be nonzero")
    return q0


def load_point(spec: str, q=None) -> Point:
    """Read a point from inline JSON or from a JSON file.

    Format: {"n": 2, "entries": [["2", "0"], ["0", "q^2"]]} with entries
    given as integers or expression strings in the scalar grammar.  When a
    rational q is given (the engine runs specialized), the entries are
    specialized at it.  The caller validates the point once, through
    :func:`validate_point` or the co-orbit map.
    """
    text = spec.strip()
    if not text.startswith("{"):
        with open(spec, encoding="utf-8") as fh:
            text = fh.read()
    data = json.loads(text)
    if not isinstance(data, dict) or "entries" not in data:
        raise ValueError('point JSON needs an "entries" matrix')
    entries = data["entries"]
    if not isinstance(entries, list) or not all(isinstance(r, list)
                                                for r in entries):
        raise ValueError("point entries must be a list of rows")
    n = data.get("n", len(entries))
    if len(entries) != n or any(len(r) != n for r in entries):
        raise ValueError("point entries must form an n x n matrix")
    rows = []
    for row in entries:
        out = []
        for e in row:
            if isinstance(e, str):
                v = Scalar.parse(e)
            elif isinstance(e, int):
                v = Scalar.of(e)
            else:
                raise ValueError(f"point entries are ints or strings, not "
                                 f"{type(e).__name__}")
            out.append(v if q is None else v.specialize(q))
        rows.append(out)
    return Point(rows)


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
    alg = hopf.alg
    checks = []
    for i in range(1, alg.n + 1):
        checks.append({
            "name": f"tau_{i} is beta-coinvariant",
            "pass": hopf.is_coinvariant(alg.tau(i), "beta"),
        })
    for i in range(1, alg.n + 1):
        checks.append({
            "name": f"sigma_{i} is alpha-coinvariant",
            "pass": hopf.is_coinvariant(alg.sigma(i), "alpha"),
        })
    report = _base_report("verify-coinvariants", alg)
    report["checks"] = checks
    return report, all(c["pass"] for c in checks)


def _point_setup(args):
    hopf, point = _point_context(args)
    d = check_degree(hopf.alg.n, args.degree)
    cm = CoorbitMap(hopf, point, args.coaction)
    return hopf, cm, d


def _point_json(point: Point):
    return [[str(e) for e in row] for row in point.entries]


def cmd_kernel(args):
    hopf, cm, dmax = _point_setup(args)
    alg = hopf.alg
    degrees = []
    ok = True
    for d in range(1, dmax + 1):
        ker = cm.kernel_basis(d)
        ideal = cm.ideal_truncation(d)
        inside = ideal.is_subspace_of(ker)
        ok = ok and inside
        basis = []
        for row in ker.rows:
            elem = MqElement(alg, {ker.keys[i]: c
                                   for i, c in enumerate(row) if c})
            basis.append(str(elem))
        degrees.append({
            "degree": d,
            "kernel_dim": ker.dim,
            "ideal_dim": ideal.dim,
            "ideal_inside_kernel": inside,
            "kernel_equals_ideal": ker == ideal,
            "kernel_basis": basis,
        })
    report = _base_report("kernel", alg)
    report["point"] = _point_json(cm.point)
    report["coaction"] = cm.which
    report["degrees"] = degrees
    return report, ok


def cmd_image(args):
    hopf, cm, dmax = _point_setup(args)
    degrees = []
    ok = True
    for d in range(1, dmax + 1):
        img = cm.image_data(d)
        tchar = character_of(img, "t")
        zchar = character_of(img, "z")
        try:
            decomp = {str(m): k for m, k in decompose_sl2(zchar).items()}
        except ValueError:
            decomp = None
        coinv = all(set(m.rowdeg()) <= {d} for m in img.space.keys)
        ok = ok and coinv
        degrees.append({
            "degree": d,
            "image_dim": img.space.dim,
            "det_power": img.detpow,
            "t_character": str(tchar),
            "z_character": str(zchar),
            "sl2_decomposition": decomp,
            "inside_diag_coinvariants": coinv,
        })
    report = _base_report("image", hopf.alg)
    report["point"] = _point_json(cm.point)
    report["coaction"] = cm.which
    report["degrees"] = degrees
    return report, ok


def cmd_character(args):
    hopf, cm, dmax = _point_setup(args)
    degrees = []
    zchars = []
    for d in range(1, dmax + 1):
        img = cm.image_data(d)
        zchar = character_of(img, "z")
        zchars.append(zchar)
        degrees.append({
            "degree": d,
            "dim": img.space.dim,
            "z_character": str(zchar),
            "t_character": str(character_of(img, "t")),
        })
    report = _base_report("character", hopf.alg)
    report["point"] = _point_json(cm.point)
    report["coaction"] = cm.which
    report["degrees"] = degrees
    report["stabilized"] = (len(zchars) >= 2 and zchars[-1] == zchars[-2])
    return report, True


def cmd_eval(args):
    hopf, point = _point_context(args)
    validate_point(point, hopf.alg)
    elem = hopf.alg.parse(args.expression)
    report = _base_report("eval", hopf.alg)
    report["point"] = _point_json(point)
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
    for i in range(1, alg.n + 1):
        add(f"tau_{i} beta-coinvariant", hopf.is_coinvariant(alg.tau(i), "beta"))
        add(f"sigma_{i} alpha-coinvariant",
            hopf.is_coinvariant(alg.sigma(i), "alpha"))

    # power closed forms and sphere data live in the size-2 world
    if alg.n == 2:
        gen = Point.diagonal([2, 3])
        nil = Point([[0, 1], [0, 0]])
        beta = CoorbitMap(hopf, gen, "beta")
        alpha = CoorbitMap(hopf, gen, "alpha")
        bnil = CoorbitMap(hopf, nil, "beta")
        for n in range(1, nmax + 1):
            add(f"power closed form beta-diag n={n}",
                beta.power_check(n, "beta-diag"))
            add(f"power closed form alpha-diag n={n}",
                alpha.power_check(n, "alpha-diag"))
            add(f"power closed form beta-nilpotent n={n}",
                bnil.power_check(n, "beta-nilpotent"))
        for r in range(1, 5):
            add(f"sphere span dim at length {r} is {(r + 1) ** 2}",
                sphere_span(hopf, r).dim == (r + 1) ** 2)
        for d in range(1, dmax + 1):
            add(f"specialize-first image character agrees at degree {d}",
                compare_at_q1(hopf, gen, d).match)
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

    def common(p, point=False, degree=False, size=False):
        if point:
            p.add_argument("--point", required=True,
                           help="point as inline JSON or a JSON file path")
            p.add_argument("--coaction", choices=("beta", "alpha"),
                           default="beta", help="which adjoint coaction")
        if degree:
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

    p = sub.add_parser("verify-coinvariants",
                       help="check the two coinvariant families")
    common(p, size=True)
    p.set_defaults(func=cmd_verify_coinvariants)

    p = sub.add_parser("kernel", help="truncated kernel vs ideal at a point")
    common(p, point=True, degree=True)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("image", help="truncated image data at a point")
    common(p, point=True, degree=True)
    p.set_defaults(func=cmd_image)

    p = sub.add_parser("character", help="image characters degree by degree")
    common(p, point=True, degree=True)
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("eval", help="evaluate an expression at a point")
    p.add_argument("expression", help="expression in x{i}{j}, q, + - * / ^")
    common(p, point=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("identities", help="run the identity suite")
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
        report, ok = args.func(args)
    except (ValueError, PoleError, ZeroDivisionError, OSError,
            json.JSONDecodeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report["all_pass"] = ok
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
