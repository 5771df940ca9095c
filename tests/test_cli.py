"""Tests for the command-line interface: reports, determinism, exit codes."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import qcoorbit
from qcoorbit import cli, coorbit
from qcoorbit.cli import check_degree, load_point, main, parse_q1
from qcoorbit import scalars
from qcoorbit.mq import MatrixAlgebra
from qcoorbit.scalars import MAX_PARSE_BITS, Scalar, gcd_budget

GENERIC = '{"n": 2, "entries": [["2", "0"], ["0", "3"]]}'
RESONANT = '{"n": 2, "entries": [["q^2", "0"], ["0", "1"]]}'
GENERIC3 = '{"n": 3, "entries": [["2", "0", "0"], ["0", "3", "0"], ["0", "0", "5"]]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_coinvariants(capsys):
    code, out, err = run(capsys, "verify-coinvariants", "--n", "2")
    assert code == 0 and not err
    report = json.loads(out)
    assert report["all_pass"] is True
    assert report["n"] == 2
    assert report["q"] == "q"
    assert "generator_order" in report["conventions"]
    assert len(report["checks"]) == 4


def test_kernel_report(capsys):
    code, out, _ = run(capsys, "kernel", "--point", GENERIC, "--degree", "2")
    assert code == 0
    report = json.loads(out)
    dims = [(d["degree"], d["kernel_dim"], d["ideal_dim"],
             d["kernel_equals_ideal"]) for d in report["degrees"]]
    assert dims == [(1, 1, 1, True), (2, 6, 6, True)]
    assert report["point"] == [["2", "0"], ["0", "3"]]
    assert len(report["degrees"][1]["kernel_basis"]) == 6


def test_image_report_resonant(capsys):
    code, out, _ = run(capsys, "image", "--point", RESONANT, "--degree", "2")
    assert code == 0
    report = json.loads(out)
    for entry in report["degrees"]:
        assert entry["image_dim"] == 4
        assert entry["z_character"] == "z^2 + 2 + z^-2"
        assert entry["sl2_decomposition"] == {"0": 1, "2": 1}
        assert entry["inside_diag_coinvariants"] is True


def test_character_stabilization(capsys):
    code, out, _ = run(capsys, "character", "--point", RESONANT,
                       "--degree", "2")
    assert code == 0
    report = json.loads(out)
    assert report["stabilized"] is True


def test_eval_command(capsys):
    code, out, _ = run(capsys, "eval", "x11*x22 - q*x12*x21",
                       "--point", GENERIC)
    assert code == 0
    assert json.loads(out)["value"] == "6"


def test_eval_specialized(capsys):
    code, out, _ = run(capsys, "eval", "q^2*x11", "--point", GENERIC,
                       "--q1", "5/2")
    assert code == 0
    report = json.loads(out)
    assert report["q"] == "5/2"
    assert report["value"] == "25/2"


def test_identities_fast_path(capsys):
    code, out, _ = run(capsys, "identities", "--max-n", "1",
                       "--max-degree", "1")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    names = [c["name"] for c in report["checks"]]
    assert any("antipode axiom" in n for n in names)
    assert any("beta-nilpotent" in n for n in names)
    assert any("difference identity" in n for n in names)
    assert any("specialize-first" in n for n in names)


def test_identities_builds_one_map_per_point_and_side(capsys, monkeypatch):
    """The default identities command builds four co-orbit maps over Q(q)
    or Q: beta and alpha at diag(2, 3), beta at the single (1,2) entry,
    and one map at q = 1 that serves every degree of the q = 1 check.  The
    twins over F_p are not counted."""
    built = []
    init = coorbit.CoorbitMap.__init__

    def counting(self, hopf, point, which="beta"):
        init(self, hopf, point, which)
        if not isinstance(hopf.alg.q, scalars.Fp):
            built.append((str(hopf.alg.q), which))

    monkeypatch.setattr(coorbit.CoorbitMap, "__init__", counting)
    code, _, _ = run(capsys, "identities")
    assert code == 0
    assert sorted(built) == [("1", "beta"), ("q", "alpha"), ("q", "beta"),
                             ("q", "beta")]


def test_reports_are_byte_identical(capsys):
    _, first, _ = run(capsys, "kernel", "--point", GENERIC, "--degree", "1")
    _, second, _ = run(capsys, "kernel", "--point", GENERIC, "--degree", "1")
    assert first == second


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify-coinvariants", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["all_pass"] is True


def test_point_from_file(tmp_path, capsys):
    pfile = tmp_path / "point.json"
    pfile.write_text(GENERIC)
    code, out, _ = run(capsys, "kernel", "--point", str(pfile),
                       "--degree", "1")
    assert code == 0
    assert json.loads(out)["degrees"][0]["kernel_dim"] == 1


def test_bad_point_exits_2(capsys):
    code, _, err = run(capsys, "kernel", "--point",
                       '{"n": 2, "entries": [["1", "1"], ["0", "0"]]}')
    assert code == 2
    assert "same-row" in err


def test_point_validated_once_per_command(capsys, monkeypatch):
    """A command validates its point once.  At symbolic q, a kernel or
    image command also validates the point reduced mod p once, when it
    builds the twin of its co-orbit map; at --q1 and in eval there is no
    twin."""
    real = coorbit.validate_point
    calls = []

    def counted(point, algebra):
        calls.append(isinstance(point.entries[0][0], scalars.Fp))
        return real(point, algebra)

    for mod in (cli, coorbit):
        monkeypatch.setattr(mod, "validate_point", counted)
    for argv, twins in ((("kernel", "--point", GENERIC, "--degree", "1"), 1),
                        (("image", "--point", GENERIC, "--degree", "3"), 1),
                        (("kernel", "--point", GENERIC, "--degree", "2",
                          "--q1=5/2"), 0),
                        (("eval", "x11", "--point", GENERIC), 0)):
        calls.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv
        assert (calls.count(False), calls.count(True)) == (1, twins), argv
    bad = '{"n": 2, "entries": [["1", "1"], ["0", "0"]]}'
    calls.clear()
    code, out, err = run(capsys, "eval", "x11", "--point", bad)
    assert code == 2 and not out and calls == [False]
    assert err == "error: entries (1,1) and (1,2) violate the same-row " \
        "vanishing condition\n"


def test_degree_over_ceiling_exits_2(capsys):
    code, _, err = run(capsys, "kernel", "--point", GENERIC, "--degree", "9")
    assert code == 2
    assert "ceiling" in err


def test_option_prefixes_exit_2(capsys):
    """Options match only by their full names: a prefix of one is refused
    as an unknown argument, so renaming an option cannot leave old command
    lines parsing by accident."""
    for argv in (("kernel", "--point", GENERIC, "--deg", "2"),
                 ("image", "--point", GENERIC, "--coact", "beta")):
        with pytest.raises(SystemExit) as exit_:
            main(list(argv))
        assert exit_.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


def test_eval_takes_no_coaction(capsys):
    """Only the truncation commands run a coaction: eval refuses the
    option as a usage error."""
    with pytest.raises(SystemExit) as exit_:
        main(["eval", "x11", "--point", GENERIC, "--coaction", "alpha"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --coaction" in capsys.readouterr().err


def test_unwritable_out_exits_2(capsys, tmp_path):
    """A report that cannot be written is an input error (exit 2), not a
    failed check (exit 1)."""
    target = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "verify-coinvariants", "--n", "2",
                         "--out", str(target))
    assert code == 2 and not out and not target.exists()
    assert err.startswith("error: ") and "No such file" in err


def _diagonal_point(n: int) -> str:
    return json.dumps({"n": n, "entries": [
        [str(i + 2) if i == j else "0" for j in range(n)] for i in range(n)]})


def test_size_and_power_flags_bounded(capsys):
    """verify-coinvariants and identities refuse a size over SIZE_CEILING,
    identities a --max-n outside 0..POWER_CEILING, and kernel, image and
    character a point of a size that DEGREE_CEILING does not list (kernel
    took about 20 s at size 6), with exit 2 in under 2 s.  The refusals run
    in a subprocess, so that a regression fails on the timeout instead of
    hanging.  eval, which only validates and evaluates, takes a 7 x 7
    point."""
    script = ("import sys, time\n"
              "from qcoorbit.cli import main\n"
              "start = time.perf_counter()\n"
              "code = main(sys.argv[1:])\n"
              "print(time.perf_counter() - start)\n"
              "raise SystemExit(code)\n")
    src = Path(qcoorbit.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    over = str(cli.POWER_CEILING + 1)
    cases = [(["verify-coinvariants", "--n", "5"], "ceiling 4"),
             (["identities", "--n", "5"], "ceiling 4"),
             (["identities", "--max-n", over], "--max-n"),
             (["identities", "--max-n", "-1"], "--max-n")]
    cases += [([command, "--point", _diagonal_point(n)], "ceiling 4")
              for n in (5, 7) for command in ("kernel", "image", "character")]
    for argv, message in cases:
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=20)
        assert done.returncode == 2 and message in done.stderr, argv
        assert float(done.stdout) < 2, argv
    code, _, _ = run(capsys, "identities", "--max-n", str(cli.POWER_CEILING))
    assert code == 0
    code, out, _ = run(capsys, "eval", "--point", _diagonal_point(7),
                       "x11*x77 + x12")
    assert code == 0 and json.loads(out)["value"] == "16"


def test_size_4_families_within_the_ceiling():
    """At the size ceiling 4 verify-coinvariants passes all 8 family checks
    and identities exits 0, each in a subprocess under a timeout (each
    takes about 1.5 s)."""
    src = Path(qcoorbit.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    assert cli.SIZE_CEILING == 4
    for argv, count in ((("verify-coinvariants", "--n", "4"), 8),
                        (("identities", "--n", "4"), 29)):
        done = subprocess.run([sys.executable, "-m", "qcoorbit.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr[-500:]
        report = json.loads(done.stdout)
        assert report["n"] == 4 and report["all_pass"] is True
        assert [c["pass"] for c in report["checks"]] == [True] * count


def test_q1_size_bounded(capsys):
    """--q1 refuses a numerator or denominator over MAX_PARSE_BITS, and a
    decimal exponent over it before building the power, with exit 2 before
    any context is built."""
    bound = MAX_PARSE_BITS
    big = str(1 << bound)                   # bound + 1 bits
    assert parse_q1(str((1 << bound) - 1)).numerator.bit_length() == bound
    assert parse_q1("1e-3") == Fraction(1, 1000)
    for text in (big, f"1/{big}", f"-{big}/3", "1e10001", "2e-99999999999"):
        with pytest.raises(ValueError, match="bound"):
            parse_q1(text)
    start = time.perf_counter()
    for argv in (("verify-coinvariants", f"--q1={big}"),
                 ("kernel", "--point", GENERIC, "--degree", "4",
                  f"--q1=7/{big}"),
                 ("eval", "x11", "--point", GENERIC, "--q1=1e99999999999")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and "bound" in err, argv
    assert time.perf_counter() - start < 1


def test_malformed_point_exits_2(capsys):
    code, _, err = run(capsys, "kernel", "--point", '{"entries": [[1]], "n": 2}')
    assert code == 2
    code, _, err = run(capsys, "kernel", "--point", '{"nope": 1}')
    assert code == 2
    code, _, err = run(capsys, "kernel", "--point", "not json at all {")
    assert code == 2
    for spec in ('{"entries": 5}', '{"entries": [1, 2]}'):
        code, _, err = run(capsys, "kernel", "--point", spec)
        assert code == 2 and "list of rows" in err
    # True == 1 and 1.0 == 1, but neither is a size
    for n in ("true", "1.0", '"1"'):
        code, _, err = run(capsys, "eval", "x11", "--point",
                           '{"entries": [["2"]], "n": %s}' % n)
        assert code == 2 and '"n" must be an int' in err, n


def test_bad_q1_exits_2(capsys):
    code, _, err = run(capsys, "verify-coinvariants", "--q1", "zero")
    assert code == 2
    code, _, err = run(capsys, "verify-coinvariants", "--q1", "0")
    assert code == 2


def test_parse_q1_and_runconfig():
    assert parse_q1("5/2") == parse_q1("5/2")
    with pytest.raises(ValueError):
        parse_q1("q")
    assert check_degree(2, 4) == 4
    assert check_degree(3, 2) == 2
    assert check_degree(4, 1) == 1
    assert check_degree(2) == 4
    for n, d in ((2, 5), (3, 3), (5, 1), (7, 1), (7, 2)):
        with pytest.raises(ValueError, match="ceiling"):
            check_degree(n, d)
    with pytest.raises(ValueError):
        check_degree(2, 0)


def test_load_point_coerces(tmp_path):
    pt = load_point('{"n": 2, "entries": [[2, 0], [0, "q"]]}')
    assert pt.entries[0][0] == Scalar.of(2)
    assert pt.entries[1][1] == Scalar.q()
    with pytest.raises(ValueError):
        load_point('{"n": 2, "entries": [[2.5, 0], [0, 1]]}')


def test_point_entries_refuse_booleans_and_huge_ints(capsys):
    """JSON true and false are no entries, although Python's bool is an int,
    and an integer entry meets the grammar's bit bound, as the same digits
    in a string do: both exit 2."""
    for spec in ('{"entries": [[true, false], [false, true]]}',
                 '{"entries": [[2, 0], [0, true]]}'):
        with pytest.raises(ValueError, match="bool"):
            load_point(spec)
        code, out, err = run(capsys, "eval", "x11", "--point", spec)
        assert code == 2 and not out and "bool" in err
    digits = "9" * 4000
    for entry in (digits, f'"{digits}"'):
        spec = '{"entries": [[%s, 0], [0, 1]]}' % entry
        code, out, err = run(capsys, "eval", "x11", "--point", spec)
        assert code == 2 and not out and "bits" in err
    assert load_point('{"entries": [[-3, 0], [0, 7]]}').entries[0][0] == -3


def test_point_entry_bounds():
    """A point entry meets the grammar's bounds and the command's gcd budget
    and no bound of its own, so entries of any shape load.  Validating an
    admitted diagonal point needs no gcd: the sums with 0 and the products
    with 1 in its rules keep a reduced entry."""
    def point(entry):
        return '{"entries": [["%s", "0"], ["0", "1"]]}' % entry

    for spec in (point("((q+2)/(q+3))^101"), point("((q+2^39)/(q+3))^100"),
                 point("(((2*q+3)^20+1)/((3*q+2)^20+5))^8"),
                 point("1/(q+2)^150"), GENERIC):
        pt = load_point(spec)
        with gcd_budget():
            coorbit.validate_point(pt, MatrixAlgebra(2))
            assert scalars._gcd_work == 0


def _spending(monkeypatch):
    """The gcd work of each later ``main`` call, recorded as its budget
    closes."""
    spent = []
    budget = scalars.gcd_budget

    @contextmanager
    def recording():
        with budget():
            try:
                yield
            finally:
                spent.append(scalars._gcd_work)

    monkeypatch.setattr(cli, "gcd_budget", recording)
    return spent


RATIONAL = '{"entries": [["(q+1)/(q-1)", "0"], ["0", "3*q^2+2"]]}'


def test_gcd_budget_is_scoped_to_the_command(capsys, monkeypatch):
    """main opens one gcd budget per command, which the kernel's folds and
    elimination spend after the point is read, and closes it on exit 0, 1
    and 2."""
    spent = _spending(monkeypatch)
    with gcd_budget():
        load_point(RATIONAL)
        reading = scalars._gcd_work
    code, _, _ = run(capsys, "kernel", "--point", RATIONAL, "--degree", "1")
    assert code == 0 and spent[-1] > reading
    assert scalars._gcd_work is None
    # resonant, so the certificate fails and the exact folds run
    slow = ('{"entries": [["q^2*((q+2)/(q+3))^40", "0"], '
            '["0", "((q+2)/(q+3))^40"]]}')
    code, _, err = run(capsys, "kernel", "--point", slow, "--degree", "2")
    assert code == 2 and "gcd work" in err
    assert scalars._gcd_work is None
    code, _, _ = run(capsys, "eval", "x11", "--point", "{}")
    assert code == 2 and scalars._gcd_work is None
    monkeypatch.setattr(cli.HopfContext, "families_coinvariant",
                        lambda self: [(False, True)])
    code, _, _ = run(capsys, "verify-coinvariants")
    assert code == 1 and scalars._gcd_work is None
    assert len(spent) == 4


def test_in_ceiling_kernel_at_a_large_entry_is_admitted():
    """kernel --degree 4 at diag(((q+2)/(q+3))^4, 1), inside every ceiling,
    exits 0 with the complete-intersection dimensions, in a subprocess under
    a time limit.  It takes about 1.5 s and a third of the gcd budget; when
    the kernel eliminated every column, the budget refused it after about
    2 s."""
    script = ("import sys, time\n"
              "from qcoorbit.cli import main\n"
              "start = time.perf_counter()\n"
              "code = main(sys.argv[1:])\n"
              "print(time.perf_counter() - start, file=sys.stderr)\n"
              "raise SystemExit(code)\n")
    src = Path(qcoorbit.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    point = '{"entries": [["((q+2)/(q+3))^4", "0"], ["0", "1"]]}'
    done = subprocess.run([sys.executable, "-c", script, "kernel", "--point",
                           point, "--degree", "4"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-500:]
    assert float(done.stderr) < 8
    report = json.loads(done.stdout)
    assert [row["kernel_dim"] for row in report["degrees"]] == [1, 6, 19, 45]


# Kernels at rational diagonal points at the top degree of their size, which
# spent 6.4 % and 4.4 % of the gcd budget when it came to span the command.
RATIONAL_KERNELS = [
    (RATIONAL, "4"),
    ('{"entries": [["(q+1)/(q-1)", "0", "0"], ["0", "2", "0"], '
     '["0", "0", "q+3"]]}', "2"),
]


def test_rational_kernels_spend_a_tenth_of_the_budget(capsys, monkeypatch):
    """Guards real workloads against a change that makes gcds dearer: each
    kernel above spends under a tenth of MAX_PARSE_GCD_WORK."""
    spent = _spending(monkeypatch)
    for point, degree in RATIONAL_KERNELS:
        code, _, _ = run(capsys, "kernel", "--point", point, "--degree", degree)
        assert code == 0 and spent[-1] < scalars.MAX_PARSE_GCD_WORK // 10


def test_deep_nesting_exits_2(capsys):
    """Parentheses nested 200 deep exit 2, through eval and a point entry;
    199 deep parse."""
    def nest(depth, atom):
        return "(" * depth + atom + ")" * depth

    code, out, _ = run(capsys, "eval", nest(199, "x11"), "--point", GENERIC)
    assert code == 0 and json.loads(out)["value"] == "2"
    point = '{"entries": [["%s", "0"], ["0", "3"]]}'
    code, out, _ = run(capsys, "eval", "x11", "--point", point % nest(199, "2"))
    assert code == 0 and json.loads(out)["value"] == "2"
    for argv in (["eval", nest(200, "x11"), "--point", GENERIC],
                 ["eval", "x11", "--point", point % nest(200, "2")]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and "nested too deeply" in err


def test_deeply_nested_point_json_exits_2(capsys):
    """Point JSON nested past the JSON reader's recursion exits 2."""
    deep = '{"entries": ' + "[" * 50_000 + "]" * 50_000 + "}"
    code, out, err = run(capsys, "eval", "x11", "--point", deep)
    assert code == 2 and not out and "nests too deeply" in err


# Length and sha256 of the stdout of ``main(argv)`` for each command, taken
# at commit f3a8968, before the sparse-term core and the single coproduct
# fold, by running the same argv through ``qcoorbit.cli.main`` and hashing
# the captured bytes.  That commit rejected size-3 points without the hidden
# ``--n 3``, so the two size-3 rows were produced with ``--n 3`` appended;
# here they run without it.  The two size-3 family reports at the end were
# pinned later, once they had become cheap.
GOLDEN = [
    ("verify-coinvariants", ("verify-coinvariants", "--n", "2"), 780,
     "ee1a4d517f1babdb67032e4f4b9b27a90a23c5b0beb3e731b3174b76e409c6d8"),
    ("kernel-d2", ("kernel", "--point", GENERIC, "--degree", "2"), 1496,
     "cd76c9174f77ea2ef0259445fb51ec489b741a72005f1af879e0d17b221e0a69"),
    ("image-resonant", ("image", "--point", RESONANT, "--degree", "2"), 1112,
     "2cce95fdc3970ac84b2209fba67ac53e92a342aa5b049b9c987428e30f8e34c6"),
    ("character-resonant", ("character", "--point", RESONANT, "--degree", "2"),
     864, "04f2b61a8d6b5250fbcd2dc3eabe13390acc1e023aa481d31e1789dc5bb2c732"),
    ("eval", ("eval", "x11*x22 - q*x12*x21", "--point", GENERIC), 581,
     "55b599568a8cc7eaedbcfa3d6291919caaf54e5ff9ad204237d66d0e43db96fb"),
    ("eval-q1", ("eval", "q^2*x11", "--point", GENERIC, "--q1", "5/2"), 577,
     "0fbd4b80f4018216c29fae12701cf487135dd49343be4aabe2180445a96c1688"),
    ("identities", ("identities", "--max-n", "3"), 2840,
     "df323c479fef5643232b8c24347fa95fd3e15854f6ee41dcfb87604bf96f397d"),
    ("kernel-d3", ("kernel", "--point", GENERIC, "--degree", "3"), 3938,
     "118a97371ddc1779e46b5b4d0fddb0917b9d730c741e935ca6152ebf1e304ed4"),
    ("kernel-d4", ("kernel", "--point", GENERIC, "--degree", "4"), 11370,
     "78869e4a8108effa85b82af1470fcb05a5dedc1f2e74e5a88c6582589d9247c7"),
    ("kernel-d4-alpha", ("kernel", "--point", GENERIC, "--degree", "4",
                         "--coaction", "alpha"), 9567,
     "305413e6ad0001cbc16d0269feb6ada2e3c0a423022db84b52fa7748cc9a92b3"),
    ("kernel-d4-q1", ("kernel", "--point", GENERIC, "--degree", "4",
                      "--q1=5/2"), 7791,
     "38ec1f2c88b99e986c498715a1fe7f3b73c3e95b7bc003a711f725b75ba5d1f3"),
    ("kernel-size3", ("kernel", "--point", GENERIC3, "--degree", "1"), 937,
     "3574bed0581425b2b273f68529c3c601dbce68617eb244be12038fa9ab02ebd3"),
    ("image-size3", ("image", "--point", GENERIC3, "--degree", "1"), 981,
     "9a756ef33d706c45d778829fb911aa08e555b667e536fee7a3a91bb84b19bf9b"),
    # taken at 809d05f, while the families were still checked monomial by
    # monomial, by running the same argv through ``qcoorbit.cli.main``
    ("verify-coinvariants-size3", ("verify-coinvariants", "--n", "3"), 933,
     "a10e24c9a733cbe7dd80ef60b4851da80fb15869074b45ac8cf1df1e9eeb63b3"),
    ("identities-size3", ("identities", "--n", "3"), 1962,
     "445b2393887731f7e196c33b7159217a89b2ca7b4a3f4316d7f02ce13b7061b3"),
    # taken at 6e278ab, the benchmark's own identities command (no flags)
    ("identities-default", ("identities",), 3089,
     "b969ecf644d7a8b4e05e887fbb50e3c398856f321e442fc43480aeda8d0d63fd"),
]


@pytest.mark.parametrize("argv,length,digest", [g[1:] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_golden_report_bytes(capsys, argv, length, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0 and not err
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (length, digest)


def test_size3_point_needs_no_n(capsys):
    code, out, err = run(capsys, "kernel", "--point", GENERIC3, "--degree", "1")
    assert code == 0 and not err
    report = json.loads(out)
    assert report["n"] == 3
    assert report["degrees"][0]["kernel_dim"] == 1
    code, out, err = run(capsys, "eval", "x11*x22*x33", "--point", GENERIC3)
    assert code == 0 and not err
    assert json.loads(out)["value"] == "30"


def test_explicit_n_must_match_point(capsys):
    _, plain, _ = run(capsys, "kernel", "--point", GENERIC3, "--degree", "1")
    code, out, _ = run(capsys, "kernel", "--point", GENERIC3, "--degree", "1",
                       "--n", "3")
    assert code == 0 and out == plain
    for argv in (("kernel", "--point", GENERIC3, "--n", "2"),
                 ("eval", "x11", "--point", GENERIC, "--n", "3")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert "does not match the point size" in err


def test_oversized_input_exits_2_quickly(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "eval", "(q^100000+1)/(q+1)", "--point", GENERIC)
    assert code == 2 and "bound" in err
    code, _, err = run(capsys, "eval", "x11^200", "--point", GENERIC)
    assert code == 2 and "bound" in err
    point = '{"n": 2, "entries": [["(q^100000+1)/(q+1)", "0"], ["0", "1"]]}'
    code, _, err = run(capsys, "kernel", "--point", point, "--degree", "1")
    assert code == 2 and "bound" in err
    assert time.perf_counter() - start < 5


def test_large_q_power_denominator_is_cheap():
    """eval builds (1/q^1000)^100 by repeated squaring: each denominator q^k
    costs O(k), not the O(k^2) of every power of q below it.  It runs in a
    subprocess under a 1 GB address-space limit, so that a regression fails
    on memory or the timeout instead of exhausting the machine."""
    point = '{"n": 2, "entries": [["1/q^1000", "0"], ["0", "1"]]}'
    src = Path(qcoorbit.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = subprocess.run(
        [sys.executable, "-m", "qcoorbit.cli", "eval", "x11^100",
         "--point", point],
        env=env, capture_output=True, text=True, timeout=20,
        preexec_fn=limit_memory)
    assert done.returncode == 0, done.stderr[-500:]
    assert json.loads(done.stdout)["value"] == "1/q^100000"
