"""The names and command lines the benchmark reaches into exist.

``perfbench/tracer.py`` wraps qcoorbit's layer entry points by name and reads
some cache attributes, ``perfbench/run.py`` builds its contexts through
``cli._context``, and ``perfbench/workloads.py`` writes the argv of every
command it runs.  These checks fail in the ordinary test run when a rename,
or a dropped option, would break the benchmark.  The seed-1 reports of every
workload keep pinned digests, so a refactor that changes a report byte fails
here too.
"""

import hashlib
import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qcoorbit
from qcoorbit import cli
from qcoorbit.coorbit import CoorbitMap, Point
from qcoorbit.hopf import HopfContext
from qcoorbit.mq import MatrixAlgebra
from qcoorbit.scalars import Poly, Scalar

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """Load ``perfbench/<name>.py`` as a module of its own, registered so
    that its dataclasses can resolve their annotations."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


def test_span_entry_points_exist(tracer):
    for name, (modname, owner, attr) in tracer.SPANS.items():
        module = importlib.import_module(f"qcoorbit.{modname}")
        if owner is None:
            assert callable(getattr(module, attr, None)), name
        else:
            assert attr in getattr(module, owner).__dict__, name


def test_span_caches_exist(tracer):
    hopf = HopfContext(MatrixAlgebra(2))
    cm = CoorbitMap(hopf, Point.diagonal([2, 3]))
    for name, cache in tracer.SPAN_CACHES.items():
        assert tracer.SPANS[name][1] == "CoorbitMap", name
        assert isinstance(getattr(cm, cache), dict), name
    assert isinstance(MatrixAlgebra(2)._ml_cache, dict)
    assert "_mul_mono_letter" in MatrixAlgebra.__dict__


def test_scalar_entry_points_exist(tracer):
    for attr in tracer.SCALAR_OPS:
        assert attr in Scalar.__dict__, attr
    assert isinstance(Poly.__dict__["gcd"], staticmethod)


def test_bench_context():
    hopf = cli._context(2, "5/2")
    assert isinstance(hopf, HopfContext)
    assert hopf.n == 2 and hopf.alg.q == Fraction(5, 2)
    assert isinstance(cli._context(3, None).alg.q, Scalar)


def test_workload_commands_parse():
    """Every argv of every workload parses, for the first three seeds; no
    command runs."""
    workloads = _load("workloads")
    parser = cli.build_parser()
    for w in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            for cmd in workloads.commands(w, seed):
                try:
                    args = parser.parse_args(list(cmd.argv))
                except SystemExit:
                    pytest.fail(f"{w}, seed {seed}: {cmd.argv} does not parse")
                assert args.command == cmd.kind


def test_traced_commands_print_the_untraced_bytes(tracer, capsys):
    """The benchmark's tracer, installed around ``cli.main`` as in
    ``run.py --trace 1``, leaves the report bytes unchanged and sees the
    elimination.  Its wrappers index what they wrap (the rows given to
    ``xla.echelon``, its rank), so a change of what the entry points take
    or return fails here and not only under the benchmark."""
    point = '{"entries": [[2, 0], [0, 3]]}'
    argvs = [[kind, "--point", point, "--degree", "2"]
             for kind in ("kernel", "image")]

    def reports():
        out = []
        for argv in argvs:
            assert cli.main(argv) == 0, argv
            out.append(capsys.readouterr().out)
        return out

    untraced = reports()
    traced = tracer.Tracer(qcoorbit)
    with traced:
        assert reports() == untraced
    metrics = traced.layer_metrics(1)
    assert metrics["xla.echelon_calls"][0] > 0
    assert metrics["xla.rank_ratio"][0] > 0


# sha256 of each seed-1 report, per workload and in command order
SEED1_REPORT_SHA256 = {
    "coinvariants": (
        "ee1a4d517f1babdb67032e4f4b9b27a90a23c5b0beb3e731b3174b76e409c6d8",
        "a10e24c9a733cbe7dd80ef60b4851da80fb15869074b45ac8cf1df1e9eeb63b3",
    ),
    "truncations": (
        "b969ecf644d7a8b4e05e887fbb50e3c398856f321e442fc43480aeda8d0d63fd",
        "4d0d0a72250a80f201c26ff574a916ecca6a990cf1034125f3c5e94a2bf38a54",
        "f5c0cf3246fc67ab896bb06b7405dc4f00a57f7eb0126c67ec0408c512ed67bb",
        "566aa97d8a5ea9bb0c0267f8edd8151344c1894dd6fc2178855795523986fcb3",
        "ae6b99546697238e6a6f997a0065e5789f12b8753a0366acee5a8d325c257a64",
        "cc399b7d30967f274e6652247b7a9d20d192dd24741e7f033abfc25a172c3e91",
    ),
    "specialized": (
        "e28af887e8918b09f1a31c43916de98117d276b95ecbd98d6f6babcbbc19b93f",
        "9cb2c90e060a7fd6b06adb62851291ea007f758c0b046f5218fe2d1e528c3972",
        "911043bac3b19c5ffc812c0bc35042d7a981d523115a6c732bcf1ea3b941d91a",
        "d9c663cf025780410bf6bb730a8495fd8a71794364a15530e4d76bb0a0617aae",
        "ced25398e0dae4b76bef1909dcddf4ab97c8699b27d86b3b2c5c30b319af56c0",
    ),
}


def test_seed_one_reports_keep_their_bytes(capsys):
    """Every seed-1 command of every workload, run through ``cli.main``,
    prints the report it printed when the digests were pinned."""
    workloads = _load("workloads")
    for w in workloads.WORKLOADS:
        digests = []
        for cmd in workloads.commands(w, 1):
            assert cli.main(list(cmd.argv)) == 0, cmd.argv
            digests.append(hashlib.sha256(
                capsys.readouterr().out.encode()).hexdigest())
        assert tuple(digests) == SEED1_REPORT_SHA256[w], w
