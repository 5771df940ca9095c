"""The names and command lines the benchmark reaches into exist.

``perfbench/tracer.py`` wraps qcoorbit's layer entry points by name and reads
some cache attributes, ``perfbench/run.py`` builds its contexts through
``cli._context``, and ``perfbench/workloads.py`` writes the argv of every
command it runs.  These checks fail in the ordinary test run when a rename,
or a dropped option, would break the benchmark.
"""

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
