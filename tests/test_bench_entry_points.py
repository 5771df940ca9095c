"""The names the benchmark reaches into exist.

``perfbench/tracer.py`` wraps qcoorbit's layer entry points by name and reads
some cache attributes, and ``perfbench/run.py`` builds its contexts through
``cli._context``.  These checks fail in the ordinary test run when a rename
would break the benchmark.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from qcoorbit import cli
from qcoorbit.coorbit import CoorbitMap, Point
from qcoorbit.hopf import HopfContext
from qcoorbit.mq import MatrixAlgebra
from qcoorbit.scalars import Poly, Scalar

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
