"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import SCALAR_OPS, SPANS, Tracer  # noqa: E402

package = run.import_program()
cli = sys.modules["qcoorbit.cli"]
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_oracle_dimensions():
    assert [oracle.generic_kernel_dim(2, d) for d in range(1, 5)] == \
        [1, 6, 19, 45]
    assert [oracle.generic_kernel_dim(3, d) for d in (1, 2)] == [1, 11]
    assert [oracle.domain_dim(2, d) for d in range(1, 5)] == [5, 15, 35, 70]
    assert oracle.domain_dim(3, 2) == 55


def test_character_dim():
    assert oracle.character_dim("t1^-1*t2 + 2 + t1*t2^-1") == 4
    assert oracle.character_dim("z^2 + 2*z + 3 + 2*z^-1 + z^-2") == 9


def test_ratio_rule():
    q1 = Fraction(3, 2)
    assert workloads.ratio_is_power(Fraction(-1), q1)
    assert workloads.ratio_is_power(Fraction(9, 4), q1)
    assert workloads.ratio_is_power(Fraction(-2, 3), q1)
    assert not workloads.ratio_is_power(Fraction(2), q1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert workloads.commands(workload, 7) == workloads.commands(workload, 7)


def test_seeds_vary_points_and_keep_them_generic():
    draws = [workloads.draw_inputs(seed) for seed in range(40)]
    assert len({d.generic2 for d in draws}) > 10
    for d in draws:
        q1 = Fraction(d.q1)
        assert abs(q1) != 1
        for diag in (d.generic2, d.generic3):
            assert len(set(diag)) == len(diag) and 0 not in diag
            for i, a in enumerate(diag):
                for b in diag[i + 1:]:
                    assert not workloads.ratio_is_power(Fraction(a, b), q1)


def test_specialized_repeats_the_symbolic_commands():
    sym = [c for c in workloads.commands("truncations", 3)
           if c.kind != "identities"]
    spec = workloads.commands("specialized", 3)
    q1 = spec[0].q1
    assert q1 is not None and all(c.q1 == q1 for c in spec)
    assert [c.argv + (f"--q1={q1}",) for c in sym] == [c.argv for c in spec]


def _small_kernel():
    point = json.dumps({"n": 2, "entries": [["2", "0"], ["0", "3"]]})
    return workloads.Command(
        "kernel", ("kernel", "--point", point, "--degree", "2"), 2, 2,
        "generic")


def test_checker_accepts_and_flags_tampering():
    cmd = _small_kernel()
    rc, text, _err, _dt = run.run_command(cli, cmd.argv)
    assert oracle.check(cmd, rc, text) == []
    report = json.loads(text)
    report["degrees"][1]["kernel_dim"] += 1
    assert oracle.check(cmd, rc, json.dumps(report))
    assert oracle.check(cmd, 1, text) == ["exit code 1"]
    report = json.loads(text)
    report["all_pass"] = False
    assert oracle.check(cmd, rc, json.dumps(report))
    report = json.loads(text)
    del report["degrees"][0]["ideal_dim"]
    assert oracle.check(cmd, rc, json.dumps(report))


def _entry_points():
    """Every attribute a tracer may rebind, as (owner, name) -> object."""
    out = {}
    for modname, mod in sys.modules.items():
        if modname.startswith("qcoorbit"):
            out.update({(modname, k): v for k, v in vars(mod).items()
                        if callable(v)})
    scalars = sys.modules["qcoorbit.scalars"]
    for attr in SCALAR_OPS:
        out[("Scalar", attr)] = scalars.Scalar.__dict__[attr]
    out[("Poly", "gcd")] = scalars.Poly.__dict__["gcd"]
    for name, (modname, owner, attr) in SPANS.items():
        if owner:
            cls = getattr(sys.modules[f"qcoorbit.{modname}"], owner)
            out[(owner, attr)] = cls.__dict__[attr]
    alg = sys.modules["qcoorbit.mq"].MatrixAlgebra
    out[("MatrixAlgebra", "_mul_mono_letter")] = \
        alg.__dict__["_mul_mono_letter"]
    return out


def test_untraced_runs_leave_no_wrappers():
    before = _entry_points()
    cmds = [_small_kernel()]
    log = run.Log(1)
    run.run_passes(cli, cmds, 0, log)
    assert _entry_points() == before
    tracer = Tracer(package)
    with tracer:
        assert _entry_points() != before
        run.run_passes(cli, cmds, 0, run.Log(1), tracer)
    assert _entry_points() == before
    metrics = tracer.layer_metrics(1)
    assert metrics["xla.echelon_calls"][0] > 0
    assert metrics["scalars.mul_calls"][0] > 0
    assert 0 < metrics["mq.letter_hit_ratio"][0] < 1
    assert log.failed == 0


def test_reference_times_and_leaves_no_timer():
    import signal
    cmds = [_small_kernel()]
    handler = signal.getsignal(signal.SIGALRM)
    reference = run.Reference()
    log = run.Log(1)
    run.run_passes(cli, cmds, 0, log, reference=reference)
    assert signal.getsignal(signal.SIGALRM) == handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert reference.loops >= 1 and reference.seconds > 0
    # the pass time in loop times is the pass time over the mean loop time
    loop_s = reference.seconds / reference.loops
    assert log.pass_refs == [pytest.approx(log.pass_times[0] / loop_s)]
    assert log.failed == 0


def test_self_times_subtract_children():
    tracer = Tracer(package)
    tracer.spans = [["a", 0.0, 10.0, -1, 0, True],
                    ["b", 1.0, 4.0, 0, 0, True],
                    ["c", 2.0, 3.0, 1, 0, True],
                    ["b", 5.0, 6.0, 0, 0, True]]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_result_line_names_every_metric(trace, section, capsys):
    assert run.main(["--workload", "specialized", "--seed", "1",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
