"""The qcoorbit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's commands (see workloads.py) through
``qcoorbit.cli.main(argv)`` in this single process, as a closed loop with
one client: commands run back to back, each building cold contexts exactly
as a CLI call does.  Whole passes over the command list repeat while one
more pass, as long as the last, still fits in ``--seconds`` (at least one
pass).  Every report is checked
by the oracle (oracle.py), every pass must print the same bytes as the first,
and the first command is re-run once at the end for the same check.

On a shared host the machine's own speed drifts by tens of percent over
tens of seconds, so the end-to-end time is reported against a fixed
reference loop that a timer signal runs between the program's bytecodes
(``Reference``): ``wall_ref`` is the time of one pass divided by the mean
time of the reference loop during that pass.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` the workload runs untraced for ``--seconds``, then with the
layer entry points wrapped (tracer.py) for ``--seconds``; the last line holds
the per-layer metrics per traced pass and the tracing overhead, and the
spans go to ``perfbench/out/``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits non-zero and prints no result line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import oracle
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Set-up is timed in groups of SETUP_RUNS spawns: before the first pass,
# after each of the first SETUP_PASSES passes and after the re-run.  Spreading
# the groups over the run keeps a burst of machine noise from setting the
# median.
SETUP_RUNS = 3
SETUP_PASSES = 3

# Imports the package and builds the first context of each size, as a CLI
# call does; argv: src directory, then "n:q1" per context (q1 may be empty).
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import qcoorbit.cli
for spec in sys.argv[2:]:
    n, _, q1 = spec.partition(":")
    qcoorbit.cli._context(int(n), q1 or None)
"""


# The reference loop runs once every REF_PERIOD_S of wall time (about a tenth
# of it goes to the loop), so a pass of any length samples the machine's
# speed all along, even inside one long command.
REF_PERIOD_S = 0.025


def reference_loop():
    """Fixed pure-Python work of the kind the program does most: Fraction
    products summed, in a fresh dict keyed by small tuples.  It uses only the
    standard library, so a change to ``qcoorbit`` cannot move it.  Of the
    loops tried, this allocation-heavy one tracked the program's slowdowns
    best; tight integer loops and pointer chases tracked them worse."""
    terms = {}
    for i in range(1, 400):
        terms[(i % 37, i % 11, i)] = Fraction(i, i % 17 + 1) * Fraction(3, i + 1)
    return sum(terms.values())


class Reference:
    """Times ``reference_loop`` from a SIGALRM timer while it is entered.

    ``seconds`` and ``loops`` only grow; callers take differences around
    what they time and subtract the reference's seconds from their own.
    """

    def __init__(self):
        self.seconds = 0.0
        self.loops = 0
        self._old = None
        self._busy = False

    def tick(self, _signum=None, _frame=None):
        if self._busy:
            # a signal that lands inside the loop would time it twice
            return
        self._busy = True
        # a collection started here would walk the program's heap, whose
        # size the program sets; the loop's garbage has no cycles anyway
        enabled = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        reference_loop()
        self.seconds += time.perf_counter() - t
        self.loops += 1
        if enabled:
            gc.enable()
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def import_program():
    """Import ``qcoorbit`` from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "qcoorbit" / "__init__.py").is_file():
        sys.exit(f"error: no qcoorbit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcoorbit
    import qcoorbit.cli
    if Path(qcoorbit.__file__).resolve().parent != SRC / "qcoorbit":
        sys.exit(f"error: imported qcoorbit from {qcoorbit.__file__}")
    return qcoorbit


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def time_setup(contexts, times):
    """Append SETUP_RUNS times from a fresh interpreter to built contexts."""
    argv = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)]
    argv += [f"{n}:{q1}" for n, q1 in contexts]
    for _ in range(SETUP_RUNS):
        t = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t)


def run_command(cli, argv, reference=None):
    """One CLI call: (exit code, stdout, stderr, seconds).

    The seconds leave out the reference loops that ran inside the call.
    """
    out, err = io.StringIO(), io.StringIO()
    # collect the last command's garbage now, not inside this one's timing
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        ref = reference.seconds if reference is not None else 0.0
        t = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:
            # a crash is a failed command, not the end of the benchmark
            rc = -1
            traceback.print_exc()
        dt = time.perf_counter() - t
        if reference is not None:
            dt -= reference.seconds - ref
    return rc, out.getvalue(), err.getvalue(), dt


class Log:
    """Times, outputs and failures of the commands a loop ran."""

    def __init__(self, ncmds):
        self.times = [[] for _ in range(ncmds)]   # seconds per command
        self.pass_times = []
        self.pass_refs = []                       # pass time in loop times
        self.first = [None] * ncmds               # first pass's stdout
        self.report_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, cmd, rc, text, err, expected_text=None):
        self.attempted += 1
        self.report_bytes += len(text.encode())
        problems = oracle.check(cmd, rc, text)
        if expected_text is not None and text != expected_text:
            problems.append("output differs from the first run")
        if problems:
            self.failed += 1
            self.problems.append((" ".join(cmd.argv), problems, err))


def run_passes(cli, cmds, seconds, log, tracer=None, after_pass=None,
               reference=None):
    """Repeat passes over ``cmds`` while another one fits in ``seconds``.

    With a ``reference``, each pass also runs under it and its time in mean
    reference-loop times goes to ``log.pass_refs``.
    """
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        total = 0.0
        if reference is not None:
            ref_s, ref_n = reference.seconds, reference.loops
            reference.tick()     # every pass samples the loop at least once
        with reference or contextlib.nullcontext():
            for i, cmd in enumerate(cmds):
                if tracer is not None:
                    tracer.command += 1
                rc, text, err, dt = run_command(cli, cmd.argv, reference)
                total += dt
                log.times[i].append(dt)
                if log.first[i] is None:
                    log.first[i] = text
                    log.record(cmd, rc, text, err)
                else:
                    log.record(cmd, rc, text, err, log.first[i])
        log.pass_times.append(total)
        if reference is not None:
            loop_s = (reference.seconds - ref_s) / (reference.loops - ref_n)
            log.pass_refs.append(total / loop_s)
        elapsed = time.perf_counter() - t
        if after_pass is not None:
            after_pass(len(log.pass_times))
        if time.perf_counter() - start + elapsed > seconds:
            return


def rerun_first(cli, cmds, log):
    rc, text, err, _dt = run_command(cli, cmds[0].argv)
    log.record(cmds[0], rc, text, err, log.first[0])


def print_log(cmds, log):
    """Per-command medians, then per kind and size (verify_s n=3, ...)."""
    by_kind = {}
    for cmd, times in zip(cmds, log.times):
        print(f"  {statistics.median(times):9.4f} s  median of {len(times)}"
              f"  {' '.join(cmd.argv)}")
        name = f"{cmd.kind.split('-')[0]}_s n={cmd.n}"
        by_kind.setdefault(name, []).extend(times)
    for name, times in by_kind.items():
        print(f"{name} {statistics.median(times):.4f} s "
              f"(median of {len(times)})")
    for argv, problems, err in log.problems:
        print(f"FAILED {argv}: {'; '.join(problems)} {err.strip()}")
    print(f"fail_frac {log.failed / log.attempted:.4f} "
          f"({log.failed} of {log.attempted})")


def print_breakdown(cmds, tracer):
    """Where each kind of command spent its traced time, by span name."""
    def label(cmd_id):
        cmd = cmds[cmd_id % len(cmds)]
        return f"{cmd.kind.split('-')[0]}_s n={cmd.n}"

    for kind, spans in tracer.by_command(label).items():
        total = spans.pop("cli.command")
        print(f"{kind}: {total:.4f} s traced; outermost time per span "
              "(nested spans overlap)")
        for name, secs in spans.most_common():
            print(f"  {name:18} {secs:9.4f} s  {secs / total:6.1%}")


def contexts_of(cmds):
    """The (size, q1) contexts the workload's commands build."""
    return sorted({(cmd.n, cmd.q1 or "") for cmd in cmds})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = import_program()
    cli = sys.modules["qcoorbit.cli"]
    cmds = workloads.commands(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    log = Log(len(cmds))

    if not args.trace:
        contexts, setup, peak_mb = contexts_of(cmds), [], []

        def after_pass(done):
            if done == 1:
                # The peak of a process that ran every command once, as CLI
                # calls do.  Later passes move it only by allocator
                # fragmentation, 0 to 1 MB from run to run.
                peak_mb.append(max_rss_mb())
            if done <= SETUP_PASSES:
                time_setup(contexts, setup)

        time_setup(contexts, setup)
        run_passes(cli, cmds, args.seconds, log, after_pass=after_pass,
                   reference=Reference())
        rerun_first(cli, cmds, log)
        time_setup(contexts, setup)
        print_log(cmds, log)
        metrics = {
            "wall_ref": (statistics.median(log.pass_refs), "loops"),
            "peak_rss_mb": (peak_mb[0], "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        print(f"wall_s {statistics.median(log.pass_times):.4f} s (not "
              "scaled by the reference loop)")
        print(f"wall_ref, wall_s: median of {len(log.pass_times)} passes; "
              f"setup_s: median of {len(setup)} interpreters; peak_rss_mb: "
              f"after the first pass ({max_rss_mb():.4g} MB at the end)")
    else:
        run_passes(cli, cmds, args.seconds, log)
        untraced = statistics.median(log.pass_times)
        tracer = Tracer(package)
        traced_log = Log(len(cmds))
        traced_log.first = log.first
        with tracer:
            run_passes(cli, cmds, args.seconds, traced_log, tracer)
        rerun_first(cli, cmds, log)
        print("untraced:")
        print_log(cmds, log)
        print("traced:")
        print_log(cmds, traced_log)
        print_breakdown(cmds, tracer)
        traced = statistics.median(traced_log.pass_times)
        passes = len(traced_log.pass_times)
        metrics = tracer.layer_metrics(passes)
        metrics["cli.report_bytes"] = (
            traced_log.report_bytes / passes, "bytes")
        metrics["trace.untraced_wall_s"] = (untraced, "s")
        metrics["trace.traced_wall_s"] = (traced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, [list(c.argv) for c in cmds])
        print(f"spans: {path.relative_to(ROOT)} ({len(tracer.spans)})")
        log.attempted += traced_log.attempted
        log.failed += traced_log.failed

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
