"""Per-layer tracing by wrapping qcoorbit's layer entry points from outside.

Installing a :class:`Tracer` replaces the entry points below with wrappers;
uninstalling puts the originals back, so an untraced run executes the
program's own functions.  Spans (name, start, end, parent, command id,
outermost) are kept in memory and written out by :meth:`Tracer.dump`.

Entry points that run hundreds of thousands of times per command are
recorded as aggregate counts instead of spans: Scalar arithmetic (with the
time inside outermost Scalar operations), ``Poly.gcd`` and single-letter
straightening (with the growth of its cache).
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# span name -> (module, owner attribute or None, function name)
SPANS = {
    "cli.command": ("cli", None, "main"),
    "cli.point_parse": ("cli", None, "load_point"),
    "mq.mul_monos": ("mq", "MatrixAlgebra", "_mul_monos"),
    "hopf.coaction": ("hopf", "HopfContext", "_coaction_mono"),
    "hopf.antipode": ("hopf", "HopfContext", "_antipode_mono"),
    "coorbit.fold": ("coorbit", "CoorbitMap", "of_monomial"),
    "coorbit.lift": ("coorbit", "CoorbitMap", "_lifted_images"),
    "coorbit.subspace": ("coorbit", "TruncatedSubspace", "__init__"),
    "xla.echelon": ("xla", None, "echelon"),
    "xla.member": ("xla", None, "member"),
    "chars.character": ("chars", None, "character_of"),
    "chars.compare_q1": ("chars", None, "compare_at_q1"),
    # sphere spans are built in coorbit; the identity battery reports them
    # next to the characters, so they are timed with chars
    "chars.sphere": ("coorbit", None, "sphere_span"),
}

# span name -> cache whose growth per outermost call counts the misses
SPAN_CACHES = {"coorbit.fold": "_mono_cache"}

# Scalar operations and the counter each one feeds.  The others delegate to
# these (a - b is a + (-b)), so they only add to the busy time.
SCALAR_OPS = {
    "__add__": "add", "__radd__": "add", "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": None, "__sub__": None,
    "__rsub__": None, "__neg__": None, "__pow__": None,
}

LAYERS = ("cli", "mq", "hopf", "coorbit", "xla", "chars")


class Tracer:
    """Wraps the layer entry points of an imported ``qcoorbit`` package."""

    def __init__(self, package):
        self.package = package
        self.spans = []       # [name, start, end, parent, command, outermost]
        self.counts = Counter()
        self.scalar_busy = 0.0
        self.command = -1
        self._stack = []
        self._depth = Counter()
        self._patches = []

    # -- install / uninstall ----------------------------------------------

    def _module(self, name):
        return sys.modules[f"{self.package.__name__}.{name}"]

    def _patch_owner(self, owner, attr, wrapper):
        raw = owner.__dict__[attr]
        self._patches.append((owner, attr, raw))
        if isinstance(raw, staticmethod):
            wrapper = staticmethod(wrapper)
        setattr(owner, attr, wrapper)

    def _patch_function(self, fn, wrapper):
        """Rebind ``fn`` in every package module that imported it."""
        prefix = self.package.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix
                                   or modname.startswith(prefix + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, (modname, owner, attr) in SPANS.items():
            mod = self._module(modname)
            if owner is None:
                fn = getattr(mod, attr)
                self._patch_function(fn, self._span(name, fn))
            else:
                cls = getattr(mod, owner)
                fn = cls.__dict__[attr]
                self._patch_owner(cls, attr, self._span(name, fn))
        scalars = self._module("scalars")
        for attr, op in SCALAR_OPS.items():
            self._patch_owner(scalars.Scalar, attr, self._scalar_op(
                op, scalars.Scalar.__dict__[attr]))
        gcd = scalars.Poly.__dict__["gcd"].__func__
        self._patch_owner(scalars.Poly, "gcd", self._counted("scalars.gcd", gcd))
        mq = self._module("mq").MatrixAlgebra
        self._patch_owner(mq, "_mul_mono_letter", self._letter(
            mq.__dict__["_mul_mono_letter"]))
        return self

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter
        cache = SPAN_CACHES.get(name)
        echelon = name == "xla.echelon"

        def wrapper(*args, **kwargs):
            outer = depth[name] == 0
            if cache is not None and outer:
                before = len(getattr(args[0], cache))
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command,
                   outer]
            stack.append(len(spans))
            spans.append(rec)
            depth[name] += 1
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                depth[name] -= 1
                stack.pop()
            if cache is not None and outer:
                self.counts[name + ".misses"] += \
                    len(getattr(args[0], cache)) - before
            if echelon:
                rows = args[0]
                self.counts["xla.rows"] += len(rows)
                self.counts["xla.cells"] += len(rows) * len(rows[0]) \
                    if rows else 0
                self.counts["xla.rank"] += out[2]
            return out
        return wrapper

    def _scalar_op(self, op, fn):
        counts, clock = self.counts, time.perf_counter
        key = op and "scalars." + op

        def wrapper(*args):
            if key:
                counts[key] += 1
            if self._depth["scalars"]:
                return fn(*args)
            self._depth["scalars"] = 1
            t = clock()
            try:
                return fn(*args)
            finally:
                self.scalar_busy += clock() - t
                self._depth["scalars"] = 0
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def _letter(self, fn):
        counts, depth = self.counts, self._depth

        def wrapper(alg, m, k):
            counts["mq.letter"] += 1
            if depth["mq.letter"]:
                return fn(alg, m, k)
            before = len(alg._ml_cache)
            depth["mq.letter"] = 1
            try:
                return fn(alg, m, k)
            finally:
                depth["mq.letter"] = 0
                counts["mq.letter.misses"] += len(alg._ml_cache) - before
        return wrapper

    # -- derived numbers ----------------------------------------------------

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _cmd, _outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c
                for (_n, start, end, _p, _c, _o), c in zip(self.spans, child)]

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer numbers per traced pass, as ``{name: (value, unit)}``."""
        calls, outer_s = Counter(), Counter()
        in_subspace = 0.0
        for name, start, end, parent, _cmd, outer in self.spans:
            calls[name] += 1
            if outer:
                outer_s[name] += end - start
            if name == "xla.echelon" and parent >= 0 \
                    and self.spans[parent][0] == "coorbit.subspace":
                in_subspace += end - start
        layer_self = Counter()
        for (name, *_rest), s in zip(self.spans, self.self_times()):
            layer_self[name.split(".")[0]] += s
        c = self.counts

        def hit_ratio(misses, calls):
            return 1 - misses / calls if calls else 0.0

        out = {
            "scalars.mul_calls": (c["scalars.mul"], "count"),
            "scalars.add_calls": (c["scalars.add"], "count"),
            "scalars.div_calls": (c["scalars.div"], "count"),
            "scalars.gcd_calls": (c["scalars.gcd"], "count"),
            "scalars.busy_s": (self.scalar_busy, "s"),
            "mq.mul_monos_calls": (calls["mq.mul_monos"], "count"),
            "mq.mul_monos_s": (outer_s["mq.mul_monos"], "s"),
            "mq.letter_calls": (c["mq.letter"], "count"),
            "hopf.coaction_calls": (calls["hopf.coaction"], "count"),
            "hopf.coaction_s": (outer_s["hopf.coaction"], "s"),
            "hopf.antipode_calls": (calls["hopf.antipode"], "count"),
            "hopf.antipode_s": (outer_s["hopf.antipode"], "s"),
            "coorbit.fold_calls": (calls["coorbit.fold"], "count"),
            "coorbit.fold_s": (outer_s["coorbit.fold"], "s"),
            "coorbit.lift_s": (outer_s["coorbit.lift"], "s"),
            "coorbit.subspace_s": (outer_s["coorbit.subspace"], "s"),
            "xla.echelon_calls": (calls["xla.echelon"], "count"),
            "xla.echelon_s": (outer_s["xla.echelon"], "s"),
            "xla.echelon_cells": (c["xla.cells"], "count"),
            "xla.echelon_in_subspace_s": (in_subspace, "s"),
            "xla.member_calls": (calls["xla.member"], "count"),
            "xla.member_s": (outer_s["xla.member"], "s"),
            "chars.character_s": (outer_s["chars.character"], "s"),
            "chars.compare_q1_s": (outer_s["chars.compare_q1"], "s"),
            "chars.sphere_s": (outer_s["chars.sphere"], "s"),
            "cli.command_s": (outer_s["cli.command"], "s"),
            "cli.point_parse_s": (outer_s["cli.point_parse"], "s"),
        }
        out = {k: (v / passes, u) for k, (v, u) in out.items()}
        out["mq.letter_hit_ratio"] = (
            hit_ratio(c["mq.letter.misses"], c["mq.letter"]), "ratio")
        out["coorbit.fold_hit_ratio"] = (
            hit_ratio(c["coorbit.fold.misses"], calls["coorbit.fold"]), "ratio")
        out["xla.rank_ratio"] = (
            c["xla.rank"] / c["xla.rows"] if c["xla.rows"] else 0.0, "ratio")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer] / passes, "s")
        return out

    def by_command(self, label_of):
        """Outermost seconds per span name, summed per command label."""
        out = {}
        for name, start, end, _parent, cmd, outer in self.spans:
            if outer:
                out.setdefault(label_of(cmd), Counter())[name] += end - start
        return out

    def dump(self, path, commands):
        """Write the spans as JSON, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        self_s = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "command",
                           "outermost", "self"],
                "names": names,
                "commands": commands,
                "spans": [[index[n], round(a - t0, 7), round(b - t0, 7), p,
                           cmd, int(o), round(s, 7)]
                          for (n, a, b, p, cmd, o), s in zip(self.spans,
                                                             self_s)],
            }, fh, separators=(",", ":"))
