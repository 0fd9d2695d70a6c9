"""Per-layer spans, recorded from outside gscolor.

`traced(tracer)` replaces each public callable listed in SPANS with a timing
wrapper for the duration of a `with` block. gscolor modules import several of
these by name (engine does `from .density import bound_report`), so the
wrapper is installed in every gscolor module namespace that holds the
original, not only in the defining module. Methods are patched on their
class. Self time is a span's duration minus the time of the spans it
contains. Only per-span totals are kept: `PartialColoring.missing` alone is
called about 400,000 times in one dense_multi pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (span name, module, attribute). Span names use the module's name without
# its leading underscore, because metric names must start with a letter.
SPANS = (
    ("cli.cmd_color", "gscolor.cli", "cmd_color"),
    ("cli.cmd_verify", "gscolor.cli", "cmd_verify"),
    ("engine.color", "gscolor.engine", "color"),
    ("engine.color_at_k", "gscolor.engine", "color_at_k"),
    ("engine.extend", "gscolor.engine", "extend"),
    ("engine.verify_result", "gscolor.engine", "verify_result"),
    ("engine.result_from_json", "gscolor.engine", "result_from_json"),
    ("engine.ColoringResult.to_json_obj", "gscolor.engine", "ColoringResult.to_json_obj"),
    ("tashkinov.taa_close", "gscolor.tashkinov", "taa_close"),
    ("tashkinov.elementary_audit", "gscolor.tashkinov", "elementary_audit"),
    ("tashkinov.series_step", "gscolor.tashkinov", "series_step"),
    ("coloring.PartialColoring.missing", "gscolor.coloring", "PartialColoring.missing"),
    ("coloring.PartialColoring.clone", "gscolor.coloring", "PartialColoring.clone"),
    ("coloring.kempe_chain", "gscolor.coloring", "kempe_chain"),
    ("coloring.kempe_swap", "gscolor.coloring", "kempe_swap"),
    ("coloring.validate", "gscolor.coloring", "validate"),
    ("density.bound_report", "gscolor.density", "bound_report"),
    ("density.chromatic_index_exact", "gscolor.density", "chromatic_index_exact"),
    ("density.enumerate_colorings", "gscolor.density", "enumerate_colorings"),
    ("kernels.density_scan", "gscolor._kernels", "density_scan"),
    ("kernels.chromatic_feasible", "gscolor._kernels", "chromatic_feasible"),
    ("graph.parse_multigraph", "gscolor.graph", "parse_multigraph"),
    ("generators.exhaustive_connected", "gscolor.generators", "exhaustive_connected"),
    ("generators.random_multigraph", "gscolor.generators", "random_multigraph"),
)

# Extension methods, as ColoringResult.trace names them.
METHODS = ("direct", "kempe", "tashkinov", "fallback")

# Generator functions do their work while iterated; their span materializes
# the result so the work lands inside it.
_EAGER = {"generators.exhaustive_connected"}


def _extend_outcome(out):
    keys = [f"engine.extend:{out.method}"] if out.method else []
    return keys + (["engine.extend:colored"] if out.status == "colored" else [])


def _series_outcome(out):
    return ["tashkinov.series_step:extended"] if out.kind == "extended" else []


_OUTCOMES = {"engine.extend": _extend_outcome, "tashkinov.series_step": _series_outcome}


class Tracer:
    """Call counts, self time and outcome counts per span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.outcomes = Counter()
        self._child_s = []    # time spent in child spans, one entry per open span

    def wrap(self, name, fn):
        outcome = _OUTCOMES.get(name)
        eager = name in _EAGER

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._child_s.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
                if outcome is not None:
                    self.outcomes.update(outcome(result))
                return result
            finally:
                duration = self.clock() - start
                child = self._child_s.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - child
                if self._child_s:
                    self._child_s[-1] += duration
        return span


def _gscolor_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "gscolor" or name.startswith("gscolor."))]


@contextmanager
def traced(tracer: Tracer):
    """Route every SPANS callable through `tracer` inside the block."""
    patched = []
    try:
        for name, modname, attr in SPANS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                patched.append((cls, meth, vars(cls)[meth]))
                setattr(cls, meth, tracer.wrap(name, vars(cls)[meth]))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(name, original)
            for mod in _gscolor_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for owner, key, original in reversed(patched):
            setattr(owner, key, original)


def ratio(num, den) -> float:
    """num/den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, *, ops: int, methods: dict, import_s: float,
                  overhead_s: float) -> dict:
    """Every per-layer metric, as name -> (value, unit)."""
    out = {}
    for name, _, _ in SPANS:
        out[f"{name}.calls"] = (tracer.calls[name], "count")
        out[f"{name}.self_s"] = (tracer.self_s[name], "s")
    for method in METHODS:
        out[f"engine.extend.{method}"] = (methods[method], "count")
    oc, calls = tracer.outcomes, tracer.calls
    out["engine.extend.colored_ratio"] = (
        ratio(oc["engine.extend:colored"], calls["engine.extend"]), "ratio")
    out["coloring.kempe_swap.useful_ratio"] = (
        ratio(oc["engine.extend:kempe"], calls["coloring.kempe_swap"]), "ratio")
    out["tashkinov.series_step.extended_ratio"] = (
        ratio(oc["tashkinov.series_step:extended"], calls["tashkinov.series_step"]), "ratio")
    out["engine.color_at_k.per_op"] = (ratio(calls["engine.color_at_k"], ops), "1/op")
    out["import.s"] = (import_s, "s")
    out["trace_overhead_s"] = (overhead_s, "s")
    return out

