"""Per-layer tracing of slopekit from outside the package.

`install` replaces each traced public function, in every slopekit module
that holds a reference to it, with a wrapper that records a span. Spans
nest through a stack, so a layer's self time is its span's duration
minus the time of the traced spans it caused. Per name the tracer keeps
calls, self seconds and the work counters below, in memory; the
benchmark writes them out when the run ends. Untraced runs never call
`install`, so their timings carry no tracing cost.
"""
from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter, defaultdict

# (module, function) -> span name
TRACED = {
    ("space", "build_graph"): "space.build_graph",
    ("space", "sample_interval"): "space.sample_interval",
    ("space", "is_connected"): "space.is_connected",
    ("slope", "slope_field"): "slope.slope_field",
    ("slope", "local_slope"): "slope.local_slope",
    ("critical", "critical_set"): "critical.critical_set",
    ("critical", "comparison_floor"): "critical.comparison_floor",
    ("descent", "descent_path"): "descent.descent_path",
    ("descent", "descent_step"): "descent.descent_step",
    ("descent", "verify_strict_comparison"): "descent.verify_strict_comparison",
    ("determination", "determine"): "determination.determine",
    ("determination", "comparison_principle"): "determination.comparison_principle",
    ("determination", "epsilon_audit"): "determination.epsilon_audit",
    ("reconstruct", "reconstruct"): "reconstruct.reconstruct",
    ("gallery", "emit_figure_data"): "gallery.emit_figure_data",
    ("io", "load_graph_csv"): "io.load",
    ("io", "load_coordinates_csv"): "io.load",
    ("io", "load_field_csv"): "io.load",
    ("io", "load_crit_values_csv"): "io.load",
    ("io", "load_slope_csv"): "io.load",
    ("io", "render_field_csv"): "io.render",
    ("io", "render_slope_csv"): "io.render",
    ("io", "render_crit_csv"): "io.render",
    ("io", "render_determination_report"): "io.render",
    ("io", "render_witness_report"): "io.render",
    ("io", "render_rows_csv"): "io.render",
}

CLI_COMMANDS = ("slope", "crit", "reconstruct", "determine", "gallery")

# The per-layer metrics every traced run reports, with their units.
LAYER_METRICS = {
    "space.build_graph.s": "s", "space.build_graph.calls": "count",
    "space.sample_interval.s": "s", "space.is_connected.s": "s",
    "space.edges": "count",
    "slope.slope_field.s": "s", "slope.slope_field.calls": "count",
    "slope.slope_field.points": "count",
    "slope.local_slope.s": "s", "slope.local_slope.calls": "count",
    "critical.critical_set.s": "s", "critical.critical_set.calls": "count",
    "critical.comparison_floor.s": "s", "critical.comparison_floor.calls": "count",
    "descent.descent_path.s": "s", "descent.descent_step.calls": "count",
    "descent.verify_strict_comparison.s": "s",
    "determination.determine.s": "s", "determination.determine.calls": "count",
    "determination.comparison_principle.s": "s",
    "determination.comparison_principle.calls": "count",
    "determination.epsilon_audit.s": "s",
    "reconstruct.reconstruct.s": "s", "reconstruct.reconstruct.calls": "count",
    "io.load.s": "s", "io.render.s": "s",
    "io.bytes_read": "bytes", "io.bytes_written": "bytes",
    "cli.import.s": "s",
    **{f"cli.{cmd}.s": "s" for cmd in CLI_COMMANDS},
    "gallery.emit_figure_data.s": "s",
}


# Work counters: span name -> (counter name, amount from the call's args and result).
WORK = {
    "slope.slope_field": ("slope.slope_field.points", lambda args, out: args[0].n),
    "space.build_graph": ("space.edges", lambda args, out: len(out.edges)),
    "space.sample_interval": ("space.edges", lambda args, out: len(out.edges)),
    "io.load": ("io.bytes_read", lambda args, out: os.path.getsize(args[0])),
    "io.render": ("io.bytes_written", lambda args, out: len(out.encode("utf-8"))),
}


class Tracer:
    """Span stack plus per-name totals of calls, self seconds and counters.

    The stack holds, for each open span, the time its finished child
    spans took. The grid workload makes a million traced calls per
    round, so the wrapper stays a plain closure with no context manager.
    """

    def __init__(self):
        self._stack: list[float] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        stack, calls, self_s, counts = self._stack, self.calls, self.self_s, self.counts
        counter, amount = WORK.get(name, (None, None))
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt
            if counter is not None:
                counts[counter] += amount(args, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span of its own."""
        return self.wrap(name, fn)(*args)

    def snapshot(self) -> dict:
        """Totals so far, keyed by the metric names of LAYER_METRICS."""
        out = {}
        for metric in LAYER_METRICS:
            base, _, suffix = metric.rpartition(".")
            if suffix == "s":
                out[metric] = self.self_s.get(base, 0.0)
            elif suffix == "calls":
                out[metric] = self.calls.get(base, 0)
            else:
                out[metric] = self.counts.get(metric, 0)
        return out

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()


def install(tracer: Tracer) -> None:
    """Route every slopekit reference to a traced function through `tracer`."""
    wrappers = {}
    for (mod_name, fn_name), span_name in TRACED.items():
        module = importlib.import_module(f"slopekit.{mod_name}")
        original = getattr(module, fn_name)
        wrappers[id(original)] = tracer.wrap(span_name, original)
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "slopekit" or name.startswith("slopekit."))]
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
