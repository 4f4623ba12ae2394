"""Per-layer spans for the traced benchmark run.

Each layer function is wrapped under every name a calling module looks it
up by (for example `zickey.cli.sweep_region` and `zickey.verify.sweep_region`
for the same function), so a call made through any of those names opens a
span. Spans nest: a span's self time is its time minus the time of the spans
opened inside it. Only totals per span name are kept: calls, time, self
time and the counts a hook records.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


def _rows_out(counts, args, result):
    counts["schemes.corner_points"] += len(result)


def _pareto(counts, args, result):
    counts["geometry.pareto_filter.points_in"] += len(args[0])
    counts["geometry.pareto_filter.points_out"] += len(result)


def _hull_vertices(counts, args, result):
    counts["geometry.hull.vertices_out"] += len(result.vertices)


def _report_rows(counts, args, result):
    counts["verify.rows"] += len(result["results"])


def _svg_bytes(counts, args, result):
    counts["svg.bytes_out"] += len(result.encode("utf-8"))


# span name -> (modules whose global of that name is wrapped, count hook)
LAYERS = {
    "schemes.sweep_region": (("zickey.cli", "zickey.verify"), None),
    "schemes.polygon_points": (("zickey.schemes", "zickey.gdof"), _rows_out),
    "schemes.max_sum_rate": (("zickey.cli",), None),
    "geometry.pareto_filter": (("zickey.schemes", "zickey.geometry"), _pareto),
    "geometry.hull": (("zickey.schemes", "zickey.gdof", "zickey.verify"),
                      _hull_vertices),
    "geometry.intersect_halfplanes": (("zickey.bounds", "zickey.gdof",
                                       "zickey.verify"), None),
    "bounds.composite_outer_region": (("zickey.cli", "zickey.verify"), None),
    "bounds.evaluate_outer_bounds": (("zickey.cli", "zickey.verify",
                                      "zickey.bounds"), None),
    "gdof.gdof_region": (("zickey.cli", "zickey.verify", "zickey.gdof"), None),
    "gdof.gdof_convergence_check": (("zickey.verify",), None),
    "verify.run_battery": (("zickey.cli",), _report_rows),
    "svg.polyline_chart": (("zickey.cli",), _svg_bytes),
    "scenario.load_config": (("zickey.cli",), None),
}


class Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span totals and counts for one benchmark run."""

    def __init__(self):
        self.spans = defaultdict(Span)
        self.counts = defaultdict(int)
        self._child_time = []  # one accumulator per open span

    def wrap(self, name, fn, hook=None):
        """`fn` with a span named `name` around every call."""
        spans, counts, stack = self.spans, self.counts, self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                span = spans[name]
                span.calls += 1
                span.total += dt
                span.self_time += dt - child
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every layer function under each name it is looked up by.

        A module or name that the program no longer has stops the run, so a
        renamed layer is mapped anew instead of reading zero.
        """
        for name, (modules, hook) in LAYERS.items():
            attr = name.rsplit(".", 1)[1]
            for mod_name in modules:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if fn is None:
                    raise AttributeError(f"span {name}: {mod_name} has no {attr}")
                setattr(mod, attr, self.wrap(name, fn, hook))
