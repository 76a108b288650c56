"""Spans around hexpack's public functions, installed by name from the
benchmark's side; the package itself carries no tracing.

Each wrapped call records its duration and its self time, the duration
minus the time of the wrapped calls inside it.  Calls of the functions in
``HOT`` run tens of thousands of times per pipeline, so they are rolled up
per input and caller instead of kept one by one.  Everything stays in
memory until ``write`` runs at the end of the benchmark.

A function that a later version of hexpack renames or inlines is reported
as missing, and every metric drawn from it is left out of the result
instead of reading zero.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Public functions wrapped in each hexpack module.
WRAPPED = {
    "lattice": ("read_field_csv", "write_field_csv"),
    "spiral": ("spiral_field", "classify"),
    "solver": ("solve_patch", "harmonic_interpolation", "angle_defect"),
    "harmonic": ("compute_edge_weights", "harmonic_residual", "random_walk_return"),
    "geometry": ("dtheta_dx1_array", "theta"),
    "layout": ("develop",),
    "render": ("render_svg",),
}
LAYERS = ("cli", *WRAPPED)

# Called once per vertex, edge or face: rolled up, not kept per call.
HOT = {"solver.angle_defect", "harmonic.harmonic_residual",
       "geometry.dtheta_dx1_array", "geometry.theta"}


def _solve_counts(args, result):
    solved, report = result
    w = solved.window
    interior = (w.m_count - 2) * (w.n_count - 2)
    return {"solver.iterations": report.iterations,
            "solver.vertex_updates": report.iterations * interior}


# What a call of each function counts, read from its arguments and result.
COUNTERS = {
    "lattice.read_field_csv": (("lattice.csv_bytes",),
                               lambda args, result: {"lattice.csv_bytes": len(args[0])}),
    "lattice.write_field_csv": (("lattice.csv_bytes",),
                                lambda args, result: {"lattice.csv_bytes": len(result)}),
    "solver.solve_patch": (("solver.iterations", "solver.vertex_updates"), _solve_counts),
    "harmonic.compute_edge_weights": (("harmonic.edges",),
                                      lambda args, result: {"harmonic.edges": len(result)}),
    "harmonic.random_walk_return": (
        ("harmonic.walk_steps",),
        lambda args, result: {"harmonic.walk_steps": args[2] * args[3]}),
    "geometry.dtheta_dx1_array": (
        ("geometry.quadrature_points",),
        lambda args, result: {"geometry.quadrature_points": np.size(args[0])}),
    "layout.develop": (("layout.circles",),
                       lambda args, result: {"layout.circles": len(result.circles)}),
    "render.render_svg": (("render.svg_bytes",),
                          lambda args, result: {"render.svg_bytes": len(result)}),
}


class Tracer:
    """Collects the spans of one benchmark run, grouped by input."""

    def __init__(self) -> None:
        # Kept spans: (input, span id, parent span id, name, start, end, self_s).
        self.spans: list[tuple] = []
        # Per input: (caller name, name) -> [calls, total_s, self_s].
        self.rollups: dict[str, dict] = {}
        # Wrapped functions not found, and counters whose reading failed.
        self.missing: set[str] = set()
        self.absent: set[str] = set()
        self.counts: dict[str, int] = {}
        self.input_id: str | None = None
        self._calls: dict[tuple, list] = {}
        self._stack: list[list] = []
        self._ids = itertools.count(1)

    def start_input(self, input_id: str) -> None:
        """Spans from here on belong to ``input_id``."""
        self.input_id = input_id
        self._calls = self.rollups[input_id] = {}
        self.counts = defaultdict(int)

    def stats(self) -> dict[str, list]:
        """Current input: name -> [calls, total_s, self_s] over all callers."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name), (calls, total, self_s) in self._calls.items():
            row = out[name]
            row[0] += calls
            row[1] += total
            row[2] += self_s
        return out

    def _open(self, name: str) -> list:
        # Frame: [span id (0 when not kept), time of wrapped calls inside, name].
        frame = [0 if name in HOT else next(self._ids), 0.0, name]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        self_s = duration - frame[1]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        key = (parent[2] if parent else None, frame[2])
        totals = self._calls.get(key)
        if totals is None:
            totals = self._calls[key] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += self_s
        if frame[0]:
            self.spans.append((self.input_id, frame[0], (parent[0] or None) if parent else None,
                               frame[2], start, end, self_s))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, such as one CLI command."""
        frame = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, time.perf_counter())

    def _count(self, name: str, args, result) -> None:
        keys, read = COUNTERS[name]
        try:
            found = read(args, result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            self.absent.update(keys)
            return
        for key, value in found.items():
            self.counts[key] += int(value)

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        counted = name in COUNTERS

        def traced(*args, **kwargs):
            frame = self._open(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, start, clock())
            if counted:
                self._count(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every reference to a wrapped function inside the hexpack
        package by its traced version, and restore the originals on exit."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "hexpack" or key.startswith("hexpack."))]
        patches = []
        for layer, names in WRAPPED.items():
            home = sys.modules.get(f"hexpack.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                original = getattr(home, name, None)
                if not callable(original):
                    self.missing.add(key)
                    continue
                traced = self._wrap(key, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, attr, original, traced))
        for mod, attr, _, traced in patches:
            setattr(mod, attr, traced)
        try:
            yield self
        finally:
            for mod, attr, original, _ in reversed(patches):
                setattr(mod, attr, original)

    def write(self, path: Path) -> None:
        """Write the kept spans, then the rolled-up calls, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for input_id, span_id, parent, name, start, end, self_s in self.spans:
                fh.write(json.dumps({"input": input_id, "span": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     "self_s": self_s}) + "\n")
            for input_id, calls_by in self.rollups.items():
                for (caller, name), (calls, total, self_s) in calls_by.items():
                    if name in HOT:
                        fh.write(json.dumps({"input": input_id, "caller": caller, "name": name,
                                             "calls": calls, "total_s": total,
                                             "self_s": self_s}) + "\n")
            if self.missing or self.absent:
                fh.write(json.dumps({"missing": sorted(self.missing),
                                     "absent_counts": sorted(self.absent)}) + "\n")

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the current input, whose traced pipeline took
        ``wall`` seconds.  Rates over a count that is zero, because the layer
        did not run, read zero."""
        stats, counts = self.stats(), self.counts
        out: dict[str, float] = {}

        # A count is absent when its reading failed or a function it comes
        # from is missing.
        gone = self.missing | self.absent
        for name, (keys, _) in COUNTERS.items():
            if name in self.missing:
                gone.update(keys)

        def have(*keys: str) -> bool:
            return not any(k in gone for k in keys)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def row(key: str):  # calls, total_s, self_s
            return stats.get(key, (0, 0.0, 0.0))

        out["cli.self_s"] = sum(v[2] for k, v in stats.items() if k.startswith("cli."))
        layer_self = {"cli": out["cli.self_s"]}
        for layer, names in WRAPPED.items():
            for name in names:
                key = f"{layer}.{name}"
                if have(key):
                    calls, _, self_s = row(key)
                    out[f"{key}_calls"] = calls
                    out[f"{key}_s"] = self_s
                    layer_self[layer] = layer_self.get(layer, 0.0) + self_s
        for layer, self_s in layer_self.items():
            out[f"{layer}.share_pct"] = 100.0 * self_s / wall

        for keys, _ in COUNTERS.values():
            for key in keys:
                if have(key):
                    out[key] = counts.get(key, 0)

        rates = (
            # name, timed function, use self time, scale, count
            ("solver.us_per_vertex_update", "solver.solve_patch", True, 1e6,
             "solver.vertex_updates"),
            ("harmonic.us_per_edge", "harmonic.compute_edge_weights", False, 1e6, "harmonic.edges"),
            ("harmonic.ns_per_walk_step", "harmonic.random_walk_return", False, 1e9,
             "harmonic.walk_steps"),
            ("layout.us_per_circle", "layout.develop", False, 1e6, "layout.circles"),
        )
        for name, fn, self_time, scale, count in rates:
            if have(fn, count):
                seconds = row(fn)[2 if self_time else 1]
                out[name] = ratio(scale * seconds, counts.get(count, 0))
        if have("geometry.dtheta_dx1_array", "geometry.quadrature_points"):
            out["geometry.points_per_call"] = ratio(
                counts.get("geometry.quadrature_points", 0), row("geometry.dtheta_dx1_array")[0])
        return out
