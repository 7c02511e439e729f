"""Per-layer spans and counts, recorded from outside the package.

The pipeline and the CLI call every layer through names bound in their own
modules (`isoembed.pipeline`, `isoembed.cli`). During a traced operation
those names are replaced by wrappers that record a span per call, and
restored afterwards, so the package itself is never edited. A span is named
`<module>.<function>` after the function it wraps.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from isoembed import cli, pipeline

# Every layer function each module looks up at call time. A name a later
# version no longer has is skipped; its metrics then read 0.
WRAPPED = {
    pipeline: (
        "make_metric", "validate_metric", "make_initial", "solve_f", "solve_g",
        "build_param_change", "jacobian_initial_closed_form", "solve_system_grid",
        "fit_chart_profile", "make_base_curve", "chart_grid_for", "build_chart",
        "s0_residuals", "chart_jacobian_min", "lift", "induced_metric", "compose",
        "isometry_residual", "curvature_field", "curvature_match",
        "compatibility_residual", "c2_defect_scan", "write_report", "write_system_csv",
        "downsample_surface", "export_obj", "run_pipeline", "write_outputs",
    ),
    cli: (
        "cmd_run", "cmd_example_cos2", "cmd_verify", "run_pipeline", "write_outputs",
        "make_metric", "load_obj_positions", "isometry_residual", "write_report",
    ),
}

ROOT = "bench.operation"

# span totals reported as <name>.s
SECONDS = (
    "ivp.solve_f", "ivp.solve_g", "ivp.c2_defect_scan", "reparam.build_param_change",
    "system_s.solve_system_grid",
    "plane.fit_chart_profile", "pipeline.chart_grid_for", "plane.build_chart",
    "plane.s0_residuals", "plane.chart_jacobian_min",
    "surface.lift", "surface.induced_metric", "surface.compose",
    "report.isometry_residual", "report.curvature_match", "metric.curvature_field",
    "report.compatibility_residual",
    "report.write_report", "report.write_system_csv", "surface.export_obj",
    "surface.downsample_surface", "surface.load_obj_positions",
)
# self times reported as <name>.self_s: work outside every wrapped call
SELF_SECONDS = ("pipeline.run_pipeline", "pipeline.write_outputs", "cli.cmd_verify")
WRITERS = ("report.write_report", "report.write_system_csv", "surface.export_obj")

# (name, unit, better), in the order BENCHMARK.json lists them
LAYER_METRICS = (
    *((f"{n}.s", "s", "lower") for n in SECONDS),
    *((f"{n}.self_s", "s", "lower") for n in SELF_SECONDS),
    ("system_s.nodes", "count", "higher"),
    ("system_s.us_per_node", "us", "lower"),
    ("ivp.steps", "count", "lower"),
    ("reparam.certified_frac", "fraction", "higher"),
    ("plane.chart_nodes", "count", "lower"),
    ("report.compatibility_residual.calls", "count", "lower"),
    ("report.bytes_written", "bytes", "lower"),
    ("report.write_mb_per_s", "MB/s", "higher"),
    ("cli.bytes_read", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _size(path):
    return os.path.getsize(path) if path else 0


# span name -> (bound arguments, result) -> counts to add
COUNT_HOOKS = {
    "ivp.solve_f": lambda a, r: {"ivp.steps": r.steps},
    "ivp.solve_g": lambda a, r: {"ivp.steps": r.steps},
    "reparam.build_param_change": lambda a, r: {
        "reparam.certified": int(r.certified.sum()), "reparam.grid_nodes": r.certified.size},
    "system_s.solve_system_grid": lambda a, r: {"system_s.nodes": int(r.mask.sum())},
    "plane.build_chart": lambda a, r: {"plane.chart_nodes": r.grid.nu * r.grid.nv},
    "report.compatibility_residual": lambda a, r: {"report.compatibility_residual.calls": 1},
    # write_report writes the CSV only when it is given a node table
    "report.write_report": lambda a, r: {"report.bytes_written": _size(a["json_path"])
                                         + (_size(a["csv_path"]) if a["table"] is not None else 0)},
    "report.write_system_csv": lambda a, r: {"report.bytes_written": _size(a["path"])},
    "surface.export_obj": lambda a, r: {"report.bytes_written": _size(a["path"])},
    "cli.cmd_verify": lambda a, r: {"cli.bytes_read": _size(a["args"].mesh)
                                    + _size(a["args"].fields)},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, None for an operation's root
    op: int


class Tracer:
    """Spans and counts of traced operations, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._op = None

    @contextlib.contextmanager
    def operation(self, op_id):
        """Trace one operation: wrap the layer names, time the whole as ROOT."""
        saved = []
        for module, names in WRAPPED.items():
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:
                    saved.append((module, name, fn))
                    setattr(module, name, self._wrap(fn))
        self._op = op_id
        self.counts[op_id] = Counter()
        root = self._open(ROOT)
        try:
            yield
        finally:
            self._close(root)
            self._op = None
            for module, name, fn in saved:
                setattr(module, name, fn)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), None, parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        hook = COUNT_HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[self._op].update(hook(bound.arguments, result))
            return result

        return traced

    def times(self, op_id):
        """(total, self) seconds per span name within one operation.

        Self time is a span's duration minus its children's; one thread
        runs them one after another, so children never overlap.
        """
        child = defaultdict(float)
        mine = [(i, s) for i, s in enumerate(self.spans) if s.op == op_id]
        for _, s in mine:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        total, own = defaultdict(float), defaultdict(float)
        for i, s in mine:
            total[s.name] += s.end - s.start
            own[s.name] += s.end - s.start - child[i]
        return total, own

    def layer_values(self, op_id) -> dict:
        """Every per-layer metric of one operation except trace.overhead_s."""
        total, own = self.times(op_id)
        c = self.counts[op_id]
        out = {f"{n}.s": total.get(n, 0.0) for n in SECONDS}
        out.update({f"{n}.self_s": own.get(n, 0.0) for n in SELF_SECONDS})
        for key in ("system_s.nodes", "ivp.steps", "plane.chart_nodes",
                    "report.compatibility_residual.calls", "report.bytes_written",
                    "cli.bytes_read"):
            out[key] = c[key]
        nodes = c["system_s.nodes"]
        out["system_s.us_per_node"] = (
            1e6 * total.get("system_s.solve_system_grid", 0.0) / nodes if nodes else 0.0)
        grid_nodes = c["reparam.grid_nodes"]
        out["reparam.certified_frac"] = c["reparam.certified"] / grid_nodes if grid_nodes else 0.0
        write_s = sum(total.get(n, 0.0) for n in WRITERS)
        out["report.write_mb_per_s"] = (
            c["report.bytes_written"] / 1e6 / write_s if write_s else 0.0)
        return out

    def to_json(self):
        return [vars(s) for s in self.spans]
