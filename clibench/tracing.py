"""In-process tracing of jetconn through wrappers installed from outside.

:class:`Tracer` replaces the public functions of each jetconn module, in
every module namespace that holds them, by wrappers that record a span
per call and count the work at the call boundary.  No file of jetconn is
changed: :meth:`Tracer.uninstall` puts the originals back.  A recursive
public function (``simplify`` calls itself through its module global) gets
one span per outermost call.

Spans are kept in memory: per-name totals of calls, wall time and self
time (wall minus the wrapped calls made inside it), plus the first
``MAX_SPANS`` raw spans with their parent, for :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MAX_SPANS = 20000

# layer -> (module, public functions).  "Class.method" wraps a method.
LAYERS = {
    "cli": ("jetconn.cli", ("main",)),
    "io": ("jetconn.io", ("load_path", "dump_json", "transport_csv",
                          "connection2_to_data", "curvature_to_data")),
    "expr": ("jetconn.expr", ("parse_expr", "simplify", "diff", "to_text")),
    "connections": ("jetconn.connections", (
        "product", "ehresmann_prolongation", "curvature", "exchange", "family",
        "classify", "linear_to_general", "affine_to_general", "is_fiber_linear")),
    "evaluate": ("jetconn.evaluate", ("expr_equal", "eval_expr")),
    "tape": ("jetconn._tape", ("compile_program", "Program.__call__")),
    "kernel": ("jetconn.kernel", ("active",)),
    "transport": ("jetconn.transport", (
        "transport1", "transport2", "second_order_ode", "loop_holonomy")),
    "frames": ("jetconn.frames", (
        "adapted_frame", "twofold_frame", "twofold_dual_coframe",
        "validate_twofold_jacobian", "horizontal_lift_field")),
    "jets": ("jetconn.jets", (
        "is_semiholonomic_point", "is_holonomic_point", "projections_agree")),
}

EMIT = ("io.dump_json", "io.transport_csv", "io.connection2_to_data", "io.curvature_to_data")
RK4 = ("transport.transport1", "transport.transport2", "transport.second_order_ode")


def node_count(e) -> int:
    """Tree size of an expression, without recursion."""
    stack, count = [e], 0
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children())
    return count


class Tracer:
    def __init__(self):
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, wall, self
        self.counts = Counter()
        self.spans = []
        self._stack = []  # [name, start, time in children, span index]
        self._active = Counter()
        self._patches = []

    # --- spans -------------------------------------------------------------

    def _charge(self, spent):
        # Counting done by the wrappers is not work of the enclosing layer.
        self.counts["trace.bookkeeping_s"] += spent
        if self._stack:
            self._stack[-1][2] += spent

    def parent(self):
        return self._stack[-1][0] if self._stack else None

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so each outermost call is a span named ``name``.

        ``before(tracer, args)`` and ``after(tracer, args, result)`` count
        work at the boundary; their time is charged to tracing.
        """
        active, stack, spans, total = self._active, self._stack, self.spans, self.totals[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[name]:
                return fn(*args, **kwargs)
            if before is not None:
                mark = perf_counter()
                before(self, args)
                self._charge(perf_counter() - mark)
            index = len(spans)
            if index < MAX_SPANS:
                spans.append([name, 0.0, 0.0, stack[-1][3] if stack else -1])
            active[name] += 1
            frame = [name, perf_counter(), 0.0, index]  # name, start, children, span
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                wall = end - frame[1]
                total[0] += 1
                total[1] += wall
                total[2] += wall - frame[2]
                if stack:
                    stack[-1][2] += wall
                if index < MAX_SPANS:
                    spans[index][1:3] = frame[1], end
            if after is not None:
                after(self, args, result)
                self._charge(perf_counter() - end)
            return result

        return traced

    # --- installation ------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every function of LAYERS wherever a jetconn module binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "jetconn"]
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules[module_name]
            for name in names:
                hooks = HOOKS.get(f"{layer}.{name}", ())
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, attr, self.span(f"{layer}.{cls_name}", cls.__dict__[attr], *hooks))
                    continue
                original = getattr(module, name)
                wrapped = (
                    self._traced_active(original) if layer == "kernel"
                    else self.span(f"{layer}.{name}", original, *hooks)
                )
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _traced_active(self, active):
        """kernel.active returns the evaluator; hand out a traced one."""
        cache = {}

        @functools.wraps(active)
        def traced_active(override=None):
            fn = active(override)
            if fn not in cache:
                cache[fn] = self.span("kernel.eval_program", fn)
            return cache[fn]

        return traced_active

    # --- results -----------------------------------------------------------

    def metrics(self, bytes_out):
        """Per-layer figures of one pass (see README for their meaning)."""
        t, c = self.totals, self.counts

        def self_s(prefix):
            return sum(v[2] for k, v in t.items() if k.startswith(prefix + "."))

        def ratio(a, b):
            return a / b if b else 0.0

        steps = c["transport.steps"]
        rk4_wall = sum(t[k][1] for k in RK4)
        return {
            "cli.self_s": t["cli.main"][2],
            "io.load_s": t["io.load_path"][2],
            "io.load_calls": t["io.load_path"][0],
            "io.bytes_in": c["io.bytes_in"],
            "io.emit_s": sum(t[k][2] for k in EMIT),
            "io.bytes_out": bytes_out,
            "expr.parse_s": t["expr.parse_expr"][2],
            "expr.parse_calls": t["expr.parse_expr"][0],
            "expr.simplify_s": t["expr.simplify"][2],
            "expr.simplify_calls": t["expr.simplify"][0],
            "expr.simplify_nodes_in": c["expr.simplify_nodes_in"],
            "expr.simplify_nodes_out": c["expr.simplify_nodes_out"],
            "expr.diff_s": t["expr.diff"][2],
            "expr.diff_calls": t["expr.diff"][0],
            "expr.to_text_s": t["expr.to_text"][2],
            "connections.self_s": self_s("connections"),
            "connections.h_entries": c["connections.h_entries"],
            "evaluate.self_s": self_s("evaluate"),
            "evaluate.equal_calls": t["evaluate.expr_equal"][0],
            "evaluate.symbolic": c["evaluate.symbolic"],
            "evaluate.sampled": c["evaluate.sampled"],
            "evaluate.symbolic_ratio": ratio(c["evaluate.symbolic"], t["evaluate.expr_equal"][0]),
            "evaluate.sample_points": c["evaluate.sample_points"],
            "evaluate.regular_points": c["evaluate.regular_points"],
            "tape.compile_s": t["tape.compile_program"][2],
            "tape.compile_calls": t["tape.compile_program"][0],
            "tape.ops_compiled": c["tape.ops_compiled"],
            "tape.calls": t["tape.Program"][0],
            "tape.rows": c["tape.rows"],
            "tape.call_self_s": t["tape.Program"][2],
            "kernel.eval_s": t["kernel.eval_program"][2],
            "kernel.calls": t["kernel.eval_program"][0],
            "kernel.ops_executed": c["kernel.ops_executed"],
            "kernel.ops_per_s": ratio(c["kernel.ops_executed"], t["kernel.eval_program"][2]),
            "transport.self_s": self_s("transport"),
            "transport.steps": steps,
            "transport.rhs_evals": c["transport.rhs_evals"],
            "transport.tape_calls_per_step": ratio(c["transport.tape_calls"], steps),
            "transport.us_per_step": 1e6 * ratio(rk4_wall, steps),
            "frames.self_s": self_s("frames"),
            "frames.points_checked": c["frames.points_checked"],
            "jets.self_s": self_s("jets"),
        }

    def dump(self):
        return {
            "totals": {k: {"calls": v[0], "wall_s": v[1], "self_s": v[2]} for k, v in sorted(self.totals.items())},
            "counts": dict(self.counts),  # trace.bookkeeping_s: time spent counting
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
            "spans_dropped": max(0, sum(v[0] for v in self.totals.values()) - len(self.spans)),
        }


# --- counters at the call boundaries ----------------------------------------

def _bytes_in(tracer, args):
    tracer.counts["io.bytes_in"] += os.path.getsize(args[0])


def _nodes_in(tracer, args):
    tracer.counts["expr.simplify_nodes_in"] += node_count(args[0])


def _nodes_out(tracer, args, result):
    tracer.counts["expr.simplify_nodes_out"] += node_count(result)


def _h_entries(tracer, args, result):
    tracer.counts["connections.h_entries"] += sum(len(row) for grid in result.H for row in grid)


def _equality(tracer, args, result):
    tracer.counts["evaluate.symbolic" if result.confidence == "symbolic" else "evaluate.sampled"] += 1


def _compiled(tracer, args, result):
    tracer.counts["tape.ops_compiled"] += len(result.code)


def _program_call(tracer, args, result):
    # Every call runs the whole tape once per row in the kernel.
    values, status = result
    rows = values.shape[0]
    counts = tracer.counts
    counts["tape.rows"] += rows
    counts["kernel.ops_executed"] += len(args[0].code) * rows
    caller = tracer.parent()
    if caller in RK4:
        counts["transport.tape_calls"] += 1
    elif caller == "evaluate.expr_equal":
        regular = (status == 0).all(axis=1) & np.isfinite(values).all(axis=1)
        counts["evaluate.sample_points"] += rows
        counts["evaluate.regular_points"] += int(regular.sum())


def _rk4(tracer, args, result):
    tracer.counts["transport.steps"] += result.steps
    tracer.counts["transport.rhs_evals"] += result.rhs_evaluations


def _checked(tracer, args, result):
    tracer.counts["frames.points_checked"] += result.checked_points


HOOKS = {
    "io.load_path": (_bytes_in, None),
    "expr.simplify": (_nodes_in, _nodes_out),
    "connections.product": (None, _h_entries),
    "evaluate.expr_equal": (None, _equality),
    "tape.compile_program": (None, _compiled),
    "tape.Program.__call__": (None, _program_call),
    "transport.transport1": (None, _rk4),
    "transport.transport2": (None, _rk4),
    "transport.second_order_ode": (None, _rk4),
    "frames.twofold_dual_coframe": (None, _checked),
}
