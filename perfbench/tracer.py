"""In-memory span tracer that wraps public curvedflats functions where their
callers bind them.

A span is ``[name, start, end, parent, run_id]``; ``parent`` is the index of
the enclosing span in ``Tracer.spans`` or ``None``.  Spans are only recorded
while the tracer is installed; ``uninstall`` restores the original bindings.
"""

import importlib
import time
from collections import defaultdict

# (module that binds the name, attribute, span name = defining module.function)
BINDINGS = (
    ("curvedflats.cli", "seed_initial_state", "cli.seed_initial_state"),
    ("curvedflats.cli", "integrate_grid", "lax.integrate_grid"),
    ("curvedflats.cli", "commutativity_check", "lax.commutativity_check"),
    ("curvedflats.cli", "conservation_report", "lax.conservation_report"),
    ("curvedflats.lax", "flow_rhs", "loops.flow_rhs"),
    ("curvedflats.cli", "connection_from_state", "frame.connection_from_state"),
    ("curvedflats.cli", "integrate_frame", "frame.integrate_frame"),
    ("curvedflats.cli", "mc_residual", "frame.mc_residual"),
    ("curvedflats.frame", "j_orthonormalize", "frame.j_orthonormalize"),
    ("curvedflats.frame", "expm", "algebra.expm"),
    ("curvedflats.frame", "in_group_residual", "algebra.in_group_residual"),
    ("curvedflats.cli", "in_group_residual", "algebra.in_group_residual"),
    # cli's seed test calls it as ``algebra.is_cartan``; the gauge binds it.
    ("curvedflats.algebra", "is_cartan", "algebra.is_cartan"),
    ("curvedflats.geometry", "is_cartan", "algebra.is_cartan"),
    ("curvedflats.cli", "gauge_to_normal_form", "geometry.gauge_to_normal_form"),
    ("curvedflats.cli", "gauge_from_h", "geometry.gauge_from_h"),
    ("curvedflats.geometry", "gauge_from_h", "geometry.gauge_from_h"),
    ("curvedflats.cli", "developing_map", "geometry.developing_map"),
    ("curvedflats.cli", "reconstruct_immersion", "geometry.reconstruct_immersion"),
    ("curvedflats.cli", "verify_space_form_geometry",
     "geometry.verify_space_form_geometry"),
    ("curvedflats.cli", "build_report", "cli.build_report"),
)

# Root spans opened by the benchmark around the two public entry points.
RUN_ROOT = "cli.run_pipeline"
VERIFY_ROOT = "cli.verify_command"

LAYERS = tuple(dict.fromkeys(name for _, _, name in BINDINGS))


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.run_id = None

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.run_id]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def call(self, name, run_id, fn, *args):
        """Run ``fn(*args)`` as a root span of run ``run_id``."""
        self.run_id = run_id
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self.run_id = None


def layer_totals(spans, run_id):
    """Per span name: (self seconds, call count) over the spans of one run.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap, so their durations sum to
    the part of the interval they cover.
    """
    child_time = defaultdict(float)
    members = []
    for index, (name, start, end, parent, rid) in enumerate(spans):
        if rid != run_id:
            continue
        members.append(index)
        if parent is not None:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for index in members:
        name, start, end = spans[index][:3]
        self_s[name] += (end - start) - child_time[index]
        calls[name] += 1
    return dict(self_s), dict(calls)


def inclusive_time(spans, run_id, name):
    """Summed duration of the outermost spans called ``name`` in one run."""
    total = 0.0
    for span_name, start, end, parent, rid in spans:
        if rid == run_id and span_name == name and not _has_ancestor(
            spans, parent, name
        ):
            total += end - start
    return total


def _has_ancestor(spans, parent, name):
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
