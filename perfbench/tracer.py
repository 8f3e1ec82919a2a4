"""Outside-in tracing of tverberg_nd: wrap public functions, time them, count work.

Every module-level binding of a traced function across the package is
replaced by a timing wrapper (the same function is often bound under
several names, e.g. ``colorful.diameter_exact`` is ``geom.diameter_exact``),
and the originals are put back by ``uninstall``. A span stack gives self
time: a span's duration minus the time of the traced spans it called.

Counts (``.calls``, ``.pairs``, ``.flops``, ``tverberg.rows``) are computed
from argument shapes, not measured, so two runs on the same input give
the same numbers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# (module, function) -> span name. The three Tverberg partitioners share
# one span so the traversal can be measured whichever entry point runs.
TARGETS = {
    ("cli", "load_points"): "cli.load_points",
    ("cli", "load_classes"): "cli.load_classes",
    ("cli", "emit_document"): "cli.emit_document",
    ("geom", "diameter_exact"): "geom.diameter_exact",
    ("geom", "diameter_upper"): "geom.diameter_upper",
    ("tverberg", "partition_general"): "tverberg.partition",
    ("tverberg", "partition_balanced"): "tverberg.partition",
    ("tverberg", "partition_nearly_balanced"): "tverberg.partition",
    ("tverberg", "select_class"): "tverberg.select_class",
    ("tverberg", "apply_selection"): "tverberg.apply_selection",
    ("tverberg", "step_coefficients"): "tverberg.step_coefficients",
    ("tverberg", "check_certificate"): "tverberg.check_certificate",
    ("lifting", "make_graph"): "lifting.make_graph",
    ("lifting", "quadratic_form"): "lifting.quadratic_form",
    ("colorful", "shift_objectives"): "colorful.shift_objectives",
    ("colorful", "partition_colorful"): "colorful.partition",
    ("colorful", "check_colorful_certificate"): "colorful.check_colorful_certificate",
    ("hamsandwich", "align_centroids"): "hamsandwich.align_centroids",
    ("hamsandwich", "joint_depth_ball"): "hamsandwich.joint_depth_ball",
    ("hamsandwich", "generalized_ham_sandwich"): "hamsandwich.generalized_ham_sandwich",
    ("hamsandwich", "check_depth_certificate"): "hamsandwich.check_depth_certificate",
    ("oracle", "depth_2d_exact"): "oracle.depth_2d_exact",
}

# Spans subtracted from the inclusive partition time to give the traversal.
_NOT_TRAVERSAL = {"geom.diameter_exact", "geom.diameter_upper", "tverberg.check_certificate"}

# Per-op layer metrics: (name, unit, span that must exist for it to be
# reported). A metric whose span's function is missing is left out.
LAYER_METRICS = [
    ("cli.load_points.s", "s", "cli.load_points"),
    ("cli.load_classes.s", "s", "cli.load_classes"),
    ("cli.emit_document.s", "s", "cli.emit_document"),
    ("cli.input_bytes", "B", None),
    ("cli.cert_bytes", "B", None),
    ("geom.diameter_exact.s", "s", "geom.diameter_exact"),
    ("geom.diameter_exact.calls", "count", "geom.diameter_exact"),
    ("geom.diameter_exact.pairs", "count", "geom.diameter_exact"),
    ("geom.diameter_upper.s", "s", "geom.diameter_upper"),
    ("geom.diameter_upper.calls", "count", "geom.diameter_upper"),
    ("tverberg.traverse.s", "s", "tverberg.partition"),
    ("tverberg.rows", "count", "tverberg.partition"),
    ("tverberg.us_per_row", "us", "tverberg.partition"),
    ("tverberg.select_class.s", "s", "tverberg.select_class"),
    ("tverberg.apply_selection.s", "s", "tverberg.apply_selection"),
    ("tverberg.step_coefficients.s", "s", "tverberg.step_coefficients"),
    ("tverberg.check_certificate.s", "s", "tverberg.check_certificate"),
    ("tverberg.check_certificate.calls", "count", "tverberg.check_certificate"),
    ("tverberg.norm_ratio", "1", "tverberg.partition"),
    ("lifting.make_graph.s", "s", "lifting.make_graph"),
    ("lifting.quadratic_form.s", "s", "lifting.quadratic_form"),
    ("colorful.shift_objectives.s", "s", "colorful.shift_objectives"),
    ("colorful.shift_objectives.calls", "count", "colorful.shift_objectives"),
    ("colorful.shift_objectives.flops", "flop", "colorful.shift_objectives"),
    ("colorful.partition.s", "s", "colorful.partition"),
    ("colorful.check_colorful_certificate.s", "s", "colorful.check_colorful_certificate"),
    ("hamsandwich.align_centroids.s", "s", "hamsandwich.align_centroids"),
    ("hamsandwich.joint_depth_ball.s", "s", "hamsandwich.joint_depth_ball"),
    ("hamsandwich.generalized_ham_sandwich.s", "s", "hamsandwich.generalized_ham_sandwich"),
    ("hamsandwich.check_depth_certificate.s", "s", "hamsandwich.check_depth_certificate"),
    ("oracle.depth_2d_exact.s", "s", "oracle.depth_2d_exact"),
    ("oracle.depth_2d_exact.calls", "count", "oracle.depth_2d_exact"),
    ("untraced_s", "s", None),
    ("trace_overhead_s", "s", None),
]

# Metrics computed from argument shapes rather than measured.
COMPUTED = {
    "geom.diameter_exact.calls",
    "geom.diameter_exact.pairs",
    "geom.diameter_upper.calls",
    "tverberg.rows",
    "tverberg.check_certificate.calls",
    "colorful.shift_objectives.calls",
    "colorful.shift_objectives.flops",
    "oracle.depth_2d_exact.calls",
}


def _rows(n, name, args):
    if name == "partition_nearly_balanced":
        return n - n % int(args["k"])
    return n


def _length(points) -> int:
    return len(getattr(points, "coords", points))


class Tracer:
    """Install wrappers with ``install``, read one op with ``take``."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self.spans: set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._top = 0.0  # time covered by outermost spans
        self._outside_traversal = 0.0  # time in outermost _NOT_TRAVERSAL spans
        self._partition_depth = 0
        self._excluded_depth = 0

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "tverberg_nd"]
        wrappers = {}
        for (mod, fn_name), span in TARGETS.items():
            owner = sys.modules.get(f"tverberg_nd.{mod}")
            fn = getattr(owner, fn_name, None)
            if callable(fn):
                wrappers[id(fn)] = (fn, self._wrap(span, fn_name, fn))
                self.spans.add(span)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def take(self, op_seconds: float) -> dict[str, float]:
        """Layer metrics of the op just run, then clear the counters."""
        v = self.values
        out = {}
        for name, _, span in LAYER_METRICS:
            if span is None or span in self.spans:
                out[name] = float(v.get(name, 0.0))
        if "tverberg.us_per_row" in out:
            rows = v.get("tverberg.rows", 0.0)
            out["tverberg.us_per_row"] = 1e6 * v.get("tverberg.traverse.s", 0.0) / rows if rows else 0.0
        out["untraced_s"] = op_seconds - self._top
        self.reset()
        return out

    def _wrap(self, span: str, fn_name: str, fn):
        self_key, calls_key = span + ".s", span + ".calls"
        partition = span == "tverberg.partition"
        excluded = span in _NOT_TRAVERSAL
        signature = inspect.signature(fn)
        count = {  # span -> (metric, amount from the bound arguments)
            "geom.diameter_exact": (
                "geom.diameter_exact.pairs",
                lambda a: _length(a["points"]) * (_length(a["points"]) - 1) // 2,
            ),
            "colorful.shift_objectives": (
                "colorful.shift_objectives.flops",
                lambda a: 2 * a["members"].shape[0] ** 2 * a["members"].shape[1],
            ),
        }.get(span)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack, values = self._stack, self.values
            frame = [0.0]
            stack.append(frame)
            outer_partition = partition and self._partition_depth == 0
            outer_excluded = excluded and self._excluded_depth == 0
            before = self._outside_traversal
            self._partition_depth += partition
            self._excluded_depth += excluded
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self._partition_depth -= partition
                self._excluded_depth -= excluded
                if stack:
                    stack[-1][0] += dt
                else:
                    self._top += dt
                values[self_key] += dt - frame[0]
                values[calls_key] += 1
                if outer_excluded:
                    self._outside_traversal += dt
            if outer_partition:
                values["tverberg.traverse.s"] += dt - (self._outside_traversal - before)
                bound_args = signature.bind(*args, **kwargs).arguments
                values["tverberg.rows"] += _rows(_length(bound_args["points"]), fn_name, bound_args)
                if result.traversal_norm_bound > 0:
                    ratio = result.traversal_centroid_norm / result.traversal_norm_bound
                    values["tverberg.norm_ratio"] = max(values["tverberg.norm_ratio"], ratio)
            if count is not None:
                key, amount = count
                values[key] += amount(signature.bind(*args, **kwargs).arguments)
            return result

        return functools.wraps(fn)(traced)
