"""Span tracing for traced benchmark runs, installed from outside the package.

``install`` replaces the public functions of each entropylab module (plus a
few methods and the scipy solvers that ``flow`` and ``conjugate`` call) with
wrappers that record one span ``{name, start, end, parent}`` per call.  Spans
stay in memory; ``layer_metrics`` reduces one pass's spans to the per-layer
metrics, and the runner writes the raw spans out when it exits.
"""

from __future__ import annotations

import inspect
import statistics
import time
import types

LAYERS = ("meshing", "geometry", "fem", "functional", "minimizer",
          "flow", "conjugate", "harnack", "collapse", "cli")

# metric -> span names whose time it sums (a span nested in another span of
# the same group is not counted twice)
TIME_METRICS = {
    "meshing.triangulate_s": ("meshing.triangulate",),
    "meshing.boundary_distance_s": ("meshing.TriMesh.interior_distance_to_boundary",),
    "geometry.contains_points_s": ("geometry.PlanarCurve.contains_points",),
    "geometry.is_embedded_s": ("geometry.PlanarCurve.is_embedded",),
    "fem.assemble_s": ("fem.assemble",),
    "functional.w_beta_s": ("functional.w_beta",),
    "functional.log_sobolev_s": ("functional.log_sobolev_constants",
                                 "functional.log_sobolev_check"),
    "minimizer.minimize_s": ("minimizer.minimize",),
    "flow.run_flow_s": ("flow.run_flow",),
    "conjugate.end_data_s": ("conjugate.end_data",),
    "conjugate.backward_solve_s": ("conjugate.backward_solve",),
    "conjugate.linear_solve_s": ("scipy.spsolve",),
    "harnack.rate_identity_s": ("harnack.rate_identity_check",),
    "harnack.volume_term_s": ("harnack.volume_term",),
    "harnack.boundary_direct_s": ("harnack.boundary_term_direct",),
    "harnack.boundary_harnack_s": ("harnack.boundary_term_harnack",),
    "collapse.ratio_scan_s": ("collapse.ratio_scan",),
    "collapse.volume_s": ("collapse.ball_intersection_volume",),
    "collapse.boundary_integral_s": ("collapse.boundary_beta_integral",),
}

# metric -> span name whose calls it counts
CALL_METRICS = {
    "meshing.triangulate_calls": "meshing.triangulate",
    "meshing.attempts": "meshing._triangulate_once",
    "fem.assemble_calls": "fem.assemble",
    "functional.w_beta_calls": "functional.w_beta",
    "minimizer.calls": "minimizer.minimize",
    "flow.steps": "scipy.solve_banded",
    "conjugate.substeps": "scipy.spsolve",
    "collapse.volume_calls": "collapse.ball_intersection_volume",
}

# metrics counted by hooks on a call's arguments or result
COUNTER_METRICS = ("minimizer.iterations", "cli.cache_hits", "cli.cache_misses")

# set by the runner itself, not from spans
RUNNER_METRICS = ("cli.import_s", "cli.output_bytes")

SELF_METRICS = tuple(f"{layer}.self_s" for layer in LAYERS)

PER_LAYER = (tuple(TIME_METRICS) + tuple(CALL_METRICS) + COUNTER_METRICS
             + RUNNER_METRICS + SELF_METRICS)


def unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "bytes" if metric.endswith("_bytes") else "count"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(tracer, args, result)``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self) -> tuple[list[dict], dict]:
        """Spans and counts recorded since the last take; resets both."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def _count_iterations(tracer, args, result):
    tracer.count("minimizer.iterations", result.iterations)


def _count_cache(tracer, args, result):
    cache, stage = args[0], args[1]
    tracer.count("cli.cache_hits" if cache.log[stage]["hit"] else "cli.cache_misses")


def install(tracer: Tracer):
    """Wrap the entropylab layers in place; call after importing entropylab.cli."""
    import entropylab

    modules = [getattr(entropylab, layer) for layer in LAYERS]
    hooks = {"minimizer.minimize": _count_iterations}
    for layer, mod in zip(LAYERS, modules):
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            wrapped = tracer.wrap(name, fn, hooks.get(name))
            # modules that did `from .x import fn` hold their own reference
            for other in modules:
                for k, v in list(vars(other).items()):
                    if v is fn:
                        setattr(other, k, wrapped)

    meshing, geometry = entropylab.meshing, entropylab.geometry
    meshing._triangulate_once = tracer.wrap("meshing._triangulate_once",
                                            meshing._triangulate_once)
    methods = (
        (meshing.TriMesh, "interior_distance_to_boundary", "meshing", None),
        (geometry.PlanarCurve, "contains_points", "geometry", None),
        (geometry.PlanarCurve, "is_embedded", "geometry", None),
        (entropylab.cli._Cache, "get_or_run", "cli", _count_cache),
    )
    for cls, attr, layer, after in methods:
        fn = vars(cls)[attr]
        setattr(cls, attr, tracer.wrap(f"{layer}.{cls.__name__}.{attr}", fn, after))

    # scipy solvers, counted only where flow and conjugate call them
    flow, conjugate = entropylab.flow, entropylab.conjugate
    flow.solve_banded = tracer.wrap("scipy.solve_banded", flow.solve_banded)
    spl = types.ModuleType(conjugate.spl.__name__)
    spl.__dict__.update(vars(conjugate.spl))
    spl.spsolve = tracer.wrap("scipy.spsolve", conjugate.spl.spsolve)
    conjugate.spl = spl


def layer_metrics(spans: list[dict], counts: dict) -> dict:
    """Per-layer metrics of one pass (all but RUNNER_METRICS)."""
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            child[s["parent"]] += d

    def outside_group(i, group):
        p = spans[i]["parent"]
        while p is not None:
            if spans[p]["name"] in group:
                return False
            p = spans[p]["parent"]
        return True

    out = {}
    for metric, group in TIME_METRICS.items():
        out[metric] = sum(dur[i] for i, s in enumerate(spans)
                          if s["name"] in group and outside_group(i, group))
    for metric, name in CALL_METRICS.items():
        out[metric] = sum(1 for s in spans if s["name"] == name)
    for metric in COUNTER_METRICS:
        out[metric] = counts.get(metric, 0)
    self_time = dict.fromkeys(LAYERS, 0.0)
    for s, d, c in zip(spans, dur, child):
        layer = s["name"].split(".", 1)[0]
        if layer in self_time:
            self_time[layer] += d - c
    for layer, v in self_time.items():
        out[f"{layer}.self_s"] = v
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
