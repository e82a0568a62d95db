"""Spans around calls into objreloc's modules, kept in memory, and the
per-module metrics computed from them.

instrument() replaces public functions on their modules with wrappers that
record a span per call: name, start, end, parent span and request id (the
key-frame index or lost-frame id). Counts, such as the points passed to one
nearest-neighbour query, are stored on the span of the call that did the
work. Nothing inside the program is changed. A target the program no longer
has is reported as missing, and the metrics computed from its spans are left
out rather than read as 0.
"""

import contextlib
import importlib
import json
import threading
import time

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "count")

    def __init__(self, name, start, end, parent=None, rid=None, count=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.rid = rid
        self.count = count

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans from any number of threads; each thread has its own stack."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name, rid=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        sp = Span(name, 0.0, 0.0, parent, rid)
        self.spans.append(sp)  # list.append is atomic across threads
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name, rid_of=None, count_of=None):
        def traced(*args, **kwargs):
            with self.span(name, rid_of(args) if rid_of else None) as sp:
                out = fn(*args, **kwargs)
            if count_of is not None:
                sp.count = count_of(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        """Write the spans as JSON: one [name, start, end, parent index, request id, count] each."""
        index = {id(sp): k for k, sp in enumerate(self.spans)}
        rows = [[sp.name, sp.start, sp.end, -1 if sp.parent is None else index[id(sp.parent)],
                 sp.rid, sp.count] for sp in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "request", "count"],
                       "spans": rows}, fh, separators=(",", ":"))


def _frame_id(arg_index):
    return lambda args: args[arg_index].frame_id


# (module, attribute, span name, request id from the call's arguments,
#  count from (arguments, result)); calls the program makes internally
# are caught only on the module namespace the caller looks them up in
TARGETS = (
    ("objreloc.detections", "simulate_detections", "detections.simulate",
     lambda args: args[3], None),
    ("objreloc.detections", "render_depth_points", "scene.render", None, None),
    ("objreloc.pipeline", "build_map", "pipeline.build_map", None, None),
    ("objreloc.pipeline", "integrate_keyframe", "mapping.integrate_kf", _frame_id(1), None),
    ("objreloc.mapping", "box_iou", "geometry.box_iou", None, None),
    ("objreloc.pipeline", "finalize_map", "mapping.finalize", None,
     lambda args, out: (len(args[0].objects), len(out.objects))),
    ("objreloc.pipeline", "build_surface_model", "scene.surface_build", None, None),
    ("objreloc.pipeline", "relocalise", "pipeline.relocalise", _frame_id(0), None),
    ("objreloc.pipeline", "build_adjacency", "matching.adjacency", None, None),
    ("objreloc.pipeline", "principal_eigenvector", "matching.eigenvector", None, None),
    ("objreloc.pipeline", "greedy_select", "matching.greedy", None, None),
    ("objreloc.pipeline", "ransac_ao", "registration.ransac_ao", None,
     lambda args, out: (len(out.inliers), len(args[0]))),
    ("objreloc.pipeline", "depth_centroid_icp", "registration.icp", None,
     lambda args, out: out.iterations),
    ("objreloc.registration", "estimate_normals", "registration.normals", None, None),
    ("objreloc.registration", "SurfaceModel.nearest", "registration.nn", None,
     lambda args, out: len(args[1])),
    ("objreloc.gridnn", "KDTreeIndex.__init__", "gridnn.index_build", None, None),
)


@contextlib.contextmanager
def instrument(tracer, targets=TARGETS):
    """Wrap every target and restore the originals on exit.

    Yields {span name: "module.attribute"} of the targets that do not exist.
    """
    patched, missing = [], {}
    try:
        for module_name, attr, name, rid_of, count_of in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                missing[name] = f"{module_name}.{attr}"
                continue
            setattr(owner, leaf, tracer.wrap(original, name, rid_of, count_of))
            patched.append((owner, leaf, original))
        yield missing
    finally:
        for owner, leaf, original in reversed(patched):
            setattr(owner, leaf, original)


def span_overhead_s(samples=20000):
    """Mean cost of recording one span around an empty call."""
    tracer = Tracer()
    noop = tracer.wrap(lambda: None, "noop")
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    return (time.perf_counter() - t0) / samples


def self_times(spans):
    """{id(span): duration minus its child spans' durations}.

    A span's children ran on its own thread, one after another, so they do
    not overlap."""
    out = {id(sp): sp.duration for sp in spans}
    for sp in spans:
        if sp.parent is not None and id(sp.parent) in out:
            out[id(sp.parent)] -= sp.duration
    return out


def _p(values, q, scale=1.0):
    return float(np.percentile(values, q)) * scale if values else 0.0


def per_module_metrics(setup_spans, spans, overhead_s, wall_s, missing=()):
    """Per-module metrics of the run; `spans` are those of the measured rounds.

    Counts and totals are per map build (box_iou calls and time, objects
    founded) or per relocalisation batch (ICP iterations, nearest-neighbour
    query points). A metric is left out when a span it is computed from is
    `missing`.
    """
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def durations(name):
        return [sp.duration for sp in by_name.get(name, ())]

    def counts(name):  # a call that raised has none
        return [sp.count for sp in by_name.get(name, ()) if sp.count is not None]

    own = self_times(setup_spans + spans)
    builds = max(len(by_name.get("pipeline.build_map", ())), 1)
    batches = max(len(by_name.get("bench.batch", ())), 1)
    finals = counts("mapping.finalize")
    ransac = counts("registration.ransac_ao")
    matching = {}
    for sp in spans:
        if sp.name.startswith("matching.") and sp.parent is not None:
            matching[id(sp.parent)] = matching.get(id(sp.parent), 0.0) + sp.duration
    # name: (value, unit, the spans it is computed from)
    metric = {
        "scene.render_p50_ms": (_p([sp.duration for sp in setup_spans
                                    if sp.name == "scene.render"], 50, 1e3), "ms",
                                "scene.render"),
        "scene.surface_build_ms": (_p(durations("scene.surface_build"), 50, 1e3), "ms",
                                   "scene.surface_build"),
        "detections.simulate_self_p50_ms": (_p([own[id(sp)] for sp in setup_spans
                                                if sp.name == "detections.simulate"], 50, 1e3),
                                            "ms", "detections.simulate scene.render"),
        "geometry.box_iou_calls": (len(by_name.get("geometry.box_iou", ())) / builds, "count",
                                   "geometry.box_iou pipeline.build_map"),
        "geometry.box_iou_p50_us": (_p(durations("geometry.box_iou"), 50, 1e6), "us",
                                    "geometry.box_iou"),
        "geometry.box_iou_ms": (sum(durations("geometry.box_iou")) * 1e3 / builds, "ms",
                                "geometry.box_iou pipeline.build_map"),
        "mapping.integrate_kf_p50_ms": (_p(durations("mapping.integrate_kf"), 50, 1e3), "ms",
                                        "mapping.integrate_kf"),
        "mapping.integrate_kf_self_p50_ms": (
            _p([own[id(sp)] for sp in by_name.get("mapping.integrate_kf", ())], 50, 1e3), "ms",
            "mapping.integrate_kf geometry.box_iou"),
        "mapping.finalize_ms": (_p(durations("mapping.finalize"), 50, 1e3), "ms",
                                "mapping.finalize"),
        "mapping.objects_founded": (_p([f for f, _ in finals], 50), "count", "mapping.finalize"),
        "mapping.kept_ratio": (sum(k for _, k in finals) / max(sum(f for f, _ in finals), 1),
                               "ratio", "mapping.finalize"),
        "matching.p50_ms": (_p(list(matching.values()), 50, 1e3), "ms",
                            "matching.adjacency matching.eigenvector matching.greedy"),
        "registration.ransac_ao_p50_ms": (_p(durations("registration.ransac_ao"), 50, 1e3),
                                          "ms", "registration.ransac_ao"),
        "registration.ao_inlier_ratio": (sum(i for i, _ in ransac)
                                         / max(sum(n for _, n in ransac), 1), "ratio",
                                         "registration.ransac_ao"),
        "registration.icp_p50_ms": (_p(durations("registration.icp"), 50, 1e3), "ms",
                                    "registration.icp"),
        "registration.icp_p90_ms": (_p(durations("registration.icp"), 90, 1e3), "ms",
                                    "registration.icp"),
        "registration.icp_iterations_p50": (_p(counts("registration.icp"), 50), "count",
                                            "registration.icp"),
        "registration.icp_iterations_sum": (sum(counts("registration.icp")) / batches, "count",
                                            "registration.icp"),
        "registration.normals_p50_ms": (_p(durations("registration.normals"), 50, 1e3), "ms",
                                        "registration.normals"),
        "registration.nn_queries": (sum(counts("registration.nn")) / batches, "count",
                                    "registration.nn"),
        "registration.nn_p50_ms": (_p(durations("registration.nn"), 50, 1e3), "ms",
                                   "registration.nn"),
        "gridnn.index_build_p50_ms": (_p(durations("gridnn.index_build"), 50, 1e3), "ms",
                                      "gridnn.index_build"),
        "pipeline.reloc_self_p50_ms": (
            _p([own[id(sp)] for sp in by_name.get("pipeline.relocalise", ())], 50, 1e3), "ms",
            "pipeline.relocalise matching.adjacency matching.eigenvector matching.greedy "
            "registration.ransac_ao registration.icp"),
        "pipeline.build_map_self_ms": (
            _p([own[id(sp)] for sp in by_name.get("pipeline.build_map", ())], 50, 1e3), "ms",
            "pipeline.build_map mapping.integrate_kf mapping.finalize scene.surface_build"),
        "trace.overhead_ratio": (len(spans) * overhead_s / wall_s, "ratio", ""),
    }
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit, sources) in metric.items()
            if not set(sources.split()) & set(missing)}
