"""Span recording around the public functions that ``terramesh.pipeline`` and
``terramesh.cli`` call.  Nothing inside the program is changed: each function
is replaced, at the module attribute through which its caller looks it up, by
a wrapper that records ``(name, start, end, parent)`` in memory.

Self time of a span is its duration minus the durations of its direct
children (children never overlap, since the program is single-threaded).
"""

from __future__ import annotations

import functools
import time

import numpy as np

# (layer name, module, attribute, class or None).  The module is the one the
# caller resolves the name in, so the wrapper sits exactly on that call edge.
FRAME_LAYERS = [
    ("pipeline.validate", "terramesh.pipeline", "validate", "FrameBundle"),
    ("mesh.recenter", "terramesh.pipeline", "recenter", None),
    ("geometry.project", "terramesh.pipeline", "project_frame_arrays", None),
    ("mesh.assign", "terramesh.pipeline", "assign_face_ids", None),
    ("elevation.fuse", "terramesh.pipeline", "update_elevation", None),
]
CLI_LAYERS = [
    ("mesh.init", "terramesh.cli", "init_mesh", None),
    ("pipeline.estimate", "terramesh.cli", "estimate_properties", None),
    ("formats.save_map", "terramesh.cli", "save_map", None),
    ("formats.save_estimates", "terramesh.cli", "save_estimates", None),
    ("formats.read_bundle", "terramesh.cli", "read_bundle", None),
    ("formats.write_bundle", "terramesh.cli", "write_bundle", None),
    ("formats.load_estimates", "terramesh.cli", "load_estimates", None),
    ("sim.render", "terramesh.sim", "render_frame", None),
    ("evaluation.kl", "terramesh.evaluation", "kl_per_face", None),
    ("evaluation.pr", "terramesh.evaluation", "pr_curve", None),
    ("properties.filter", "terramesh.cli", "friction_from_force", None),
    ("properties.fit", "terramesh.cli", "fit_and_select", None),
]
# Mapper.process is the frame's outer span; its self time is the class
# evidence reduction and bookkeeping
ALL_LAYERS = FRAME_LAYERS + [("pipeline.process", "terramesh.pipeline", "process", "Mapper")] + CLI_LAYERS


class Tracer:
    """In-memory span list; ``enabled`` switches recording without unwrapping."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.enabled = True
        self._stack: list[int] = []

    def wrap(self, name, fn):
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, spans[idx][3])

        return wrapper

    def install(self, layers):
        import importlib

        for name, module, attr, cls in layers:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def dump(self) -> list:
        return [list(s) for s in self.spans]


def self_times(spans) -> dict:
    """``{name: (total self seconds, calls)}`` of a span list."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict = {}
    for i, (name, t0, t1, _) in enumerate(spans):
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (t1 - t0) - child[i], calls + 1)
    return out


def keep_assignments(pipeline) -> list:
    """Keep every face-id array that ``assign_face_ids`` returns to the pipeline
    (references only; the counts are taken after the run)."""
    kept = []
    assign = pipeline.assign_face_ids

    def keeping(mesh, xy):
        fids = assign(mesh, xy)
        kept.append(fids)
        return fids

    pipeline.assign_face_ids = keeping
    return kept


def frame_counts(kept, face_vertex_ids) -> dict:
    """Points in the window, faces observed and vertices updated, per frame."""
    inside = [f[f >= 0] for f in kept]
    return {
        "points_in_window": [int(f.size) for f in inside],
        "faces_observed": [int(np.unique(f).size) for f in inside],
        "vertices_updated": [int(np.unique(face_vertex_ids[f]).size) for f in inside],
    }
