"""In-memory spans around the public functions of each dynseg module.

A traced run replaces module attributes with wrappers that record a span
(name, start, end, parent) per call.  The attribute patched is the one the
caller looks up at call time, so a nested call (``tree.oversegment`` inside
``update_tree``) gets its own span under its caller's span.

Counters are derived from the arguments and results that cross each
wrapped boundary, never from program internals.  Deriving them runs off the
clock: they are deferred until ``process_frame`` (or, outside a frame, the
outermost wrapped call) has returned, and the tracer's clock pauses while
they run.  So neither the spans nor the program's own
``FrameResult.timings_ms`` are charged for them.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

import numpy as np

# (module, attribute looked up by the caller, span name)
WRAPPED = (
    ("dynseg.cli", "cmd_segment", "cli.segment"),
    ("dynseg.cloud_io", "load_frame", "cloud_io.load_frame"),
    ("dynseg.cloud_io", "write_labels", "cloud_io.write_labels"),
    ("dynseg.pipeline", "process_frame", "pipeline.process_frame"),
    ("dynseg.pipeline", "cluster_supervoxels", "supervoxel.cluster_supervoxels"),
    ("dynseg.pipeline", "build_graph", "graph.build_graph"),
    ("dynseg.pipeline", "connected_components", "graph.connected_components"),
    ("dynseg.pipeline", "solve_ga", "assignment.solve_ga"),
    ("dynseg.pipeline", "restricted_cut", "graphcut.restricted_cut"),
    ("dynseg.pipeline", "boundary_midpoints", "graphcut.boundary_midpoints"),
    ("dynseg.pipeline", "init_tree", "tree.init_tree"),
    ("dynseg.pipeline", "derive_blob_seeds", "tree.derive_blob_seeds"),
    ("dynseg.pipeline", "update_tree", "tree.update_tree"),
    ("dynseg.pipeline", "accumulate_similarities", "tree.accumulate_similarities"),
    ("dynseg.pipeline", "confirm_splits_merges", "tree.confirm_splits_merges"),
    ("dynseg.pipeline", "detect_interactions", "tree.detect_interactions"),
    ("dynseg.tree", "oversegment", "graphcut.oversegment"),
    ("dynseg.tree", "derive_blob_seeds", "tree.derive_blob_seeds"),
    ("dynseg.tree", "compute_similarity", "tree.compute_similarity"),
    ("dynseg.graphcut", "normalized_cut_bisect", "graphcut.normalized_cut_bisect"),
)


# largest assignment instance whose GA optimum is checked by enumeration
MAX_CHECKED_LABELINGS = 100_000


def _occupied_cells(points: np.ndarray, resolution: float) -> int:
    if len(points) == 0:
        return 0
    return len(np.unique(np.floor(points / resolution).astype(np.int64), axis=0))


def _load_frame_attrs(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _cluster_attrs(args, result) -> dict:
    frame, config = args[0], args[1]
    return {
        "supervoxels": len(result),
        "voxels": _occupied_cells(frame.points, config.voxel_resolution),
        "seed_cells": _occupied_cells(frame.points, config.seed_resolution),
    }


def _build_graph_attrs(args, result) -> dict:
    return {"edges": len(result.edges)}


def _components_attrs(args, result) -> dict:
    return {"blobs": len(result)}


def _solve_ga_attrs(args, result) -> dict:
    from dynseg.assignment import solve_exhaustive

    problem = args[0]
    labelings = (problem.num_blobs + 1) ** problem.num_segments
    attrs = {"segments": problem.num_segments, "blobs": problem.num_blobs, "labelings": labelings}
    if labelings <= MAX_CHECKED_LABELINGS:
        exact = solve_exhaustive(problem).energy
        attrs["ga_optimal"] = bool(abs(result.energy - exact) <= 1e-9 * max(1.0, abs(exact)))
    return attrs


def _cut_attrs(args, result) -> dict:
    problem = args[0]
    labels = len(problem.labels())
    return {
        "nodes": problem.subgraph.num_nodes,
        "labels": labels,
        "kind": "binary" if labels == 2 else "expansion",
    }


def _confirm_attrs(args, result) -> dict:
    _tree, audit = result
    return {"merges": len(audit["merges"]), "splits": len(audit["splits"])}


def _frame_attrs(args, result) -> dict:
    return {"timings_ms": dict(result.timings_ms)}


ATTRS = {
    "cloud_io.load_frame": _load_frame_attrs,
    "supervoxel.cluster_supervoxels": _cluster_attrs,
    "graph.build_graph": _build_graph_attrs,
    "graph.connected_components": _components_attrs,
    "assignment.solve_ga": _solve_ga_attrs,
    "graphcut.restricted_cut": _cut_attrs,
    "tree.confirm_splits_merges": _confirm_attrs,
    "pipeline.process_frame": _frame_attrs,
}


class Tracer:
    """Span recorder whose clock stops while counters are derived."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.offclock_s = 0.0
        self._stack: list[int] = []
        self._pending: list[tuple[dict, tuple, object]] = []
        self._patches: list[tuple[object, str, object]] = []

    def now(self) -> float:
        return time.perf_counter() - self.offclock_s

    def wrap(self, fn, name: str):
        """Return fn recording one span per call; results pass through untouched."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": self.now(),
                "end": None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.now()
                self._stack.pop()
            if name in ATTRS:
                self._pending.append((span, args, result))
            if name == "pipeline.process_frame" or not self._stack:
                self.flush()
            return result

        return traced

    def flush(self) -> None:
        """Derive the counters of finished spans with the clock stopped."""
        t0 = time.perf_counter()
        try:
            for span, args, result in self._pending:
                span["attrs"] = ATTRS[span["name"]](args, result)
        finally:
            self._pending = []
            self.offclock_s += time.perf_counter() - t0

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time its direct children cover, in seconds."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child[s["id"]] for s in spans]
