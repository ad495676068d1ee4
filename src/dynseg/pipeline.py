"""Frame-by-frame segmentation driver.

Each frame is supervoxelized and grouped into blobs; previous-frame segments
are matched to the new blobs, contested blobs are cut, and the object tree is
carried forward through the resulting splits, merges and interactions.
Vanished objects are kept on file for a bounded number of frames so a brief
occlusion does not cost the object its identity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .assignment import (
    AssignmentProblem,
    BlobFeature,
    EnergyParams,
    GAConfig,
    SegmentFeature,
    solve_exhaustive,
    solve_ga,
)
from .cloud_io import InteractionRecord, PointCloudFrame
from .graph import AdjacencyGraph, Blob, GraphConfig, build_graph, connected_components
from .graphcut import CutParams, CutProblem, OversegConfig, boundary_midpoints, restricted_cut
from .supervoxel import SupervoxelConfig, cluster_supervoxels
from .tree import (
    IdAllocator,
    InteractionEvent,
    ObjectNode,
    SegTree,
    TreeParams,
    accumulate_similarities,
    confirm_splits_merges,
    detect_interactions,
    derive_blob_seeds,
    init_tree,
    update_tree,
)

_MASK64 = (1 << 64) - 1


class PipelineError(RuntimeError):
    pass


@dataclass
class PipelineConfig:
    supervoxel: SupervoxelConfig = field(default_factory=SupervoxelConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    energy: EnergyParams = field(default_factory=EnergyParams)
    ga: GAConfig = field(default_factory=GAConfig)
    cut: CutParams = field(default_factory=CutParams)
    overseg: OversegConfig = field(default_factory=OversegConfig)
    tree: TreeParams = field(default_factory=TreeParams)
    seed: int = 0
    retention_frames: int = 10  # frames a vanished object stays claimable

    def resolved(self) -> "PipelineConfig":
        self.supervoxel.validate()
        if self.retention_frames < 0:
            raise ValueError("retention_frames must be >= 0")
        sr = self.supervoxel.seed_resolution
        return replace(
            self,
            graph=self.graph.resolve(sr),
            energy=self.energy.resolve(sr),
            cut=replace(self.cut, seed_resolution=sr).resolve(),
            tree=self.tree.resolve(sr),
        )


@dataclass
class _Ghost:
    segments: list[SegmentFeature]
    missing_since: int


@dataclass
class PipelineState:
    config: PipelineConfig
    alloc: IdAllocator = field(default_factory=IdAllocator)
    tree: SegTree | None = None
    boundary: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    ghosts: dict[int, _Ghost] = field(default_factory=dict)
    open_events: dict[frozenset[int], InteractionEvent] = field(default_factory=dict)
    frames_seen: int = 0


@dataclass
class FrameResult:
    frame_index: int
    point_labels: np.ndarray  # (N,) object id per input point
    supervoxel_count: int
    blob_count: int
    object_count: int
    merges: list
    splits: list
    interactions_closed: list[InteractionEvent]
    timings_ms: dict[str, float]
    assignment: str | None  # "exact", "ga", or None when no assignment ran


@dataclass
class SequenceResult:
    frames: list[FrameResult]
    interactions: list[InteractionRecord]
    final_tree: SegTree | None
    state: PipelineState


def init_state(config: PipelineConfig) -> PipelineState:
    return PipelineState(config=config.resolved())


def _segment_features(tree: SegTree) -> list[SegmentFeature]:
    comp_obj = {c.component_id: c.object_id for c in tree.components}
    out = []
    for seg in sorted(tree.segments, key=lambda s: s.segment_id):
        out.append(
            SegmentFeature(
                centroid=tuple(seg.centroid),
                mean_color_lab=tuple(seg.mean_color_lab),
                parent_component_id=seg.component_id,
                parent_object_id=comp_obj[seg.component_id],
            )
        )
    return out


def _point_labels(svs, sv_obj: dict[int, int], n_points: int) -> np.ndarray:
    labels = np.full(n_points, -1, dtype=np.int64)
    for sv in svs:
        labels[sv.point_indices] = sv_obj[sv.sv_id]
    return labels


def _fresh_tree(
    prev: SegTree | None,
    blobs: list[Blob],
    graph: AdjacencyGraph,
    frame_index: int,
    alloc: IdAllocator,
    overseg: OversegConfig,
    params: TreeParams,
) -> SegTree:
    """Blobs with nothing to inherit from: every blob founds a new object."""
    tree = init_tree(blobs, graph, frame_index, alloc, overseg, params)
    if prev is not None:
        for o in prev.objects:
            if not o.component_ids:
                tree.objects.append(ObjectNode(object_id=o.object_id, component_ids=[], birth_frame=o.birth_frame))
        tree.objects.sort(key=lambda o: o.object_id)
    return tree


def process_frame(state: PipelineState, frame: PointCloudFrame) -> FrameResult:
    cfg = state.config
    if cfg.energy.beta is None or cfg.tree.candidate_gap is None:
        raise PipelineError("pipeline config is not resolved; use init_state")
    fidx = frame.frame_index
    timings = {"supervoxel": 0.0, "graph": 0.0, "assignment": 0.0, "cut": 0.0, "tree": 0.0}
    t_total = time.perf_counter()

    t = time.perf_counter()
    svs = cluster_supervoxels(frame, cfg.supervoxel) if frame.num_points else []
    timings["supervoxel"] = (time.perf_counter() - t) * 1e3

    t = time.perf_counter()
    graph = build_graph(svs, cfg.graph, cfg.supervoxel.seed_resolution)
    blobs = connected_components(graph)
    timings["graph"] = (time.perf_counter() - t) * 1e3

    merges: list = []
    splits: list = []
    path = None
    t = time.perf_counter()
    if state.tree is None:
        tree = init_tree(blobs, graph, fidx, state.alloc, cfg.overseg, cfg.tree) if blobs else None
    elif not blobs:
        # nothing visible; every object goes (or stays) missing
        tree = SegTree(
            frame_index=fidx,
            blobs=[],
            objects=[
                ObjectNode(object_id=o.object_id, component_ids=[], birth_frame=o.birth_frame)
                for o in state.tree.objects
            ],
            components=[],
            segments=[],
        )
    else:
        segments = _segment_features(state.tree)
        for oid in sorted(state.ghosts):
            segments.extend(state.ghosts[oid].segments)
        if not segments:
            tree = _fresh_tree(state.tree, blobs, graph, fidx, state.alloc, cfg.overseg, cfg.tree)
        else:
            blob_list = sorted(blobs, key=lambda b: b.blob_id)
            blob_feats = [
                BlobFeature(
                    sv_centroids=np.asarray([graph.svs[i].centroid for i in b.members_sorted]),
                    sv_colors_lab=np.asarray([graph.svs[i].mean_color_lab for i in b.members_sorted]),
                )
                for b in blob_list
            ]
            problem = AssignmentProblem(segments=segments, blobs=blob_feats, params=cfg.energy)
            ta = time.perf_counter()
            # enumerate when that is no more label vectors than the GA's shortest run
            if (len(blob_feats) + 1) ** len(segments) <= cfg.ga.population * (cfg.ga.stagnation_stop + 1):
                path, assignment = "exact", solve_exhaustive(problem)
            else:
                path, assignment = "ga", solve_ga(problem, replace(cfg.ga, rng_seed=(cfg.seed ^ fidx) & _MASK64))
            timings["assignment"] = (time.perf_counter() - ta) * 1e3

            sr = cfg.supervoxel.seed_resolution
            seeds, seg_site = derive_blob_seeds(problem, assignment, blobs, graph, sr)
            cuts: dict[int, dict[int, int]] = {}
            tc = time.perf_counter()
            for blob in blob_list:
                if len(set(seeds[blob.blob_id].values())) >= 2:
                    cut_problem = CutProblem(
                        subgraph=graph.subgraph(blob.member_supervoxels),
                        label_seeds=seeds[blob.blob_id],
                        previous_boundary=state.boundary,
                        params=cfg.cut,
                    )
                    cuts[blob.blob_id] = restricted_cut(cut_problem)
            timings["cut"] = (time.perf_counter() - tc) * 1e3

            tree = update_tree(
                state.tree, blobs, graph, problem, seeds, seg_site, cuts, fidx, state.alloc, cfg.overseg
            )
            tree = accumulate_similarities(tree, state.tree, graph, cfg.tree)
            tree, audit = confirm_splits_merges(tree, graph, cfg.tree, state.alloc, cfg.overseg)
            merges, splits = audit["merges"], audit["splits"]

    closed: list[InteractionEvent] = []
    if tree is not None:
        state.open_events, closed = detect_interactions(tree, state.open_events)
        _update_ghosts(state, tree, fidx)
        sv_obj = tree.sv_to_object()
        state.boundary = boundary_midpoints(graph, sv_obj)
        labels = _point_labels(svs, sv_obj, len(frame.points))
        state.tree = tree
    else:
        labels = np.zeros(0, dtype=np.int64)
        state.boundary = np.zeros((0, 3))
    timings["tree"] = (time.perf_counter() - t) * 1e3 - timings["assignment"] - timings["cut"]
    timings["total"] = (time.perf_counter() - t_total) * 1e3
    state.frames_seen += 1

    live = tree.objects if tree else []
    return FrameResult(
        frame_index=fidx,
        point_labels=labels,
        supervoxel_count=len(svs),
        blob_count=len(blobs),
        object_count=sum(1 for o in live if o.component_ids),
        merges=merges,
        splits=splits,
        interactions_closed=closed,
        timings_ms=timings,
        assignment=path,
    )


def _update_ghosts(state: PipelineState, tree: SegTree, frame_index: int) -> None:
    """Track objects with no presence this frame; expire long-missing ones."""
    retention = state.config.retention_frames
    prev = state.tree
    live = {c.object_id for c in tree.components}
    for oid in sorted(live):
        state.ghosts.pop(oid, None)
    prev_feats = _segment_features(prev) if prev is not None else []
    for o in list(tree.objects):
        oid = o.object_id
        if oid in live or oid in state.ghosts:
            continue
        feats = [f for f in prev_feats if f.parent_object_id == oid]
        if feats:
            state.ghosts[oid] = _Ghost(segments=feats, missing_since=frame_index)
        else:
            tree.objects.remove(o)  # nothing recorded to revive it from
    expired = [
        oid
        for oid, g in state.ghosts.items()
        if frame_index - g.missing_since + 1 > retention
    ]
    for oid in expired:
        del state.ghosts[oid]
        tree.objects = [o for o in tree.objects if o.object_id != oid]


def run_sequence(frames, config: PipelineConfig) -> SequenceResult:
    """Process frames in order and close any interactions still pending."""
    state = init_state(config)
    results = [process_frame(state, f) for f in frames]
    trailing = sorted(state.open_events.values(), key=lambda e: (e.start_frame, sorted(e.object_ids)))
    state.open_events = {}
    records: list[InteractionRecord] = []
    for r in results:
        records.extend(ev.to_record() for ev in r.interactions_closed)
    records.extend(ev.to_record() for ev in trailing)
    records.sort(key=lambda r: (r.start_frame, r.end_frame, r.object_ids))
    return SequenceResult(frames=results, interactions=records, final_tree=state.tree, state=state)


def format_run_report(result: SequenceResult) -> str:
    lines = ["run v1"]
    lines.append(f"frames {len(result.frames)}")
    final_objects = (
        sum(1 for o in result.final_tree.objects if o.component_ids) if result.final_tree else 0
    )
    lines.append(f"objects {final_objects}")
    lines.append(f"interactions {len(result.interactions)}")
    for r in result.frames:
        lines.append(
            f"frame {r.frame_index} svs {r.supervoxel_count} blobs {r.blob_count} "
            f"objects {r.object_count} ms {r.timings_ms['total']:.1f}"
        )
    for rec in result.interactions:
        ids = " ".join(str(i) for i in rec.object_ids)
        lines.append(f"interaction {rec.start_frame} {rec.end_frame} {ids}")
    return "\n".join(lines) + "\n"
