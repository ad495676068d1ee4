"""Frame-by-frame segmentation driver.

Each frame is supervoxelized and grouped into blobs; previous-frame segments
are matched to the new blobs, contested blobs are cut, and the object tree is
carried forward through the resulting splits, merges and interactions.
Vanished objects are kept on file for a bounded number of frames so a brief
occlusion does not cost the object its identity.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .assignment import (
    AssignmentProblem,
    EnergyParams,
    GAConfig,
    Segments,
    exact_limit,
    solve_exhaustive,
    solve_ga,
)
from .cloud_io import InteractionRecord, PointCloudFrame
from .graph import GraphConfig, build_graph, connected_components
from .graphcut import CutParams, CutProblem, OversegConfig, boundary_midpoints, restricted_cut
from .supervoxel import SupervoxelConfig, Supervoxels, cluster_supervoxels, voxel_reach
from .tree import (
    IdAllocator,
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
# config values the pipeline divides by
_DIVISORS = "graph.sigma_color graph.sigma_distance cut.sigma_boundary tree.sigma_color tree.sigma_distance".split()
# the least valid value of each key a solver breaks below, in check order;
# max-flow, for one, would drop the negative capacities of negative cut weights
_LOWER_BOUNDS = {
    "retention_frames": 0,
    "ga.population": 1,
    "ga.tournament_size": 1,
    "ga.elitism": 0,
    "ga.stagnation_stop": 0,
    "cut.lambda_smooth": 0,
    "cut.mu_coherence": 0,
}


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
        """Fill in the seed-resolution defaults and check the values; a resolved config resolves to itself."""
        self.supervoxel.validate()
        for key, bound in _LOWER_BOUNDS.items():
            if not functools.reduce(getattr, key.split("."), self) >= bound:
                raise ValueError(f"{key} must be >= {bound}")
        sr = self.supervoxel.seed_resolution
        out = replace(
            self,
            graph=self.graph.resolve(sr),
            energy=self.energy.resolve(sr),
            cut=self.cut.resolve(sr),
            tree=self.tree.resolve(sr),
        )
        for key in _DIVISORS:
            if not functools.reduce(getattr, key.split("."), out) > 0:
                raise ValueError(f"{key} must be > 0")
        return out


@dataclass
class PipelineState:
    config: PipelineConfig  # resolved
    alloc: IdAllocator = field(default_factory=IdAllocator)
    tree: SegTree | None = None
    boundary: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    # the segment rows of the missing objects on file by object id, and the frame each went missing
    ghosts: Segments = field(default_factory=Segments.empty)
    missing_since: dict[int, int] = field(default_factory=dict)
    open_events: dict[tuple[int, ...], InteractionRecord] = field(default_factory=dict)
    # voxel-neighbour reach, decided once on the first frame with points so
    # the partition rule does not flicker between frames
    reach: int | None = None


@dataclass
class FrameResult:
    frame_index: int
    point_labels: np.ndarray  # (N,) object id per input point
    supervoxel_count: int
    blob_count: int
    object_count: int
    merges: list
    splits: list
    interactions_closed: list[InteractionRecord]
    timings_ms: dict[str, float]
    assignment: str | None  # "exact", "ga", or None when no assignment ran
    growth_passes: int  # supervoxel growth passes run (0 for a frame with no points)
    growth_converged: bool  # the last growth pass moved no seed


@dataclass
class SequenceResult:
    frames: list[FrameResult]
    interactions: list[InteractionRecord]
    state: PipelineState


def init_state(config: PipelineConfig) -> PipelineState:
    return PipelineState(config=config.resolved())


def process_frame(state: PipelineState, frame: PointCloudFrame) -> FrameResult:
    cfg = state.config
    fidx = frame.frame_index
    timings = {"supervoxel": 0.0, "graph": 0.0, "assignment": 0.0, "cut": 0.0, "tree": 0.0}
    t_total = time.perf_counter()
    if state.reach is None and frame.num_points:
        state.reach = voxel_reach(frame.points, cfg.supervoxel.voxel_resolution)

    t = time.perf_counter()
    supervoxels = cluster_supervoxels(frame, cfg.supervoxel, state.reach) if frame.num_points else Supervoxels.empty()
    timings["supervoxel"] = (time.perf_counter() - t) * 1e3

    t = time.perf_counter()
    graph = build_graph(supervoxels, cfg.graph)
    blobs = connected_components(graph)
    timings["graph"] = (time.perf_counter() - t) * 1e3

    merges: list = []
    splits: list = []
    path = None
    t = time.perf_counter()
    segments = state.ghosts if state.tree is None else state.tree.segments().concat(state.ghosts)
    if not blobs or not segments:
        # nothing to inherit: every blob founds an object, the rest go (or stay) missing
        tree = init_tree(graph, fidx, state.alloc, cfg.overseg, cfg.tree, prev=state.tree)
    else:
        problem = AssignmentProblem(segments=segments, graph=graph, blobs=blobs, params=cfg.energy)
        ta = time.perf_counter()
        if (len(blobs) + 1) ** len(segments) <= exact_limit(cfg.ga):
            path, assignment = "exact", solve_exhaustive(problem)
        else:
            path, assignment = "ga", solve_ga(problem, cfg.ga, rng_seed=(cfg.seed ^ fidx) & _MASK64)
        timings["assignment"] = (time.perf_counter() - ta) * 1e3

        sr = cfg.supervoxel.seed_resolution
        labels, seat = derive_blob_seeds(problem, assignment, sr)
        tc = time.perf_counter()
        for blob in blobs:
            seeds = labels[blob]
            if len(np.unique(seeds[seeds >= 0])) >= 2:
                cut_problem = CutProblem(
                    subgraph=graph.subgraph(blob),
                    seeds=seeds,
                    previous_boundary=state.boundary,
                    params=cfg.cut,
                    seed_resolution=sr,
                )
                labels[blob] = restricted_cut(cut_problem)
        timings["cut"] = (time.perf_counter() - tc) * 1e3

        tree = update_tree(state.tree, graph, segments, labels, seat, fidx, state.alloc, cfg.overseg)
        tree = accumulate_similarities(tree, state.tree, graph, cfg.tree)
        tree, audit = confirm_splits_merges(tree, graph, cfg.tree, state.alloc, cfg.overseg)
        merges, splits = audit["merges"], audit["splits"]

    state.open_events, closed = detect_interactions(tree, state.open_events)
    _update_ghosts(state, tree, fidx, segments)
    state.boundary = boundary_midpoints(graph, tree.object_of)
    point_labels = tree.object_of[supervoxels.of_point]
    state.tree = tree
    timings["tree"] = (time.perf_counter() - t) * 1e3 - timings["assignment"] - timings["cut"]
    timings["total"] = (time.perf_counter() - t_total) * 1e3

    return FrameResult(
        frame_index=fidx,
        point_labels=point_labels,
        supervoxel_count=len(supervoxels),
        blob_count=len(blobs),
        object_count=len(tree.live_objects()),
        merges=merges,
        splits=splits,
        interactions_closed=closed,
        timings_ms=timings,
        assignment=path,
        growth_passes=supervoxels.passes,
        growth_converged=supervoxels.converged,
    )


def _update_ghosts(state: PipelineState, tree: SegTree, frame_index: int, segments: Segments) -> None:
    """Keep the missing objects' rows of this frame's assignment input as the ghosts; take the rest off file.

    A missing object stays on file while it has been missing for fewer than
    retention_frames frames.  It has rows in ``segments``, since it was live
    in the previous tree or a ghost.
    """
    since = {oid: state.missing_since.get(oid, frame_index) for oid in tree.missing_objects()}
    retention = state.config.retention_frames
    state.missing_since = {oid: t for oid, t in since.items() if frame_index - t < retention}
    tree.forget(since.keys() - state.missing_since.keys())
    # by object id, each object's rows in input order
    order = np.argsort(segments.object_ids, kind="stable")
    state.ghosts = segments.take(order[np.isin(segments.object_ids[order], list(state.missing_since))])


def run_sequence(frames, config: PipelineConfig) -> SequenceResult:
    """Process frames in order and close any interactions still pending."""
    state = init_state(config)
    results = [process_frame(state, f) for f in frames]
    records = [ev for r in results for ev in r.interactions_closed] + list(state.open_events.values())
    state.open_events = {}
    records.sort(key=lambda r: (r.start_frame, r.end_frame, r.object_ids))
    return SequenceResult(frames=results, interactions=records, state=state)


def format_run_report(result: SequenceResult) -> str:
    lines = ["run v1"]
    lines.append(f"frames {len(result.frames)}")
    final_objects = len(result.state.tree.live_objects()) if result.state.tree else 0
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
