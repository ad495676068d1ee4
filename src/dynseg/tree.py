"""Object / component / segment tree over the per-frame blob partition.

Objects persist across frames; components are the connected per-blob pieces
of each object and absorb splits and merges; segments are a normalized-cut
over-segmentation of each component and carry the correspondence to the next
frame.  Pairwise similarities are accumulated by averaging the current value
with the previous accumulated value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .assignment import Assignment, AssignmentProblem
from .cloud_io import InteractionRecord
from .graph import AdjacencyGraph, Blob, connected_sets
from .graphcut import OversegConfig, oversegment


@dataclass
class TreeParams:
    merge_threshold: float = 0.7
    split_threshold: float = 0.3
    sigma_distance: float | None = None  # default 2 * seed_resolution
    sigma_color: float = 30.0
    candidate_gap: float | None = None  # default 3 * seed_resolution

    def resolve(self, seed_resolution: float) -> "TreeParams":
        return replace(
            self,
            sigma_distance=2.0 * seed_resolution if self.sigma_distance is None else self.sigma_distance,
            candidate_gap=3.0 * seed_resolution if self.candidate_gap is None else self.candidate_gap,
        )


@dataclass
class ObjectNode:
    object_id: int
    component_ids: list[int]
    birth_frame: int


@dataclass
class ComponentNode:
    component_id: int
    object_id: int
    blob_id: int
    supervoxel_ids: frozenset[int]


@dataclass
class SegmentNode:
    segment_id: int
    component_id: int
    supervoxel_ids: frozenset[int]
    centroid: np.ndarray
    mean_color_lab: np.ndarray


@dataclass
class InteractionEvent:
    start_frame: int
    end_frame: int
    object_ids: frozenset[int]
    blob_trace: list[int]

    def to_record(self) -> InteractionRecord:
        return InteractionRecord(
            start_frame=self.start_frame,
            end_frame=self.end_frame,
            blob_hint=self.blob_trace[0] if self.blob_trace else -1,
            object_ids=tuple(sorted(self.object_ids)),
        )


@dataclass
class SegTree:
    frame_index: int
    blobs: list[Blob]
    objects: list[ObjectNode]
    components: list[ComponentNode]
    segments: list[SegmentNode]
    object_similarity: dict[tuple[int, int], float] = field(default_factory=dict)
    component_similarity: dict[int, dict[tuple[int, int], float]] = field(default_factory=dict)

    def object_by_id(self, oid: int) -> ObjectNode:
        for o in self.objects:
            if o.object_id == oid:
                return o
        raise KeyError(oid)

    def component_by_id(self, cid: int) -> ComponentNode:
        for c in self.components:
            if c.component_id == cid:
                return c
        raise KeyError(cid)

    def components_of_object(self, oid: int) -> list[ComponentNode]:
        return [c for c in self.components if c.object_id == oid]

    def segments_of_component(self, cid: int) -> list[SegmentNode]:
        return [s for s in self.segments if s.component_id == cid]

    def sv_to_object(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for c in self.components:
            for sv in c.supervoxel_ids:
                out[sv] = c.object_id
        return out

    def object_supervoxels(self, oid: int) -> frozenset[int]:
        out: set[int] = set()
        for c in self.components:
            if c.object_id == oid:
                out |= c.supervoxel_ids
        return frozenset(out)


class IdAllocator:
    """Monotone id sources; object and component ids are never reused."""

    def __init__(self) -> None:
        self._next_object = 0
        self._next_component = 0

    def new_object_id(self) -> int:
        oid = self._next_object
        self._next_object += 1
        return oid

    def new_component_id(self) -> int:
        cid = self._next_component
        self._next_component += 1
        return cid


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _weighted_features(sv_ids, graph: AdjacencyGraph) -> tuple[np.ndarray, np.ndarray]:
    """Point-count-weighted centroid and mean Lab color of a supervoxel set."""
    ids = sorted(sv_ids)
    w = np.asarray([len(graph.svs[i].point_indices) for i in ids], dtype=np.float64)
    cen = np.asarray([graph.svs[i].centroid for i in ids])
    col = np.asarray([graph.svs[i].mean_color_lab for i in ids])
    total = w.sum()
    return (cen * w[:, None]).sum(axis=0) / total, (col * w[:, None]).sum(axis=0) / total


def compute_similarity(a_svs, b_svs, graph: AdjacencyGraph, params: TreeParams) -> float:
    """sim = exp(-gap / sigma_d) * exp(-dE_lab / sigma_c) over two supervoxel sets."""
    if params.sigma_distance is None:
        raise ValueError("params must be resolved")
    if not a_svs or not b_svs:
        raise ValueError("similarity of an empty supervoxel set is undefined")
    gap = _min_gap(a_svs, b_svs, graph)
    _, col_a = _weighted_features(a_svs, graph)
    _, col_b = _weighted_features(b_svs, graph)
    de = float(np.linalg.norm(col_a - col_b))
    return math.exp(-gap / params.sigma_distance) * math.exp(-de / params.sigma_color)


def _min_gap(a_svs, b_svs, graph: AdjacencyGraph) -> float:
    ca = np.asarray([graph.svs[i].centroid for i in sorted(a_svs)])
    cb = np.asarray([graph.svs[i].centroid for i in sorted(b_svs)])
    return float(np.min(np.linalg.norm(ca[:, None, :] - cb[None, :, :], axis=2)))


def _segments_for_component(
    comp: ComponentNode, graph: AdjacencyGraph, overseg: OversegConfig, next_segment_id: list[int]
) -> list[SegmentNode]:
    parts = oversegment(graph.subgraph(comp.supervoxel_ids), overseg)
    out = []
    for part in parts:
        cen, col = _weighted_features(part, graph)
        out.append(
            SegmentNode(
                segment_id=next_segment_id[0],
                component_id=comp.component_id,
                supervoxel_ids=part,
                centroid=cen,
                mean_color_lab=col,
            )
        )
        next_segment_id[0] += 1
    return out


def init_tree(
    blobs: list[Blob],
    graph: AdjacencyGraph,
    frame_index: int,
    alloc: IdAllocator,
    overseg: OversegConfig,
    params: TreeParams,
) -> SegTree:
    """First frame: every blob becomes one object with one component."""
    if params.candidate_gap is None:
        raise ValueError("params must be resolved")
    objects: list[ObjectNode] = []
    components: list[ComponentNode] = []
    segments: list[SegmentNode] = []
    next_seg = [0]
    for blob in sorted(blobs, key=lambda b: b.blob_id):
        oid = alloc.new_object_id()
        cid = alloc.new_component_id()
        comp = ComponentNode(
            component_id=cid,
            object_id=oid,
            blob_id=blob.blob_id,
            supervoxel_ids=blob.member_supervoxels,
        )
        objects.append(ObjectNode(object_id=oid, component_ids=[cid], birth_frame=frame_index))
        components.append(comp)
        segments.extend(_segments_for_component(comp, graph, overseg, next_seg))
    tree = SegTree(
        frame_index=frame_index,
        blobs=list(blobs),
        objects=objects,
        components=components,
        segments=segments,
        component_similarity={o.object_id: {} for o in objects},
    )
    # candidate pairs start accumulating from zero
    for i, a in enumerate(objects):
        for b in objects[i + 1 :]:
            gap = _min_gap(tree.object_supervoxels(a.object_id), tree.object_supervoxels(b.object_id), graph)
            if gap < params.candidate_gap:
                tree.object_similarity[_pair(a.object_id, b.object_id)] = 0.0
    return tree


def _first_free(ranked: list[int], taken: dict[int, int]) -> int | None:
    """The first supervoxel in ``ranked`` that no object has taken yet."""
    return next((sv for sv in ranked if sv not in taken), None)


def derive_blob_seeds(
    problem: AssignmentProblem,
    assignment: Assignment,
    blobs: list[Blob],
    graph: AdjacencyGraph,
    seed_resolution: float,
) -> tuple[dict[int, dict[int, int]], dict[int, tuple[int, int]]]:
    """Choose seed supervoxels inside each blob for the objects assigned into it.

    Returns (blob_id -> {sv_id -> object_id}, segment index -> (blob_id, sv_id)).
    Every object assigned into a blob keeps at least one seed; remaining
    segments claim their nearest free supervoxel.
    """
    blob_list = sorted(blobs, key=lambda b: b.blob_id)
    seeds: dict[int, dict[int, int]] = {b.blob_id: {} for b in blob_list}
    seg_site: dict[int, tuple[int, int]] = {}
    for pos, blob in enumerate(blob_list):
        members = blob.members_sorted
        cen = np.asarray([graph.svs[i].centroid for i in members])
        col = np.asarray([graph.svs[i].mean_color_lab for i in members])
        assigned = [s for s in range(problem.num_segments) if assignment.labels[s] == pos]
        if not assigned:
            continue
        # claim cost mirrors the cut unary: distance plus color difference
        claims: list[tuple[float, int, int]] = []  # (cost, object, segment)
        ranked: dict[int, list[int]] = {}  # segment -> members, cheapest first
        for s in assigned:
            seg = problem.segments[s]
            d = np.linalg.norm(cen - np.asarray(seg.centroid), axis=1) / seed_resolution
            dc = np.linalg.norm(col - np.asarray(seg.mean_color_lab), axis=1) / 100.0
            cost = d + dc
            order = np.argsort(cost, kind="stable")
            ranked[s] = [members[k] for k in order]
            claims.append((float(cost[order[0]]), seg.parent_object_id, s))
        claims.sort()
        taken = seeds[blob.blob_id]
        # round 1: one seed per object, cheapest first
        seeded_objects: set[int] = set()
        for _, oid, s in claims:
            if oid in seeded_objects:
                continue
            site = _first_free(ranked[s], taken)
            if site is None:
                continue  # blob smaller than its object count
            taken[site] = oid
            seg_site[s] = (blob.blob_id, site)
            seeded_objects.add(oid)
        # round 2: remaining segments seed their nearest free supervoxel,
        # or share the nearest occupied one when none is free
        for _, oid, s in claims:
            if s in seg_site:
                continue
            site = _first_free(ranked[s], taken)
            if site is None:
                seg_site[s] = (blob.blob_id, ranked[s][0])
                continue
            taken[site] = oid
            seg_site[s] = (blob.blob_id, site)
    return seeds, seg_site


def update_tree(
    prev: SegTree,
    blobs: list[Blob],
    graph: AdjacencyGraph,
    problem: AssignmentProblem,
    seeds: dict[int, dict[int, int]],
    seg_site: dict[int, tuple[int, int]],
    cuts: dict[int, dict[int, int]],
    frame_index: int,
    alloc: IdAllocator,
    overseg: OversegConfig,
) -> SegTree:
    """Carry object identity into the current frame's blob partition.

    seeds and seg_site are derive_blob_seeds' output for this frame's
    assignment.  Single-label blobs go wholly to their object, multi-label
    blobs use the supplied cut labelings, and unassigned blobs found new
    objects.
    """
    sv_object: dict[int, int] = {}
    births: dict[int, int] = {o.object_id: o.birth_frame for o in prev.objects}
    blob_list = sorted(blobs, key=lambda b: b.blob_id)
    for blob in blob_list:
        blob_seeds = seeds[blob.blob_id]
        labels = sorted(set(blob_seeds.values()))
        if not labels:
            oid = alloc.new_object_id()
            births[oid] = frame_index
            for sv in blob.member_supervoxels:
                sv_object[sv] = oid
        elif len(labels) == 1:
            for sv in blob.member_supervoxels:
                sv_object[sv] = labels[0]
        else:
            cut = cuts.get(blob.blob_id)
            if cut is None:
                raise ValueError(f"multi-label blob {blob.blob_id} has no cut labeling")
            for sv in blob.member_supervoxels:
                if sv not in cut:
                    raise ValueError(f"cut for blob {blob.blob_id} misses supervoxel {sv}")
                sv_object[sv] = cut[sv]

    # components: connected pieces of each (object, blob) region
    components: list[ComponentNode] = []
    # blobs are the graph's connected components, so no edge joins two blobs
    blob_of = {sv: blob.blob_id for blob in blob_list for sv in blob.member_supervoxels}
    node_object = np.asarray([sv_object[sv] for sv in graph.nodes.tolist()], dtype=np.int64)
    pos = graph.edge_index
    inside = graph.edges[node_object[pos[:, 0]] == node_object[pos[:, 1]]]
    raw_pieces: list[tuple[int, int, frozenset[int]]] = sorted(  # (blob, object, svs)
        ((blob_of[min(piece)], sv_object[min(piece)], piece) for piece in connected_sets(graph.nodes, inside)),
        key=lambda entry: (entry[0], entry[1], min(entry[2])),
    )
    piece_of_sv = {sv: idx for idx, (_, _, piece) in enumerate(raw_pieces) for sv in piece}

    # component id inheritance: each previous component passes its id to the
    # piece that received most of its assigned segments
    prev_comp_object = {c.component_id: c.object_id for c in prev.components}
    votes: dict[int, dict[int, int]] = {}
    for s, (blob_id, sv) in seg_site.items():
        seg = problem.segments[s]
        piece_idx = piece_of_sv.get(sv)
        if piece_idx is None:
            continue
        if raw_pieces[piece_idx][1] != seg.parent_object_id:
            continue  # the piece went to another object in the cut
        votes.setdefault(seg.parent_component_id, {})[piece_idx] = (
            votes.get(seg.parent_component_id, {}).get(piece_idx, 0) + 1
        )
    piece_cid: dict[int, int] = {}
    for cid in sorted(votes):
        ranked = sorted(votes[cid].items(), key=lambda kv: (-kv[1], min(raw_pieces[kv[0]][2])))
        for piece_idx, _count in ranked:
            if piece_idx not in piece_cid and raw_pieces[piece_idx][1] == prev_comp_object.get(cid):
                piece_cid[piece_idx] = cid
                break
    for idx, (blob_id, oid, piece) in enumerate(raw_pieces):
        cid = piece_cid.get(idx)
        if cid is None:
            cid = alloc.new_component_id()
        components.append(
            ComponentNode(component_id=cid, object_id=oid, blob_id=blob_id, supervoxel_ids=piece)
        )

    present = sorted({c.object_id for c in components})
    objects = []
    comp_ids: dict[int, list[int]] = {}
    for c in components:
        comp_ids.setdefault(c.object_id, []).append(c.component_id)
    for oid in present:
        objects.append(ObjectNode(object_id=oid, component_ids=sorted(comp_ids[oid]), birth_frame=births[oid]))
    # objects that lost every supervoxel stay listed; retention is decided upstream
    for o in prev.objects:
        if o.object_id not in comp_ids:
            objects.append(ObjectNode(object_id=o.object_id, component_ids=[], birth_frame=o.birth_frame))
    objects.sort(key=lambda o: o.object_id)

    next_seg = [0]
    segments: list[SegmentNode] = []
    for comp in components:
        segments.extend(_segments_for_component(comp, graph, overseg, next_seg))
    return SegTree(
        frame_index=frame_index,
        blobs=list(blobs),
        objects=objects,
        components=components,
        segments=segments,
        object_similarity={},
        component_similarity={},
    )


def accumulate_similarities(
    tree: SegTree, prev: SegTree | None, graph: AdjacencyGraph, params: TreeParams
) -> SegTree:
    """Average current similarities into the previous accumulated values.

    Pairs without an established correspondence initialize at their current
    similarity.  Objects with no supervoxels this frame drop out of the
    matrices until they reappear.
    """
    if params.candidate_gap is None:
        raise ValueError("params must be resolved")
    alive = [o.object_id for o in tree.objects if tree.object_supervoxels(o.object_id)]
    sv_sets = {oid: tree.object_supervoxels(oid) for oid in alive}
    prev_obj = prev.object_similarity if prev is not None else {}

    candidates: set[tuple[int, int]] = set()
    by_blob: dict[int, set[int]] = {}
    for c in tree.components:
        by_blob.setdefault(c.blob_id, set()).add(c.object_id)
    for oids in by_blob.values():
        ordered = sorted(oids)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                candidates.add(_pair(a, b))
    for i, a in enumerate(alive):
        for b in alive[i + 1 :]:
            key = _pair(a, b)
            if key in candidates:
                continue
            if key in prev_obj:
                candidates.add(key)
            elif _min_gap(sv_sets[a], sv_sets[b], graph) < params.candidate_gap:
                candidates.add(key)

    obj_sim: dict[tuple[int, int], float] = {}
    for key in sorted(candidates):
        a, b = key
        if a not in sv_sets or b not in sv_sets:
            continue
        now = compute_similarity(sv_sets[a], sv_sets[b], graph, params)
        obj_sim[key] = (now + prev_obj[key]) / 2.0 if key in prev_obj else now
    tree.object_similarity = obj_sim

    comp_sim: dict[int, dict[tuple[int, int], float]] = {}
    for o in tree.objects:
        comps = tree.components_of_object(o.object_id)
        entries: dict[tuple[int, int], float] = {}
        prev_entries = prev.component_similarity.get(o.object_id, {}) if prev is not None else {}
        for i, ca in enumerate(comps):
            for cb in comps[i + 1 :]:
                key = _pair(ca.component_id, cb.component_id)
                now = compute_similarity(ca.supervoxel_ids, cb.supervoxel_ids, graph, params)
                entries[key] = (now + prev_entries[key]) / 2.0 if key in prev_entries else now
        comp_sim[o.object_id] = entries
    tree.component_similarity = comp_sim
    return tree


def confirm_splits_merges(
    tree: SegTree,
    graph: AdjacencyGraph,
    params: TreeParams,
    alloc: IdAllocator,
    overseg: OversegConfig,
) -> tuple[SegTree, dict]:
    """Threshold the accumulated similarities into merge and split decisions.

    Object pairs above merge_threshold fuse into the older (smaller) id;
    within an object, components cluster by single-link on similarities above
    split_threshold and every cluster beyond the oldest component's becomes a
    new object.
    """
    audit: dict = {"merges": [], "splits": []}

    # merges
    merge_pairs = [k for k, v in tree.object_similarity.items() if v > params.merge_threshold]
    if merge_pairs:
        involved = {o for pair in merge_pairs for o in pair}
        for group in connected_sets(involved, merge_pairs):
            winner = min(group)
            absorbed = sorted(group - {winner})
            audit["merges"].append((winner, absorbed))
            for comp in tree.components:
                if comp.object_id in absorbed:
                    comp.object_id = winner
            # rebuild the winner's per-blob pieces; fused pieces re-segment
            merged_entries = dict(tree.component_similarity.get(winner, {}))
            for oid in absorbed:
                merged_entries.update(tree.component_similarity.pop(oid, {}))
            by_blob: dict[int, list[ComponentNode]] = {}
            for comp in tree.components:
                if comp.object_id == winner:
                    by_blob.setdefault(comp.blob_id, []).append(comp)
            for blob_id, comps in sorted(by_blob.items()):
                if len(comps) < 2:
                    continue
                union: set[int] = set()
                for c in comps:
                    union |= c.supervoxel_ids
                pieces = connected_sets(union, graph.edges)
                if len(pieces) == len(comps):
                    continue  # nothing fused
                # keep the id of the largest contributor inside each piece
                dead: set[int] = set()
                new_comps: list[ComponentNode] = []
                for piece in pieces:
                    contrib = sorted(
                        ((len(c.supervoxel_ids & piece), -c.component_id) for c in comps),
                        reverse=True,
                    )
                    keep_cid = -contrib[0][1]
                    for c in comps:
                        if c.component_id != keep_cid and c.supervoxel_ids & piece:
                            dead.add(c.component_id)
                    new_comps.append(
                        ComponentNode(
                            component_id=keep_cid,
                            object_id=winner,
                            blob_id=blob_id,
                            supervoxel_ids=piece,
                        )
                    )
                tree.components = [
                    c for c in tree.components if not (c.object_id == winner and c.blob_id == blob_id)
                ] + new_comps
                tree.segments = [s for s in tree.segments if s.component_id not in dead]
                next_seg = [max((s.segment_id for s in tree.segments), default=-1) + 1]
                merged_entries = {
                    k: v for k, v in merged_entries.items() if k[0] not in dead and k[1] not in dead
                }
                for comp in new_comps:
                    tree.segments = [s for s in tree.segments if s.component_id != comp.component_id]
                    tree.segments.extend(_segments_for_component(comp, graph, overseg, next_seg))
            # fresh pairs between the fused families start at the current similarity
            comps_now = tree.components_of_object(winner)
            for i, ca in enumerate(comps_now):
                for cb in comps_now[i + 1 :]:
                    key = _pair(ca.component_id, cb.component_id)
                    if key not in merged_entries:
                        merged_entries[key] = compute_similarity(
                            ca.supervoxel_ids, cb.supervoxel_ids, graph, params
                        )
            tree.component_similarity[winner] = merged_entries
            # drop absorbed rows from the object matrix
            tree.object_similarity = {
                k: v for k, v in tree.object_similarity.items() if not (set(k) & set(absorbed))
            }
        _reindex_objects(tree)

    # splits
    for obj in sorted(tree.objects, key=lambda o: o.object_id):
        comps = tree.components_of_object(obj.object_id)
        if len(comps) < 2:
            continue
        entries = tree.component_similarity.get(obj.object_id, {})
        linked = [k for k, v in entries.items() if v > params.split_threshold]
        clusters = connected_sets((c.component_id for c in comps), linked)
        if len(clusters) < 2:
            continue
        # the first cluster holds the oldest component and keeps the id
        for cids in (sorted(c) for c in clusters[1:]):
            new_oid = alloc.new_object_id()
            audit["splits"].append((obj.object_id, new_oid, cids))
            for comp in tree.components:
                if comp.component_id in cids:
                    comp.object_id = new_oid
            sub_entries = {
                k: v for k, v in entries.items() if k[0] in cids and k[1] in cids
            }
            tree.component_similarity[new_oid] = sub_entries
            new_obj = ObjectNode(object_id=new_oid, component_ids=sorted(cids), birth_frame=tree.frame_index)
            tree.objects.append(new_obj)
        kept = {c.component_id for c in tree.components if c.object_id == obj.object_id}
        tree.component_similarity[obj.object_id] = {
            k: v for k, v in entries.items() if k[0] in kept and k[1] in kept
        }
        _reindex_objects(tree)
    return tree, audit


def _reindex_objects(tree: SegTree) -> None:
    """Recompute object rows from components.

    Rows that already had no components keep waiting for a reappearance; rows
    that lose all components here were absorbed by a merge and drop out.
    """
    comp_ids: dict[int, list[int]] = {}
    for c in tree.components:
        comp_ids.setdefault(c.object_id, []).append(c.component_id)
    kept: list[ObjectNode] = []
    for o in tree.objects:
        if o.object_id in comp_ids:
            kept.append(
                ObjectNode(
                    object_id=o.object_id,
                    component_ids=sorted(comp_ids[o.object_id]),
                    birth_frame=o.birth_frame,
                )
            )
        elif not o.component_ids:
            kept.append(o)
    kept.sort(key=lambda o: o.object_id)
    tree.objects = kept


def detect_interactions(
    tree: SegTree, open_events: dict[frozenset[int], InteractionEvent]
) -> tuple[dict[frozenset[int], InteractionEvent], list[InteractionEvent]]:
    """A blob hosting components of two or more objects is an interaction.

    Events keyed by the participating object-id set extend while the
    condition holds and close at the last frame it held; a one-frame
    separation therefore yields two distinct events.
    """
    frame = tree.frame_index
    current: dict[frozenset[int], int] = {}
    by_blob: dict[int, set[int]] = {}
    for c in tree.components:
        by_blob.setdefault(c.blob_id, set()).add(c.object_id)
    for blob_id in sorted(by_blob):
        oids = by_blob[blob_id]
        if len(oids) >= 2:
            key = frozenset(oids)
            if key not in current:
                current[key] = blob_id
    closed: list[InteractionEvent] = []
    still_open: dict[frozenset[int], InteractionEvent] = {}
    for key, ev in open_events.items():
        if key in current:
            ev.end_frame = frame
            ev.blob_trace.append(current[key])
            still_open[key] = ev
        else:
            closed.append(ev)
    for key in sorted(current, key=sorted):
        if key not in still_open:
            still_open[key] = InteractionEvent(
                start_frame=frame, end_frame=frame, object_ids=key, blob_trace=[current[key]]
            )
    return still_open, closed


def dump_tree(tree: SegTree) -> str:
    """Indented debug dump: level, id, parent id, member count per line."""
    lines = [f"root frame={tree.frame_index} blobs={len(tree.blobs)}"]
    sv_count = {c.component_id: len(c.supervoxel_ids) for c in tree.components}
    for obj in sorted(tree.objects, key=lambda o: o.object_id):
        total = sum(sv_count.get(cid, 0) for cid in obj.component_ids)
        lines.append(f"  object {obj.object_id} - {total}")
        for cid in obj.component_ids:
            comp = tree.component_by_id(cid)
            lines.append(f"    component {cid} {obj.object_id} {len(comp.supervoxel_ids)}")
            for seg in tree.segments_of_component(cid):
                lines.append(f"      segment {seg.segment_id} {cid} {len(seg.supervoxel_ids)}")
    return "\n".join(lines) + "\n"
