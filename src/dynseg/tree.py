"""Object / component / segment tree over the per-frame blob partition.

Objects persist across frames; components are the connected per-blob pieces
of each object and absorb splits and merges; segments are a normalized-cut
over-segmentation of each component and carry the correspondence to the next
frame.  Pairwise similarities are accumulated by averaging the current value
with the previous accumulated value.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .assignment import Assignment, AssignmentProblem, Segments
from .cloud_io import InteractionRecord
from .graph import AdjacencyGraph, connected_sets
from .graphcut import OversegConfig, claim_costs, oversegment
from .supervoxel import _group_means, nearest, pairs_closer_than


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
class SegTree:
    """One frame's tree as aligned labels over the frame graph's nodes, which are its supervoxels 0..N-1.

    Objects on file include those with no supervoxels this frame.  Segment ids
    run 0..S-1 in segment order.  Component ids are never reused, and each
    component lies in one object and one blob.  Similarities are keyed by
    ascending id pairs: live objects, and components of one object.
    """

    frame_index: int
    object_of: np.ndarray  # (N,) object id per supervoxel
    component_of: np.ndarray  # (N,) component id per supervoxel
    segment_of: np.ndarray  # (N,) segment id per supervoxel
    blob_of: np.ndarray  # (N,) blob index per supervoxel
    births: dict[int, int]  # object id on file -> birth frame
    segment_centroids: np.ndarray  # (S, 3) point-weighted centroid per segment
    segment_colors: np.ndarray  # (S, 3) point-weighted mean Lab colour per segment
    object_similarity: dict[tuple[int, int], float] = field(default_factory=dict)
    component_similarity: dict[tuple[int, int], float] = field(default_factory=dict)

    def component_table(self) -> dict[int, tuple[int, int]]:
        """Component id -> (object id, blob index), by ascending component id."""
        cids, first = np.unique(self.component_of, return_index=True)
        return dict(zip(cids.tolist(), zip(self.object_of[first].tolist(), self.blob_of[first].tolist())))

    def live_objects(self) -> list[int]:
        """Ids of the objects with supervoxels this frame, ascending."""
        return sorted(set(self.object_of.tolist()))

    def missing_objects(self) -> list[int]:
        """Ids of the objects on file with no supervoxels this frame, ascending."""
        return sorted(self.births.keys() - self.live_objects())

    def forget(self, object_ids) -> None:
        """Take objects with no supervoxels off file."""
        for oid in object_ids:
            del self.births[oid]

    def segments(self) -> Segments:
        """Segment centroids, colours and parents, in segment order."""
        first = np.unique(self.segment_of, return_index=True)[1]
        return Segments(self.segment_centroids, self.segment_colors, self.component_of[first], self.object_of[first])


class IdAllocator:
    """Monotone id sources; object and component ids are never reused."""

    def __init__(self) -> None:
        self._objects = itertools.count()
        self._components = itertools.count()

    def new_object_id(self) -> int:
        return next(self._objects)

    def new_component_id(self) -> int:
        return next(self._components)


def _grouped(keys: np.ndarray, values: np.ndarray) -> dict[int, list[int]]:
    """Each distinct key, ascending -> its distinct values, ascending, over two aligned label arrays."""
    out: dict[int, list[int]] = {}
    for key, value in sorted(set(zip(keys.tolist(), values.tolist()))):
        out.setdefault(key, []).append(value)
    return out


def compute_similarity(a, b, graph: AdjacencyGraph, params: TreeParams) -> float:
    """sim = exp(-gap / sigma_d) * exp(-dE_lab / sigma_c) over two sorted node position arrays.

    The gap is the smallest centroid distance between the sets; dE_lab
    compares their point-weighted mean colours.
    """
    if not (len(a) and len(b)):
        raise ValueError("similarity of an empty supervoxel set is undefined")
    _, color = _means(graph, np.concatenate([a, b]), np.repeat([0, 1], [len(a), len(b)]))
    gap = float(nearest(graph.centroids[a], graph.centroids[b])[0].min())
    de = float(np.linalg.norm(color[0] - color[1]))
    return math.exp(-gap / params.sigma_distance) * math.exp(-de / params.sigma_color)


def _segment(graph: AdjacencyGraph, parts, segment_of: np.ndarray, overseg: OversegConfig):
    """Over-segment each connected part of the frame graph in turn into the next free segment ids.

    Returns all segment means.
    """
    next_id = segment_of.max(initial=-1) + 1
    for part in parts:
        for seg in oversegment(graph.subgraph(part, connected=True), overseg):
            segment_of[seg] = next_id
            next_id += 1
    return _means(graph, slice(None), segment_of)


def _means(graph: AdjacencyGraph, at, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point-weighted centroid and mean Lab colour per label 0..n-1 of the nodes at positions ``at``.

    Each label sums its members in node order, so the means equal a loop over sorted ids bit for bit.
    """
    rows = np.hstack([graph.centroids[at], graph.colors_lab[at]])
    means = _group_means(rows, labels, labels.max(initial=-1) + 1, graph.point_counts[at])
    return means[:, :3], means[:, 3:]


def init_tree(
    graph: AdjacencyGraph,
    frame_index: int,
    alloc: IdAllocator,
    overseg: OversegConfig,
    params: TreeParams,
    prev: SegTree | None = None,
) -> SegTree:
    """A frame with nothing to inherit: every blob founds an object with one component.

    The objects on file in ``prev`` stay on file, with no components.  New
    objects closer than candidate_gap start accumulating their similarity
    from zero.
    """
    unseeded = np.full(len(graph.nodes), -1, dtype=np.int64)
    tree = update_tree(prev, graph, Segments.empty(), unseeded, unseeded[:0], frame_index, alloc, overseg)
    tree.object_similarity = dict.fromkeys(_candidates(tree, graph, params, {}), 0.0)
    return tree


def derive_blob_seeds(
    problem: AssignmentProblem, assignment: Assignment, seed_resolution: float
) -> tuple[np.ndarray, np.ndarray]:
    """Choose seed supervoxels inside each blob for the objects assigned into it.

    Returns (seed_of, seat): seed_of holds the object seeded at each node
    position of the problem's graph, -1 for none; seat holds the node position
    each segment sits at, -1 for an unassigned segment.  Every object assigned
    into a blob keeps at least one seed; remaining segments claim their
    nearest free supervoxel, or share the nearest seeded one when none is free.
    Nearness is graphcut.claim_costs, the cost the cut unary also charges.
    """
    graph = problem.graph
    seed_of = np.full(len(graph.nodes), -1, dtype=np.int64)
    seat = np.full(problem.num_segments, -1, dtype=np.int64)
    for k, at in enumerate(problem.blobs):
        assigned = np.flatnonzero(assignment.labels == k)
        if not len(assigned):
            continue
        segs = problem.segments.take(assigned)
        cost = claim_costs(graph.centroids[at], graph.colors_lab[at], segs.centroids, segs.colors_lab, seed_resolution)
        # segment -> member positions, cheapest first
        ranked = dict(zip(assigned.tolist(), at[np.argsort(cost, axis=0, kind="stable")].T))
        claims = sorted(zip(cost.min(axis=0).tolist(), segs.object_ids.tolist(), assigned.tolist()))
        # round 1 seeds one site per object, cheapest first, while free sites
        # last; round 2 seeds each remaining segment's nearest free site, or
        # seats it at its nearest site when none is free
        seeded_objects: set[int] = set()
        for first_round in (True, False):
            for _, oid, s in claims:
                if seat[s] >= 0 or (first_round and oid in seeded_objects):
                    continue
                free = ranked[s][seed_of[ranked[s]] < 0]
                if len(free):
                    seed_of[free[0]] = oid
                    seat[s] = free[0]
                    seeded_objects.add(oid)
                elif not first_round:
                    seat[s] = ranked[s][0]
    return seed_of, seat


def update_tree(
    prev: SegTree | None,
    graph: AdjacencyGraph,
    segments: Segments,
    labels: np.ndarray,
    seat: np.ndarray,
    frame_index: int,
    alloc: IdAllocator,
    overseg: OversegConfig,
) -> SegTree:
    """Carry object identity into the current frame's blob partition, the graph's connected pieces.

    ``labels`` holds an object id or -1 per node position of ``graph``:
    derive_blob_seeds' seeds, with each contested blob's restricted_cut
    labels written over them.  ``seat`` is derive_blob_seeds' node position
    per row of ``segments``, the assignment's segments.  A blob with no id
    founds an object, a blob with one id takes it everywhere, and a fully
    labelled blob keeps its labels.  A component of ``prev`` passes its id
    to at most one piece of its object; a ghost's component is not in
    ``prev`` and passes on none.  The objects on file in ``prev`` stay on
    file.
    """
    n = graph.num_nodes
    if n and (graph.nodes[0] != 0 or graph.nodes[-1] != n - 1):  # the constructor checked the ids sorted and distinct
        raise ValueError("the tree needs the frame graph, whose node ids are its positions 0..N-1")
    object_of = np.array(labels, dtype=np.int64)
    blob_of = np.empty(n, dtype=np.int64)
    births = dict(prev.births) if prev is not None else {}
    shared = False  # some blob holds two or more objects
    for k, at in enumerate(graph.pieces):
        blob_of[at] = k
        ids = np.unique(object_of[at]).tolist()
        if ids[0] >= 0:  # fully labelled
            shared |= len(ids) > 1
            continue
        if len(ids) == 1:  # unseeded
            ids.append(alloc.new_object_id())
            births[ids[1]] = frame_index
        if len(ids) > 2:
            raise ValueError(f"blob {k} seeds objects {ids[1:]} but has no cut label for every supervoxel")
        object_of[at] = ids[1]

    # components: connected pieces of each (object, blob) region, as node
    # positions ordered by (blob, object, smallest member); no edge joins two
    # blobs, so where each blob holds one object its pieces are the blobs
    pieces = graph.pieces
    if shared:
        pos = graph.edges
        pieces = sorted(
            connected_sets(np.arange(n), pos[object_of[pos[:, 0]] == object_of[pos[:, 1]]]),
            key=lambda at: (blob_of[at[0]], object_of[at[0]], at[0]),
        )
    piece_of = np.empty(n, dtype=np.int64)
    for k, at in enumerate(pieces):
        piece_of[at] = k

    # component id inheritance: each seated segment of a component of prev
    # (a ghost's component is not one) votes for the piece its seat is in;
    # by ascending id, each component passes its id to the free piece with
    # the most votes, ties to the smaller first member
    seated = np.flatnonzero(seat >= 0)
    seated = seated[object_of[seat[seated]] == segments.object_ids[seated]]  # else its seat went to another object
    seated = seated[np.isin(segments.component_ids[seated], prev.component_of if prev is not None else [])]
    votes = Counter(zip(segments.component_ids[seated].tolist(), piece_of[seat[seated]].tolist()))
    piece_cid: dict[int, int] = {}
    for cid, _, _, k in sorted((cid, -count, pieces[k][0], k) for (cid, k), count in votes.items()):
        if k not in piece_cid and cid not in piece_cid.values():
            piece_cid[k] = cid
    cids = [piece_cid[k] if k in piece_cid else alloc.new_component_id() for k in range(len(pieces))]
    component_of = np.asarray(cids, dtype=np.int64)[piece_of]
    segment_of = np.full(n, -1, dtype=np.int64)
    features = _segment(graph, pieces, segment_of, overseg)
    return SegTree(frame_index, object_of, component_of, segment_of, blob_of, births, *features)


def accumulate_similarities(
    tree: SegTree, prev: SegTree | None, graph: AdjacencyGraph, params: TreeParams
) -> SegTree:
    """Average current similarities into the previous accumulated values.

    Pairs without an established correspondence initialize at their current
    similarity.  Objects with no supervoxels this frame drop out of the
    tables until they reappear.
    """
    members = {oid: np.flatnonzero(tree.object_of == oid) for oid in tree.live_objects()}
    prev_obj = prev.object_similarity if prev is not None else {}
    tree.object_similarity = _accumulate(_candidates(tree, graph, params, prev_obj), members, prev_obj, graph, params)

    # an inherited component id stays with its object, so a tracked pair keeps its key
    by_object = _grouped(tree.object_of, tree.component_of).values()
    members = {cid: np.flatnonzero(tree.component_of == cid) for cids in by_object for cid in cids}
    pairs = [key for cids in by_object for key in itertools.combinations(cids, 2)]
    prev_comp = prev.component_similarity if prev is not None else {}
    tree.component_similarity = _accumulate(pairs, members, prev_comp, graph, params)
    return tree


def _candidates(tree: SegTree, graph: AdjacencyGraph, params: TreeParams, tracked) -> list[tuple[int, int]]:
    """Live object pairs that share a blob, are already tracked, or lie closer than candidate_gap.

    Two objects lie that close exactly when two of their supervoxel centroids do.
    """
    live = set(tree.live_objects())
    pairs = {key for key in tracked if key[0] in live and key[1] in live}
    for oids in _grouped(tree.blob_of, tree.object_of).values():
        pairs.update(itertools.combinations(oids, 2))
    if len(pairs) < len(live) * (len(live) - 1) // 2:  # else every live pair is in: tracked keys are ascending
        ends = np.sort(tree.object_of[pairs_closer_than(graph.centroids, params.candidate_gap)], axis=1)
        pairs.update(map(tuple, ends[ends[:, 0] != ends[:, 1]].tolist()))
    return sorted(pairs)


def _accumulate(pairs, members, previous, graph: AdjacencyGraph, params: TreeParams) -> dict:
    """Each pair's current similarity, averaged with its previous value where it has one."""
    out = {}
    for key in pairs:
        now = compute_similarity(members[key[0]], members[key[1]], graph, params)
        out[key] = (now + previous[key]) / 2.0 if key in previous else now
    return out


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
    merge_pairs = [k for k, v in tree.object_similarity.items() if v > params.merge_threshold]
    pairs = np.asarray(merge_pairs, dtype=np.int64).reshape(-1, 2)
    for group in connected_sets(pairs, pairs):
        winner, absorbed = int(group[0]), group[1:].tolist()
        audit["merges"].append((winner, absorbed))
        for oid in absorbed:
            del tree.births[oid]
        tree.object_of[np.isin(tree.object_of, absorbed)] = winner
        _fuse(tree, graph, winner, overseg)
        live = set(tree.component_of.tolist())
        entries = {k: v for k, v in tree.component_similarity.items() if k[0] in live and k[1] in live}
        # fresh pairs between the fused families start at the current similarity
        for key in itertools.combinations(np.unique(tree.component_of[tree.object_of == winner]).tolist(), 2):
            if key not in entries:
                a, b = (np.flatnonzero(tree.component_of == cid) for cid in key)
                entries[key] = compute_similarity(a, b, graph, params)
        tree.component_similarity = entries
        tree.object_similarity = {
            k: v for k, v in tree.object_similarity.items() if k[0] not in absorbed and k[1] not in absorbed
        }

    linked = [k for k, v in tree.component_similarity.items() if v > params.split_threshold]
    for oid, cids in _grouped(tree.object_of, tree.component_of).items():
        if len(cids) < 2:
            continue
        # the first cluster holds the oldest component and keeps the id
        for cluster in connected_sets(cids, linked)[1:]:
            new_oid = alloc.new_object_id()
            audit["splits"].append((oid, new_oid, cluster.tolist()))
            tree.births[new_oid] = tree.frame_index
            tree.object_of[np.isin(tree.component_of, cluster)] = new_oid
    if audit["splits"]:  # pairs now split between two objects stop accumulating
        table = tree.component_table()
        tree.component_similarity = {
            k: v for k, v in tree.component_similarity.items() if table[k[0]][0] == table[k[1]][0]
        }
    return tree, audit


def _fuse(tree: SegTree, graph: AdjacencyGraph, winner: int, overseg: OversegConfig) -> None:
    """Join the winner's components that now touch inside a blob.

    Each fused piece keeps the id of its largest component (ties to the
    smallest id), and every piece of such a blob is over-segmented again,
    after all other segments.
    """
    mine = tree.object_of == winner
    for cids in _grouped(tree.blob_of[mine], tree.component_of[mine]).values():
        if len(cids) < 2:
            continue
        region = np.isin(tree.component_of, cids)
        pieces = graph.subgraph(np.flatnonzero(region)).pieces
        if len(pieces) == len(cids):
            continue  # nothing fused
        for at in pieces:
            inside, count = np.unique(tree.component_of[at], return_counts=True)
            tree.component_of[at] = inside[np.argmax(count)]
        _, tree.segment_of[~region] = np.unique(tree.segment_of[~region], return_inverse=True)
        tree.segment_of[region] = -1
        tree.segment_centroids, tree.segment_colors = _segment(graph, pieces, tree.segment_of, overseg)


def detect_interactions(
    tree: SegTree, open_events: dict[tuple[int, ...], InteractionRecord]
) -> tuple[dict[tuple[int, ...], InteractionRecord], list[InteractionRecord]]:
    """A blob hosting components of two or more objects is an interaction.

    Events keyed by the ascending participating object ids extend while the
    condition holds and close at the last frame it held; a one-frame
    separation therefore yields two distinct events.  An event's blob hint is
    the first blob that hosted it in its first frame.
    """
    frame = tree.frame_index
    current: dict[tuple[int, ...], int] = {}  # object ids -> first blob hosting them
    for blob, oids in _grouped(tree.blob_of, tree.object_of).items():
        if len(oids) >= 2:
            current.setdefault(tuple(oids), blob)
    closed: list[InteractionRecord] = []
    still_open: dict[tuple[int, ...], InteractionRecord] = {}
    for key, ev in open_events.items():
        if key in current:
            still_open[key] = replace(ev, end_frame=frame)
        else:
            closed.append(ev)
    for key in sorted(current):
        if key not in still_open:
            still_open[key] = InteractionRecord(
                start_frame=frame, end_frame=frame, blob_hint=current[key], object_ids=key
            )
    return still_open, closed
