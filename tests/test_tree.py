"""Object tree bookkeeping: identity carry-over, similarities, splits, merges."""

import math

import numpy as np
import pytest

from dynseg.assignment import Assignment, AssignmentProblem, BlobFeature, EnergyParams, SegmentFeature
from dynseg.graph import connected_components
from dynseg.graphcut import OversegConfig
from dynseg.tree import (
    ComponentNode,
    IdAllocator,
    InteractionEvent,
    ObjectNode,
    SegTree,
    TreeParams,
    accumulate_similarities,
    compute_similarity,
    confirm_splits_merges,
    derive_blob_seeds,
    detect_interactions,
    dump_tree,
    init_tree,
    update_tree,
)

from helpers import graph_from_edges

PARAMS = TreeParams().resolve(0.08)
OVERSEG = OversegConfig()
EPARAMS = EnergyParams().resolve(0.08)


def _two_singletons(x0=0.0, x1=1.0):
    g = graph_from_edges({}, positions={0: (x0, 0.0, 0.0), 1: (x1, 0.0, 0.0)})
    return g, connected_components(g)


def _seg_feature(centroid, comp, obj, color=(50.0, 0.0, 0.0)):
    return SegmentFeature(
        centroid=tuple(float(v) for v in centroid),
        mean_color_lab=tuple(float(v) for v in color),
        parent_component_id=comp,
        parent_object_id=obj,
    )


def _blob_features(graph, blobs):
    out = []
    for b in sorted(blobs, key=lambda b: b.blob_id):
        members = b.members_sorted
        out.append(
            BlobFeature(
                sv_centroids=np.asarray([graph.svs[m].centroid for m in members]),
                sv_colors_lab=np.asarray([graph.svs[m].mean_color_lab for m in members]),
            )
        )
    return out


class TestParams:
    def test_resolve_defaults(self):
        p = TreeParams().resolve(0.08)
        assert p.sigma_distance == pytest.approx(0.16)
        assert p.candidate_gap == pytest.approx(0.24)

    def test_resolve_keeps_explicit(self):
        p = TreeParams(sigma_distance=0.5, candidate_gap=0.9).resolve(0.08)
        assert p.sigma_distance == 0.5
        assert p.candidate_gap == 0.9


class TestIdAllocator:
    def test_ids_are_monotone_and_separate(self):
        alloc = IdAllocator()
        assert [alloc.new_object_id() for _ in range(3)] == [0, 1, 2]
        assert [alloc.new_component_id() for _ in range(2)] == [0, 1]
        assert alloc.new_object_id() == 3


class TestSimilarity:
    def test_distance_decay(self):
        # gap equal to sigma_distance, identical colors
        g, _ = _two_singletons(0.0, 0.16)
        s = compute_similarity({0}, {1}, g, PARAMS)
        assert s == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_color_decay(self):
        g = graph_from_edges(
            {},
            positions={0: (0.0, 0.0, 0.0), 1: (0.0, 0.0, 0.0)},
            colors={0: (50.0, 0.0, 0.0), 1: (80.0, 0.0, 0.0)},
        )
        s = compute_similarity({0}, {1}, g, PARAMS)
        assert s == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_identical_sets_give_one(self):
        g, _ = _two_singletons()
        assert compute_similarity({0}, {0}, g, PARAMS) == pytest.approx(1.0)

    def test_empty_set_rejected(self):
        g, _ = _two_singletons()
        with pytest.raises(ValueError):
            compute_similarity(set(), {0}, g, PARAMS)

    def test_unresolved_params_rejected(self):
        g, _ = _two_singletons()
        with pytest.raises(ValueError):
            compute_similarity({0}, {1}, g, TreeParams())


class TestInitTree:
    def test_one_object_per_blob(self):
        g, blobs = _two_singletons()
        alloc = IdAllocator()
        tree = init_tree(blobs, g, 0, alloc, OVERSEG, PARAMS)
        assert [o.object_id for o in tree.objects] == [0, 1]
        assert all(o.birth_frame == 0 for o in tree.objects)
        assert [c.blob_id for c in tree.components] == [0, 1]
        assert tree.sv_to_object() == {0: 0, 1: 1}
        # far apart: no candidate pair
        assert tree.object_similarity == {}

    def test_candidate_pair_starts_at_zero(self):
        g, blobs = _two_singletons(0.0, 0.1)  # gap under 3 * seed_resolution
        tree = init_tree(blobs, g, 0, IdAllocator(), OVERSEG, PARAMS)
        assert tree.object_similarity == {(0, 1): 0.0}

    def test_segments_cover_blobs(self):
        g = graph_from_edges(
            {(0, 1): 1.0, (1, 2): 1.0},
            positions={k: (0.02 * k, 0.0, 0.0) for k in range(3)},
        )
        tree = init_tree(connected_components(g), g, 0, IdAllocator(), OVERSEG, PARAMS)
        covered = sorted(sv for s in tree.segments for sv in s.supervoxel_ids)
        assert covered == [0, 1, 2]

    def test_unresolved_params_rejected(self):
        g, blobs = _two_singletons()
        with pytest.raises(ValueError):
            init_tree(blobs, g, 0, IdAllocator(), OVERSEG, TreeParams())


class TestDeriveBlobSeeds:
    def test_each_object_gets_a_seed(self):
        g = graph_from_edges(
            {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0},
            positions={k: (0.08 * k, 0.0, 0.0) for k in range(4)},
        )
        blobs = connected_components(g)
        problem = AssignmentProblem(
            segments=[
                _seg_feature((0.0, 0.0, 0.0), comp=0, obj=0),
                _seg_feature((0.3, 0.0, 0.0), comp=1, obj=1),
            ],
            blobs=_blob_features(g, blobs),
            params=EPARAMS,
        )
        assignment = Assignment(labels=np.asarray([0, 0]), energy=0.0)
        seeds, seg_site = derive_blob_seeds(problem, assignment, blobs, g, 0.08)
        assert seeds[0] == {0: 0, 3: 1}
        assert seg_site == {0: (0, 0), 1: (0, 3)}

    def test_blob_smaller_than_object_count(self):
        g = graph_from_edges({}, positions={0: (0.0, 0.0, 0.0)})
        blobs = connected_components(g)
        problem = AssignmentProblem(
            segments=[
                _seg_feature((0.0, 0.0, 0.0), comp=0, obj=0),
                _seg_feature((0.01, 0.0, 0.0), comp=1, obj=1),
            ],
            blobs=_blob_features(g, blobs),
            params=EPARAMS,
        )
        assignment = Assignment(labels=np.asarray([0, 0]), energy=0.0)
        seeds, seg_site = derive_blob_seeds(problem, assignment, blobs, g, 0.08)
        assert seeds[0] == {0: 0}  # only the closer object wins the lone site
        assert set(seg_site) == {0, 1}


def _tracked_pair():
    """Frame 0 with two singleton objects, plus the frame 1 inputs."""
    g0, blobs0 = _two_singletons(0.0, 1.0)
    alloc = IdAllocator()
    prev = init_tree(blobs0, g0, 0, alloc, OVERSEG, PARAMS)
    g1, blobs1 = _two_singletons(0.01, 1.01)
    problem = AssignmentProblem(
        segments=[
            _seg_feature((0.0, 0.0, 0.0), comp=0, obj=0),
            _seg_feature((1.0, 0.0, 0.0), comp=1, obj=1),
        ],
        blobs=_blob_features(g1, blobs1),
        params=EPARAMS,
    )
    return prev, g1, blobs1, problem, alloc


def _update(prev, blobs, graph, problem, assignment, cuts, alloc):
    """update_tree at frame 1, seeded the way process_frame seeds it."""
    seeds, seg_site = derive_blob_seeds(problem, assignment, blobs, graph, 0.08)
    return update_tree(prev, blobs, graph, problem, seeds, seg_site, cuts, 1, alloc, OVERSEG)


class TestUpdateTree:
    def test_identity_carries_over(self):
        prev, g1, blobs1, problem, alloc = _tracked_pair()
        assignment = Assignment(labels=np.asarray([0, 1]), energy=0.0)
        tree = _update(prev, blobs1, g1, problem, assignment, {}, alloc)
        assert tree.sv_to_object() == {0: 0, 1: 1}
        assert [c.component_id for c in tree.components] == [0, 1]
        assert all(o.birth_frame == 0 for o in tree.objects)

    def test_identity_follows_assignment_not_position(self):
        prev, g1, blobs1, problem, alloc = _tracked_pair()
        assignment = Assignment(labels=np.asarray([1, 0]), energy=0.0)  # crossed
        tree = _update(prev, blobs1, g1, problem, assignment, {}, alloc)
        assert tree.sv_to_object() == {0: 1, 1: 0}

    def test_uncovered_blob_founds_new_object(self):
        g0 = graph_from_edges({}, positions={0: (0.0, 0.0, 0.0)})
        alloc = IdAllocator()
        prev = init_tree(connected_components(g0), g0, 0, alloc, OVERSEG, PARAMS)
        g1, blobs1 = _two_singletons(0.0, 2.0)
        problem = AssignmentProblem(
            segments=[_seg_feature((0.0, 0.0, 0.0), comp=0, obj=0)],
            blobs=_blob_features(g1, blobs1),
            params=EPARAMS,
        )
        assignment = Assignment(labels=np.asarray([0]), energy=0.0)
        tree = _update(prev, blobs1, g1, problem, assignment, {}, alloc)
        assert tree.sv_to_object() == {0: 0, 1: 1}
        assert tree.object_by_id(1).birth_frame == 1

    def test_vanished_object_keeps_empty_row(self):
        g0, blobs0 = _two_singletons()
        alloc = IdAllocator()
        prev = init_tree(blobs0, g0, 0, alloc, OVERSEG, PARAMS)
        g1 = graph_from_edges({}, positions={0: (0.0, 0.0, 0.0)})
        blobs1 = connected_components(g1)
        problem = AssignmentProblem(
            segments=[
                _seg_feature((0.0, 0.0, 0.0), comp=0, obj=0),
                _seg_feature((1.0, 0.0, 0.0), comp=1, obj=1),
            ],
            blobs=_blob_features(g1, blobs1),
            params=EPARAMS,
        )
        assignment = Assignment(labels=np.asarray([0, -1]), energy=0.0)
        tree = _update(prev, blobs1, g1, problem, assignment, {}, alloc)
        assert [o.object_id for o in tree.objects] == [0, 1]
        assert tree.object_by_id(1).component_ids == []
        assert tree.object_supervoxels(1) == frozenset()

    def test_multi_label_blob_uses_cut(self):
        g0, blobs0 = _two_singletons(0.0, 0.3)
        alloc = IdAllocator()
        prev = init_tree(blobs0, g0, 0, alloc, OVERSEG, PARAMS)
        # the two objects meet in one four-node chain
        g1 = graph_from_edges(
            {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0},
            positions={k: (0.08 * k, 0.0, 0.0) for k in range(4)},
        )
        blobs1 = connected_components(g1)
        problem = AssignmentProblem(
            segments=[
                _seg_feature((0.0, 0.0, 0.0), comp=0, obj=0),
                _seg_feature((0.3, 0.0, 0.0), comp=1, obj=1),
            ],
            blobs=_blob_features(g1, blobs1),
            params=EPARAMS,
        )
        assignment = Assignment(labels=np.asarray([0, 0]), energy=0.0)
        cut = {0: 0, 1: 0, 2: 1, 3: 1}
        tree = _update(prev, blobs1, g1, problem, assignment, {0: cut}, alloc)
        assert tree.sv_to_object() == cut
        by_obj = {c.object_id: c for c in tree.components}
        assert by_obj[0].component_id == 0  # inherited through the seed votes
        assert by_obj[1].component_id == 1
        assert by_obj[0].blob_id == by_obj[1].blob_id == 0

    def test_multi_label_blob_without_cut_rejected(self):
        g0, blobs0 = _two_singletons(0.0, 0.3)
        alloc = IdAllocator()
        prev = init_tree(blobs0, g0, 0, alloc, OVERSEG, PARAMS)
        g1 = graph_from_edges(
            {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0},
            positions={k: (0.08 * k, 0.0, 0.0) for k in range(4)},
        )
        blobs1 = connected_components(g1)
        problem = AssignmentProblem(
            segments=[
                _seg_feature((0.0, 0.0, 0.0), comp=0, obj=0),
                _seg_feature((0.3, 0.0, 0.0), comp=1, obj=1),
            ],
            blobs=_blob_features(g1, blobs1),
            params=EPARAMS,
        )
        assignment = Assignment(labels=np.asarray([0, 0]), energy=0.0)
        with pytest.raises(ValueError):
            _update(prev, blobs1, g1, problem, assignment, {}, alloc)

    def test_disconnected_region_splits_into_components(self):
        # one object assigned into a blob pattern that leaves its svs split
        g0 = graph_from_edges({(0, 1): 1.0}, positions={0: (0.0, 0.0, 0.0), 1: (0.02, 0.0, 0.0)})
        alloc = IdAllocator()
        prev = init_tree(connected_components(g0), g0, 0, alloc, OVERSEG, PARAMS)
        g1, blobs1 = _two_singletons(0.0, 0.2)
        problem = AssignmentProblem(
            segments=[_seg_feature((0.01, 0.0, 0.0), comp=0, obj=0)],
            blobs=_blob_features(g1, blobs1),
            params=EPARAMS,
        )
        # both blobs assigned to object 0's lone segment is impossible with one
        # label, so give the far blob no cover and check the near one: the far
        # blob founds a new object while object 0 keeps one component
        assignment = Assignment(labels=np.asarray([0]), energy=0.0)
        tree = _update(prev, blobs1, g1, problem, assignment, {}, alloc)
        assert len(tree.components_of_object(0)) == 1
        assert len(tree.objects) == 2


class TestAccumulation:
    def test_closed_form_halving(self):
        g, blobs = _two_singletons(0.0, 0.1)
        alloc = IdAllocator()
        prev = init_tree(blobs, g, 0, alloc, OVERSEG, PARAMS)
        s = compute_similarity({0}, {1}, g, PARAMS)
        for k in range(1, 21):
            cur = SegTree(
                frame_index=k,
                blobs=list(prev.blobs),
                objects=[ObjectNode(o.object_id, list(o.component_ids), o.birth_frame) for o in prev.objects],
                components=[
                    ComponentNode(c.component_id, c.object_id, c.blob_id, c.supervoxel_ids)
                    for c in prev.components
                ],
                segments=[],
            )
            accumulate_similarities(cur, prev, g, PARAMS)
            assert abs(cur.object_similarity[(0, 1)] - s * (1.0 - 2.0 ** (-k))) < 1e-12
            prev = cur

    def test_new_pair_initializes_at_current_value(self):
        g0, blobs0 = _two_singletons(0.0, 1.0)  # too far for a candidate pair
        alloc = IdAllocator()
        prev = init_tree(blobs0, g0, 0, alloc, OVERSEG, PARAMS)
        assert prev.object_similarity == {}
        g1, blobs1 = _two_singletons(0.0, 0.1)  # now within reach
        cur = SegTree(
            frame_index=1,
            blobs=list(blobs1),
            objects=[ObjectNode(o.object_id, list(o.component_ids), o.birth_frame) for o in prev.objects],
            components=[
                ComponentNode(c.component_id, c.object_id, c.blob_id, c.supervoxel_ids)
                for c in prev.components
            ],
            segments=[],
        )
        accumulate_similarities(cur, prev, g1, PARAMS)
        s_now = compute_similarity({0}, {1}, g1, PARAMS)
        assert cur.object_similarity[(0, 1)] == pytest.approx(s_now, rel=1e-12)

    def test_vanished_object_drops_from_matrix(self):
        g0, blobs0 = _two_singletons(0.0, 0.1)
        alloc = IdAllocator()
        prev = init_tree(blobs0, g0, 0, alloc, OVERSEG, PARAMS)
        g1 = graph_from_edges({}, positions={0: (0.0, 0.0, 0.0)})
        cur = SegTree(
            frame_index=1,
            blobs=connected_components(g1),
            objects=[
                ObjectNode(0, [0], 0),
                ObjectNode(1, [], 0),  # lost every supervoxel
            ],
            components=[ComponentNode(0, 0, 0, frozenset({0}))],
            segments=[],
        )
        accumulate_similarities(cur, prev, g1, PARAMS)
        assert cur.object_similarity == {}

    def test_component_matrix_within_object(self):
        g = graph_from_edges(
            {(0, 1): 1.0},
            positions={0: (0.0, 0.0, 0.0), 1: (0.02, 0.0, 0.0), 2: (0.3, 0.0, 0.0)},
        )
        cur = SegTree(
            frame_index=1,
            blobs=connected_components(g),
            objects=[ObjectNode(0, [0, 1], 0)],
            components=[
                ComponentNode(0, 0, 0, frozenset({0, 1})),
                ComponentNode(1, 0, 1, frozenset({2})),
            ],
            segments=[],
        )
        accumulate_similarities(cur, None, g, PARAMS)
        expected = compute_similarity({0, 1}, {2}, g, PARAMS)
        assert cur.component_similarity[0][(0, 1)] == pytest.approx(expected, rel=1e-12)


def _merge_candidate(sim):
    g = graph_from_edges(
        {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0},
        positions={k: (0.02 * k, 0.0, 0.0) for k in range(4)},
    )
    alloc = IdAllocator()
    alloc.new_object_id(), alloc.new_object_id()
    alloc.new_component_id(), alloc.new_component_id()
    tree = SegTree(
        frame_index=5,
        blobs=connected_components(g),
        objects=[ObjectNode(0, [0], 0), ObjectNode(1, [1], 2)],
        components=[
            ComponentNode(0, 0, 0, frozenset({0, 1})),
            ComponentNode(1, 1, 0, frozenset({2, 3})),
        ],
        segments=[],
        object_similarity={(0, 1): sim},
        component_similarity={0: {}, 1: {}},
    )
    return tree, g, alloc


class TestConfirmMergesSplits:
    def test_merge_fuses_into_older_id(self):
        tree, g, alloc = _merge_candidate(0.8)
        tree, audit = confirm_splits_merges(tree, g, PARAMS, alloc, OVERSEG)
        assert audit["merges"] == [(0, [1])]
        assert audit["splits"] == []
        assert [o.object_id for o in tree.objects] == [0]
        assert len(tree.components) == 1
        assert tree.components[0].supervoxel_ids == frozenset({0, 1, 2, 3})
        assert tree.object_similarity == {}
        covered = sorted(sv for s in tree.segments for sv in s.supervoxel_ids)
        assert covered == [0, 1, 2, 3]

    def test_merge_threshold_is_strict(self):
        tree, g, alloc = _merge_candidate(0.7)
        tree, audit = confirm_splits_merges(tree, g, PARAMS, alloc, OVERSEG)
        assert audit["merges"] == []
        assert [o.object_id for o in tree.objects] == [0, 1]

    def test_merge_across_blobs_keeps_components(self):
        g = graph_from_edges(
            {(0, 1): 1.0, (2, 3): 1.0},
            positions={0: (0.0, 0.0, 0.0), 1: (0.02, 0.0, 0.0), 2: (0.2, 0.0, 0.0), 3: (0.22, 0.0, 0.0)},
        )
        alloc = IdAllocator()
        alloc.new_object_id(), alloc.new_object_id()
        alloc.new_component_id(), alloc.new_component_id()
        tree = SegTree(
            frame_index=3,
            blobs=connected_components(g),
            objects=[ObjectNode(0, [0], 0), ObjectNode(1, [1], 0)],
            components=[
                ComponentNode(0, 0, 0, frozenset({0, 1})),
                ComponentNode(1, 1, 1, frozenset({2, 3})),
            ],
            segments=[],
            object_similarity={(0, 1): 0.9},
            component_similarity={0: {}, 1: {}},
        )
        tree, audit = confirm_splits_merges(tree, g, PARAMS, alloc, OVERSEG)
        assert audit["merges"] == [(0, [1])]
        assert [o.object_id for o in tree.objects] == [0]
        assert sorted(c.component_id for c in tree.components) == [0, 1]
        # the fused families get a fresh similarity entry to accumulate from
        assert (0, 1) in tree.component_similarity[0]

    def test_split_moves_cluster_to_new_object(self):
        g = graph_from_edges(
            {(0, 1): 1.0, (2, 3): 1.0},
            positions={0: (0.0, 0.0, 0.0), 1: (0.02, 0.0, 0.0), 2: (1.0, 0.0, 0.0), 3: (1.02, 0.0, 0.0)},
        )
        alloc = IdAllocator()
        alloc.new_object_id()
        alloc.new_component_id(), alloc.new_component_id()
        tree = SegTree(
            frame_index=7,
            blobs=connected_components(g),
            objects=[ObjectNode(0, [0, 1], 0)],
            components=[
                ComponentNode(0, 0, 0, frozenset({0, 1})),
                ComponentNode(1, 0, 1, frozenset({2, 3})),
            ],
            segments=[],
            component_similarity={0: {(0, 1): 0.1}},
        )
        tree, audit = confirm_splits_merges(tree, g, PARAMS, alloc, OVERSEG)
        assert audit["splits"] == [(0, 1, [1])]
        assert [o.object_id for o in tree.objects] == [0, 1]
        assert tree.object_by_id(0).component_ids == [0]
        assert tree.object_by_id(1).component_ids == [1]
        assert tree.object_by_id(1).birth_frame == 7
        assert tree.component_similarity[1] == {}

    def test_no_split_above_threshold(self):
        g = graph_from_edges(
            {(0, 1): 1.0, (2, 3): 1.0},
            positions={0: (0.0, 0.0, 0.0), 1: (0.02, 0.0, 0.0), 2: (1.0, 0.0, 0.0), 3: (1.02, 0.0, 0.0)},
        )
        alloc = IdAllocator()
        alloc.new_object_id()
        alloc.new_component_id(), alloc.new_component_id()
        tree = SegTree(
            frame_index=7,
            blobs=connected_components(g),
            objects=[ObjectNode(0, [0, 1], 0)],
            components=[
                ComponentNode(0, 0, 0, frozenset({0, 1})),
                ComponentNode(1, 0, 1, frozenset({2, 3})),
            ],
            segments=[],
            component_similarity={0: {(0, 1): 0.5}},
        )
        tree, audit = confirm_splits_merges(tree, g, PARAMS, alloc, OVERSEG)
        assert audit["splits"] == []
        assert [o.object_id for o in tree.objects] == [0]

    def test_confirm_is_idempotent(self):
        tree, g, alloc = _merge_candidate(0.8)
        tree, first = confirm_splits_merges(tree, g, PARAMS, alloc, OVERSEG)
        assert first["merges"]
        snapshot = (
            [(o.object_id, tuple(o.component_ids)) for o in tree.objects],
            [(c.component_id, c.object_id, c.supervoxel_ids) for c in tree.components],
        )
        tree, second = confirm_splits_merges(tree, g, PARAMS, alloc, OVERSEG)
        assert second == {"merges": [], "splits": []}
        assert snapshot == (
            [(o.object_id, tuple(o.component_ids)) for o in tree.objects],
            [(c.component_id, c.object_id, c.supervoxel_ids) for c in tree.components],
        )


def _interaction_tree(frame, pairs):
    """pairs: list of (object_id, blob_id)."""
    comps = [
        ComponentNode(component_id=k, object_id=oid, blob_id=bid, supervoxel_ids=frozenset({k}))
        for k, (oid, bid) in enumerate(pairs)
    ]
    oids = sorted({oid for oid, _ in pairs})
    objects = [ObjectNode(oid, [c.component_id for c in comps if c.object_id == oid], 0) for oid in oids]
    return SegTree(frame_index=frame, blobs=[], objects=objects, components=comps, segments=[])


class TestInteractions:
    def test_shared_blob_opens_event(self):
        open_events, closed = detect_interactions(_interaction_tree(4, [(0, 0), (1, 0)]), {})
        assert closed == []
        ev = open_events[frozenset({0, 1})]
        assert (ev.start_frame, ev.end_frame) == (4, 4)
        assert ev.blob_trace == [0]

    def test_event_extends_then_closes(self):
        open_events, _ = detect_interactions(_interaction_tree(4, [(0, 0), (1, 0)]), {})
        open_events, closed = detect_interactions(_interaction_tree(5, [(0, 0), (1, 0)]), open_events)
        assert closed == []
        assert open_events[frozenset({0, 1})].end_frame == 5
        open_events, closed = detect_interactions(_interaction_tree(6, [(0, 0), (1, 1)]), open_events)
        assert open_events == {}
        assert len(closed) == 1
        assert (closed[0].start_frame, closed[0].end_frame) == (4, 5)

    def test_one_frame_separation_gives_two_events(self):
        open_events, _ = detect_interactions(_interaction_tree(0, [(0, 0), (1, 0)]), {})
        open_events, closed1 = detect_interactions(_interaction_tree(1, [(0, 0), (1, 1)]), open_events)
        open_events, closed2 = detect_interactions(_interaction_tree(2, [(0, 0), (1, 0)]), open_events)
        assert len(closed1) == 1
        assert (closed1[0].start_frame, closed1[0].end_frame) == (0, 0)
        assert closed2 == []
        assert open_events[frozenset({0, 1})].start_frame == 2

    def test_three_objects_one_event(self):
        open_events, _ = detect_interactions(_interaction_tree(0, [(0, 0), (1, 0), (2, 0)]), {})
        assert set(open_events) == {frozenset({0, 1, 2})}

    def test_to_record(self):
        ev = InteractionEvent(start_frame=2, end_frame=9, object_ids=frozenset({5, 2}), blob_trace=[3, 3])
        rec = ev.to_record()
        assert (rec.start_frame, rec.end_frame) == (2, 9)
        assert rec.object_ids == (2, 5)
        assert rec.blob_hint == 3


class TestDump:
    def test_dump_lists_every_level(self):
        g, blobs = _two_singletons()
        tree = init_tree(blobs, g, 0, IdAllocator(), OVERSEG, PARAMS)
        text = dump_tree(tree)
        assert text.startswith("root frame=0")
        assert "object 0" in text and "object 1" in text
        assert "component 0" in text and "segment" in text
