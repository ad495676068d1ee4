"""Object tree bookkeeping: identity carry-over, similarities, splits, merges."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynseg.assignment import Assignment, AssignmentProblem, EnergyParams, Segments
from dynseg.cloud_io import InteractionRecord
from dynseg.graph import AdjacencyGraph, connected_components
from dynseg.graphcut import OversegConfig
from dynseg.supervoxel import nearest
from dynseg.tree import (
    IdAllocator,
    SegTree,
    TreeParams,
    _candidates,
    _means,
    accumulate_similarities,
    compute_similarity,
    confirm_splits_merges,
    derive_blob_seeds,
    detect_interactions,
    init_tree,
    update_tree,
)

from helpers import check_frame_invariants, graph_from_edges, segment_table

PARAMS = TreeParams().resolve(0.08)
OVERSEG = OversegConfig()
EPARAMS = EnergyParams().resolve(0.08)


def _two_singletons(x0=0.0, x1=1.0):
    g = graph_from_edges({}, positions={0: (x0, 0.0, 0.0), 1: (x1, 0.0, 0.0)})
    return g, connected_components(g)


def _seg_row(centroid, comp, obj, color=(50.0, 0.0, 0.0)):
    """One row for segment_table."""
    return centroid, color, comp, obj


def _tree(frame, comps, births=None, **similarities):
    """A SegTree over comps {component id: (object id, blob id, node positions)}, one segment per component.

    The components' positions together are 0..N-1.
    """
    at = [sorted(svs) for _, _, svs in comps.values()]
    assert sorted(sum(at, [])) == list(range(sum(map(len, at))))
    object_of, component_of, segment_of, blob_of = np.empty((4, sum(map(len, at))), dtype=np.int64)
    for k, (cid, (oid, bid, _)) in enumerate(comps.items()):
        object_of[at[k]], component_of[at[k]], segment_of[at[k]], blob_of[at[k]] = oid, cid, k, bid
    return SegTree(
        frame_index=frame,
        object_of=object_of,
        component_of=component_of,
        segment_of=segment_of,
        blob_of=blob_of,
        births={oid: 0 for oid, _, _ in comps.values()} if births is None else births,
        segment_centroids=np.zeros((len(comps), 3)),
        segment_colors=np.zeros((len(comps), 3)),
        **similarities,
    )


def _check(tree):
    """The frame invariants, with one point per supervoxel."""
    return check_frame_invariants(tree, tree.object_of)


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
        s = compute_similarity([0], [1], g, PARAMS)
        assert s == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_color_decay(self):
        g = graph_from_edges(
            {},
            positions={0: (0.0, 0.0, 0.0), 1: (0.0, 0.0, 0.0)},
            colors={0: (50.0, 0.0, 0.0), 1: (80.0, 0.0, 0.0)},
        )
        s = compute_similarity([0], [1], g, PARAMS)
        assert s == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_identical_sets_give_one(self):
        g, _ = _two_singletons()
        assert compute_similarity([0], [0], g, PARAMS) == pytest.approx(1.0)

    def test_empty_set_rejected(self):
        g, _ = _two_singletons()
        with pytest.raises(ValueError):
            compute_similarity([], [0], g, PARAMS)


class TestInitTree:
    def test_one_object_per_blob(self):
        g, blobs = _two_singletons()
        alloc = IdAllocator()
        tree = init_tree(blobs, g, 0, alloc, OVERSEG, PARAMS)
        assert tree.births == {0: 0, 1: 0}
        assert tree.component_table() == {0: (0, 0), 1: (1, 1)}
        assert tree.object_of.tolist() == [0, 1]
        # far apart: no candidate pair
        assert tree.object_similarity == {}
        _check(tree)

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
        assert tree.segment_of.shape == (3,)
        assert (tree.segment_of >= 0).all()
        _check(tree)

    def test_objects_on_file_carry_over_without_components(self):
        g, blobs = _two_singletons()
        alloc = IdAllocator()
        prev = init_tree(blobs, g, 0, alloc, OVERSEG, PARAMS)
        tree = init_tree(blobs, g, 3, alloc, OVERSEG, PARAMS, prev=prev)
        assert tree.births == {0: 0, 1: 0, 2: 3, 3: 3}
        assert tree.live_objects() == [2, 3]
        assert tree.missing_objects() == [0, 1]
        empty = graph_from_edges({})
        tree = init_tree([], empty, 4, alloc, OVERSEG, PARAMS, prev=tree)
        assert tree.live_objects() == [] and tree.missing_objects() == [0, 1, 2, 3]
        assert len(tree.segments()) == 0
        _check(tree)


class TestDeriveBlobSeeds:
    def test_each_object_gets_a_seed(self):
        g = graph_from_edges(
            {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0},
            positions={k: (0.08 * k, 0.0, 0.0) for k in range(4)},
        )
        blobs = connected_components(g)
        problem = AssignmentProblem(
            segments=segment_table(
                [_seg_row((0.0, 0.0, 0.0), comp=0, obj=0), _seg_row((0.3, 0.0, 0.0), comp=1, obj=1)]
            ),
            graph=g,
            blobs=blobs,
            params=EPARAMS,
        )
        assignment = Assignment(labels=np.asarray([0, 0]), energy=0.0)
        seed_of, seat = derive_blob_seeds(problem, assignment, 0.08)
        assert seed_of.tolist() == [0, -1, -1, 1]
        assert seat.tolist() == [0, 3]

    def test_blob_smaller_than_object_count(self):
        g = graph_from_edges({}, positions={0: (0.0, 0.0, 0.0)})
        blobs = connected_components(g)
        problem = AssignmentProblem(
            segments=segment_table(
                [_seg_row((0.0, 0.0, 0.0), comp=0, obj=0), _seg_row((0.01, 0.0, 0.0), comp=1, obj=1)]
            ),
            graph=g,
            blobs=blobs,
            params=EPARAMS,
        )
        assignment = Assignment(labels=np.asarray([0, 0]), energy=0.0)
        seed_of, seat = derive_blob_seeds(problem, assignment, 0.08)
        assert seed_of.tolist() == [0]  # only the closer object wins the lone site
        assert seat.tolist() == [0, 0]


def _tracked_pair():
    """Frame 0 with two singleton objects, plus the frame 1 inputs."""
    g0, blobs0 = _two_singletons(0.0, 1.0)
    alloc = IdAllocator()
    prev = init_tree(blobs0, g0, 0, alloc, OVERSEG, PARAMS)
    g1, blobs1 = _two_singletons(0.01, 1.01)
    problem = AssignmentProblem(
        segments=segment_table(
            [_seg_row((0.0, 0.0, 0.0), comp=0, obj=0), _seg_row((1.0, 0.0, 0.0), comp=1, obj=1)]
        ),
        graph=g1,
        blobs=blobs1,
        params=EPARAMS,
    )
    return prev, problem, alloc


def _update(prev, problem, assignment, cuts, alloc):
    """update_tree at frame 1, seeded and cut the way process_frame does it; cuts maps blob index -> cut labels."""
    labels, seat = derive_blob_seeds(problem, assignment, 0.08)
    for k, cut in cuts.items():
        labels[problem.blobs[k]] = cut
    return update_tree(prev, problem.blobs, problem.graph, problem.segments, labels, seat, 1, alloc, OVERSEG)


class TestUpdateTree:
    def test_identity_carries_over(self):
        prev, problem, alloc = _tracked_pair()
        assignment = Assignment(labels=np.asarray([0, 1]), energy=0.0)
        tree = _update(prev, problem, assignment, {}, alloc)
        assert tree.object_of.tolist() == [0, 1]
        assert list(tree.component_table()) == [0, 1]
        assert tree.births == {0: 0, 1: 0}
        _check(tree)

    def test_identity_follows_assignment_not_position(self):
        prev, problem, alloc = _tracked_pair()
        assignment = Assignment(labels=np.asarray([1, 0]), energy=0.0)  # crossed
        tree = _update(prev, problem, assignment, {}, alloc)
        assert tree.object_of.tolist() == [1, 0]

    def test_uncovered_blob_founds_new_object(self):
        g0 = graph_from_edges({}, positions={0: (0.0, 0.0, 0.0)})
        alloc = IdAllocator()
        prev = init_tree(connected_components(g0), g0, 0, alloc, OVERSEG, PARAMS)
        g1, blobs1 = _two_singletons(0.0, 2.0)
        problem = AssignmentProblem(
            segments=segment_table([_seg_row((0.0, 0.0, 0.0), comp=0, obj=0)]),
            graph=g1,
            blobs=blobs1,
            params=EPARAMS,
        )
        assignment = Assignment(labels=np.asarray([0]), energy=0.0)
        tree = _update(prev, problem, assignment, {}, alloc)
        assert tree.object_of.tolist() == [0, 1]
        assert tree.births[1] == 1

    def test_vanished_object_keeps_empty_row(self):
        g0, blobs0 = _two_singletons()
        alloc = IdAllocator()
        prev = init_tree(blobs0, g0, 0, alloc, OVERSEG, PARAMS)
        g1 = graph_from_edges({}, positions={0: (0.0, 0.0, 0.0)})
        blobs1 = connected_components(g1)
        problem = AssignmentProblem(
            segments=segment_table(
                [_seg_row((0.0, 0.0, 0.0), comp=0, obj=0), _seg_row((1.0, 0.0, 0.0), comp=1, obj=1)]
            ),
            graph=g1,
            blobs=blobs1,
            params=EPARAMS,
        )
        assignment = Assignment(labels=np.asarray([0, -1]), energy=0.0)
        tree = _update(prev, problem, assignment, {}, alloc)
        assert sorted(tree.births) == [0, 1]
        assert tree.missing_objects() == [1]
        assert 1 not in tree.object_of

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
            segments=segment_table(
                [_seg_row((0.0, 0.0, 0.0), comp=0, obj=0), _seg_row((0.3, 0.0, 0.0), comp=1, obj=1)]
            ),
            graph=g1,
            blobs=blobs1,
            params=EPARAMS,
        )
        assignment = Assignment(labels=np.asarray([0, 0]), energy=0.0)
        cut = np.asarray([0, 0, 1, 1])
        tree = _update(prev, problem, assignment, {0: cut}, alloc)
        assert tree.object_of.tolist() == [0, 0, 1, 1]
        # ids inherited through the seed votes, both components in blob 0
        assert tree.component_table() == {0: (0, 0), 1: (1, 0)}
        _check(tree)

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
            segments=segment_table(
                [_seg_row((0.0, 0.0, 0.0), comp=0, obj=0), _seg_row((0.3, 0.0, 0.0), comp=1, obj=1)]
            ),
            graph=g1,
            blobs=blobs1,
            params=EPARAMS,
        )
        assignment = Assignment(labels=np.asarray([0, 0]), energy=0.0)
        with pytest.raises(ValueError):
            _update(prev, problem, assignment, {}, alloc)

    def test_blob_seeding_two_objects_without_cut_labels_is_named(self):
        g = graph_from_edges({(1, 2): 1.0, (2, 3): 1.0}, positions={k: (0.08 * k, 0.0, 0.0) for k in range(4)})
        blobs = connected_components(g)
        labels = np.asarray([-1, 0, -1, 1])  # blob 1 seeds objects 0 and 1 and holds an unlabelled node
        with pytest.raises(ValueError, match=r"blob 1 seeds objects \[0, 1\]"):
            update_tree(None, blobs, g, Segments.empty(), labels, np.empty(0, dtype=np.int64), 0, IdAllocator(), OVERSEG)

    @pytest.mark.parametrize("kept", [[1, 2, 3], [0, 1, 3]])
    def test_graph_whose_ids_are_not_its_positions_rejected(self, kept):
        g = graph_from_edges({(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0}).subgraph(kept)
        blobs, labels = connected_components(g), np.full(3, -1)
        with pytest.raises(ValueError, match=r"node ids are its positions 0\.\.N-1"):
            update_tree(None, blobs, g, Segments.empty(), labels, labels[:0], 0, IdAllocator(), OVERSEG)

    def test_disconnected_region_splits_into_components(self):
        # one object assigned into a blob pattern that leaves its svs split
        g0 = graph_from_edges({(0, 1): 1.0}, positions={0: (0.0, 0.0, 0.0), 1: (0.02, 0.0, 0.0)})
        alloc = IdAllocator()
        prev = init_tree(connected_components(g0), g0, 0, alloc, OVERSEG, PARAMS)
        g1, blobs1 = _two_singletons(0.0, 0.2)
        problem = AssignmentProblem(
            segments=segment_table([_seg_row((0.01, 0.0, 0.0), comp=0, obj=0)]),
            graph=g1,
            blobs=blobs1,
            params=EPARAMS,
        )
        # both blobs assigned to object 0's lone segment is impossible with one
        # label, so give the far blob no cover and check the near one: the far
        # blob founds a new object while object 0 keeps one component
        assignment = Assignment(labels=np.asarray([0]), energy=0.0)
        tree = _update(prev, problem, assignment, {}, alloc)
        assert [oid for oid, _ in tree.component_table().values()].count(0) == 1
        assert len(tree.births) == 2


# object 0's two pieces (a, b), the graph's edges and the labels per node
_VOTE_LAYOUTS = {
    # object 0 in two blobs
    "two_blobs": ([0, 1, 2], [3, 4, 5], {(0, 1): 1.0, (1, 2): 1.0, (3, 4): 1.0, (4, 5): 1.0}, [0] * 6),
    # object 0 in one blob, parted by object 1's cut label at node 3
    "one_blob": ([0, 1, 2], [4, 5, 6], {(k, k + 1): 1.0 for k in range(6)}, [0, 0, 0, 1, 0, 0, 0]),
}


class TestComponentVote:
    @pytest.mark.parametrize("layout", sorted(_VOTE_LAYOUTS))
    @pytest.mark.parametrize(
        "voters, winner",
        [
            ("abb", "b"),  # most votes win, though b's first member is the larger
            ("ba", "a"),  # a tie goes to the smaller first member, though b voted first
        ],
    )
    def test_id_goes_to_one_piece_by_votes_then_first_member(self, layout, voters, winner):
        """One previous component's seated segments land on two pieces of its object."""
        a, b, edges, labels = _VOTE_LAYOUTS[layout]
        pieces = {"a": a, "b": b}
        g = graph_from_edges(edges)
        comps = {0: (0, 0, a + b)}
        if layout == "one_blob":
            comps[1] = (1, 0, [3])
        prev = _tree(0, comps)
        alloc = IdAllocator()
        for _ in comps:
            alloc.new_object_id(), alloc.new_component_id()
        # each voter's segment sits on the next free node of its piece
        seat = [pieces[v][voters[:k].count(v)] for k, v in enumerate(voters)]
        segments = segment_table([_seg_row((0.0, 0.0, 0.0), comp=0, obj=0)] * len(voters))
        blobs = connected_components(g)
        tree = update_tree(prev, blobs, g, segments, np.asarray(labels), np.asarray(seat), 1, alloc, OVERSEG)
        loser = pieces["a" if winner == "b" else "b"]
        assert np.flatnonzero(tree.component_of == 0).tolist() == pieces[winner]
        (loser_cid,) = set(tree.component_of[loser].tolist())
        assert loser_cid not in comps
        _check(tree)


class TestAccumulation:
    def test_closed_form_halving(self):
        g, blobs = _two_singletons(0.0, 0.1)
        alloc = IdAllocator()
        prev = init_tree(blobs, g, 0, alloc, OVERSEG, PARAMS)
        s = compute_similarity([0], [1], g, PARAMS)
        for k in range(1, 21):
            cur = replace(prev, frame_index=k, object_similarity={}, component_similarity={})
            accumulate_similarities(cur, prev, g, PARAMS)
            assert abs(cur.object_similarity[(0, 1)] - s * (1.0 - 2.0 ** (-k))) < 1e-12
            prev = cur

    def test_new_pair_initializes_at_current_value(self):
        g0, blobs0 = _two_singletons(0.0, 1.0)  # too far for a candidate pair
        alloc = IdAllocator()
        prev = init_tree(blobs0, g0, 0, alloc, OVERSEG, PARAMS)
        assert prev.object_similarity == {}
        g1, _ = _two_singletons(0.0, 0.1)  # now within reach
        cur = replace(prev, frame_index=1, object_similarity={}, component_similarity={})
        accumulate_similarities(cur, prev, g1, PARAMS)
        s_now = compute_similarity([0], [1], g1, PARAMS)
        assert cur.object_similarity[(0, 1)] == pytest.approx(s_now, rel=1e-12)

    def test_tracked_pair_of_the_only_two_objects_runs_no_close_pair_search(self, monkeypatch):
        g, blobs = _two_singletons(0.0, 0.1)
        prev = init_tree(blobs, g, 0, IdAllocator(), OVERSEG, PARAMS)
        assert prev.object_similarity == {(0, 1): 0.0}

        def search(*args):
            raise AssertionError("every live pair is tracked, so no search is needed")

        monkeypatch.setattr("dynseg.tree.pairs_closer_than", search)
        cur = replace(prev, frame_index=1, object_similarity={}, component_similarity={})
        accumulate_similarities(cur, prev, g, PARAMS)
        assert cur.object_similarity == {(0, 1): compute_similarity([0], [1], g, PARAMS) / 2.0}

    def test_vanished_object_drops_from_matrix(self):
        g0, blobs0 = _two_singletons(0.0, 0.1)
        alloc = IdAllocator()
        prev = init_tree(blobs0, g0, 0, alloc, OVERSEG, PARAMS)
        g1 = graph_from_edges({}, positions={0: (0.0, 0.0, 0.0)})
        cur = _tree(1, {0: (0, 0, {0})}, births={0: 0, 1: 0})  # object 1 lost every supervoxel
        accumulate_similarities(cur, prev, g1, PARAMS)
        assert cur.object_similarity == {}

    def test_component_matrix_within_object(self):
        g = graph_from_edges(
            {(0, 1): 1.0},
            positions={0: (0.0, 0.0, 0.0), 1: (0.02, 0.0, 0.0), 2: (0.3, 0.0, 0.0)},
        )
        cur = _tree(1, {0: (0, 0, {0, 1}), 1: (0, 1, {2})})
        accumulate_similarities(cur, None, g, PARAMS)
        expected = compute_similarity([0, 1], [2], g, PARAMS)
        assert cur.component_similarity[(0, 1)] == pytest.approx(expected, rel=1e-12)


def _candidate_scene():
    """Objects 0 and 1 share blob 0 far apart; objects 2 and 3 are alone in blobs 1 and 2, 0.25 apart."""
    xs = {0: 0.0, 1: 5.0, 2: 10.0, 3: 10.25}
    g = graph_from_edges({}, positions={k: (x, 0.0, 0.0) for k, x in xs.items()})
    tree = _tree(0, {0: (0, 0, {0}), 1: (1, 0, {1}), 2: (2, 1, {2}), 3: (3, 2, {3})})
    return tree, g


class TestCandidates:
    def test_shared_blob_pair_is_a_candidate_at_any_distance(self):
        tree, g = _candidate_scene()
        assert _candidates(tree, g, replace(PARAMS, candidate_gap=0.3), {}) == [(0, 1), (2, 3)]

    def test_gap_equal_to_candidate_gap_is_excluded(self):
        tree, g = _candidate_scene()
        assert _candidates(tree, g, replace(PARAMS, candidate_gap=0.25), {}) == [(0, 1)]

    def test_tracked_pairs_stay_while_both_objects_live(self):
        tree, g = _candidate_scene()
        tracked = {(0, 2): 0.5, (1, 9): 0.5}  # 0 and 2 far apart; object 9 has no supervoxels
        assert _candidates(tree, g, replace(PARAMS, candidate_gap=0.25), tracked) == [(0, 1), (0, 2)]


def _merge_candidate(sim):
    g = graph_from_edges(
        {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0},
        positions={k: (0.02 * k, 0.0, 0.0) for k in range(4)},
    )
    alloc = IdAllocator()
    alloc.new_object_id(), alloc.new_object_id()
    alloc.new_component_id(), alloc.new_component_id()
    tree = _tree(
        5,
        {0: (0, 0, {0, 1}), 1: (1, 0, {2, 3})},
        births={0: 0, 1: 2},
        object_similarity={(0, 1): sim},
        component_similarity={},
    )
    return tree, g, alloc


def _two_far_components(split_similarity):
    g = graph_from_edges(
        {(0, 1): 1.0, (2, 3): 1.0},
        positions={0: (0.0, 0.0, 0.0), 1: (0.02, 0.0, 0.0), 2: (1.0, 0.0, 0.0), 3: (1.02, 0.0, 0.0)},
    )
    alloc = IdAllocator()
    alloc.new_object_id()
    alloc.new_component_id(), alloc.new_component_id()
    tree = _tree(
        7,
        {0: (0, 0, {0, 1}), 1: (0, 1, {2, 3})},
        component_similarity={(0, 1): split_similarity},
    )
    return tree, g, alloc


class TestConfirmMergesSplits:
    def test_merge_fuses_into_older_id(self):
        tree, g, alloc = _merge_candidate(0.8)
        tree, audit = confirm_splits_merges(tree, g, PARAMS, alloc, OVERSEG)
        assert audit["merges"] == [(0, [1])]
        assert audit["splits"] == []
        assert tree.births == {0: 0}
        assert tree.component_table() == {0: (0, 0)}
        assert tree.component_of.tolist() == [0, 0, 0, 0]
        assert tree.object_similarity == {}
        # the fused component is segmented afresh, with features for each segment
        assert len(tree.segment_centroids) == tree.segment_of.max() + 1
        _check(tree)

    def test_fused_piece_keeps_its_largest_component_id(self):
        _, g, alloc = _merge_candidate(0.8)  # the same four-node chain
        tree = _tree(5, {0: (0, 0, {0}), 1: (1, 0, {1, 2, 3})}, object_similarity={(0, 1): 0.8})
        tree, _ = confirm_splits_merges(tree, g, PARAMS, alloc, OVERSEG)
        assert tree.component_table() == {1: (0, 0)}
        assert tree.component_of.tolist() == [1, 1, 1, 1]

    def test_merge_threshold_is_strict(self):
        tree, g, alloc = _merge_candidate(0.7)
        tree, audit = confirm_splits_merges(tree, g, PARAMS, alloc, OVERSEG)
        assert audit["merges"] == []
        assert sorted(tree.births) == [0, 1]

    def test_merge_across_blobs_keeps_components(self):
        g = graph_from_edges(
            {(0, 1): 1.0, (2, 3): 1.0},
            positions={0: (0.0, 0.0, 0.0), 1: (0.02, 0.0, 0.0), 2: (0.2, 0.0, 0.0), 3: (0.22, 0.0, 0.0)},
        )
        alloc = IdAllocator()
        alloc.new_object_id(), alloc.new_object_id()
        alloc.new_component_id(), alloc.new_component_id()
        tree = _tree(
            3,
            {0: (0, 0, {0, 1}), 1: (1, 1, {2, 3})},
            object_similarity={(0, 1): 0.9},
            component_similarity={},
        )
        tree, audit = confirm_splits_merges(tree, g, PARAMS, alloc, OVERSEG)
        assert audit["merges"] == [(0, [1])]
        assert sorted(tree.births) == [0]
        assert tree.component_table() == {0: (0, 0), 1: (0, 1)}
        # the fused families get a fresh similarity entry to accumulate from
        assert (0, 1) in tree.component_similarity

    def test_merge_keeps_segment_order_and_appends_fused_segments(self):
        # object 2 sits in its own blob; objects 0 and 1 fuse in blob 0
        g = graph_from_edges(
            {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (4, 5): 1.0},
            positions={**{k: (0.02 * k, 0.0, 0.0) for k in range(4)}, 4: (1.0, 0.0, 0.0), 5: (1.02, 0.0, 0.0)},
        )
        tree = _tree(
            1,
            {0: (0, 0, {0, 1}), 2: (1, 0, {2, 3}), 1: (2, 1, {4, 5})},
            object_similarity={(0, 1): 0.9},
        )
        tree, _ = confirm_splits_merges(tree, g, PARAMS, IdAllocator(), OVERSEG)
        assert tree.component_table() == {0: (0, 0), 1: (2, 1)}
        # the untouched segment moves up to id 0; the fused component's come last
        assert tree.segment_of.tolist() == [1, 1, 1, 1, 0, 0]
        assert tree.segments().object_ids[0] == 2
        assert tuple(tree.segments().centroids[0]) == pytest.approx((1.01, 0.0, 0.0))
        _check(tree)

    def test_split_moves_cluster_to_new_object(self):
        tree, g, alloc = _two_far_components(0.1)
        tree, audit = confirm_splits_merges(tree, g, PARAMS, alloc, OVERSEG)
        assert audit["splits"] == [(0, 1, [1])]
        assert tree.component_table() == {0: (0, 0), 1: (1, 1)}
        assert tree.births == {0: 0, 1: 7}
        assert tree.component_similarity == {}
        _check(tree)

    def test_no_split_above_threshold(self):
        tree, g, alloc = _two_far_components(0.5)
        tree, audit = confirm_splits_merges(tree, g, PARAMS, alloc, OVERSEG)
        assert audit["splits"] == []
        assert sorted(tree.births) == [0]

    def test_merge_and_split_in_one_call(self):
        # objects 0 and 1 fuse in blob 0, and object 1's far component 5
        # joins object 0; object 2's component 3 splits off
        g = graph_from_edges(
            {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (4, 5): 1.0},
            positions={
                **{k: (0.02 * k, 0.0, 0.0) for k in range(4)},
                4: (1.0, 0.0, 0.0),
                5: (1.02, 0.0, 0.0),
                6: (2.0, 0.0, 0.0),
                7: (3.0, 0.0, 0.0),
                8: (0.16, 0.0, 0.0),
            },
        )
        alloc = IdAllocator()
        for _ in range(3):
            alloc.new_object_id()
        tree = _tree(
            4,
            {
                0: (0, 0, {0, 1}),
                1: (1, 0, {2, 3}),
                2: (2, 1, {4, 5}),
                3: (2, 2, {6}),
                4: (2, 3, {7}),
                5: (1, 4, {8}),
            },
            object_similarity={(0, 1): 0.9, (0, 2): 0.2, (1, 2): 0.2},
            component_similarity={(1, 5): 0.9, (2, 3): 0.1, (2, 4): 0.5, (3, 4): 0.2},
        )
        tree, audit = confirm_splits_merges(tree, g, PARAMS, alloc, OVERSEG)
        assert audit == {"merges": [(0, [1])], "splits": [(2, 3, [3])]}
        assert tree.births == {0: 0, 2: 0, 3: 4}
        # the fused pieces tie in size, so the smaller id stays
        assert tree.component_table() == {0: (0, 0), 2: (2, 1), 3: (3, 2), 4: (2, 3), 5: (0, 4)}
        assert tree.object_similarity == {(0, 2): 0.2}
        fresh = compute_similarity([0, 1, 2, 3], [8], g, PARAMS)
        assert fresh > PARAMS.split_threshold
        assert tree.component_similarity == {(0, 5): fresh, (2, 4): 0.5}
        _check(tree)

    def test_confirm_is_idempotent(self):
        tree, g, alloc = _merge_candidate(0.8)
        tree, first = confirm_splits_merges(tree, g, PARAMS, alloc, OVERSEG)
        assert first["merges"]

        def snapshot(t):
            return dict(t.births), t.component_table(), t.object_of.tolist(), t.segment_of.tolist()

        before = snapshot(tree)
        tree, second = confirm_splits_merges(tree, g, PARAMS, alloc, OVERSEG)
        assert second == {"merges": [], "splits": []}
        assert snapshot(tree) == before


def _interaction_tree(frame, pairs):
    """pairs: list of (object_id, blob_id)."""
    return _tree(frame, {k: (oid, bid, {k}) for k, (oid, bid) in enumerate(pairs)})


class TestInteractions:
    def test_shared_blob_opens_event(self):
        open_events, closed = detect_interactions(_interaction_tree(4, [(0, 0), (1, 0)]), {})
        assert closed == []
        ev = open_events[(0, 1)]
        assert (ev.start_frame, ev.end_frame) == (4, 4)
        assert ev.blob_hint == 0 and ev.object_ids == (0, 1)

    def test_event_extends_then_closes(self):
        open_events, _ = detect_interactions(_interaction_tree(4, [(0, 0), (1, 0)]), {})
        open_events, closed = detect_interactions(_interaction_tree(5, [(0, 0), (1, 0)]), open_events)
        assert closed == []
        assert open_events[(0, 1)].end_frame == 5
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
        assert open_events[(0, 1)].start_frame == 2

    def test_three_objects_one_event(self):
        open_events, _ = detect_interactions(_interaction_tree(0, [(0, 0), (1, 0), (2, 0)]), {})
        assert set(open_events) == {(0, 1, 2)}

    def test_event_keeps_its_first_blob_and_sorted_ids(self):
        # objects 5 and 2 meet in blob 2, then in blob 0, then part
        open_events, _ = detect_interactions(_interaction_tree(0, [(7, 0), (5, 2), (2, 2)]), {})
        assert open_events[(2, 5)].blob_hint == 2
        open_events, closed = detect_interactions(_interaction_tree(1, [(5, 0), (2, 0), (7, 1)]), open_events)
        assert closed == [] and open_events[(2, 5)].blob_hint == 2
        open_events, closed = detect_interactions(_interaction_tree(2, [(5, 0), (2, 1)]), open_events)
        assert open_events == {}
        assert closed == [InteractionRecord(start_frame=0, end_frame=1, blob_hint=2, object_ids=(2, 5))]


# The loop forms the array code replaced, kept as references.


def _weighted_features(rows, graph):
    """Point-count-weighted centroid and mean Lab color of a set of node positions."""
    rows = sorted(rows)
    w = np.asarray([graph.point_counts[r] for r in rows], dtype=np.float64)
    cen = np.asarray([graph.centroids[r] for r in rows])
    col = np.asarray([graph.colors_lab[r] for r in rows])
    total = w.sum()
    return (cen * w[:, None]).sum(axis=0) / total, (col * w[:, None]).sum(axis=0) / total


def _min_gap(a_rows, b_rows, graph):
    ca = np.asarray([graph.centroids[r] for r in sorted(a_rows)])
    cb = np.asarray([graph.centroids[r] for r in sorted(b_rows)])
    return float(np.min(np.linalg.norm(ca[:, None, :] - cb[None, :, :], axis=2)))


@st.composite
def _partitioned_graphs(draw):
    """A graph on sparse random ids with random features, and a random labelling of its positions into parts 0..k-1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 60))
    ids = np.sort(rng.choice(10_000, size=n, replace=False))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rows = [
        (rng.normal(size=3) * scale, rng.uniform([0.0, -80.0, -80.0], [100.0, 80.0, 80.0]), int(rng.integers(1, 200)))
        for _ in ids
    ]
    graph = AdjacencyGraph(
        nodes=ids,
        edges=[],
        weights=[],
        centroids=[c for c, _, _ in rows],
        colors_lab=[col for _, col, _ in rows],
        point_counts=[n for _, _, n in rows],
    )
    k = draw(st.integers(1, n))
    labels = rng.permutation(np.arange(n) % k)
    return graph, labels, k


class TestArrayFeaturesMatchLoops:
    @settings(max_examples=100, deadline=None)
    @given(case=_partitioned_graphs())
    def test_segment_means_equal_loop_features(self, case):
        graph, labels, k = case
        centroids, colors = _means(graph, slice(None), labels)
        for part in range(k):
            cen, col = _weighted_features(np.flatnonzero(labels == part).tolist(), graph)
            assert np.array_equal(centroids[part], cen)
            assert np.array_equal(colors[part], col)

    @settings(max_examples=100, deadline=None)
    @given(case=_partitioned_graphs())
    def test_gaps_and_similarities_equal_loop_forms(self, case):
        graph, labels, k = case
        parts = [np.flatnonzero(labels == part) for part in range(k)]
        for a in parts:
            for b in parts[:3]:
                gap = _min_gap(a.tolist(), b.tolist(), graph)
                ca, cb = graph.centroids[a], graph.centroids[b]
                assert float(nearest(ca, cb)[0].min()) == gap
                _, col_a = _weighted_features(a.tolist(), graph)
                _, col_b = _weighted_features(b.tolist(), graph)
                de = float(np.linalg.norm(col_a - col_b))
                loop = math.exp(-gap / PARAMS.sigma_distance) * math.exp(-de / PARAMS.sigma_color)
                assert compute_similarity(a, b, graph, PARAMS) == loop


def _candidates_loop(tree, graph, params, tracked):
    """_candidates with one centroid-gap test per pair of live objects."""
    pairs = set()
    for blob in set(tree.blob_of.tolist()):
        pairs.update(itertools.combinations(sorted(set(tree.object_of[tree.blob_of == blob].tolist())), 2))
    for a, b in itertools.combinations(tree.live_objects(), 2):
        ca, cb = graph.centroids[tree.object_of == a], graph.centroids[tree.object_of == b]
        gap = float(np.min(np.linalg.norm(ca[:, None, :] - cb[None, :, :], axis=2)))
        if (a, b) not in pairs and ((a, b) in tracked or gap < params.candidate_gap):
            pairs.add((a, b))
    return sorted(pairs)


@st.composite
def _candidate_cases(draw):
    """A tree of up to 40 objects over grid centroids 0.25 m apart, a candidate gap, and tracked pairs.

    Grid distances are exact, so many centroid gaps equal the candidate gap.
    Tracked pairs may name objects on file with no supervoxels.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 120))
    oids = rng.choice(100, size=draw(st.integers(1, 40)), replace=False)
    object_of = oids[rng.integers(0, len(oids), n)]
    blob_of = rng.integers(0, draw(st.integers(1, n)), n)
    comps = {}
    for k, key in enumerate(sorted(set(zip(object_of.tolist(), blob_of.tolist())))):
        comps[k] = (*key, set(np.flatnonzero((object_of == key[0]) & (blob_of == key[1])).tolist()))
    tree = _tree(0, comps, births={int(oid): 0 for oid in oids})
    graph = graph_from_edges({}, positions=dict(enumerate(rng.integers(0, 6, (n, 3)) * 0.25)))
    params = replace(PARAMS, candidate_gap=0.25 * draw(st.integers(1, 6)))
    tracked = {tuple(sorted(pair)): 0.5 for pair in rng.choice(oids, (draw(st.integers(0, 20)), 2)).tolist()}
    return tree, graph, params, {key: v for key, v in tracked.items() if key[0] != key[1]}


class TestCandidatesMatchLoopReference:
    @settings(max_examples=200, deadline=None)
    @given(case=_candidate_cases())
    def test_candidates_equal_the_loop(self, case):
        tree, graph, params, tracked = case
        assert _candidates(tree, graph, params, tracked) == _candidates_loop(tree, graph, params, tracked)


def _derive_blob_seeds_loop(problem, assignment, seed_resolution):
    """derive_blob_seeds with one claim-cost pass per assigned segment."""
    graph, blobs = problem.graph, problem.blobs
    seed_of = np.full(len(graph.nodes), -1, dtype=np.int64)
    seat = np.full(problem.num_segments, -1, dtype=np.int64)
    for k, at in enumerate(blobs):
        assigned = [s for s in range(problem.num_segments) if assignment.labels[s] == k]
        if not assigned:
            continue
        cen, col = graph.centroids[at], graph.colors_lab[at]
        claims = []  # (cost, object, segment)
        ranked = {}  # segment -> member positions, cheapest first
        segs = problem.segments
        for s in assigned:
            d = np.linalg.norm(cen - segs.centroids[s], axis=1) / seed_resolution
            dc = np.linalg.norm(col - segs.colors_lab[s], axis=1) / 100.0
            cost = d + dc
            order = np.argsort(cost, kind="stable")
            ranked[s] = at[order]
            claims.append((float(cost[order[0]]), int(segs.object_ids[s]), s))
        claims.sort()
        seeded_objects = set()
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


@st.composite
def _seeding_cases(draw):
    """Blobs as node positions of a graph on sparse ids, segments of a few objects, and an assignment.

    With ``tied``, centroids and colours come from a few grid values, so
    claim costs tie across supervoxels and across segments.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tied = draw(st.booleans())
    n = draw(st.integers(1, 40))
    ids = np.sort(rng.choice(10_000, size=n, replace=False))

    def features(count):
        if tied:
            return rng.integers(0, 3, (count, 3)) * 0.04, rng.integers(0, 2, (count, 3)) * 10.0 + [50.0, 0.0, 0.0]
        return rng.uniform(0.0, 0.3, (count, 3)), rng.uniform([20.0, -30.0, -30.0], [80.0, 30.0, 30.0], (count, 3))

    centroids, colors = features(n)
    graph = AdjacencyGraph(
        nodes=ids, edges=[], weights=[], centroids=centroids, colors_lab=colors, point_counts=np.ones(n)
    )
    k = draw(st.integers(1, n))
    part = rng.permutation(np.arange(n) % k)
    blobs = [np.flatnonzero(part == b) for b in range(k)]
    m = draw(st.integers(1, 12))
    seg_c, seg_l = features(m)
    objects = rng.integers(0, draw(st.integers(1, m)), m)
    segments = segment_table(
        _seg_row(c, comp=int(o), obj=int(o), color=tuple(col)) for c, col, o in zip(seg_c, seg_l, objects)
    )
    problem = AssignmentProblem(segments=segments, graph=graph, blobs=blobs, params=EPARAMS)
    assignment = Assignment(labels=rng.integers(-1, k, m), energy=0.0)
    return problem, assignment


class TestBlobSeedsMatchLoopReference:
    @settings(max_examples=200, deadline=None)
    @given(case=_seeding_cases())
    def test_seeds_and_seats_equal_the_loop(self, case):
        problem, assignment = case
        seed_of, seat = derive_blob_seeds(problem, assignment, 0.08)
        want_seed_of, want_seat = _derive_blob_seeds_loop(problem, assignment, 0.08)
        assert np.array_equal(seed_of, want_seed_of)
        assert np.array_equal(seat, want_seat)
