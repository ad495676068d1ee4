"""End-to-end frame processing on small synthetic clouds."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynseg import cloud_io, pipeline
from dynseg.assignment import EnergyParams, GAConfig
from dynseg.cli import main
from dynseg.cloud_io import LabeledFrame, PointCloudFrame, SequenceManifest
from dynseg.evaluation import ShapeSpec, SynthScenario, generate_scenario, make_scenario, segmentation_error
from dynseg.pipeline import (
    PipelineConfig,
    format_run_report,
    init_state,
    process_frame,
    run_sequence,
)
from dynseg.supervoxel import SupervoxelConfig, cluster_supervoxels, voxel_reach
from dynseg.tree import TreeParams

from helpers import grid_cloud, run_checked, segment_table

RED = (200, 50, 50)
BLUE = (50, 50, 200)


def _config(**kw):
    return PipelineConfig(supervoxel=SupervoxelConfig(voxel_resolution=0.02), **kw)


def _frame(idx, grids):
    """grids: list of (origin, color) for 4x4x2 lattices of 32 points each."""
    pts, cols = [], []
    for origin, color in grids:
        p, c = grid_cloud((4, 4, 2), spacing=0.02, origin=origin, color=color)
        pts.append(p)
        cols.append(c)
    if pts:
        return PointCloudFrame(idx, np.concatenate(pts), np.concatenate(cols))
    return PointCloudFrame(idx, np.zeros((0, 3)), np.zeros((0, 3), dtype=np.uint8))


def _far_pair(idx):
    return _frame(idx, [((0.0, 0.0, 0.0), RED), ((1.0, 0.0, 0.0), BLUE)])


def _pair_at(idx, blue_x):
    # per-frame displacement must stay well under rho / beta for tracking
    return _frame(idx, [((0.0, 0.0, 0.0), RED), ((blue_x, 0.0, 0.0), BLUE)])


def _touching_pair():
    """Two separate objects, then one blob holding both."""
    return [_pair_at(0, 0.20), _pair_at(1, 0.10)]


class TestStaticScenes:
    def test_two_objects_stay_identified(self):
        frames = [_far_pair(i) for i in range(5)]
        result = run_sequence(frames, _config())
        assert all(r.object_count == 2 for r in result.frames)
        assert all(r.merges == [] and r.splits == [] for r in result.frames)
        assert result.interactions == []
        first = result.frames[0].point_labels
        assert sorted(set(first.tolist())) == [0, 1]
        for r in result.frames[1:]:
            assert np.array_equal(r.point_labels, first)

    def test_every_point_labeled(self):
        result = run_sequence([_far_pair(0)], _config())
        labels = result.frames[0].point_labels
        assert labels.shape == (64,)
        assert (labels >= 0).all()

    def test_frame_result_fields(self):
        result = run_sequence([_far_pair(0)], _config())
        r = result.frames[0]
        assert r.supervoxel_count > 0
        assert r.blob_count == 2
        assert r.growth_passes >= 1 and r.growth_converged
        for key in ("supervoxel", "graph", "assignment", "cut", "tree", "total"):
            assert key in r.timings_ms
        assert r.timings_ms["total"] > 0.0


class TestTracking:
    def test_moving_object_keeps_id(self):
        frames = [_frame(i, [((0.01 * i, 0.0, 0.0), RED)]) for i in range(6)]
        result = run_sequence(frames, _config())
        for r in result.frames:
            assert r.object_count == 1
            assert (r.point_labels == 0).all()

    def test_touch_and_separate_is_one_interaction(self):
        frames = [
            _pair_at(0, 0.30),
            _pair_at(1, 0.20),
            _pair_at(2, 0.10),
            _pair_at(3, 0.10),
            _pair_at(4, 0.20),
        ]
        result = run_sequence(frames, _config())
        assert result.frames[1].blob_count == 2
        assert result.frames[2].blob_count == 1
        assert result.frames[3].blob_count == 1
        assert result.frames[4].blob_count == 2
        # distinct colors keep the accumulated similarity under the merge bar
        assert all(r.merges == [] for r in result.frames)
        assert len(result.interactions) == 1
        rec = result.interactions[0]
        assert rec.object_ids == (0, 1)
        assert (rec.start_frame, rec.end_frame) == (2, 3)
        # identity survives the shared-blob frames
        for r in result.frames:
            assert sorted(set(r.point_labels[:32].tolist())) == [0]
            assert sorted(set(r.point_labels[32:].tolist())) == [1]

    def test_trailing_interaction_closes_at_sequence_end(self):
        frames = [_pair_at(0, 0.20), _pair_at(1, 0.10), _pair_at(2, 0.10)]
        result = run_sequence(frames, _config())
        assert len(result.interactions) == 1
        assert (result.interactions[0].start_frame, result.interactions[0].end_frame) == (1, 2)


def _hide_and_return():
    """Two same-coloured spheres; B hides for frames 3-5 and returns 4 cm from A.

    At the default thresholds B's ghost is revived and merged into A at
    frame 8, after which A stays the only object on file.
    """
    rng = np.random.default_rng(0)
    frames = []
    for idx in range(24):
        centers = [(0.0, 0.0, 0.0)] + ([] if 3 <= idx <= 5 else [(0.5 if idx < 3 else 0.28, 0.0, 0.0)])
        parts = []
        for center in centers:  # sphere A first, then B
            normals = rng.normal(size=(800, 3))
            parts.append(np.asarray(center) + 0.12 * normals / np.linalg.norm(normals, axis=1, keepdims=True))
        points = np.concatenate(parts)
        frames.append(PointCloudFrame(idx, points, np.tile(np.array([200, 60, 60], dtype=np.uint8), (len(points), 1))))
    return frames


class TestGaps:
    def test_object_merged_away_on_its_return_keeps_no_ghost(self):
        results = run_checked(_hide_and_return(), _config())
        assert [(r.frame_index, r.merges) for r in results if r.merges] == [(8, [(0, [1])])]
        assert [r.object_count for r in results[8:]] == [1] * 16

    def test_object_merged_away_on_its_return_segments_from_the_cli(self, tmp_path):
        paths = []
        for frame in _hide_and_return():
            paths.append(str(tmp_path / f"frame_{frame.frame_index:04d}.txt"))
            cloud_io.write_frame(frame, paths[-1])
        manifest = tmp_path / "manifest.txt"
        cloud_io.write_manifest(SequenceManifest(name="hide", frame_paths=paths, gt_paths=[]), str(manifest))
        args = ["segment", str(manifest), "--out", str(tmp_path / "run"), "--supervoxel.voxel_resolution", "0.02"]
        assert main(args) == 0
        assert len(list((tmp_path / "run").glob("labels_*.txt"))) == 24

    def test_empty_frame_then_revival(self):
        frames = [
            _frame(0, [((0.0, 0.0, 0.0), RED)]),
            _frame(1, []),
            _frame(2, [((0.0, 0.0, 0.0), RED)]),
        ]
        result = run_sequence(frames, _config())
        assert result.frames[1].point_labels.shape == (0,)
        assert result.frames[1].object_count == 0
        assert (result.frames[1].growth_passes, result.frames[1].growth_converged) == (0, True)
        # the object comes back under its original id
        assert (result.frames[2].point_labels == 0).all()
        assert sorted(result.state.tree.births) == [0]

    def test_leading_empty_frame(self):
        frames = [_frame(0, []), _frame(1, [((0.0, 0.0, 0.0), RED)])]
        result = run_sequence(frames, _config())
        assert result.frames[0].object_count == 0
        assert (result.frames[1].point_labels == 0).all()

    def test_retention_expires_and_id_is_not_reused(self):
        frames = [
            _frame(0, [((0.0, 0.0, 0.0), RED)]),
            _frame(1, []),
            _frame(2, []),
            _frame(3, []),
            _frame(4, [((0.0, 0.0, 0.0), RED)]),
        ]
        result = run_sequence(frames, _config(retention_frames=2))
        # missing frames 1-3 exceed the retention window of 2
        assert (result.frames[4].point_labels == 1).all()
        assert sorted(result.state.tree.births) == [1]

    def test_within_retention_keeps_id(self):
        frames = [
            _frame(0, [((0.0, 0.0, 0.0), RED)]),
            _frame(1, []),
            _frame(2, []),
            _frame(3, [((0.0, 0.0, 0.0), RED)]),
        ]
        result = run_sequence(frames, _config(retention_frames=3))
        assert (result.frames[3].point_labels == 0).all()


def _three_hide_and_return():
    """Spheres A, B and C, 0.5 m apart and still; B hides for frames 3-5 and C for frames 3-8.

    Each sphere's upper half has its own colour and its lower half is grey,
    so every object is two segments.
    """
    rng = np.random.default_rng(0)
    spheres = [(-0.5, (200, 60, 60), ()), (0.0, (60, 200, 60), range(3, 6)), (0.5, (60, 60, 200), range(3, 9))]
    frames = []
    for idx in range(12):
        points, colors = [], []
        for x, color, hidden in spheres:
            if idx not in hidden:
                normals = rng.normal(size=(600, 3))
                unit = normals / np.linalg.norm(normals, axis=1, keepdims=True)
                points.append(np.array([x, 0.0, 0.0]) + 0.12 * unit)
                colors.append(np.where(unit[:, 2:] > 0, [color], [(100, 100, 100)]))
        frames.append(PointCloudFrame(idx, np.concatenate(points), np.concatenate(colors)))
    return frames


def _segment_rows(tree):
    """(centroid, Lab colour, parent component, parent object) per segment of ``tree``, one segment at a time."""
    rows = []
    for s in range(len(tree.segment_centroids)):
        first = np.flatnonzero(tree.segment_of == s)[0]
        rows.append(
            (
                tuple(tree.segment_centroids[s]),
                tuple(tree.segment_colors[s]),
                int(tree.component_of[first]),
                int(tree.object_of[first]),
            )
        )
    return rows


class _LoopGhosts:
    """Ghost bookkeeping as a dict of per-object row lists, the reference for the pipeline's ghost record.

    A missing object keeps its ghost, or gets one from the previous frame's
    segment rows.  It stays on file while its ghost has rows and it has been
    missing for fewer than ``retention`` frames.
    """

    def __init__(self, retention):
        self.retention = retention
        self.ghosts = {}  # object id -> (rows, frame it went missing)

    def rows(self):
        return [row for oid in sorted(self.ghosts) for row in self.ghosts[oid][0]]

    def update(self, missing, prev_rows, frame_index):
        ghosts = {}
        for oid in missing:
            ghost = self.ghosts.get(oid) or ([r for r in prev_rows if r[3] == oid], frame_index)
            if ghost[0] and frame_index - ghost[1] < self.retention:
                ghosts[oid] = ghost
        self.ghosts = ghosts


def _assert_same_bits(segments, rows):
    want = segment_table(rows)
    for name, column in vars(segments).items():
        expected = getattr(want, name)
        assert column.dtype == expected.dtype and column.shape == expected.shape, name
        assert column.tobytes() == expected.tobytes(), name


class TestGhostsMatchLoopReference:
    @pytest.mark.parametrize(
        "retention, ghost_ids, final_ids",
        [
            (10, [[]] * 3 + [[1, 2]] * 3 + [[2]] * 3 + [[]] * 3, [0, 1, 2]),
            # C is missing for 4 frames at frame 7, so it goes off file and returns as a new object
            (4, [[]] * 3 + [[1, 2]] * 3 + [[2], []] + [[]] * 4, [0, 1, 3]),
        ],
    )
    def test_assignment_input_and_ghosts_equal_the_loop(self, monkeypatch, retention, ghost_ids, final_ids):
        inputs = []

        def recorded(solve):
            def call(problem, *args, **kwargs):
                inputs.append(problem.segments)
                return solve(problem, *args, **kwargs)

            return call

        monkeypatch.setattr(pipeline, "solve_exhaustive", recorded(pipeline.solve_exhaustive))
        monkeypatch.setattr(pipeline, "solve_ga", recorded(pipeline.solve_ga))
        state = init_state(_config(retention_frames=retention))
        reference = _LoopGhosts(retention)
        seen, most_rows = [], 0
        for frame in _three_hide_and_return():
            prev = state.tree
            prev_rows = _segment_rows(prev) if prev is not None else []
            result = process_frame(state, frame)
            if prev is not None:
                assert len(inputs) == frame.frame_index, "every frame after the first runs an assignment"
                _assert_same_bits(inputs[-1], prev_rows + reference.rows())
                # missing before the ghost step: on file last frame, not live now and not merged away;
                # objects born this frame are live
                absorbed = {oid for _, ids in result.merges for oid in ids}
                missing = sorted(prev.births.keys() - set(state.tree.live_objects()) - absorbed)
                reference.update(missing, prev_rows, frame.frame_index)
            _assert_same_bits(state.ghosts, reference.rows())
            assert state.missing_since == {oid: since for oid, (_, since) in reference.ghosts.items()}
            assert state.tree.missing_objects() == sorted(reference.ghosts)
            seen.append(sorted(reference.ghosts))
            most_rows = max([most_rows] + [len(rows) for rows, _ in reference.ghosts.values()])
        assert seen == ghost_ids
        assert most_rows >= 2, "no ghost holds more than one segment"
        assert np.unique(result.point_labels).tolist() == final_ids


class TestDeterminism:
    def test_identical_runs(self):
        frames = [
            _pair_at(0, 0.20),
            _pair_at(1, 0.10),
            _pair_at(2, 0.20),
        ]
        r1 = run_sequence(frames, _config(seed=7))
        r2 = run_sequence(frames, _config(seed=7))
        for a, b in zip(r1.frames, r2.frames):
            assert np.array_equal(a.point_labels, b.point_labels)
        assert r1.interactions == r2.interactions


class TestAssignmentPath:
    def test_small_instance_is_solved_exactly(self, monkeypatch):
        def no_ga(*args, **kwargs):
            raise AssertionError("solve_ga called on a small instance")

        monkeypatch.setattr("dynseg.pipeline.solve_ga", no_ga)
        result = run_sequence(_touching_pair(), _config())
        assert [r.assignment for r in result.frames] == [None, "exact"]

    def test_ga_runs_above_its_shortest_run(self):
        # 2 segments, 1 blob: 4 labelings against a shortest run of 2 * (0 + 1)
        result = run_sequence(_touching_pair(), _config(ga=GAConfig(population=2, stagnation_stop=0)))
        assert [r.assignment for r in result.frames] == [None, "ga"]

    def test_ga_runs_above_the_enumeration_cap(self, monkeypatch):
        # 4 labelings: within the shortest run of 1,300, above a cap of 3
        monkeypatch.setattr("dynseg.assignment._MAX_EXHAUSTIVE", 3)
        result = run_sequence(_touching_pair(), _config())
        assert [r.assignment for r in result.frames] == [None, "ga"]


_RIGID_MOTIONS = {
    # a shift that is no multiple of the voxel re-cuts every voxel boundary
    "translate": lambda p: p + np.asarray([0.0123, -0.0071, 0.0049]),
    # a quarter turn about z, (x, y, z) -> (-y, x, z), reorders the voxel keys
    "rotate_z90": lambda p: np.column_stack([-p[:, 1], p[:, 0], p[:, 2]]),
}


class TestMetamorphic:
    def test_point_order_does_not_change_labels(self):
        generated = generate_scenario(make_scenario("approach_merge_split", rng_seed=0))
        rng = np.random.default_rng(0)
        perms = [rng.permutation(f.num_points) for f in generated.frames]
        shuffled = [PointCloudFrame(f.frame_index, f.points[p], f.colors[p]) for f, p in zip(generated.frames, perms)]
        base = run_sequence(generated.frames, _config())
        moved = run_sequence(shuffled, _config())
        assert min(r.blob_count for r in base.frames) == 1  # the spheres touch
        for a, b, p in zip(base.frames, moved.frames, perms):
            assert np.array_equal(a.point_labels[p], b.point_labels)
        assert base.interactions == moved.interactions

    @pytest.mark.parametrize(
        "kind, motion",
        [
            pytest.param(kind, motion, id=kind if motion == "translate" else f"{kind}-{motion}")
            for motion in _RIGID_MOTIONS
            for kind in ("approach_merge_split", "occlusion_split")
        ],
    )
    def test_translation_moves_few_labels(self, kind, motion):
        frames = generate_scenario(make_scenario(kind, rng_seed=0)).frames
        transformed = [PointCloudFrame(f.frame_index, _RIGID_MOTIONS[motion](f.points), f.colors) for f in frames]
        base = run_sequence(frames, _config())
        moved = run_sequence(transformed, _config())
        for a, b in zip(base.frames, moved.frames):
            found, truth = (LabeledFrame(a.frame_index, r.point_labels) for r in (b, a))
            assert segmentation_error(found, truth) <= 0.005
            assert a.object_count == b.object_count
        assert base.interactions == moved.interactions

    @pytest.mark.parametrize("voxel", [0.02, 0.008])
    @pytest.mark.parametrize("kind", ["approach_merge_split", "occlusion_split"])
    def test_scale_by_two_keeps_labels(self, kind, voxel):
        # doubling is exact in binary; the voxel and the seed resolution (0.08
        # by default) double with the cloud, every other length defaults to a
        # multiple of the seed resolution, and delta weighs a variance in m^2
        frames = generate_scenario(make_scenario(kind, rng_seed=0)).frames
        scaled = [PointCloudFrame(f.frame_index, 2.0 * f.points, f.colors) for f in frames]
        base = run_sequence(frames, PipelineConfig(supervoxel=SupervoxelConfig(voxel_resolution=voxel)))
        big = run_sequence(
            scaled,
            PipelineConfig(
                supervoxel=SupervoxelConfig(voxel_resolution=2 * voxel, seed_resolution=2 * 0.08),
                energy=EnergyParams(delta=EnergyParams().delta / 4),
            ),
        )
        assert base.state.reach == big.state.reach
        for a, b in zip(base.frames, big.frames):
            assert np.array_equal(a.point_labels, b.point_labels)
        assert base.interactions == big.interactions


class TestInvariants:
    @pytest.mark.parametrize("kind", ["static", "approach_merge_split", "occlusion_split", "crossing"])
    def test_scenario_frames(self, kind):
        run_checked(generate_scenario(make_scenario(kind, rng_seed=0)).frames, _config())

    def test_merge_and_split_frames(self, monkeypatch):
        # at reach 1 this sampling splits off a third object at frame 12 and
        # merges it back at frame 15
        monkeypatch.setattr("dynseg.pipeline.voxel_reach", lambda points, voxel_resolution: 1)
        frames = generate_scenario(make_scenario("approach_merge_split", rng_seed=1)).frames
        results = run_checked(frames, PipelineConfig(supervoxel=SupervoxelConfig(voxel_resolution=0.008)))
        assert sum(len(r.merges) for r in results) == 1
        assert sum(len(r.splits) for r in results) == 1

    def test_low_thresholds_merge_and_split_every_few_frames(self):
        # merging above 0.2 and splitting below 0.8 turns the occluded sphere's
        # two halves into a merge and a split on most frames
        frames = generate_scenario(make_scenario("occlusion_split", rng_seed=0)).frames
        tree = TreeParams(merge_threshold=0.2, split_threshold=0.8)
        results = run_checked(frames, _config(tree=tree))
        assert sum(len(r.merges) for r in results) == 13
        assert sum(len(r.splits) for r in results) == 13
        h = hashlib.sha256()
        for r in results:
            events = [(e.start_frame, e.end_frame, e.blob_hint, e.object_ids) for e in r.interactions_closed]
            h.update(np.asarray(r.point_labels, dtype=np.int64).tobytes())
            h.update(repr((r.merges, r.splits, events)).encode())
        assert h.hexdigest() == "61483b20d5a7ca575800b9f28707da0261ca40f61aa83d32465944885f2bd6bc"

    @pytest.mark.parametrize("rng_seed", [0, 1, 2])
    def test_fine_voxel_keeps_two_objects(self, rng_seed):
        frames = generate_scenario(make_scenario("approach_merge_split", rng_seed=rng_seed)).frames
        results = run_checked(frames, PipelineConfig(supervoxel=SupervoxelConfig(voxel_resolution=0.008)))
        assert [r.object_count for r in results] == [2] * len(frames)


# (key, a value below its lower bound, the message), in the order resolved() checks them
_BELOW_BOUND = [
    ("retention_frames", -1, "retention_frames must be >= 0"),
    ("ga.population", 0, "ga.population must be >= 1"),
    ("ga.tournament_size", 0, "ga.tournament_size must be >= 1"),
    ("ga.elitism", -1, "ga.elitism must be >= 0"),
    ("ga.stagnation_stop", -1, "ga.stagnation_stop must be >= 0"),
    ("cut.lambda_smooth", -0.5, "cut.lambda_smooth must be >= 0"),
    ("cut.mu_coherence", -0.5, "cut.mu_coherence must be >= 0"),
]


class TestConfigAndReport:
    def test_init_state_resolves(self):
        state = init_state(PipelineConfig())
        assert state.config.energy.beta is not None
        assert state.config.tree.candidate_gap is not None

    def test_invalid_config_rejected(self):
        cfg = PipelineConfig(supervoxel=SupervoxelConfig(voxel_resolution=-1.0))
        with pytest.raises(Exception):
            init_state(cfg)

    @pytest.mark.parametrize("first", range(len(_BELOW_BOUND)))
    def test_lower_bound_messages_in_check_order(self, first):
        """Each key below its lower bound is named in full, and the first one checked is the one reported."""
        cfg = PipelineConfig()
        for key, value, _ in _BELOW_BOUND[first:]:
            *section, name = key.split(".")
            setattr(getattr(cfg, section[0]) if section else cfg, name, value)
        with pytest.raises(ValueError) as err:
            cfg.resolved()
        assert str(err.value) == _BELOW_BOUND[first][2]

    def test_report_format(self):
        frames = [_pair_at(0, 0.20), _pair_at(1, 0.10), _pair_at(2, 0.20)]
        result = run_sequence(frames, _config())
        report = format_run_report(result)
        lines = report.splitlines()
        assert lines[0] == "run v1"
        assert lines[1] == "frames 3"
        assert lines[2] == "objects 2"
        assert lines[3] == "interactions 1"
        assert sum(1 for l in lines if l.startswith("frame ")) == 3
        assert any(l.startswith("interaction 1 1 0 1") for l in lines)
        assert report.endswith("\n")


def _cloud(idx, points, colors=RED):
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return PointCloudFrame(idx, points, np.broadcast_to(np.asarray(colors, dtype=np.uint8), points.shape))


def _plane(idx, gap):
    """A dense 0.002 m lattice in z = 0: a red and a blue 0.1 m square, gap apart in x."""
    red, _ = grid_cloud((50, 50, 1), spacing=0.002)
    blue, _ = grid_cloud((50, 50, 1), spacing=0.002, origin=(0.1 + gap, 0.0, 0.0))
    return _cloud(idx, np.concatenate([red, blue]), np.repeat([RED, BLUE], len(red), axis=0))


_rng = np.random.default_rng(11)
DEGENERATE = {
    "one_voxel": [_cloud(i, 0.001 + 0.004 * _rng.random((50, 3))) for i in range(2)],
    "duplicates": [_cloud(i, np.tile([0.3, -0.2, 0.5], (40, 1))) for i in range(2)],
    "collinear": [_cloud(i, np.outer(np.arange(300) * 0.002, [1.0, 0.5, 0.0])) for i in range(2)],
    "two_far_then_one": [_cloud(0, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), _cloud(1, [[0.0, 0.0, 0.0]])],
    "offset_1e6": [_cloud(i, 1e6 + grid_cloud((30, 30, 2), spacing=0.006)[0]) for i in range(2)],
    "dense_plane": [_plane(i, gap) for i, gap in enumerate([0.16, 0.12, 0.08, 0.04, 0.0, 0.08, 0.16])],
}


class TestDegenerateInputs:
    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_labels_every_point_and_reruns_identically(self, name):
        frames = DEGENERATE[name]
        first = run_sequence(frames, PipelineConfig())
        again = run_sequence(frames, PipelineConfig())
        for frame, a, b in zip(frames, first.frames, again.frames):
            assert a.point_labels.shape == (frame.num_points,)
            assert (a.point_labels >= 0).all()
            assert np.array_equal(a.point_labels, b.point_labels)
        assert first.interactions == again.interactions

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_tree_invariants_hold_on_every_frame(self, name):
        run_checked(DEGENERATE[name], PipelineConfig())


@st.composite
def _random_runs(draw):
    """A random short sequence of Gaussian clusters and a random config for it.

    Frames hold 1-4 clusters of 1-120 points each, some planar, drifting
    between frames and each missing from a frame one time in five.  Configs
    vary the voxel, the seed resolution, the growth passes, the tree
    thresholds, the retention and, in half the cases, a GA of 1-5
    individuals.  Left out: seed resolutions under 5 voxels and larger
    clouds, whose hundreds of supervoxels or live objects can make a frame
    take most of a second, most of it in the GA; and a merge threshold at or
    below the split threshold, which the tree may not be meant to take.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clusters = draw(st.lists(st.tuples(st.integers(1, 120), st.booleans()), min_size=1, max_size=4))
    centres = rng.uniform(0.0, 0.3, (len(clusters), 3))
    drift = rng.normal(0.0, 0.01, (len(clusters), 3))
    spread = rng.uniform(0.005, 0.04, len(clusters))
    colours = rng.integers(0, 256, (len(clusters), 3), dtype=np.uint8)
    frames = []
    for t in range(draw(st.integers(1, 4))):
        pts, cols = [np.zeros((0, 3))], [np.zeros((0, 3), dtype=np.uint8)]
        for c, (n, planar) in enumerate(clusters):
            if rng.random() < 0.2:
                continue
            p = centres[c] + t * drift[c] + rng.normal(0.0, spread[c], (n, 3))
            if planar:
                p[:, 2] = centres[c, 2]
            pts.append(p)
            cols.append(np.tile(colours[c], (n, 1)))
        frames.append(PointCloudFrame(t, np.concatenate(pts), np.concatenate(cols)))
    voxel = draw(st.floats(0.004, 0.05))
    split = draw(st.floats(0.0, 0.9))
    config = PipelineConfig(
        supervoxel=SupervoxelConfig(
            voxel_resolution=voxel,
            seed_resolution=voxel * draw(st.integers(5, 10)),
            max_iterations=draw(st.integers(1, 5)),
        ),
        tree=TreeParams(split_threshold=split, merge_threshold=draw(st.floats(split + 0.05, 1.0))),
        retention_frames=draw(st.integers(0, 3)),
        ga=GAConfig(population=draw(st.integers(1, 5))) if draw(st.booleans()) else GAConfig(),
        seed=draw(st.integers(0, 3)),
    )
    return frames, config


def _outcome(result):
    """What a frame's result says, less its timings."""
    events = [(e.start_frame, e.end_frame, e.blob_hint, e.object_ids) for e in result.interactions_closed]
    return result.merges, result.splits, events, result.object_count, result.blob_count, result.assignment


class TestRandomSequences:
    @settings(max_examples=30, deadline=None)
    @given(run=_random_runs(), order_seed=st.integers(0, 2**32 - 1))
    def test_invariants_reruns_and_point_order(self, run, order_seed):
        frames, config = run
        first = run_checked(frames, config)
        again = run_checked(frames, config)
        rng = np.random.default_rng(order_seed)
        perms = [rng.permutation(f.num_points) for f in frames]
        shuffled = run_checked(
            [PointCloudFrame(f.frame_index, f.points[p], f.colors[p]) for f, p in zip(frames, perms)], config
        )
        for a, b, c, p in zip(first, again, shuffled, perms):
            assert np.array_equal(a.point_labels, b.point_labels)
            assert _outcome(a) == _outcome(b)
            assert np.array_equal(a.point_labels[p], c.point_labels)
            assert _outcome(a) == _outcome(c)


def _three_spheres(rng_seed):
    """Three r = 0.12 spheres 120 degrees apart, moving radially on approach_merge_split's gap profile."""
    pair = make_scenario("approach_merge_split", rng_seed=rng_seed)
    radius = pair.shapes[0].size[0]
    gaps = pair.trajectories[1, :, 0] - pair.trajectories[0, :, 0] - 2 * radius
    distance = (gaps + 2 * radius) / (2 * np.sin(np.pi / 3))  # centre to the middle
    angles = np.pi / 2 + 2 * np.pi * np.arange(3) / 3
    traj = np.zeros((3, pair.frame_count, 3))
    traj[:, :, 0] = np.outer(np.cos(angles), distance)
    traj[:, :, 1] = np.outer(np.sin(angles), distance)
    colors = [(205, 60, 60), (60, 80, 205), (70, 180, 90)]
    return SynthScenario(
        kind=pair.kind,
        shapes=[ShapeSpec("sphere", (radius,), c) for c in colors],
        trajectories=traj,
        frame_count=pair.frame_count,
        rng_seed=rng_seed,
    )


class TestSparseClouds:
    """The voxel-neighbour reach on clouds sparser than the default voxel."""

    def test_three_touching_spheres_stay_three_objects(self):
        generated = generate_scenario(_three_spheres(0))
        results = run_checked(generated.frames, PipelineConfig())
        assert min(r.blob_count for r in results) == 1  # all three touch
        assert [r.object_count for r in results] == [3] * len(results)
        for r, truth in zip(results, generated.truth_labels):
            assert segmentation_error(LabeledFrame(r.frame_index, r.point_labels), truth) == 0.0

    def test_reach_is_kept_when_later_frames_are_denser(self):
        # two patches one empty voxel apart: reach 2 bridges them, reach 1 does not
        def patches(idx, n, spacing):
            left = grid_cloud((n, n, 1), spacing=spacing, origin=(0.001, 0.001, 0.001))[0]
            right = grid_cloud((n, n, 1), spacing=spacing, origin=(0.033, 0.001, 0.001))[0]
            return _cloud(idx, np.concatenate([left, right]))

        sparse, dense = patches(0, 3, 0.008), [patches(i, 6, 0.004) for i in (1, 2)]
        assert voxel_reach(sparse.points, 0.008) == 2 and voxel_reach(dense[0].points, 0.008) == 1
        assert len(cluster_supervoxels(dense[0], SupervoxelConfig(), 1)) == 2
        result = run_sequence([sparse, *dense], PipelineConfig())
        assert result.state.reach == 2
        assert [r.supervoxel_count for r in result.frames] == [1, 1, 1]

    def test_leading_empty_frames_do_not_decide_the_reach(self):
        state = init_state(PipelineConfig())
        for i in range(2):
            process_frame(state, _cloud(i, np.zeros((0, 3))))
            assert state.reach is None
        process_frame(state, _cloud(2, grid_cloud((10, 10, 1), spacing=0.012)[0]))
        assert state.reach == 2
