"""Metrics and synthetic scenario generation."""

import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynseg.cloud_io import InteractionRecord, LabeledFrame
from dynseg.evaluation import (
    SCENARIO_FRAMES,
    ShapeSpec,
    SynthScenario,
    _hold_profile,
    _surface_gap,
    _truth_events,
    evaluate_run,
    format_metrics,
    generate_scenario,
    interaction_score,
    make_scenario,
    match_labels,
    scenario_from_spec,
    segmentation_error,
)


def _lf(labels, frame=0):
    return LabeledFrame(frame_index=frame, labels=np.asarray(labels, dtype=np.int64))


def _ev(start, end, ids):
    return InteractionRecord(start_frame=start, end_frame=end, blob_hint=-1, object_ids=tuple(ids))


def _generated_digest(seq) -> str:
    """sha256 over every frame's points, colours and truth labels, then the truth events."""
    h = hashlib.sha256()
    for frame, truth in zip(seq.frames, seq.truth_labels):
        for a in (frame.points, frame.colors, truth.labels):
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
    events = [(e.start_frame, e.end_frame, e.blob_hint, e.object_ids) for e in seq.truth_interactions]
    h.update(repr(events).encode())
    return h.hexdigest()


def _three_spheres() -> SynthScenario:
    """Three spheres 120 degrees apart on approach_merge_split's gap profile, like the triple workload."""
    gaps = _hold_profile(16, start=0.42, floor=0.008, rate=0.10, hold=6)
    radial = (gaps + 2 * 0.12) / (2 * math.sin(math.pi / 3))
    traj = np.zeros((3, 16, 3))
    for k in range(3):
        angle = math.pi / 2 + 2 * math.pi * k / 3
        traj[k, :, 0] = radial * math.cos(angle)
        traj[k, :, 1] = radial * math.sin(angle)
    shapes = [ShapeSpec("sphere", (0.12,), c) for c in ((205, 60, 60), (60, 80, 205), (70, 180, 90))]
    return SynthScenario(kind="approach_merge_split", shapes=shapes, trajectories=traj, frame_count=16)


def _frame_loop_truth_events(scenario):
    """Reference: the per-frame, per-pair loop over _surface_gap that finds truth contact runs."""
    events = []
    n = len(scenario.shapes)
    for i in range(n):
        for j in range(i + 1, n):
            run_start = None
            for t in range(scenario.frame_count):
                traj = scenario.trajectories
                gap = _surface_gap(scenario.shapes[i], traj[i, t], scenario.shapes[j], traj[j, t])
                touching = gap < scenario.contact_threshold
                if touching and run_start is None:
                    run_start = t
                elif not touching and run_start is not None:
                    events.append(InteractionRecord(run_start, t - 1, -1, (i, j)))
                    run_start = None
            if run_start is not None:
                events.append(InteractionRecord(run_start, scenario.frame_count - 1, -1, (i, j)))
    events.sort(key=lambda e: (e.start_frame, e.end_frame, e.object_ids))
    return events


class TestSegmentationError:
    def test_relabeling_is_free(self):
        assert segmentation_error(_lf([0, 0, 1, 1]), _lf([5, 5, 2, 2])) == 0.0

    def test_half_wrong(self):
        # one output label over two truth labels: best match covers half
        assert segmentation_error(_lf([0, 0, 0, 0]), _lf([0, 0, 1, 1])) == pytest.approx(0.5)

    def test_four_percent_corruption(self):
        rng = np.random.default_rng(0)
        truth = np.repeat(np.arange(5), 2000)
        out = truth.copy()
        idx = rng.choice(10_000, size=400, replace=False)
        out[idx] = (out[idx] + 1) % 5
        err = segmentation_error(_lf(out), _lf(truth))
        assert abs(err - 0.04) < 1e-4

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 4, 200)
        b = rng.integers(0, 3, 200)
        assert segmentation_error(_lf(a), _lf(b)) == pytest.approx(
            segmentation_error(_lf(b), _lf(a))
        )

    def test_empty_is_zero(self):
        assert segmentation_error(_lf([]), _lf([])) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            segmentation_error(_lf([0, 1]), _lf([0]))

    @settings(max_examples=40, deadline=None)
    @given(
        labels=st.lists(st.integers(0, 5), min_size=1, max_size=60),
        seed=st.integers(0, 2**16),
    )
    def test_invariant_under_output_relabeling(self, labels, seed):
        rng = np.random.default_rng(seed)
        truth = np.asarray(labels)
        out = rng.integers(0, 4, size=len(truth))
        base = segmentation_error(_lf(out), _lf(truth))
        perm = rng.permutation(out.max() + 1)
        assert segmentation_error(_lf(perm[out]), _lf(truth)) == pytest.approx(base)
        assert segmentation_error(_lf(truth), _lf(truth)) == 0.0


class TestMatchLabels:
    def test_majority_overlap_wins(self):
        found = {0: np.asarray([0, 0, 1])}
        truth = {0: np.asarray([7, 7, 3])}
        assert match_labels(found, truth) == {0: 7, 1: 3}

    def test_aggregates_over_frames(self):
        found = {0: np.asarray([0, 1]), 1: np.asarray([0, 0, 1])}
        truth = {0: np.asarray([2, 9]), 1: np.asarray([2, 2, 9])}
        assert match_labels(found, truth) == {0: 2, 1: 9}

    def test_missing_truth_frame_skipped(self):
        found = {0: np.asarray([0]), 5: np.asarray([1, 1])}
        truth = {0: np.asarray([4])}
        assert match_labels(found, truth) == {0: 4}

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            match_labels({0: np.asarray([0, 1])}, {0: np.asarray([0])})

    @settings(max_examples=60, deadline=None)
    @given(
        frames=st.lists(
            st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12), min_size=1, max_size=3
        )
    )
    def test_reaches_the_brute_force_maximum_overlap(self, frames):
        found = {f: np.asarray([a for a, _ in pairs], dtype=np.int64) for f, pairs in enumerate(frames)}
        truth = {f: np.asarray([b for _, b in pairs], dtype=np.int64) for f, pairs in enumerate(frames)}
        overlap = Counter(pair for pairs in frames for pair in pairs)
        out_ids = sorted({a for a, _ in overlap})
        ref_ids = sorted({b for _, b in overlap})
        # every one-to-one map from output ids into truth ids, None leaving an id unmatched
        best = max(
            sum(overlap[(a, b)] for a, b in zip(out_ids, image) if b is not None)
            for image in itertools.permutations(ref_ids + [None] * len(out_ids), len(out_ids))
        )
        mapping = match_labels(found, truth)
        assert len(set(mapping.values())) == len(mapping)
        assert all(overlap[pair] > 0 for pair in mapping.items())
        assert sum(overlap[pair] for pair in mapping.items()) == best


class TestInteractionScore:
    def test_exact_match(self):
        assert interaction_score([_ev(3, 7, (0, 1))], [_ev(3, 7, (0, 1))]) == (1.0, 1.0)

    def test_interval_tolerance(self):
        found = [_ev(5, 9, (0, 1))]
        truth = [_ev(10, 12, (0, 1))]
        assert interaction_score(found, truth, tolerance_frames=1) == (1.0, 1.0)
        assert interaction_score(found, truth, tolerance_frames=0) == (0.0, 0.0)

    def test_id_sets_must_agree(self):
        assert interaction_score([_ev(3, 7, (0, 1))], [_ev(3, 7, (0, 2))]) == (0.0, 0.0)

    def test_label_map_applies_to_found(self):
        found = [_ev(3, 7, (10, 11))]
        truth = [_ev(3, 7, (0, 1))]
        assert interaction_score(found, truth, label_map={10: 0, 11: 1}) == (1.0, 1.0)
        assert interaction_score(found, truth, label_map={10: 0}) == (0.0, 0.0)

    def test_one_to_one_matching(self):
        found = [_ev(3, 7, (0, 1)), _ev(4, 8, (0, 1))]
        truth = [_ev(3, 7, (0, 1))]
        precision, recall = interaction_score(found, truth)
        assert precision == pytest.approx(0.5)
        assert recall == 1.0

    def test_empty_conventions(self):
        assert interaction_score([], [_ev(0, 1, (0, 1))]) == (1.0, 0.0)
        assert interaction_score([_ev(0, 1, (0, 1))], []) == (0.0, 1.0)
        assert interaction_score([], []) == (1.0, 1.0)


class TestEvaluateRun:
    def test_perfect_run(self):
        truth_frames = [_lf([0, 0, 1], 0), _lf([0, 1, 1], 1)]
        found = {0: np.asarray([4, 4, 9]), 1: np.asarray([4, 9, 9])}
        report = evaluate_run(
            found,
            truth_frames,
            found_events=[_ev(0, 1, (4, 9))],
            truth_events=[_ev(0, 1, (0, 1))],
        )
        assert report.mean_error == 0.0
        assert report.per_frame_error == [0.0, 0.0]
        # the label map carries found ids 4, 9 onto truth ids 0, 1
        assert report.matched_interaction_count == 1
        assert report.interaction_precision == 1.0
        assert report.interaction_recall == 1.0

    def test_missing_frame_with_truth_points_rejected(self):
        with pytest.raises(ValueError):
            evaluate_run({}, [_lf([0, 1], 0)])

    def test_missing_frame_with_empty_truth_is_fine(self):
        report = evaluate_run({}, [_lf([], 0)])
        assert report.per_frame_error == [0.0]

    def test_format_metrics(self):
        report = evaluate_run({0: np.asarray([1, 1])}, [_lf([0, 0], 0)])
        text = format_metrics(report)
        assert "metrics v1" in text
        assert "mean_error=0.000000" in text
        assert "precision=1.000000" in text
        assert text.endswith("\n")


class TestSurfaceGap:
    def test_sphere_sphere(self):
        a = ShapeSpec("sphere", (0.12,), (0, 0, 0))
        assert _surface_gap(a, np.zeros(3), a, np.asarray([0.5, 0.0, 0.0])) == pytest.approx(0.26)
        assert _surface_gap(a, np.zeros(3), a, np.asarray([0.2, 0.0, 0.0])) == 0.0

    def test_box_box(self):
        b = ShapeSpec("box", (0.2, 0.2, 0.2), (0, 0, 0))
        assert _surface_gap(b, np.zeros(3), b, np.asarray([0.3, 0.0, 0.0])) == pytest.approx(0.1)
        assert _surface_gap(b, np.zeros(3), b, np.zeros(3)) == 0.0


class TestShapes:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ShapeSpec("cone", (0.1,), (0, 0, 0))
        with pytest.raises(ValueError):
            ShapeSpec("sphere", (0.1, 0.2), (0, 0, 0))
        with pytest.raises(ValueError):
            ShapeSpec("box", (0.1, -0.2, 0.3), (0, 0, 0))

    def test_scenario_validation(self):
        shape = ShapeSpec("sphere", (0.1,), (0, 0, 0))
        with pytest.raises(ValueError):
            SynthScenario(kind="static", shapes=[shape], trajectories=np.zeros((2, 3, 3)), frame_count=3)
        with pytest.raises(ValueError):
            SynthScenario(kind="bogus", shapes=[shape], trajectories=np.zeros((1, 3, 3)), frame_count=3)
        for field, value in (
            ("noise_sigma", -1.0),
            ("noise_sigma", math.nan),
            ("contact_threshold", 0.0),
            ("contact_threshold", math.inf),
        ):
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                SynthScenario("static", [shape], np.zeros((1, 3, 3)), frame_count=3, **{field: value})


class TestHoldProfile:
    def test_profile_shape(self):
        gap = _hold_profile(26, start=0.42, floor=0.008, rate=0.10, hold=6)
        assert gap.shape == (26,)
        assert gap[0] == pytest.approx(0.42)
        assert gap[1] == pytest.approx(0.32)
        assert gap[5] == pytest.approx(0.008)  # floor reached
        assert gap[10] == pytest.approx(0.008)  # still holding
        assert gap[11] > gap[10]  # retreating
        assert np.all(gap >= 0.008 - 1e-12)


class TestGenerateScenario:
    def test_deterministic_per_seed(self):
        a = generate_scenario(make_scenario("static", rng_seed=4, points_per_object=100))
        b = generate_scenario(make_scenario("static", rng_seed=4, points_per_object=100))
        c = generate_scenario(make_scenario("static", rng_seed=5, points_per_object=100))
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.points, fb.points)
            assert np.array_equal(fa.colors, fb.colors)
        assert not np.array_equal(a.frames[0].points, c.frames[0].points)

    def test_generated_bytes_are_pinned(self):
        """One digest per kind at seed 0 and default sizes, plus three spheres as in the triple workload."""
        digests = {kind: _generated_digest(generate_scenario(make_scenario(kind))) for kind in SCENARIO_FRAMES}
        digests["three_spheres"] = _generated_digest(generate_scenario(_three_spheres()))
        assert digests == {
            "approach_merge_split": "b4a0374aabef206da111dcfc71a8452e63ab8bc2c3d62c5f0366e4742562bbc6",
            "occlusion_split": "e5b26e502a38ffcd16ec45003f465151efc1725240bb585fa79c2f04aae8a629",
            "static": "21b7f67105e0a7a0cc42fb80e561be3197a28451d484660d6292b84a68f1b458",
            "crossing": "ed0fbbcefdd093248d684725a6b32914d598ed9c2684e85f2b9f83cc9b2597c4",
            "three_spheres": "36f668e5dea779e7d757eca19ed47ceb39627be56be380803f58a3a87f68723b",
        }

    def test_frames_own_their_arrays(self):
        seq = generate_scenario(make_scenario("static", frame_count=3, points_per_object=20))
        arrays = [a for f, t in zip(seq.frames, seq.truth_labels) for a in (f.points, f.colors, t.labels)]
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)

    def test_truth_labels_partition_points(self):
        seq = generate_scenario(make_scenario("static", points_per_object=120))
        for frame, truth in zip(seq.frames, seq.truth_labels):
            assert frame.num_points == len(truth.labels)
            counts = np.bincount(truth.labels)
            assert counts.tolist() == [120, 120]

    def test_approach_truth_event_interval(self):
        seq = generate_scenario(make_scenario("approach_merge_split", points_per_object=60))
        assert [(e.start_frame, e.end_frame, e.object_ids) for e in seq.truth_interactions] == [
            (3, 11, (0, 1))
        ]

    def test_static_and_crossing_have_no_events(self):
        for kind in ("static", "crossing"):
            seq = generate_scenario(make_scenario(kind, points_per_object=60))
            assert seq.truth_interactions == []

    def test_occluder_removes_a_slab(self):
        scenario = make_scenario("occlusion_split", points_per_object=800)
        seq = generate_scenario(scenario)
        lo, hi = scenario.occluder_frames
        quiet = seq.frames[0].num_points
        for t in range(lo, hi + 1):
            frame = seq.frames[t]
            assert frame.num_points < quiet
            center = scenario.occluder_center(t)
            gap = np.abs(frame.points[:, 0] - center)
            assert (gap >= scenario.occluder_width / 2.0).all()
        # mask off outside the window
        assert scenario.occluder_center(lo - 1) is None
        assert scenario.occluder_center(hi + 1) is None
        assert scenario.occluder_center(lo + 1) == pytest.approx(-0.05)

    def test_occluder_splits_visible_cloud_in_two(self):
        scenario = make_scenario("occlusion_split", points_per_object=800)
        seq = generate_scenario(scenario)
        lo, hi = scenario.occluder_frames
        t = (lo + hi) // 2
        center = scenario.occluder_center(t)
        xs = seq.frames[t].points[:, 0]
        assert (xs < center).any() and (xs > center).any()


class TestTruthEvents:
    def test_a_pair_that_touches_twice_gives_two_events(self):
        shapes = [ShapeSpec("sphere", (0.1,), (0, 0, 0)), ShapeSpec("box", (0.2, 0.2, 0.2), (0, 0, 0))]
        traj = np.zeros((2, 6, 3))
        traj[1, :, 0] = [1.0, 0.25, 0.25, 1.0, 0.2, 0.2]
        scenario = SynthScenario("static", shapes, traj, frame_count=6, contact_threshold=0.1)
        assert [(e.start_frame, e.end_frame, e.object_ids) for e in _truth_events(scenario)] == [
            (1, 2, (0, 1)),
            (4, 5, (0, 1)),
        ]
        assert _truth_events(scenario) == _frame_loop_truth_events(scenario)

    @settings(max_examples=60, deadline=None)
    @given(
        objects=st.integers(2, 3),
        frames=st.integers(1, 12),
        contact=st.floats(0.01, 0.3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_frame_loop(self, objects, frames, contact, seed):
        rng = np.random.default_rng(seed)
        shapes = [
            ShapeSpec("sphere", (rng.uniform(0.05, 0.15),), (0, 0, 0))
            if rng.random() < 0.5
            else ShapeSpec("box", tuple(rng.uniform(0.05, 0.3, 3)), (0, 0, 0))
            for _ in range(objects)
        ]
        traj = rng.uniform(-0.4, 0.4, (objects, frames, 3)) * [1.0, 0.3, 0.3]
        scenario = SynthScenario(
            kind="static", shapes=shapes, trajectories=traj, frame_count=frames, contact_threshold=contact
        )
        assert _truth_events(scenario) == _frame_loop_truth_events(scenario)


class TestScenarioSpec:
    def test_defaults_per_kind(self):
        assert make_scenario("approach_merge_split").frame_count == 26
        assert make_scenario("occlusion_split").frame_count == 24
        assert make_scenario("static").frame_count == 8
        assert make_scenario("crossing").frame_count == 20

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_scenario("nope")

    def test_parse_roundtrip(self):
        text = "# demo\nkind = static\nframes = 4\nseed = 3\npoints_per_object = 50\n"
        s = scenario_from_spec(text)
        assert s.kind == "static"
        assert s.frame_count == 4
        assert s.rng_seed == 3
        assert s.points_per_object == 50

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError) as err:
            scenario_from_spec("kind=static\nwhat = 4\n", "s.txt")
        assert str(err.value).startswith("s.txt:2: ")
        with pytest.raises(ValueError) as err:
            scenario_from_spec("kind=static\nframes = x\n", "s.txt")
        assert str(err.value).startswith("s.txt:2: ")
        with pytest.raises(ValueError):
            scenario_from_spec("frames = 4\n")  # kind missing
        with pytest.raises(ValueError) as err:
            scenario_from_spec("kind static\n", "s.txt")
        assert str(err.value).startswith("s.txt:1: ")
