"""Scoring against ground truth and synthetic ground-truthed sequences.

The output labeler invents its own ids, so scoring first counts the points
each (output id, truth id) pair shares in one overlap matrix (``_overlap``)
and matches ids one-to-one by maximum total overlap: per frame for the
segmentation error, over all frames at once for the label map.  One event
scorer (``_score_events``) matches interaction events one-to-one under that
label map with a frame tolerance.

The generator builds small scripted scenes (approach/merge/split, occlusion
splits, static controls, near-miss crossings) with analytic ground truth.
``SynthScenario``'s field defaults are the one copy of the scenario defaults,
and ``SCENARIO_FRAMES`` holds each kind's default frame count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cloud_io import InteractionRecord, LabeledFrame, PointCloudFrame, significant_lines

# scenario kind -> default frame count
SCENARIO_FRAMES = {"approach_merge_split": 26, "occlusion_split": 24, "static": 8, "crossing": 20}


# ---------------------------------------------------------------- metrics


def _overlap(out: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct output ids, distinct truth ids, and the points each (output, truth) pair shares."""
    out_ids, out_inv = np.unique(out, return_inverse=True)
    ref_ids, ref_inv = np.unique(ref, return_inverse=True)
    shape = (len(out_ids), len(ref_ids))
    counts = np.bincount(out_inv * shape[1] + ref_inv, minlength=shape[0] * shape[1])
    return out_ids, ref_ids, counts.reshape(shape)


def _best_pairs(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the one-to-one matching with the largest total weight."""
    from scipy.optimize import linear_sum_assignment  # here, so segmenting never loads scipy.optimize

    return linear_sum_assignment(weights, maximize=True)


def segmentation_error(labeled: LabeledFrame, truth: LabeledFrame) -> float:
    """1 - (points covered by the best one-to-one label matching) / total."""
    out = np.asarray(labeled.labels, dtype=np.int64)
    ref = np.asarray(truth.labels, dtype=np.int64)
    if out.shape != ref.shape:
        raise ValueError(f"label counts differ: {out.shape[0]} vs {ref.shape[0]}")
    n = out.shape[0]
    if n == 0:
        return 0.0
    overlap = _overlap(out, ref)[2]
    return 1.0 - int(overlap[_best_pairs(overlap)].sum()) / n


def match_labels(
    found: dict[int, np.ndarray], truth: dict[int, np.ndarray]
) -> dict[int, int]:
    """Global output-label -> truth-label correspondence over all frames."""
    frames = [f for f in found if f in truth]
    for f in frames:
        if len(found[f]) != len(truth[f]):
            raise ValueError(f"frame {f}: label counts differ")
    if not frames:
        return {}
    out = np.concatenate([np.asarray(found[f], dtype=np.int64) for f in frames])
    ref = np.concatenate([np.asarray(truth[f], dtype=np.int64) for f in frames])
    out_ids, ref_ids, overlap = _overlap(out, ref)
    rows, cols = _best_pairs(overlap)
    return {int(out_ids[r]): int(ref_ids[c]) for r, c in zip(rows, cols) if overlap[r, c] > 0}


def _score_events(
    found: list, truth: list, tolerance: int, label_map: dict[int, int] | None
) -> tuple[int, float, float]:
    """(matched, precision, recall) under one-to-one event matching; see interaction_score."""
    ok = np.zeros((len(found), len(truth)), dtype=np.int64)
    truth_ids = [frozenset(int(x) for x in t.object_ids) for t in truth]
    for i, f in enumerate(found):
        ids = [int(x) for x in f.object_ids]
        if label_map is not None:
            if any(x not in label_map for x in ids):
                continue
            ids = [label_map[x] for x in ids]
        for j, t in enumerate(truth):
            near = f.start_frame - tolerance <= t.end_frame and f.end_frame + tolerance >= t.start_frame
            ok[i, j] = near and frozenset(ids) == truth_ids[j]
    matched = int(ok[_best_pairs(ok)].sum())
    return matched, matched / len(found) if found else 1.0, matched / len(truth) if truth else 1.0


def interaction_score(
    found, truth, tolerance_frames: int = 1, label_map: dict[int, int] | None = None
) -> tuple[float, float]:
    """(precision, recall) under one-to-one event matching.

    A found event matches a truth event when their object-id sets agree
    (after mapping found ids through label_map, if given) and the frame
    intervals overlap once widened by the tolerance.
    """
    return _score_events(list(found), list(truth), tolerance_frames, label_map)[1:]


@dataclass
class MetricsReport:
    per_frame_error: list[float]
    mean_error: float
    truth_interaction_count: int
    found_interaction_count: int
    matched_interaction_count: int
    interaction_precision: float
    interaction_recall: float


def evaluate_run(
    found_labels: dict[int, np.ndarray],
    truth_frames: list[LabeledFrame],
    found_events=(),
    truth_events=(),
    tolerance_frames: int = 1,
) -> MetricsReport:
    truth_by_frame = {t.frame_index: np.asarray(t.labels, dtype=np.int64) for t in truth_frames}
    per_frame = []
    for t, ref in sorted(truth_by_frame.items()):
        out = found_labels.get(t)
        if out is None and len(ref):
            raise ValueError(f"no output labels for frame {t}")
        error = 0.0 if out is None else segmentation_error(LabeledFrame(t, out), LabeledFrame(t, ref))
        per_frame.append(error)
    mean_error = float(np.mean(per_frame)) if per_frame else 0.0
    found_events = list(found_events)
    truth_events = list(truth_events)
    label_map = match_labels(found_labels, truth_by_frame)
    matched, precision, recall = _score_events(found_events, truth_events, tolerance_frames, label_map)
    return MetricsReport(
        per_frame_error=per_frame,
        mean_error=mean_error,
        truth_interaction_count=len(truth_events),
        found_interaction_count=len(found_events),
        matched_interaction_count=matched,
        interaction_precision=precision,
        interaction_recall=recall,
    )


def format_metrics(report: MetricsReport) -> str:
    lines = []
    lines.append(f"{'frame':>6}  {'error':>8}")
    for i, e in enumerate(report.per_frame_error):
        lines.append(f"{i:>6}  {e:>8.4f}")
    lines.append("")
    lines.append(f"{'mean error':<22} {report.mean_error:.4f}")
    lines.append(f"{'interactions found':<22} {report.found_interaction_count}")
    lines.append(f"{'interactions truth':<22} {report.truth_interaction_count}")
    lines.append(f"{'interactions matched':<22} {report.matched_interaction_count}")
    lines.append(f"{'precision':<22} {report.interaction_precision:.4f}")
    lines.append(f"{'recall':<22} {report.interaction_recall:.4f}")
    lines.append("")
    lines.append("metrics v1")
    lines.append(f"mean_error={report.mean_error:.6f}")
    lines.append(f"interactions_found={report.found_interaction_count}")
    lines.append(f"interactions_truth={report.truth_interaction_count}")
    lines.append(f"interactions_matched={report.matched_interaction_count}")
    lines.append(f"precision={report.interaction_precision:.6f}")
    lines.append(f"recall={report.interaction_recall:.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- scenarios


@dataclass
class ShapeSpec:
    kind: str  # "sphere" | "box"
    size: tuple[float, ...]  # sphere: (radius,); box: (ex, ey, ez)
    color: tuple[int, int, int]

    def __post_init__(self) -> None:
        if self.kind not in ("sphere", "box"):
            raise ValueError(f"unknown shape kind: {self.kind}")
        if self.kind == "sphere" and (len(self.size) != 1 or self.size[0] <= 0):
            raise ValueError("sphere needs one positive radius")
        if self.kind == "box" and (len(self.size) != 3 or min(self.size) <= 0):
            raise ValueError("box needs three positive extents")


@dataclass
class SynthScenario:
    kind: str
    shapes: list[ShapeSpec]
    trajectories: np.ndarray  # (num_objects, frame_count, 3) centers
    frame_count: int
    points_per_object: int = 1500
    noise_sigma: float = 0.0015
    rng_seed: int = 0
    contact_threshold: float = 0.16  # 2 x default seed_resolution
    # slab occluder: points with |x - center(t)| < width/2 are deleted while
    # the mask is active; the center drifts linearly over the active window
    occluder_width: float = 0.0  # 0 disables
    occluder_frames: tuple[int, int] | None = None  # inclusive active interval
    occluder_x: float = 0.0  # center at the first active frame
    occluder_drift: float = 0.0  # center motion per active frame

    def __post_init__(self) -> None:
        self.trajectories = np.asarray(self.trajectories, dtype=np.float64)
        if self.frame_count < 1:
            raise ValueError("frame_count must be >= 1")
        if self.trajectories.shape != (len(self.shapes), self.frame_count, 3):
            raise ValueError("trajectories must be (objects, frames, 3)")
        if self.points_per_object < 1:
            raise ValueError("points_per_object must be >= 1")
        if self.kind not in SCENARIO_FRAMES:
            raise ValueError(f"unknown scenario kind: {self.kind}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not (math.isfinite(self.contact_threshold) and self.contact_threshold > 0):
            raise ValueError(f"contact_threshold must be finite and > 0, got {self.contact_threshold}")
        if self.occluder_width < 0:
            raise ValueError("occluder_width must be >= 0")

    def occluder_center(self, t: int) -> float | None:
        """Mask center at frame t, or None when the mask is inactive."""
        if self.occluder_width <= 0 or self.occluder_frames is None:
            return None
        a, b = self.occluder_frames
        if not a <= t <= b:
            return None
        return self.occluder_x + self.occluder_drift * (t - a)


@dataclass
class GeneratedSequence:
    frames: list[PointCloudFrame]
    truth_labels: list[LabeledFrame]
    truth_interactions: list[InteractionRecord]


def _surface_gap(a: ShapeSpec, ca: np.ndarray, b: ShapeSpec, cb: np.ndarray) -> np.ndarray:
    """Minimum surface distance between two shapes (axis-aligned, no rotation).

    Centers are (..., 3) arrays, so one call covers every frame of a trajectory.
    """
    if a.kind == "sphere" and b.kind == "sphere":
        return np.maximum(0.0, np.linalg.norm(ca - cb, axis=-1) - a.size[0] - b.size[0])
    half_a = np.asarray(a.size) / 2.0 if a.kind == "box" else np.full(3, a.size[0])
    half_b = np.asarray(b.size) / 2.0 if b.kind == "box" else np.full(3, b.size[0])
    # per-axis clearance; spheres handled as their bounding boxes is avoided
    # above for the sphere/sphere case, mixed pairs use a conservative box hull
    gaps = np.maximum(0.0, np.abs(ca - cb) - half_a - half_b)
    return np.linalg.norm(gaps, axis=-1)


def _sample_shape(shape: ShapeSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    if shape.kind == "sphere":
        r = shape.size[0]
        d = rng.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        u = rng.random(n) ** (1.0 / 3.0)
        return d * (r * u)[:, None]
    ext = np.asarray(shape.size)
    return (rng.random((n, 3)) - 0.5) * ext


def _truth_events(scenario: SynthScenario) -> list[InteractionRecord]:
    """Contiguous frame runs where some object pair is in contact."""
    shapes, traj = scenario.shapes, scenario.trajectories
    events: list[InteractionRecord] = []
    for i, j in itertools.combinations(range(len(shapes)), 2):
        touching = _surface_gap(shapes[i], traj[i], shapes[j], traj[j]) < scenario.contact_threshold
        # +1 where a run starts, -1 one frame past where it ends
        steps = np.diff(np.concatenate(([0], touching.astype(np.int8), [0])))
        for start, stop in zip(np.flatnonzero(steps == 1), np.flatnonzero(steps == -1)):
            events.append(InteractionRecord(int(start), int(stop) - 1, -1, (i, j)))
    events.sort(key=lambda e: (e.start_frame, e.end_frame, e.object_ids))
    return events


def generate_scenario(scenario: SynthScenario) -> GeneratedSequence:
    """Deterministic point stream with per-point truth labels and truth events."""
    rng = np.random.Generator(np.random.Philox(scenario.rng_seed))
    n = scenario.points_per_object
    base = [_sample_shape(s, n, rng) for s in scenario.shapes]
    jitter = [rng.integers(-6, 7, size=(n, 3)) for _ in scenario.shapes]
    # colours and labels do not change between frames; each frame gets its own copy
    colors = np.concatenate(
        [np.clip(np.asarray(s.color) + j, 0, 255).astype(np.uint8) for s, j in zip(scenario.shapes, jitter)]
    )
    labels = np.repeat(np.arange(len(scenario.shapes), dtype=np.int64), n)
    frames: list[PointCloudFrame] = []
    truths: list[LabeledFrame] = []
    for t in range(scenario.frame_count):
        centers = scenario.trajectories[:, t]
        pts = np.concatenate(
            [b + c + rng.normal(scale=scenario.noise_sigma, size=b.shape) for b, c in zip(base, centers)]
        )
        center = scenario.occluder_center(t)
        keep = slice(None) if center is None else np.abs(pts[:, 0] - center) >= scenario.occluder_width / 2.0
        frames.append(PointCloudFrame(frame_index=t, points=pts[keep], colors=colors[keep].copy()))
        truths.append(LabeledFrame(frame_index=t, labels=labels[keep].copy()))
    return GeneratedSequence(frames=frames, truth_labels=truths, truth_interactions=_truth_events(scenario))


def _hold_profile(frame_count: int, start: float, floor: float, rate: float, hold: int) -> np.ndarray:
    """Half-gap profile: linear approach to the floor, hold, linear retreat."""
    t = np.arange(frame_count)
    t_reach = math.ceil((start - floor) / rate)
    retreat = np.maximum(t - t_reach - hold + 1, 0)  # 0 until the hold ends
    return np.where(t < t_reach, np.maximum(floor, start - rate * t), floor + rate * retreat)


def make_scenario(kind: str, frame_count: int | None = None, **fields) -> SynthScenario:
    """Scripted trajectories for the built-in scenario kinds.

    ``frame_count`` defaults per kind (``SCENARIO_FRAMES``); ``fields`` sets
    any other ``SynthScenario`` field, such as ``rng_seed``,
    ``points_per_object``, ``noise_sigma`` or ``contact_threshold``.
    """
    if kind not in SCENARIO_FRAMES:
        raise ValueError(f"unknown scenario kind: {kind}")
    f = SCENARIO_FRAMES[kind] if frame_count is None else frame_count
    t = np.arange(f)  # empty for f < 1, so SynthScenario's own check reports the frame count
    radius = 0.12
    spheres = [ShapeSpec("sphere", (radius,), color) for color in ((205, 60, 60), (60, 80, 205))]
    traj = np.zeros((2, len(t), 3))
    if kind == "approach_merge_split":
        shapes = spheres
        # surface gap: fast approach, near-touch hold, fast retreat
        half = (_hold_profile(f, start=0.42, floor=0.008, rate=0.10, hold=6) + 2 * radius) / 2.0
        traj[0, :, 0] = -half
        traj[1, :, 0] = half
    elif kind == "occlusion_split":
        # static box, a narrow mask drifts across its middle; both visible
        # pieces stay on previously-seen territory the whole time
        shapes = [ShapeSpec("box", (1.0, 0.16, 0.16), (80, 170, 90))]
        traj = np.zeros((1, len(t), 3))
        fields.update(occluder_width=0.10, occluder_frames=(min(5, f - 1), min(17, f - 1)))
        fields.update(occluder_x=-0.06, occluder_drift=0.01)
    elif kind == "static":
        shapes = spheres
        traj[0, :, 0] = -0.5
        traj[1, :, 0] = 0.5
    else:  # crossing
        shapes = [ShapeSpec("box", (0.2, 0.15, 0.15), color) for color in ((210, 160, 60), (90, 70, 190))]
        traj[0, :, 0] = -0.5 + 0.05 * t
        traj[1, :, 1] = -0.5 + 0.05 * t
        traj[1, :, 2] = 0.45  # clears the first path with margin
    return SynthScenario(kind=kind, shapes=shapes, trajectories=traj, frame_count=f, **fields)


def scenario_from_spec(text: str, path: str = "<spec>") -> SynthScenario:
    """Parse a key=value scenario spec (kind, frames, seed, points, noise, contact); errors name ``path:line``."""
    # spec key -> (make_scenario argument, value type)
    keys = {
        "kind": ("kind", str),
        "frames": ("frame_count", int),
        "seed": ("rng_seed", int),
        "points_per_object": ("points_per_object", int),
        "noise_sigma": ("noise_sigma", float),
        "contact_threshold": ("contact_threshold", float),
    }
    args: dict = {}
    for line_no, line in significant_lines(text.splitlines()):
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in keys:
            raise ValueError(f"{path}:{line_no}: unknown scenario key {key!r}")
        arg, parse = keys[key]
        try:
            args[arg] = parse(val)
        except ValueError:
            raise ValueError(f"{path}:{line_no}: bad value for {key!r}: {val!r}") from None
    if "kind" not in args:
        raise ValueError(f"{path}: scenario spec needs a kind")
    try:
        return make_scenario(**args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
