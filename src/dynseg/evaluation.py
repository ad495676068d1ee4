"""Scoring against ground truth and synthetic ground-truthed sequences.

The output labeler invents its own ids, so scoring first matches output
labels to truth labels by maximum overlap (optimal one-to-one assignment),
then counts mislabeled points.  Interaction events are matched one-to-one
under the same label correspondence with a frame tolerance.

The generator builds small scripted scenes (approach/merge/split, occlusion
splits, static controls, near-miss crossings) with analytic ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cloud_io import InteractionRecord, LabeledFrame, PointCloudFrame, significant_lines

SCENARIO_KINDS = ("approach_merge_split", "occlusion_split", "static", "crossing")


# ---------------------------------------------------------------- metrics


def segmentation_error(labeled: LabeledFrame, truth: LabeledFrame) -> float:
    """1 - (points covered by the best one-to-one label matching) / total."""
    from scipy.optimize import linear_sum_assignment  # here, so segmenting never loads scipy.optimize

    out = np.asarray(labeled.labels, dtype=np.int64)
    ref = np.asarray(truth.labels, dtype=np.int64)
    if out.shape != ref.shape:
        raise ValueError(f"label counts differ: {out.shape[0]} vs {ref.shape[0]}")
    n = out.shape[0]
    if n == 0:
        return 0.0
    out_ids, out_inv = np.unique(out, return_inverse=True)
    ref_ids, ref_inv = np.unique(ref, return_inverse=True)
    overlap = np.zeros((len(out_ids), len(ref_ids)), dtype=np.int64)
    np.add.at(overlap, (out_inv, ref_inv), 1)
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    matched = int(overlap[rows, cols].sum())
    return 1.0 - matched / n


def match_labels(
    found: dict[int, np.ndarray], truth: dict[int, np.ndarray]
) -> dict[int, int]:
    """Global output-label -> truth-label correspondence over all frames."""
    from scipy.optimize import linear_sum_assignment  # here, so segmenting never loads scipy.optimize

    counts: dict[tuple[int, int], int] = {}
    for f, out in found.items():
        if f not in truth:
            continue
        ref = truth[f]
        if len(out) != len(ref):
            raise ValueError(f"frame {f}: label counts differ")
        pairs, c = np.unique(np.stack([out, ref], axis=1), axis=0, return_counts=True)
        for (a, b), k in zip(pairs, c):
            counts[(int(a), int(b))] = counts.get((int(a), int(b)), 0) + int(k)
    if not counts:
        return {}
    out_ids = sorted({a for a, _ in counts})
    ref_ids = sorted({b for _, b in counts})
    mat = np.zeros((len(out_ids), len(ref_ids)), dtype=np.int64)
    for (a, b), k in counts.items():
        mat[out_ids.index(a), ref_ids.index(b)] = k
    rows, cols = linear_sum_assignment(mat, maximize=True)
    return {out_ids[r]: ref_ids[c] for r, c in zip(rows, cols) if mat[r, c] > 0}


def _count_event_matches(
    found: list, truth: list, tolerance_frames: int, label_map: dict[int, int] | None
) -> int:
    from scipy.optimize import linear_sum_assignment  # here, so segmenting never loads scipy.optimize

    if not found or not truth:
        return 0

    def mapped_ids(ev) -> frozenset[int] | None:
        ids = ev.object_ids
        if label_map is None:
            return frozenset(int(i) for i in ids)
        if any(int(i) not in label_map for i in ids):
            return None
        return frozenset(label_map[int(i)] for i in ids)

    ok = np.zeros((len(found), len(truth)), dtype=np.int64)
    for i, f in enumerate(found):
        fids = mapped_ids(f)
        if fids is None:
            continue
        for j, t in enumerate(truth):
            tids = frozenset(int(x) for x in t.object_ids)
            if fids != tids:
                continue
            if f.start_frame - tolerance_frames <= t.end_frame and f.end_frame + tolerance_frames >= t.start_frame:
                ok[i, j] = 1
    rows, cols = linear_sum_assignment(ok, maximize=True)
    return int(ok[rows, cols].sum())


def interaction_score(
    found, truth, tolerance_frames: int = 1, label_map: dict[int, int] | None = None
) -> tuple[float, float]:
    """(precision, recall) under one-to-one event matching.

    A found event matches a truth event when their object-id sets agree
    (after mapping found ids through label_map, if given) and the frame
    intervals overlap once widened by the tolerance.
    """
    found = list(found)
    truth = list(truth)
    matched = _count_event_matches(found, truth, tolerance_frames, label_map)
    precision = matched / len(found) if found else 1.0
    recall = matched / len(truth) if truth else 1.0
    return precision, recall


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
    for t in sorted(truth_by_frame):
        out = found_labels.get(t)
        if out is None:
            if len(truth_by_frame[t]) == 0:
                per_frame.append(0.0)
                continue
            raise ValueError(f"no output labels for frame {t}")
        per_frame.append(
            segmentation_error(LabeledFrame(t, out), LabeledFrame(t, truth_by_frame[t]))
        )
    mean_error = float(np.mean(per_frame)) if per_frame else 0.0
    label_map = match_labels(found_labels, truth_by_frame)
    found_events = list(found_events)
    truth_events = list(truth_events)
    matched = _count_event_matches(found_events, truth_events, tolerance_frames, label_map)
    precision = matched / len(found_events) if found_events else 1.0
    recall = matched / len(truth_events) if truth_events else 1.0
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
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind: {self.kind}")
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
    scenario: SynthScenario
    frames: list[PointCloudFrame]
    truth_labels: list[LabeledFrame]
    truth_interactions: list[InteractionRecord]


def _surface_gap(a: ShapeSpec, ca: np.ndarray, b: ShapeSpec, cb: np.ndarray) -> float:
    """Minimum surface distance between two shapes (axis-aligned, no rotation)."""
    if a.kind == "sphere" and b.kind == "sphere":
        return max(0.0, float(np.linalg.norm(ca - cb)) - a.size[0] - b.size[0])
    half_a = np.asarray(a.size) / 2.0 if a.kind == "box" else np.full(3, a.size[0])
    half_b = np.asarray(b.size) / 2.0 if b.kind == "box" else np.full(3, b.size[0])
    # per-axis clearance; spheres handled as their bounding boxes is avoided
    # above for the sphere/sphere case, mixed pairs use a conservative box hull
    gaps = np.maximum(0.0, np.abs(ca - cb) - half_a - half_b)
    return float(np.linalg.norm(gaps))


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
    if len(scenario.shapes) < 2:
        return []
    events: list[InteractionRecord] = []
    n = len(scenario.shapes)
    for i in range(n):
        for j in range(i + 1, n):
            run_start = None
            for t in range(scenario.frame_count):
                gap = _surface_gap(
                    scenario.shapes[i],
                    scenario.trajectories[i, t],
                    scenario.shapes[j],
                    scenario.trajectories[j, t],
                )
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


def generate_scenario(scenario: SynthScenario) -> GeneratedSequence:
    """Deterministic point stream with per-point truth labels and truth events."""
    rng = np.random.Generator(np.random.Philox(scenario.rng_seed))
    base = [_sample_shape(s, scenario.points_per_object, rng) for s in scenario.shapes]
    jitter = [
        rng.integers(-6, 7, size=(scenario.points_per_object, 3)) for _ in scenario.shapes
    ]
    frames: list[PointCloudFrame] = []
    truths: list[LabeledFrame] = []
    for t in range(scenario.frame_count):
        pts_parts = []
        col_parts = []
        lab_parts = []
        for k, shape in enumerate(scenario.shapes):
            p = base[k] + scenario.trajectories[k, t]
            p = p + rng.normal(scale=scenario.noise_sigma, size=p.shape)
            c = np.clip(np.asarray(shape.color) + jitter[k], 0, 255).astype(np.uint8)
            pts_parts.append(p)
            col_parts.append(c)
            lab_parts.append(np.full(len(p), k, dtype=np.int64))
        pts = np.concatenate(pts_parts)
        cols = np.concatenate(col_parts)
        labs = np.concatenate(lab_parts)
        center = scenario.occluder_center(t)
        if center is not None:
            keep = np.abs(pts[:, 0] - center) >= scenario.occluder_width / 2.0
            pts, cols, labs = pts[keep], cols[keep], labs[keep]
        frames.append(PointCloudFrame(frame_index=t, points=pts, colors=cols))
        truths.append(LabeledFrame(frame_index=t, labels=labs))
    return GeneratedSequence(
        scenario=scenario,
        frames=frames,
        truth_labels=truths,
        truth_interactions=_truth_events(scenario),
    )


def _hold_profile(frame_count: int, start: float, floor: float, rate: float, hold: int) -> np.ndarray:
    """Half-gap profile: linear approach to the floor, hold, linear retreat."""
    out = np.empty(frame_count)
    t_reach = int(math.ceil((start - floor) / rate))
    for t in range(frame_count):
        if t < t_reach:
            out[t] = max(floor, start - rate * t)
        elif t < t_reach + hold:
            out[t] = floor
        else:
            out[t] = floor + rate * (t - t_reach - hold + 1)
    return out


def make_scenario(
    kind: str,
    frame_count: int | None = None,
    rng_seed: int = 0,
    points_per_object: int = 1500,
    noise_sigma: float = 0.0015,
    contact_threshold: float = 0.16,
) -> SynthScenario:
    """Scripted trajectories for the four built-in scenario kinds."""
    if kind == "approach_merge_split":
        f = 26 if frame_count is None else frame_count
        radius = 0.12
        shapes = [
            ShapeSpec("sphere", (radius,), (205, 60, 60)),
            ShapeSpec("sphere", (radius,), (60, 80, 205)),
        ]
        # surface gap: fast approach, near-touch hold, fast retreat
        gap = _hold_profile(f, start=0.42, floor=0.008, rate=0.10, hold=6)
        half = (gap + 2 * radius) / 2.0
        traj = np.zeros((2, f, 3))
        traj[0, :, 0] = -half
        traj[1, :, 0] = half
    elif kind == "occlusion_split":
        # static box, a narrow mask drifts across its middle; both visible
        # pieces stay on previously-seen territory the whole time
        f = 24 if frame_count is None else frame_count
        shapes = [ShapeSpec("box", (1.0, 0.16, 0.16), (80, 170, 90))]
        traj = np.zeros((1, f, 3))
    elif kind == "static":
        f = 8 if frame_count is None else frame_count
        radius = 0.12
        shapes = [
            ShapeSpec("sphere", (radius,), (205, 60, 60)),
            ShapeSpec("sphere", (radius,), (60, 80, 205)),
        ]
        traj = np.zeros((2, f, 3))
        traj[0, :, 0] = -0.5
        traj[1, :, 0] = 0.5
    elif kind == "crossing":
        f = 20 if frame_count is None else frame_count
        shapes = [
            ShapeSpec("box", (0.2, 0.15, 0.15), (210, 160, 60)),
            ShapeSpec("box", (0.2, 0.15, 0.15), (90, 70, 190)),
        ]
        traj = np.zeros((2, f, 3))
        traj[0, :, 0] = -0.5 + 0.05 * np.arange(f)
        traj[1, :, 1] = -0.5 + 0.05 * np.arange(f)
        traj[1, :, 2] = 0.45  # clears the first path with margin
    else:
        raise ValueError(f"unknown scenario kind: {kind}")
    scenario = SynthScenario(
        kind=kind,
        shapes=shapes,
        trajectories=traj,
        frame_count=f,
        points_per_object=points_per_object,
        noise_sigma=noise_sigma,
        rng_seed=rng_seed,
        contact_threshold=contact_threshold,
    )
    if kind == "occlusion_split":
        scenario.occluder_width = 0.10
        scenario.occluder_frames = (min(5, f - 1), min(17, f - 1))
        scenario.occluder_x = -0.06
        scenario.occluder_drift = 0.01
    return scenario


def scenario_from_spec(text: str, path: str = "<spec>") -> SynthScenario:
    """Parse a key=value scenario spec (kind, frames, seed, points, noise, contact); errors name ``path:line``."""
    keys = {
        "kind": str,
        "frames": int,
        "seed": int,
        "points_per_object": int,
        "noise_sigma": float,
        "contact_threshold": float,
    }
    values: dict = {}
    for line_no, line in significant_lines(text.splitlines()):
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in keys:
            raise ValueError(f"{path}:{line_no}: unknown scenario key {key!r}")
        try:
            values[key] = keys[key](val)
        except ValueError:
            raise ValueError(f"{path}:{line_no}: bad value for {key!r}: {val!r}") from None
    if "kind" not in values:
        raise ValueError(f"{path}: scenario spec needs a kind")
    return make_scenario(
        kind=values["kind"],
        frame_count=values.get("frames"),
        rng_seed=values.get("seed", 0),
        points_per_object=values.get("points_per_object", 1500),
        noise_sigma=values.get("noise_sigma", 0.0015),
        contact_threshold=values.get("contact_threshold", 0.16),
    )
