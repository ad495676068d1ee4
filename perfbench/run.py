"""dynseg benchmark: ``dynseg segment`` end to end on generated sequences.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up writes the workload's sequences for the seed, three times, each in a
fresh process (``perfbench/workloads.py``); ``setup_s`` is the median.  The
run then starts ``python3 -m dynseg.cli segment`` on the sequences in turn,
in a closed loop: one process at a time, the next started after the previous
one has ended, until another would end after --seconds.  The program sees
only the generated files.  BLAS threads are pinned to one.

With --trace 0 every segment run is the unmodified program, every sequence
is segmented at least once and the first one twice, and the end-to-end
metrics are reported.  With
--trace 1 each untraced run is followed by a run of the same sequence under
``perfbench/traced_segment.py``, whose spans give the per-layer metrics; the
ratio of the two run times is the tracing overhead.

Every run's outputs are checked.  A frame fails if its run exits non-zero,
if its label file does not give each point exactly one id >= 0, or if its
labels differ byte for byte from the first run of its sequence.  Human-readable lines come
first; the last line of stdout is one JSON object with ``correct``,
``attempted`` and ``failed`` (frames) and ``metrics``.  The exit code is 1
when a check fails and 2 when the program's sources are missing.  Work files
go to ``.perfbench_work/``; a run that passes its checks keeps only its logs
and spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from tracer import self_times
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_RUNS = 3
HARD_LIMIT_S = 170.0  # no segment run starts that would end after this
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = ("setup_s", "segment_s", "frame_ms.p50", "peak_rss_mb")
PER_LAYER = (
    "cloud_io.load_frame.ms",
    "cloud_io.write_labels.ms",
    "cloud_io.bytes_read",
    "supervoxel.cluster_supervoxels.ms",
    "supervoxel.count",
    "supervoxel.voxels",
    "supervoxel.per_seed_cell",
    "graph.build_graph.ms",
    "graph.connected_components.ms",
    "graph.edges",
    "graph.blobs",
    "assignment.solve_ga.ms",
    "assignment.labelings",
    "assignment.ga_optimal_frac",
    "graphcut.restricted_cut.binary.ms",
    "graphcut.restricted_cut.expansion.ms",
    "graphcut.restricted_cut.nodes",
    "graphcut.restricted_cut.labels",
    "graphcut.oversegment.ms",
    "graphcut.normalized_cut_bisect.ms",
    "graphcut.normalized_cut_bisect.calls",
    "graphcut.boundary_midpoints.ms",
    "tree.init_tree.ms",
    "tree.derive_blob_seeds.ms",
    "tree.derive_blob_seeds.calls",
    "tree.update_tree.self_ms",
    "tree.accumulate_similarities.ms",
    "tree.confirm_splits_merges.ms",
    "tree.detect_interactions.ms",
    "tree.compute_similarity.calls",
    "tree.merges",
    "tree.splits",
    "pipeline.process_frame.self_ms",
    "cli.segment.io_ms",
    "trace.overhead",
)


@dataclass
class Child:
    wall_s: float
    cpu_s: float  # user + system time of the process
    code: int
    rss_mb: float


@dataclass
class Rep:
    seq: int  # index of the workload sequence it segmented
    out_dir: str
    traced: bool
    child: Child


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update({var: "1" for var in BLAS_VARS})
    return env


def run_child(cmd: list[str], log_path: str, timeout_s: float) -> Child:
    """Run one process to its end; wall time, exit code and its own peak RSS."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(timeout_s, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime, code=proc.returncode, rss_mb=usage.ru_maxrss / 1024.0
    )


def read_bytes(path: str) -> bytes | None:
    """A file's bytes, or None when it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def frame_failures(out_dir: str, n_points: list[int], reference_dir: str | None) -> dict[int, str]:
    """Frame index -> reason, for every frame of one run that fails its checks."""
    failures: dict[int, str] = {}
    for f, n in enumerate(n_points):
        name = f"labels_{f:04d}.txt"
        data = read_bytes(os.path.join(out_dir, name))
        if data is None:
            failures[f] = "label file missing"
            continue
        try:
            rows = np.fromiter(map(int, data.split()), dtype=np.int64)
        except ValueError:
            failures[f] = "label file not integers"
            continue
        if len(rows) != 3 * n:
            failures[f] = f"{len(rows) // 3} label rows for {n} points"
            continue
        rows = rows.reshape(n, 3)
        if np.any(rows[:, 0] != f) or np.any(rows[:, 1] != np.arange(n)):
            failures[f] = "label rows do not list each point once, in order"
        elif np.any(rows[:, 2] < 0):
            failures[f] = "point without an id >= 0"
        elif reference_dir is not None and read_bytes(os.path.join(reference_dir, name)) != data:
            failures[f] = "labels differ from the first run"
    return failures


def report_frame_ms(out_dir: str) -> list[float]:
    """Per-frame process_frame milliseconds from the run's report.txt."""
    out = []
    with open(os.path.join(out_dir, "report.txt"), encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if parts and parts[0] == "frame":
                out.append(float(parts[parts.index("ms") + 1]))
    return out


def same_files(a: str, b: str, names=None) -> bool:
    """Whether two directories hold the same bytes under the given (or all) names."""
    if names is None:
        names = sorted(os.listdir(a))
        if names != sorted(os.listdir(b)):
            return False
    return all(read_bytes(os.path.join(a, name)) == read_bytes(os.path.join(b, name)) for name in names)


def quality(out_dir: str, data_dir: str, truth_frames) -> dict[str, float]:
    """seg_error, event recall/precision and object counts of one run."""
    from dynseg import cloud_io
    from dynseg.evaluation import evaluate_run

    found = cloud_io.read_labels_dir(out_dir)
    events = cloud_io.read_interaction_log(os.path.join(out_dir, "interactions.txt"))
    truth_events = cloud_io.read_interaction_log(os.path.join(data_dir, "interactions_gt.txt"))
    report = evaluate_run(found, truth_frames, events, truth_events)
    return {
        "seg_error": report.mean_error,
        "event_recall": report.interaction_recall,
        "event_precision": report.interaction_precision,
        "events_found": len(events),
        "events_truth": len(truth_events),
        "events_matched": report.matched_interaction_count,
        "max_objects": max(len(np.unique(v)) for v in found.values()),
    }


def layer_metrics(traces: list[dict], traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Per-layer metrics from the spans of the traced runs.

    untraced_walls[i] is the wall time of the untraced run of the sequence
    that traced run i segmented.  Times and counts are per frame over every
    traced run, except cli.segment.io_ms (per run), tree.merges/splits (per
    run), assignment.labelings (largest instance) and the ratios.
    """
    total_ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    cut_ms = {"binary": 0.0, "expansion": 0.0}
    cut_nodes: list[int] = []
    cut_labels: list[int] = []
    per_frame_counts = {"supervoxels": 0, "voxels": 0, "edges": 0, "blobs": 0, "bytes": 0}
    per_seed_cell: list[float] = []
    labelings: list[int] = []
    ga_checked = ga_optimal = 0
    merges = splits = 0
    io_ms: list[float] = []
    for trace, wall in zip(traces, traced_walls):
        spans = trace["spans"]
        frame_ms = 0.0
        for span, own in zip(spans, self_times(spans)):
            name = span["name"]
            dur = (span["end"] - span["start"]) * 1e3
            total_ms[name] = total_ms.get(name, 0.0) + dur
            self_ms[name] = self_ms.get(name, 0.0) + own * 1e3
            calls[name] = calls.get(name, 0) + 1
            attrs = span.get("attrs", {})
            if name == "pipeline.process_frame":
                frame_ms += dur
            elif name == "cloud_io.load_frame":
                per_frame_counts["bytes"] += attrs["bytes"]
            elif name == "supervoxel.cluster_supervoxels":
                per_frame_counts["supervoxels"] += attrs["supervoxels"]
                per_frame_counts["voxels"] += attrs["voxels"]
                per_seed_cell.append(attrs["supervoxels"] / attrs["seed_cells"])
            elif name == "graph.build_graph":
                per_frame_counts["edges"] += attrs["edges"]
            elif name == "graph.connected_components":
                per_frame_counts["blobs"] += attrs["blobs"]
            elif name == "assignment.solve_ga":
                labelings.append(attrs["labelings"])
                if "ga_optimal" in attrs:
                    ga_checked += 1
                    ga_optimal += attrs["ga_optimal"]
            elif name == "graphcut.restricted_cut":
                cut_ms[attrs["kind"]] += dur
                cut_nodes.append(attrs["nodes"])
                cut_labels.append(attrs["labels"])
            elif name == "tree.confirm_splits_merges":
                merges += attrs["merges"]
                splits += attrs["splits"]
        io_ms.append((wall - trace["offclock_s"]) * 1e3 - frame_ms)

    runs = len(traces)
    frames = calls.get("pipeline.process_frame", 0)
    contested = calls.get("assignment.solve_ga", 0)

    def per_frame(x: float) -> float:
        return x / frames if frames else 0.0

    def ms(name: str) -> float:
        return per_frame(total_ms.get(name, 0.0))

    values = {
        "cloud_io.load_frame.ms": (ms("cloud_io.load_frame"), "ms"),
        "cloud_io.write_labels.ms": (ms("cloud_io.write_labels"), "ms"),
        "cloud_io.bytes_read": (per_frame(per_frame_counts["bytes"]), "bytes"),
        "supervoxel.cluster_supervoxels.ms": (ms("supervoxel.cluster_supervoxels"), "ms"),
        "supervoxel.count": (per_frame(per_frame_counts["supervoxels"]), "count"),
        "supervoxel.voxels": (per_frame(per_frame_counts["voxels"]), "count"),
        "supervoxel.per_seed_cell": (statistics.fmean(per_seed_cell) if per_seed_cell else 0.0, "ratio"),
        "graph.build_graph.ms": (ms("graph.build_graph"), "ms"),
        "graph.connected_components.ms": (ms("graph.connected_components"), "ms"),
        "graph.edges": (per_frame(per_frame_counts["edges"]), "count"),
        "graph.blobs": (per_frame(per_frame_counts["blobs"]), "count"),
        "assignment.solve_ga.ms": (ms("assignment.solve_ga"), "ms"),
        "assignment.labelings": (max(labelings, default=0), "count"),
        "assignment.ga_optimal_frac": (ga_optimal / ga_checked if ga_checked else 1.0, "ratio"),
        "graphcut.restricted_cut.binary.ms": (per_frame(cut_ms["binary"]), "ms"),
        "graphcut.restricted_cut.expansion.ms": (per_frame(cut_ms["expansion"]), "ms"),
        "graphcut.restricted_cut.nodes": (statistics.fmean(cut_nodes) if cut_nodes else 0.0, "count"),
        "graphcut.restricted_cut.labels": (max(cut_labels, default=0), "count"),
        "graphcut.oversegment.ms": (ms("graphcut.oversegment"), "ms"),
        "graphcut.normalized_cut_bisect.ms": (ms("graphcut.normalized_cut_bisect"), "ms"),
        "graphcut.normalized_cut_bisect.calls": (per_frame(calls.get("graphcut.normalized_cut_bisect", 0)), "count"),
        "graphcut.boundary_midpoints.ms": (ms("graphcut.boundary_midpoints"), "ms"),
        "tree.init_tree.ms": (ms("tree.init_tree"), "ms"),
        "tree.derive_blob_seeds.ms": (ms("tree.derive_blob_seeds"), "ms"),
        "tree.derive_blob_seeds.calls": (
            calls.get("tree.derive_blob_seeds", 0) / contested if contested else 0.0,
            "count",
        ),
        "tree.update_tree.self_ms": (per_frame(self_ms.get("tree.update_tree", 0.0)), "ms"),
        "tree.accumulate_similarities.ms": (ms("tree.accumulate_similarities"), "ms"),
        "tree.confirm_splits_merges.ms": (ms("tree.confirm_splits_merges"), "ms"),
        "tree.detect_interactions.ms": (ms("tree.detect_interactions"), "ms"),
        "tree.compute_similarity.calls": (per_frame(calls.get("tree.compute_similarity", 0)), "count"),
        "tree.merges": (merges / runs if runs else 0.0, "count"),
        "tree.splits": (splits / runs if runs else 0.0, "count"),
        "pipeline.process_frame.self_ms": (per_frame(self_ms.get("pipeline.process_frame", 0.0)), "ms"),
        "cli.segment.io_ms": (statistics.median(io_ms) if io_ms else 0.0, "ms"),
    }
    overhead = [(w - t["offclock_s"]) / u for w, t, u in zip(traced_walls, traces, untraced_walls)]
    values["trace.overhead"] = (statistics.median(overhead), "ratio")
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def stage_medians(traces: list[dict]) -> dict[str, float]:
    """Median milliseconds per frame of each pipeline stage, from the traced runs."""
    stages: dict[str, list[float]] = {}
    for trace in traces:
        for span in trace["spans"]:
            if span["name"] == "pipeline.process_frame":
                for stage, value in span["attrs"]["timings_ms"].items():
                    stages.setdefault(stage, []).append(value)
    return {stage: statistics.median(v) for stage, v in stages.items()}


def environment() -> str:
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (
        f"python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__} "
        f"cpu {cpu!r} nproc {os.cpu_count()}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    t_start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "dynseg", "cli.py")):
        print(f"benchmark: no dynseg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from dynseg import cloud_io
    from dynseg.cloud_io import LabeledFrame

    workload = WORKLOADS[ns.workload]
    work = os.path.join(WORK, f"{ns.workload}-{ns.seed}-trace{ns.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    def remaining() -> float:
        return HARD_LIMIT_S - (time.perf_counter() - t_start)

    setups = []
    for i in range(SETUP_RUNS):
        cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", ns.workload,
               "--seed", str(ns.seed), "--out", os.path.join(work, f"setup{i}")]
        setups.append(run_child(cmd, os.path.join(work, f"setup{i}.log"), remaining()))
        if setups[-1].code != 0:
            print(f"benchmark: set-up failed, see {work}/setup{i}.log", file=sys.stderr)
            return 1
    inputs_repeat = all(
        same_files(os.path.join(work, "setup0", seq), os.path.join(work, f"setup{i}", seq))
        for i in range(1, SETUP_RUNS)
        for seq in os.listdir(os.path.join(work, "setup0"))
    )
    data_dirs = [os.path.join(work, "setup0", f"seq{k}") for k in range(workload.sequences)]
    truths = [
        [
            LabeledFrame(frame_index=i, labels=cloud_io.load_ground_truth(p))
            for i, p in enumerate(cloud_io.load_sequence(os.path.join(d, "manifest.txt")).gt_paths)
        ]
        for d in data_dirs
    ]
    n_points = [[len(t.labels) for t in truth] for truth in truths]

    # closed loop over the sequences in turn.  Untraced, every sequence runs
    # once and the first one twice, so that every run checks a rerun; with
    # --trace 1 each untraced run is followed by a traced run of the same
    # sequence, and one such pair is the minimum
    per_seq = 2 if ns.trace else 1
    minimum = 2 if ns.trace else workload.sequences + 1
    reps: list[Rep] = []
    t_loop = time.perf_counter()
    while True:
        k = len(reps)
        seq, traced = (k // per_seq) % workload.sequences, k % per_seq == 1
        out = os.path.join(work, f"run{k:02d}")
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "traced_segment.py"), out + ".trace.json"]
        else:
            cmd = [sys.executable, "-m", "dynseg.cli"]
        cmd += ["segment", os.path.join(data_dirs[seq], "manifest.txt"), "--out", out,
                "--supervoxel.voxel_resolution", str(workload.voxel)]
        reps.append(Rep(seq=seq, out_dir=out, traced=traced, child=run_child(cmd, out + ".log", remaining())))
        expected = max(r.child.wall_s for r in reps)
        if expected > remaining():
            break
        if len(reps) >= minimum and time.perf_counter() - t_loop + expected > ns.seconds:
            break

    # checks: each sequence's reference is its first run, which is untraced
    reference: dict[int, str] = {}
    attempted = failed = 0
    reasons: Counter[str] = Counter()
    events_repeat = True
    for rep in reps:
        frames = n_points[rep.seq]
        attempted += len(frames)
        if rep.child.code != 0:
            failed += len(frames)
            reasons[f"exit code {rep.child.code}"] += len(frames)
            continue
        ref = reference.setdefault(rep.seq, rep.out_dir)
        for why in frame_failures(rep.out_dir, frames, None if ref == rep.out_dir else ref).values():
            failed += 1
            reasons[why] += 1
        events_repeat = events_repeat and same_files(rep.out_dir, ref, ("interactions.txt",))
    qualities = {}
    if not failed:
        qualities = {k: quality(reference[k], data_dirs[k], truths[k]) for k in sorted(reference)}
    correct = failed == 0 and inputs_repeat and events_repeat and bool(qualities)

    untraced = [r for r in reps if not r.traced and r.child.code == 0]
    traced_reps = [r for r in reps if r.traced and r.child.code == 0]
    frame_ms = [ms for r in untraced for ms in report_frame_ms(r.out_dir)]
    segment_walls = [r.child.wall_s for r in untraced]

    print(f"benchmark dynseg workload {ns.workload} seed {ns.seed} trace {ns.trace}")
    print(f"environment {environment()} blas_threads 1")
    print(f"sequences {workload.sequences}, frames {[len(f) for f in n_points]}, runs {len(reps)} "
          f"({len(untraced)} untraced, {len(traced_reps)} traced ok)")
    for k, q in qualities.items():
        print(f"quality seq{k} seg_error {q['seg_error']:.4f} event_recall {q['event_recall']:.4f} "
              f"event_precision {q['event_precision']:.4f} events matched/found/truth "
              f"{q['events_matched']}/{q['events_found']}/{q['events_truth']} max_objects {q['max_objects']}")
    # end-to-end metrics that are printed but carry no bound
    if qualities:
        matched = sum(q["events_matched"] for q in qualities.values())
        found = sum(q["events_found"] for q in qualities.values())
        truth = sum(q["events_truth"] for q in qualities.values())
        print(f"unbounded seg_error {statistics.fmean(q['seg_error'] for q in qualities.values()):.4f} ratio, "
              f"mean over {len(qualities)} sequences")
        print(f"unbounded event_recall {matched / truth if truth else 1.0:.4f} ratio, {matched} of {truth} truth events")
        print(f"unbounded event_precision {matched / found if found else 1.0:.4f} ratio, "
              f"{matched} of {found} found events")
    print(f"unbounded failed_frac {failed / attempted:.4f} ratio, {failed} of {attempted} frames"
          + "".join(f"; {n} {why}" for why, n in sorted(reasons.items())))
    if not inputs_repeat:
        print("check failed: set-up wrote different inputs for the same seed")
    if not events_repeat:
        print("check failed: interaction logs differ between runs of one sequence")
    print("run seconds wall/cpu " + " ".join(
        f"seq{r.seq}{'t' if r.traced else ''}={r.child.wall_s:.3f}/{r.child.cpu_s:.3f}" for r in reps))
    if untraced:
        print(f"unbounded frame_ms.p90 omitted: {len(frame_ms)} frame samples, fewer than 100"
              if len(frame_ms) < 100 else
              f"unbounded frame_ms.p90 {np.percentile(frame_ms, 90):.1f} ms over {len(frame_ms)} samples")

    metrics: dict = {}
    # a traced run and the untraced run before it segment the same sequence
    pairs = [(reps[i - 1], r) for i, r in enumerate(reps) if r in traced_reps and reps[i - 1] in untraced]
    if ns.trace and pairs:
        traces = []
        for _, rep in pairs:
            with open(rep.out_dir + ".trace.json", encoding="utf-8") as fh:
                traces.append(json.load(fh))
        metrics = layer_metrics(
            traces, [r.child.wall_s for _, r in pairs], [u.child.wall_s for u, _ in pairs]
        )
        stages = stage_medians(traces)
        print("stage median ms per frame: " + " ".join(f"{k} {v:.1f}" for k, v in stages.items()))
    elif not ns.trace and untraced:
        metrics = {
            "setup_s": {"value": statistics.median(s.wall_s for s in setups), "unit": "s"},
            "segment_s": {"value": statistics.median(segment_walls), "unit": "s"},
            "frame_ms.p50": {"value": statistics.median(frame_ms), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(r.child.rss_mb for r in untraced), "unit": "MB"},
        }
    correct = correct and bool(metrics)
    if correct:
        # keep the logs and spans; inputs and label files of a checked run
        # would fill the disk over a full set of runs
        for name in os.listdir(work):
            if os.path.isdir(os.path.join(work, name)):
                shutil.rmtree(os.path.join(work, name))
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
