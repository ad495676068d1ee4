"""Self-tests of the benchmark's tracer and output checks.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

from dynseg import cloud_io, pipeline  # noqa: E402
from dynseg.cloud_io import LabeledFrame  # noqa: E402
from dynseg.evaluation import generate_scenario, make_scenario  # noqa: E402
from dynseg.pipeline import PipelineConfig, run_sequence  # noqa: E402
from dynseg.supervoxel import SupervoxelConfig  # noqa: E402


def _config() -> PipelineConfig:
    return PipelineConfig(supervoxel=SupervoxelConfig(voxel_resolution=0.02))


@pytest.fixture(scope="module")
def frames():
    # two small spheres that touch from frame 4 on, so cuts run
    scenario = make_scenario("approach_merge_split", frame_count=7, points_per_object=300)
    return generate_scenario(scenario).frames


@pytest.fixture(scope="module")
def traced(frames):
    tracer = Tracer()
    tracer.install()
    try:
        result = run_sequence(frames, _config())
    finally:
        tracer.restore()
    return tracer, result


def _children(spans):
    kids = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s)
    return kids


def _subtree(span, kids):
    out = [span]
    for k in kids[span["id"]]:
        out.extend(_subtree(k, kids))
    return out


def test_spans_nest_inside_their_parents(traced):
    spans = traced[0].spans
    assert spans and all(s["end"] is not None for s in spans)
    for s in spans:
        if s["parent"] is not None:
            p = spans[s["parent"]]
            assert p["start"] <= s["start"] <= s["end"] <= p["end"]
    names = {s["name"] for s in spans}
    assert {"graphcut.restricted_cut", "graphcut.oversegment", "tree.derive_blob_seeds"} <= names
    by_name = {s["name"]: s for s in spans}
    # nested calls looked up through the callee modules get spans of their own
    assert spans[by_name["graphcut.normalized_cut_bisect"]["parent"]]["name"] == "graphcut.oversegment"


def test_self_times_sum_to_the_process_frame_span(traced):
    spans = traced[0].spans
    own = self_times(spans)
    kids = _children(spans)
    frames = [s for s in spans if s["name"] == "pipeline.process_frame"]
    assert len(frames) == 7
    for f in frames:
        total = sum(own[s["id"]] for s in _subtree(f, kids))
        assert total == pytest.approx(f["end"] - f["start"], rel=1e-9, abs=1e-9)


def test_outside_stage_totals_agree_with_frame_timings(traced):
    spans = traced[0].spans
    kids = _children(spans)
    cut_frames = 0
    for f in (s for s in spans if s["name"] == "pipeline.process_frame"):
        sub = _subtree(f, kids)

        def ms(*names):
            return sum((s["end"] - s["start"]) * 1e3 for s in sub if s["name"] in names)

        timings = f["attrs"]["timings_ms"]
        for stage, names in (
            ("supervoxel", ("supervoxel.cluster_supervoxels",)),
            ("graph", ("graph.build_graph", "graph.connected_components")),
            ("assignment", ("assignment.solve_ga",)),
        ):
            assert ms(*names) == pytest.approx(timings[stage], rel=0.05, abs=0.5), stage
        # the program's cut timer also covers building each blob's subgraph
        # and CutProblem, so it can only exceed the cut spans
        cut = ms("graphcut.restricted_cut")
        assert cut <= timings["cut"] + 0.5
        if not any(s["name"] == "graphcut.restricted_cut" for s in sub):
            assert timings["cut"] < 5.0
        cut_frames += cut > 0
    assert cut_frames >= 2


def test_counters_come_from_the_boundaries(traced):
    spans = traced[0].spans
    for s in spans:
        if s["name"] == "supervoxel.cluster_supervoxels":
            assert s["attrs"]["supervoxels"] >= s["attrs"]["seed_cells"] > 0
        if s["name"] == "assignment.solve_ga":
            assert s["attrs"]["labelings"] == (s["attrs"]["blobs"] + 1) ** s["attrs"]["segments"]
            assert s["attrs"]["ga_optimal"]
        if s["name"] == "graphcut.restricted_cut":
            assert s["attrs"]["kind"] == "binary" and s["attrs"]["labels"] == 2
    solve = sum(s["name"] == "assignment.solve_ga" for s in spans)
    seeds = sum(s["name"] == "tree.derive_blob_seeds" for s in spans)
    assert seeds == 2 * solve  # update_tree repeats the pipeline's call


def test_wrapped_functions_return_what_the_originals_return(frames, traced):
    _, traced_result = traced
    plain = run_sequence(frames, _config())
    for a, b in zip(plain.frames, traced_result.frames):
        assert a.point_labels.tobytes() == b.point_labels.tobytes()
        assert (a.supervoxel_count, a.blob_count, a.object_count) == (b.supervoxel_count, b.blob_count, b.object_count)
    assert plain.interactions == traced_result.interactions

    tracer = Tracer()
    marker = object()
    assert tracer.wrap(lambda x: x, "t")(marker) is marker


def test_restore_puts_the_originals_back():
    original = pipeline.process_frame
    tracer = Tracer()
    tracer.install()
    assert pipeline.process_frame is not original
    tracer.restore()
    assert pipeline.process_frame is original


def _write_run(out_dir, labels_per_frame):
    os.makedirs(out_dir, exist_ok=True)
    for f, labels in enumerate(labels_per_frame):
        cloud_io.write_labels(
            LabeledFrame(frame_index=f, labels=np.asarray(labels)), os.path.join(out_dir, f"labels_{f:04d}.txt")
        )


def test_failed_frames_count_an_injected_label_mismatch(tmp_path):
    labels = [[0, 0, 1, 1], [0, 1, 1, 1], [1, 1, 0, 0]]
    ref, same, changed = (str(tmp_path / n) for n in ("ref", "same", "changed"))
    _write_run(ref, labels)
    _write_run(same, labels)
    _write_run(changed, [labels[0], [0, 1, 1, 0], labels[2]])
    n_points = [4, 4, 4]
    assert run.frame_failures(ref, n_points, None) == {}
    assert run.frame_failures(same, n_points, ref) == {}
    assert run.frame_failures(changed, n_points, ref) == {1: "labels differ from the first run"}

    path = os.path.join(same, "labels_0002.txt")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("2 3 -1\n")  # a duplicate row for point 3
    os.remove(os.path.join(same, "labels_0000.txt"))
    failures = run.frame_failures(same, n_points, ref)
    assert sorted(failures) == [0, 2]


def test_negative_id_fails_its_frame(tmp_path):
    out = str(tmp_path / "neg")
    os.makedirs(out)
    with open(os.path.join(out, "labels_0000.txt"), "w", encoding="utf-8") as fh:
        fh.write("0 0 3\n0 1 -1\n")
    assert run.frame_failures(out, [2], None) == {0: "point without an id >= 0"}


def test_layer_metrics_cover_the_declared_per_layer_metrics(traced):
    tracer, _ = traced
    trace = {"spans": tracer.spans, "offclock_s": tracer.offclock_s}
    frame_s = sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == "pipeline.process_frame")
    metrics = run.layer_metrics([trace], [frame_s + 1.0], [frame_s + 1.0])
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["tree.derive_blob_seeds.calls"]["value"] == 2.0
    assert metrics["graphcut.restricted_cut.binary.ms"]["value"] > 0
    assert metrics["graphcut.restricted_cut.expansion.ms"]["value"] == 0


def test_benchmark_json_names_the_metrics_run_py_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
