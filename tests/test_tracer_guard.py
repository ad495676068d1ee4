"""The benchmark's tracer still fits the program: its wrapped names resolve and its blob counter reads true.

perfbench/tracer.py patches names of the dynseg modules by string and
derives its counters from the arguments and results of the calls it wraps,
so a rename or a changed return form would break the benchmark silently.
"""

import importlib
import importlib.util
from pathlib import Path

from dynseg import graph, pipeline
from dynseg.evaluation import generate_scenario, make_scenario
from dynseg.pipeline import PipelineConfig, run_sequence
from dynseg.supervoxel import SupervoxelConfig

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    for module, attr, _ in _tracer_module().WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_blob_counter_matches_frame_results():
    # two small spheres that touch from frame 4 on
    frames = generate_scenario(make_scenario("approach_merge_split", frame_count=7, points_per_object=300)).frames
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        result = run_sequence(frames, PipelineConfig(supervoxel=SupervoxelConfig(voxel_resolution=0.02)))
    finally:
        tracer.restore()
    assert pipeline.connected_components is graph.connected_components
    blobs = [s["attrs"]["blobs"] for s in tracer.spans if s["name"] == "graph.connected_components"]
    assert blobs == [f.blob_count for f in result.frames]
    assert set(blobs) == {1, 2}
