"""Digest dynseg's segmentation outputs on a fixed check set of sequences.

    PYTHONPATH=src python3 scripts/output_digest.py [--records] [NAME ...]

Each sequence is generated, written to a temporary directory and segmented
in process by ``dynseg segment``.  One sha256 per sequence is printed over
its labels_*.txt, interactions.txt, config_resolved.txt and report.txt, with
the report's ``ms`` timings removed.  Run it once with PYTHONPATH naming one
source tree and once naming another: equal digests mean byte-identical
outputs.  NAMEs select a subset of the check set.

With ``--records`` the written frames are loaded back and tracked through
``pipeline.process_frame`` instead, and the sha256 covers every frame's
``Supervoxels`` arrays and its ``SegTree``: the node ids 0..N-1, label
arrays, births, segment means and similarity tables.  Equal record digests
mean the intermediate records, not only the written labels, are bit for bit
the same.

The check set has 17 sequences: seed 0 of the benchmark's pair_contact_fine
and crossing_coarse workloads (4 sequences each), seed 0 of the four
scenario kinds at voxel 0.02, four contact sequences at voxel 0.008
(triple_contact_fine seeds 0-1 and approach_merge_split seeds 1-2), and
static-0-ghost at voxel 0.02: static seed 0 with a 0.4 m occluder over
sphere B for frames 2-4, so B is a ghost for three frames and returns.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from dynseg import cloud_io, pipeline
from dynseg.cli import main as dynseg_main
from dynseg.evaluation import SCENARIO_FRAMES, generate_scenario, make_scenario
from dynseg.supervoxel import SupervoxelConfig

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def check_set() -> list[tuple[str, object, float]]:
    """(name, scenario, voxel resolution) of every sequence in the check set."""
    workloads = _workloads()
    out = []
    for name in ("pair_contact_fine", "crossing_coarse"):
        voxel = workloads.WORKLOADS[name].voxel
        out += [(f"{name}-0-seq{i}", s, voxel) for i, s in enumerate(workloads.scenarios(name, 0))]
    out += [(f"{kind}-0", make_scenario(kind, rng_seed=0), 0.02) for kind in SCENARIO_FRAMES]
    out += [(f"triple_contact_fine-{s}", workloads.scenarios("triple_contact_fine", s)[0], 0.008) for s in (0, 1)]
    for s in (1, 2):
        out.append((f"approach_merge_split-{s}-fine", make_scenario("approach_merge_split", rng_seed=s), 0.008))
    ghost = make_scenario("static", rng_seed=0, occluder_width=0.4, occluder_frames=(2, 4), occluder_x=0.5)
    out.append(("static-0-ghost", ghost, 0.02))
    return out


def _write_frames(scenario, work: str) -> list[str]:
    """Write one generated sequence's frame files into ``work``; return their paths in frame order."""
    frame_paths = []
    for frame in generate_scenario(scenario).frames:
        frame_paths.append(os.path.join(work, f"frame_{frame.frame_index:04d}.txt"))
        cloud_io.write_frame(frame, frame_paths[-1])
    return frame_paths


def digest(scenario, voxel: float, work: str) -> str:
    """sha256 of the outputs of ``dynseg segment`` on one generated sequence."""
    frame_paths = _write_frames(scenario, work)
    manifest = os.path.join(work, "manifest.txt")
    cloud_io.write_manifest(cloud_io.SequenceManifest(name=scenario.kind, frame_paths=frame_paths), manifest)
    out = os.path.join(work, "out")
    args = ["segment", manifest, "--out", out, "--supervoxel.voxel_resolution", str(voxel)]
    with contextlib.redirect_stdout(io.StringIO()):
        if dynseg_main(args) != 0:
            raise RuntimeError(f"dynseg {' '.join(args)} failed")
    h = hashlib.sha256()
    names = sorted(p.name for p in Path(out).glob("labels_*.txt"))
    for name in names + ["interactions.txt", "config_resolved.txt", "report.txt"]:
        data = (Path(out) / name).read_bytes()
        if name == "report.txt":
            data = re.sub(rb" ms \d+\.\d", b"", data)
        h.update(f"{name} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def _update_array(h, name: str, a: np.ndarray) -> None:
    a = np.ascontiguousarray(a)
    h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
    h.update(a.tobytes())


def _update_table(h, name: str, table: dict) -> None:
    rows = sorted((tuple(int(i) for i in np.atleast_1d(k)), float(v)) for k, v in table.items())
    h.update(f"{name} {[(k, v.hex()) for k, v in rows]}\n".encode())


def record_digest(scenario, voxel: float, work: str) -> str:
    """sha256 of every frame's supervoxels and object tree when ``process_frame`` tracks one sequence."""
    state = pipeline.init_state(pipeline.PipelineConfig(supervoxel=SupervoxelConfig(voxel_resolution=voxel)))
    grow, grown = pipeline.cluster_supervoxels, []

    def capture(*args, **kwargs):
        grown.append(grow(*args, **kwargs))
        return grown[-1]

    h = hashlib.sha256()
    pipeline.cluster_supervoxels = capture
    try:
        for i, path in enumerate(_write_frames(scenario, work)):
            grown.clear()
            pipeline.process_frame(state, cloud_io.load_frame(path, frame_index=i))
            h.update(f"frame {i} grown {len(grown)}\n".encode())
            for sv in grown:
                for name in ("of_point", "centroids", "colors_lab", "point_counts", "contacts"):
                    _update_array(h, name, getattr(sv, name))
                h.update(f"passes {sv.passes} converged {sv.converged}\n".encode())
            tree = state.tree
            # the frame graph's node ids, which are its positions
            _update_array(h, "nodes", np.arange(len(tree.object_of)))
            for name in ("object_of", "component_of", "segment_of", "blob_of"):
                _update_array(h, name, getattr(tree, name))
            _update_array(h, "segment_centroids", tree.segment_centroids)
            _update_array(h, "segment_colors", tree.segment_colors)
            _update_table(h, "births", tree.births)
            _update_table(h, "object_similarity", tree.object_similarity)
            _update_table(h, "component_similarity", tree.component_similarity)
    finally:
        pipeline.cluster_supervoxels = grow
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="sequences to digest (default: all)")
    ap.add_argument("--records", action="store_true", help="digest the in-process records, not the written outputs")
    ns = ap.parse_args(argv)
    sequences = check_set()
    unknown = set(ns.names) - {name for name, _, _ in sequences}
    if unknown:
        ap.error(f"unknown sequence names: {', '.join(sorted(unknown))}")
    for name, scenario, voxel in sequences:
        if ns.names and name not in ns.names:
            continue
        with tempfile.TemporaryDirectory() as work:
            value = (record_digest if ns.records else digest)(scenario, voxel, work)
            print(f"{value}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
