"""The benchmark's generated sequences, and the set-up step that writes them.

Run as a script, this is the set-up whose wall time is ``setup_s``: it
imports dynseg, generates one workload's sequences from the seed and writes
their frame files, ground truth and manifests the way ``dynseg synth`` does.

    python3 perfbench/workloads.py --workload crossing_coarse --seed 0 --out DIR

A workload is a few short sequences, so that one run averages over several
samplings of the same motion.  Sequence i of seed s is generated with
``rng_seed = s * sequences + i``; the seed only drives point sampling, noise
and colour jitter.  Trajectories, shapes and the voxel size are fixed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

RADIUS = 0.12
COLORS = ((205, 60, 60), (60, 80, 205), (70, 180, 90))


def hold_gaps(start: float, floor: float, rate: float, hold: int, frames: int) -> tuple[float, ...]:
    """Surface gap per frame: linear approach to the floor, hold, linear retreat."""
    reach = math.ceil((start - floor) / rate)
    gaps = []
    for t in range(frames):
        if t < reach:
            gaps.append(max(floor, start - rate * t))
        elif t < reach + hold:
            gaps.append(floor)
        else:
            gaps.append(floor + rate * (t - reach - hold + 1))
    return tuple(gaps)


@dataclass(frozen=True)
class Workload:
    voxel: float  # supervoxel.voxel_resolution passed to dynseg segment
    sequences: int  # sequences per run
    spheres: int = 0  # spheres moving radially; 0 selects the crossing boxes
    gaps: tuple[float, ...] = ()  # sphere surface gap per frame
    frames: int = 0  # crossing length


WORKLOADS = {
    # Separated frames sit at gap 0.18, beyond the 0.12 adjacency radius, and
    # contact frames at 0.008, so every sampling has the same two contact
    # frames: the first cut is cheap, the second is the full binary cut.
    "pair_contact_fine": Workload(voxel=0.008, sequences=4, spheres=2, gaps=(0.36, 0.18, 0.008, 0.008, 0.18)),
    "crossing_coarse": Workload(voxel=0.02, sequences=4, frames=12),
    # approach_merge_split's profile for three spheres, ended after the
    # frames where the tracker invents objects; one run takes about 50 s
    "triple_contact_fine": Workload(voxel=0.008, sequences=1, spheres=3, gaps=hold_gaps(0.42, 0.008, 0.10, 6, 16)),
}


def _spheres(gaps, count: int, seed: int):
    from dynseg.evaluation import ShapeSpec, SynthScenario

    gaps = np.asarray(gaps, dtype=np.float64)
    # centres on a circle, 360/count degrees apart, moving radially
    radial = (gaps + 2 * RADIUS) / (2 * math.sin(math.pi / count))
    traj = np.zeros((count, len(gaps), 3))
    first = math.pi if count == 2 else math.pi / 2
    for k in range(count):
        angle = first + 2 * math.pi * k / count
        traj[k, :, 0] = radial * math.cos(angle)
        traj[k, :, 1] = radial * math.sin(angle)
    return SynthScenario(
        kind="approach_merge_split",
        shapes=[ShapeSpec("sphere", (RADIUS,), COLORS[k]) for k in range(count)],
        trajectories=traj,
        frame_count=len(gaps),
        points_per_object=1500,
        rng_seed=seed,
    )


def scenarios(workload: str, seed: int) -> list:
    """The SynthScenarios of one run of a workload."""
    from dynseg.evaluation import make_scenario

    w = WORKLOADS[workload]
    seeds = [seed * w.sequences + i for i in range(w.sequences)]
    if w.spheres:
        return [_spheres(w.gaps, w.spheres, s) for s in seeds]
    return [make_scenario("crossing", frame_count=w.frames, rng_seed=s) for s in seeds]


def write_inputs(workload: str, seed: int, out_dir: str) -> list[str]:
    """Generate and write one run's sequences; return their manifest paths."""
    from dynseg import cloud_io
    from dynseg.cloud_io import SequenceManifest
    from dynseg.evaluation import generate_scenario

    manifests = []
    for i, scenario in enumerate(scenarios(workload, seed)):
        generated = generate_scenario(scenario)
        seq_dir = os.path.join(out_dir, f"seq{i}")
        os.makedirs(seq_dir, exist_ok=True)
        frame_paths, gt_paths = [], []
        for frame, truth in zip(generated.frames, generated.truth_labels):
            fp = os.path.join(seq_dir, f"frame_{frame.frame_index:04d}.txt")
            gp = os.path.join(seq_dir, f"gt_{frame.frame_index:04d}.txt")
            cloud_io.write_frame(frame, fp)
            cloud_io.write_ground_truth(truth.labels, gp)
            frame_paths.append(fp)
            gt_paths.append(gp)
        manifest = os.path.join(seq_dir, "manifest.txt")
        cloud_io.write_manifest(SequenceManifest(name=workload, frame_paths=frame_paths, gt_paths=gt_paths), manifest)
        cloud_io.write_interaction_log(generated.truth_interactions, os.path.join(seq_dir, "interactions_gt.txt"))
        manifests.append(manifest)
    return manifests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ns = ap.parse_args(argv)
    sys.path.insert(0, SRC)
    write_inputs(ns.workload, ns.seed, ns.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
