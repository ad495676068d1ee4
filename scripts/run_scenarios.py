"""Sweep the synthetic scenarios and tabulate tracking quality per seed.

Runs the full pipeline on freshly generated sequences and reports the
mean segmentation error plus interaction counts for every (kind, seed)
pair. Useful as a quick regression drive before touching the tracker.
"""

import argparse
import sys
import time

from dynseg.evaluation import SCENARIO_FRAMES, evaluate_run, generate_scenario, make_scenario
from dynseg.pipeline import PipelineConfig, run_sequence
from dynseg.supervoxel import SupervoxelConfig


def run_one(kind: str, seed: int, voxel: float) -> dict:
    generated = generate_scenario(make_scenario(kind, rng_seed=seed))
    config = PipelineConfig(supervoxel=SupervoxelConfig(voxel_resolution=voxel))
    t0 = time.perf_counter()
    result = run_sequence(generated.frames, config)
    elapsed = time.perf_counter() - t0
    found = {f.frame_index: f.point_labels for f in result.frames}
    report = evaluate_run(
        found, generated.truth_labels, result.interactions, generated.truth_interactions
    )
    return {
        "frames": len(result.frames),
        "error": report.mean_error,
        "found": report.found_interaction_count,
        "truth": report.truth_interaction_count,
        "matched": report.matched_interaction_count,
        "seconds": elapsed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kinds", nargs="*", default=list(SCENARIO_FRAMES), choices=list(SCENARIO_FRAMES))
    ap.add_argument("--seeds", type=int, default=5, help="seeds 0..N-1 per kind")
    ap.add_argument("--voxel", type=float, default=0.02, help="voxel resolution in meters")
    ns = ap.parse_args(argv)

    print(f"{'kind':<22} {'seed':>4} {'frames':>6} {'error':>8} {'events':>10} {'time':>7}")
    failures = 0
    for kind in ns.kinds:
        errors = []
        for seed in range(ns.seeds):
            row = run_one(kind, seed, ns.voxel)
            errors.append(row["error"])
            events = f"{row['matched']}/{row['found']}f/{row['truth']}t"
            print(
                f"{kind:<22} {seed:>4} {row['frames']:>6} {row['error']:>8.4f} "
                f"{events:>10} {row['seconds']:>6.1f}s"
            )
            if row["matched"] < row["truth"] or row["found"] > row["truth"]:
                failures += 1
        mean = sum(errors) / len(errors) if errors else 0.0
        print(f"{kind:<22} mean error over {len(errors)} seeds: {mean:.4f}")
    if failures:
        print(f"{failures} run(s) with unmatched or spurious interactions", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
