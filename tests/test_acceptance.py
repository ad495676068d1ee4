"""End-to-end quality gates.

One test per criterion. Each test prints a single verdict line (visible
with -s or -rA); a failed assertion is the corresponding fail line.
Solver gates compare against brute-force or closure oracles built here,
independently of the library internals they check.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np

from dynseg.assignment import (
    AssignmentProblem,
    EnergyParams,
    GAConfig,
    solve_exhaustive,
    solve_ga,
)
from dynseg.cli import main
from dynseg.cloud_io import LabeledFrame
from dynseg.evaluation import (
    evaluate_run,
    generate_scenario,
    make_scenario,
    segmentation_error,
)
from dynseg.graph import connected_components
from dynseg.graphcut import (
    CutParams,
    CutProblem,
    OversegConfig,
    cut_energy,
    normalized_cut_bisect,
    restricted_cut,
)
from dynseg.pipeline import PipelineConfig, run_sequence
from dynseg.supervoxel import SupervoxelConfig
from dynseg.tree import (
    IdAllocator,
    TreeParams,
    accumulate_similarities,
    compute_similarity,
    init_tree,
)

from helpers import blob_graph, graph_from_edges, segment_table


def _scenario_config() -> PipelineConfig:
    # synthetic scenes sample surfaces sparsely; a coarser voxel keeps them connected
    return PipelineConfig(supervoxel=SupervoxelConfig(voxel_resolution=0.02))


# ---------------------------------------------------------------- criterion 1


def _random_assignment(rng, num_segments, num_blobs, params):
    segments = segment_table(
        (
            rng.uniform(0.0, 0.4, 3),
            (rng.uniform(20, 80), rng.uniform(-40, 40), rng.uniform(-40, 40)),
            rng.integers(0, num_segments),
            rng.integers(0, 3),
        )
        for _ in range(num_segments)
    )

    def blob():
        k = int(rng.integers(1, 6))
        center = rng.uniform(0.0, 0.4, 3)
        return (
            center + rng.normal(0.0, 0.02, (k, 3)),
            np.column_stack([rng.uniform(20, 80, k), rng.uniform(-40, 40, k), rng.uniform(-40, 40, k)]),
        )

    graph, blobs = blob_graph(blob() for _ in range(num_blobs))
    return AssignmentProblem(segments=segments, graph=graph, blobs=blobs, params=params)


def test_criterion_1_ga_matches_exhaustive_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    params = EnergyParams().resolve(0.08)
    exact = 0
    for i in range(100):
        num_segments = int(rng.integers(1, 7))
        num_blobs = int(rng.integers(1, 4))
        problem = _random_assignment(rng, num_segments, num_blobs, params)
        opt = solve_exhaustive(problem)
        got = solve_ga(problem, GAConfig(), rng_seed=1000 + i)
        assert got.energy <= opt.energy * 1.05 + 1e-9
        if abs(got.energy - opt.energy) < 1e-9:
            exact += 1
    elapsed = time.perf_counter() - t0
    assert exact >= 95
    assert elapsed < 30.0
    print(f"\ncriterion 1 pass: ga optimal on {exact}/100, rest within 5% ({elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 2


def _random_cut_problem(rng, n, with_boundary):
    order = rng.permutation(n)
    edges = {}
    for k in range(1, n):
        a, b = int(order[k]), int(order[int(rng.integers(0, k))])
        edges[(min(a, b), max(a, b))] = float(rng.uniform(0.05, 1.0))
    for _ in range(int(rng.integers(0, n))):
        a, b = (int(v) for v in rng.integers(0, n, 2))
        if a != b:
            edges.setdefault((min(a, b), max(a, b)), float(rng.uniform(0.05, 1.0)))
    positions = {i: tuple(rng.uniform(0.0, 0.12, 3)) for i in range(n)}
    colors = {
        i: (float(rng.uniform(20, 80)), float(rng.uniform(-30, 30)), float(rng.uniform(-30, 30)))
        for i in range(n)
    }
    graph = graph_from_edges(edges, positions=positions, colors=colors)
    seeds = np.full(n, -1)
    seeds[rng.choice(n, 2, replace=False)] = [10, 20]
    boundary = rng.uniform(0.0, 0.12, (3, 3)) if with_boundary else np.zeros((0, 3))
    return CutProblem(graph, seeds, boundary, CutParams().resolve(0.08), 0.08)


def _cut_brute_force(problem):
    labels = problem.labels()
    lab = np.where(problem.seeds >= 0, problem.seeds, labels[0])
    free = np.flatnonzero(problem.seeds < 0)
    best = math.inf
    for combo in itertools.product(labels, repeat=len(free)):
        lab[free] = combo
        best = min(best, cut_energy(problem, lab))
    return best


def test_criterion_2_restricted_cut_exact_on_two_labels():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    for i in range(50):
        n = int(rng.integers(4, 13))
        problem = _random_cut_problem(rng, n, with_boundary=(i % 4 == 0))
        got = cut_energy(problem, restricted_cut(problem))
        want = _cut_brute_force(problem)
        assert abs(got - want) < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\ncriterion 2 pass: 50/50 two-label cuts match brute force ({elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 3


def _random_connected_graph(rng, n):
    order = rng.permutation(n)
    edges = {}
    for k in range(1, n):
        a, b = int(order[k]), int(order[int(rng.integers(0, k))])
        edges[(min(a, b), max(a, b))] = float(rng.uniform(0.05, 1.0))
    for _ in range(int(rng.integers(0, 2 * n))):
        a, b = (int(v) for v in rng.integers(0, n, 2))
        if a != b:
            edges.setdefault((min(a, b), max(a, b)), float(rng.uniform(0.05, 1.0)))
    return graph_from_edges(edges)


def _ncut_brute_force(graph):
    """Minimum bipartition cost by enumeration, one side pinned to break symmetry."""
    nodes = list(graph.nodes)
    n = len(nodes)
    idx = {v: k for k, v in enumerate(nodes)}
    masks = np.arange(1, 2 ** (n - 1), dtype=np.int64)
    side = (masks[:, None] >> np.arange(n - 1)) & 1  # last node always on side B
    cut = np.zeros(len(masks))
    intra_a = np.zeros(len(masks))
    intra_b = np.zeros(len(masks))
    for (i, j), w in zip(graph.edges.tolist(), graph.weights.tolist()):
        a = side[:, idx[i]] if idx[i] < n - 1 else np.zeros(len(masks), dtype=np.int64)
        b = side[:, idx[j]] if idx[j] < n - 1 else np.zeros(len(masks), dtype=np.int64)
        cut[(a ^ b) == 1] += w
        intra_a[(a & b) == 1] += w
        intra_b[((1 - a) & (1 - b)) == 1] += w
    costs = cut / (intra_a + cut) + cut / (intra_b + cut)
    return float(costs.min())


def _two_cliques(bridge=0.01, size=3, intra=1.0):
    edges = {}
    for a in range(size):
        for b in range(a + 1, size):
            edges[(a, b)] = intra
            edges[(a + size, b + size)] = intra
    edges[(size - 1, size)] = bridge
    return graph_from_edges(edges)


def test_criterion_3_normalized_cut_quality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    for _ in range(50):
        n = int(rng.integers(4, 15))
        graph = _random_connected_graph(rng, n)
        _, _, cost = normalized_cut_bisect(graph)
        best = _ncut_brute_force(graph)
        assert cost <= best * 1.10 + 1e-9

    side_a, side_b, cost = normalized_cut_bisect(_two_cliques())
    assert {frozenset(side_a), frozenset(side_b)} == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
    assert abs(cost - 2 * 0.01 / 3.01) < 1e-9
    assert abs(cost - 0.006645) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\ncriterion 3 pass: 50/50 bisections within 10%, two-clique closed form ({elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 4


def _components_oracle(node_ids, edges):
    ids = sorted(node_ids)
    pos = {v: i for i, v in enumerate(ids)}
    reach = np.eye(len(ids), dtype=bool)
    for i, j in edges:
        reach[pos[i], pos[j]] = reach[pos[j], pos[i]] = True
    for k in range(len(ids)):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    groups: dict[bytes, list[int]] = {}
    for i, v in enumerate(ids):
        groups.setdefault(reach[i].tobytes(), []).append(v)
    return sorted(groups.values(), key=lambda g: g[0])


def test_criterion_4_connected_components_match_closure_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(100):
        n = int(rng.integers(1, 51))
        edges = {}
        for _ in range(int(rng.integers(0, 2 * n))):
            a, b = (int(v) for v in rng.integers(0, n, 2))
            if a != b:
                edges.setdefault((min(a, b), max(a, b)), 0.5)
        positions = {i: (0.05 * i, 0.0, 0.0) for i in range(n)}
        graph = graph_from_edges(edges, positions=positions)
        blobs = connected_components(graph)
        assert [b.tolist() for b in blobs] == _components_oracle(range(n), edges)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\ncriterion 4 pass: 100/100 component decompositions match oracle ({elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_approach_merge_split_ten_seeds():
    t0 = time.perf_counter()
    worst_error = 0.0
    for seed in range(10):
        generated = generate_scenario(make_scenario("approach_merge_split", rng_seed=seed))
        t_run = time.perf_counter()
        result = run_sequence(generated.frames, _scenario_config())
        assert time.perf_counter() - t_run < 120.0

        assert len(generated.truth_interactions) == 1
        truth = generated.truth_interactions[0]
        assert len(result.interactions) == 1
        got = result.interactions[0]
        assert abs(got.start_frame - truth.start_frame) <= 1
        assert abs(got.end_frame - truth.end_frame) <= 1

        pre = {
            int(v)
            for f in result.frames[: truth.start_frame]
            for v in np.unique(f.point_labels)
        }
        post = {
            int(v)
            for f in result.frames[truth.end_frame + 1 :]
            for v in np.unique(f.point_labels)
        }
        assert len(pre) == 2
        assert pre == post

        found = {f.frame_index: f.point_labels for f in result.frames}
        report = evaluate_run(
            found, generated.truth_labels, result.interactions, generated.truth_interactions
        )
        assert report.mean_error <= 0.05
        worst_error = max(worst_error, report.mean_error)
    elapsed = time.perf_counter() - t0
    print(
        f"\ncriterion 5 pass: 10/10 approach runs, one event within 1 frame, "
        f"worst error {worst_error:.4f} ({elapsed:.0f}s)"
    )


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_occlusion_split_ten_seeds():
    t0 = time.perf_counter()
    for seed in range(10):
        scenario = make_scenario("occlusion_split", rng_seed=seed)
        generated = generate_scenario(scenario)
        result = run_sequence(generated.frames, _scenario_config())

        assert result.interactions == []
        for f in result.frames:
            assert f.object_count == 1
            assert set(np.unique(f.point_labels)) == {0}

        lo, hi = scenario.occluder_frames
        split_frames = [f.frame_index for f in result.frames if f.blob_count >= 2]
        assert split_frames
        assert all(lo <= t <= hi for t in split_frames)
    elapsed = time.perf_counter() - t0
    print(
        f"\ncriterion 6 pass: 10/10 occlusion runs keep one object, "
        f"split blobs stay inside the window, no interactions ({elapsed:.0f}s)"
    )


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_accumulation_closed_form():
    params = TreeParams().resolve(0.08)
    g = graph_from_edges({}, positions={0: (0.0, 0.0, 0.0), 1: (0.1, 0.0, 0.0)})
    blobs = connected_components(g)
    prev = init_tree(blobs, g, 0, IdAllocator(), OversegConfig(), params)
    s = compute_similarity([0], [1], g, params)
    for k in range(1, 21):
        cur = replace(prev, frame_index=k, object_similarity={}, component_similarity={})
        accumulate_similarities(cur, prev, g, params)
        assert abs(cur.object_similarity[(0, 1)] - s * (1.0 - 2.0 ** (-k))) < 1e-12
        prev = cur
    print("\ncriterion 7 pass: constant-input accumulation matches s*(1 - 2^-k) for k <= 20")


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_segment_reruns_byte_identical(tmp_path):
    spec = tmp_path / "scene.txt"
    spec.write_text("kind = static\nframes = 3\npoints_per_object = 1200\n")
    data = tmp_path / "data"
    assert main(["synth", str(spec), "--out", str(data)]) == 0

    outputs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = main(
            [
                "segment",
                str(data / "manifest.txt"),
                "--out",
                str(out),
                "--supervoxel.voxel_resolution",
                "0.02",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        files = sorted(p.name for p in out.glob("labels_*.txt"))
        assert files
        blob = {name: (out / name).read_bytes() for name in files}
        blob["interactions.txt"] = (out / "interactions.txt").read_bytes()
        outputs.append(blob)
    assert outputs[0] == outputs[1]
    print(f"\ncriterion 8 pass: {len(outputs[0])} output files byte-identical across reruns")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_metric_sanity():
    rng = np.random.default_rng(909)
    truth = np.repeat(np.arange(5), 2000)

    perm = rng.permutation(5)
    err = segmentation_error(LabeledFrame(0, perm[truth]), LabeledFrame(0, truth))
    assert err == 0.0

    corrupted = truth.copy()
    hit = rng.choice(truth.size, 400, replace=False)
    corrupted[hit] = (corrupted[hit] + 1) % 5
    err4 = segmentation_error(LabeledFrame(0, corrupted), LabeledFrame(0, truth))
    assert abs(err4 - 0.04) <= 1e-4
    print(f"\ncriterion 9 pass: permutation error 0, 4% corruption reads {err4:.4f}")
