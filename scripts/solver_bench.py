"""Benchmark the discrete solvers against exhaustive baselines.

Three experiments on seeded random instances:
  assignment  per instance, exhaustive enumeration time beside default
              genetic search time, against the labeling count up to which
              the pipeline enumerates; then genetic search vs enumeration,
              sweeping the generation budget: hit rate and mean relative gap
  ncut        spectral bisection vs brute-force bipartition minimum
  cut         2- and 3-label restricted cuts vs brute-force minimum energy,
              with the time per cut

Small instance sizes keep the baselines exact; the sweep measures solution
quality per unit of budget, not wall-clock supremacy.
"""

import argparse
import itertools
import sys
import time

import numpy as np

from dynseg.assignment import (
    AssignmentProblem,
    EnergyParams,
    GAConfig,
    Segments,
    exact_limit,
    solve_exhaustive,
    solve_ga,
)
from dynseg.graph import AdjacencyGraph
from dynseg.graphcut import CutParams, CutProblem, cut_energy, ncut_value, normalized_cut_bisect, restricted_cut


def random_assignment(rng, num_segments, num_blobs, params):
    # one row per segment, drawn in row order: centroid, Lab colour, parent component, parent object
    rows = [
        (
            rng.uniform(0.0, 0.4, 3),
            (rng.uniform(20, 80), rng.uniform(-40, 40), rng.uniform(-40, 40)),
            rng.integers(0, num_segments),
            rng.integers(0, 3),
        )
        for _ in range(num_segments)
    ]
    segments = Segments(*(np.asarray(column) for column in zip(*rows)))
    # each blob's supervoxel rows, drawn blob by blob, as nodes of one edgeless graph
    centroids, colors, blobs, n = [np.zeros((0, 3))], [np.zeros((0, 3))], [], 0
    for _ in range(num_blobs):
        k = int(rng.integers(1, 6))
        center = rng.uniform(0.0, 0.4, 3)
        centroids.append(center + rng.normal(0.0, 0.02, (k, 3)))
        colors.append(np.column_stack([rng.uniform(20, 80, k), rng.uniform(-40, 40, k), rng.uniform(-40, 40, k)]))
        blobs.append(np.arange(n, n + k))
        n += k
    graph = AdjacencyGraph(np.arange(n), [], [], np.concatenate(centroids), np.concatenate(colors), np.ones(n))
    return AssignmentProblem(segments=segments, graph=graph, blobs=blobs, params=params)


def random_connected_graph(rng, n, random_features=False):
    """A connected graph on nodes 0..n-1.

    Centroids lie 0.05 apart on the x axis with one shared colour or, with
    ``random_features``, centroids and colours are drawn node by node.
    """
    order = rng.permutation(n)
    edges = {}
    for k in range(1, n):
        a, b = int(order[k]), int(order[int(rng.integers(0, k))])
        edges[(min(a, b), max(a, b))] = float(rng.uniform(0.05, 1.0))
    for _ in range(int(rng.integers(0, 2 * n))):
        a, b = (int(v) for v in rng.integers(0, n, 2))
        if a != b:
            edges.setdefault((min(a, b), max(a, b)), float(rng.uniform(0.05, 1.0)))
    if random_features:
        rows = [
            (rng.uniform(0.0, 0.3, 3), [rng.uniform(20, 80), rng.uniform(-30, 30), rng.uniform(-30, 30)])
            for _ in range(n)
        ]
        centroids, colors = np.asarray([c for c, _ in rows]), np.asarray([lab for _, lab in rows])
    else:
        centroids = np.column_stack([0.05 * np.arange(n), np.zeros((n, 2))])
        colors = np.tile([50.0, 0.0, 0.0], (n, 1))
    pairs = sorted(edges)
    return AdjacencyGraph(
        nodes=np.arange(n),
        edges=pairs,
        weights=[edges[p] for p in pairs],
        centroids=centroids,
        colors_lab=colors,
        point_counts=np.ones(n),
    )


def brute_force_ncut(graph):
    nodes = graph.nodes
    best = float("inf")
    for mask in range(1, 2 ** (len(nodes) - 1)):
        side = nodes[(mask >> np.arange(len(nodes))) & 1 == 1]
        best = min(best, ncut_value(graph, side))
    return best


def random_cut_problem(rng, n, num_labels):
    """A connected graph with random centroids and colors, one seed per label."""
    graph = random_connected_graph(rng, n, random_features=True)
    seeds = np.full(n, -1)
    seeds[rng.choice(n, size=num_labels, replace=False)] = np.arange(num_labels)
    return CutProblem(
        subgraph=graph,
        seeds=seeds,
        previous_boundary=rng.uniform(0.0, 0.3, (int(rng.integers(0, 3)), 3)),
        params=CutParams().resolve(0.08),
        seed_resolution=0.08,
    )


def brute_force_cut(problem):
    labeling = np.where(problem.seeds >= 0, problem.seeds, 0)
    free = np.flatnonzero(problem.seeds < 0)
    best = float("inf")
    for combo in itertools.product(problem.labels(), repeat=len(free)):
        labeling[free] = combo
        best = min(best, cut_energy(problem, labeling))
    return best


def bench_assignment(instances, seed):
    rng = np.random.default_rng(seed)
    params = EnergyParams().resolve(0.08)
    problems = [
        random_assignment(rng, int(rng.integers(3, 7)), int(rng.integers(2, 4)), params)
        for _ in range(instances)
    ]
    ga = GAConfig()
    print(f"pipeline enumerates up to {exact_limit(ga)} labelings")
    print(f"{'instance':>8} {'segments':>8} {'blobs':>5} {'labelings':>9} {'exact ms':>9} {'ga ms':>8}")
    optima = []
    for i, problem in enumerate(problems):
        t0 = time.perf_counter()
        optima.append(solve_exhaustive(problem).energy)
        t1 = time.perf_counter()
        solve_ga(problem, ga, rng_seed=i)
        t2 = time.perf_counter()
        ms, mb = problem.num_segments, problem.num_blobs
        print(f"{i:>8} {ms:>8} {mb:>5} {(mb + 1) ** ms:>9} {(t1 - t0) * 1e3:>9.2f} {(t2 - t1) * 1e3:>8.2f}")
    print(f"{'generations':>12} {'hit rate':>9} {'mean gap':>9} {'time':>7}")
    for generations in (5, 15, 50, 150):
        hits = 0
        gaps = []
        t0 = time.perf_counter()
        for i, (problem, opt) in enumerate(zip(problems, optima)):
            got = solve_ga(problem, GAConfig(generations=generations), rng_seed=i).energy
            hits += abs(got - opt) < 1e-9
            gaps.append((got - opt) / opt if opt > 0 else 0.0)
        elapsed = time.perf_counter() - t0
        print(
            f"{generations:>12} {hits / instances:>9.2%} {np.mean(gaps):>9.5f} {elapsed:>6.2f}s"
        )


def bench_ncut(instances, seed):
    rng = np.random.default_rng(seed)
    print(f"{'nodes':>6} {'bisect':>9} {'optimum':>9} {'ratio':>7}")
    worst = 1.0
    for _ in range(instances):
        n = int(rng.integers(6, 15))
        graph = random_connected_graph(rng, n)
        _, _, cost = normalized_cut_bisect(graph)
        best = brute_force_ncut(graph)
        ratio = cost / best if best > 0 else 1.0
        worst = max(worst, ratio)
        print(f"{n:>6} {cost:>9.5f} {best:>9.5f} {ratio:>7.3f}")
    print(f"worst ratio {worst:.3f} over {instances} instances")


def bench_cut(instances, seed):
    rng = np.random.default_rng(seed)
    print(f"{'labels':>6} {'nodes':>5} {'edges':>5} {'cut':>9} {'optimum':>9} {'ratio':>9} {'ms':>7}")
    worst = 1.0
    total_ms = 0.0
    for i in range(instances):
        num_labels = 2 + i % 2
        problem = random_cut_problem(rng, int(rng.integers(5, 12 if num_labels == 2 else 9)), num_labels)
        t0 = time.perf_counter()
        labeling = restricted_cut(problem)
        ms = (time.perf_counter() - t0) * 1e3
        total_ms += ms
        energy, best = cut_energy(problem, labeling), brute_force_cut(problem)
        ratio = energy / best if best > 0 else 1.0
        worst = max(worst, ratio)
        g = problem.subgraph
        print(f"{num_labels:>6} {g.num_nodes:>5} {len(g.edges):>5} {energy:>9.5f} {best:>9.5f} {ratio:>9.6f} {ms:>7.2f}")
    print(f"cut worst ratio {worst:.6f} over {instances} instances, {total_ms / instances:.2f} ms per cut")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("experiment", choices=("assignment", "ncut", "cut", "all"), nargs="?", default="all")
    ap.add_argument("--instances", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    ns = ap.parse_args(argv)
    if ns.experiment in ("assignment", "all"):
        bench_assignment(ns.instances, ns.seed)
    if ns.experiment in ("ncut", "all"):
        bench_ncut(min(ns.instances, 20), ns.seed)
    if ns.experiment in ("cut", "all"):
        bench_cut(min(ns.instances, 20), ns.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
