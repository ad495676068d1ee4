"""Seeded multi-label cuts over blob subgraphs and normalized-cut over-segmentation.

Cut energy for a labeling l:
    E = sum_n U(n, l(n))
      + sum_{cut edges} (lambda * w_ij + mu * exp(-dist(midpoint_ij, boundary) / sigma_b))
with U(n, l) = min over seeds of label l of
    (|c_n - c_seed| / seed_resolution + dE_lab(n, seed) / 100).
Seeded nodes keep their seed label (zero cost own label, infinite otherwise).
Two labels are solved exactly by max-flow; three or more by expansion moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .graph import AdjacencyGraph, connected_sets

INF = float("inf")
_EPS = 1e-12
COLOR_NORM = 100.0


@dataclass
class CutParams:
    lambda_smooth: float = 1.0
    mu_coherence: float = 0.5
    sigma_boundary: float | None = None  # default seed_resolution
    seed_resolution: float = 0.08

    def resolve(self) -> "CutParams":
        return replace(
            self,
            sigma_boundary=self.seed_resolution if self.sigma_boundary is None else self.sigma_boundary,
        )


@dataclass
class OversegConfig:
    ncut_threshold: float = 0.2  # split while the best bisection costs no more than this
    min_segment_supervoxels: int = 4
    eigen_tolerance: float = 1e-8
    eigen_max_iterations: int = 5000


@dataclass
class CutProblem:
    subgraph: AdjacencyGraph
    label_seeds: dict[int, int]  # supervoxel id -> object id
    previous_boundary: np.ndarray  # (B, 3) positions of the prior cut boundary, may be empty
    params: CutParams
    _pre: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.previous_boundary = np.asarray(self.previous_boundary, dtype=np.float64).reshape(-1, 3)
        for n in self.label_seeds:
            if n not in self.subgraph.svs or n not in self.subgraph.nodes:
                raise ValueError(f"seed node {n} not in subgraph")

    def labels(self) -> list[int]:
        return sorted(set(self.label_seeds.values()))


def _pairwise_costs(problem: CutProblem) -> dict[tuple[int, int], float]:
    p = problem.params.resolve()
    out: dict[tuple[int, int], float] = {}
    boundary = problem.previous_boundary
    svs = problem.subgraph.svs
    for (i, j), w in sorted(problem.subgraph.edges.items()):
        cost = p.lambda_smooth * w
        if boundary.size:
            mid = (svs[i].centroid + svs[j].centroid) / 2.0
            d = float(np.min(np.linalg.norm(boundary - mid, axis=1)))
            cost += p.mu_coherence * math.exp(-d / p.sigma_boundary)
        out[(i, j)] = cost
    return out


def _unaries(problem: CutProblem) -> dict[int, dict[int, float]]:
    p = problem.params.resolve()
    svs = problem.subgraph.svs
    seeds_by_label: dict[int, list[int]] = {}
    for n, l in problem.label_seeds.items():
        seeds_by_label.setdefault(l, []).append(n)
    out: dict[int, dict[int, float]] = {}
    for n in problem.subgraph.nodes:
        if n in problem.label_seeds:
            own = problem.label_seeds[n]
            out[n] = {l: (0.0 if l == own else INF) for l in seeds_by_label}
            continue
        row: dict[int, float] = {}
        for l, seeds in seeds_by_label.items():
            best = INF
            for s in seeds:
                ds = float(np.linalg.norm(svs[n].centroid - svs[s].centroid))
                dc = float(np.linalg.norm(svs[n].mean_color_lab - svs[s].mean_color_lab))
                cost = ds / p.seed_resolution + dc / COLOR_NORM
                if cost < best:
                    best = cost
            row[l] = best
        out[n] = row
    return out


def _prepared(problem: CutProblem) -> dict:
    if not problem._pre:
        problem._pre = {"unary": _unaries(problem), "pairwise": _pairwise_costs(problem)}
    return problem._pre


def cut_energy(problem: CutProblem, labeling: dict[int, int]) -> float:
    """Energy of a full labeling of the subgraph; seed violations cost infinity."""
    pre = _prepared(problem)
    missing = [n for n in problem.subgraph.nodes if n not in labeling]
    if missing:
        raise ValueError(f"labeling misses nodes {missing[:4]}")
    e = 0.0
    for n in problem.subgraph.nodes:
        u = pre["unary"][n].get(labeling[n])
        if u is None:
            raise ValueError(f"label {labeling[n]} has no seed")
        e += u
    for (i, j), cost in pre["pairwise"].items():
        if labeling[i] != labeling[j]:
            e += cost
    return e


class _Dinic:
    def __init__(self, n: int) -> None:
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[float] = []

    def add(self, u: int, v: int, cap_uv: float, cap_vu: float = 0.0) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap_uv)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(cap_vu)

    def max_flow(self, s: int, t: int) -> float:
        flow = 0.0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for e in self.head[u]:
                    if self.cap[e] > _EPS and level[self.to[e]] < 0:
                        level[self.to[e]] = level[u] + 1
                        queue.append(self.to[e])
            if level[t] < 0:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, level, it)
                if pushed <= _EPS:
                    break
                flow += pushed

    def _augment(self, s: int, t: int, level: list[int], it: list[int]) -> float:
        """Push flow along the first level-increasing path; 0.0 when none is left.

        Depth-first with an explicit edge stack, so path length is not bounded
        by the interpreter's recursion limit.  it[u] advances past an edge only
        once the search below it has come back empty.
        """
        path: list[int] = []
        u = s
        while u != t:
            while it[u] < len(self.head[u]):
                e = self.head[u][it[u]]
                if self.cap[e] > _EPS and level[self.to[e]] == level[u] + 1:
                    path.append(e)
                    u = self.to[e]
                    break
                it[u] += 1
            else:
                if not path:
                    return 0.0
                u = self.to[path.pop() ^ 1]
                it[u] += 1
        pushed = min(self.cap[e] for e in path)
        for e in path:
            self.cap[e] -= pushed
            self.cap[e ^ 1] += pushed
        return pushed

    def source_side(self, s: int) -> set[int]:
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > _EPS and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen


def _binary_cut(
    nodes: list[int],
    unary0: dict[int, float],
    unary1: dict[int, float],
    pairwise: dict[tuple[int, int], tuple[float, float]],
) -> set[int]:
    """Nodes choosing state 1 (sink side) for min sum of unaries plus cut costs.

    pairwise maps (i, j) to directed caps (paid when i is 0-side and j 1-side,
    paid for the reverse split).
    """
    idx = {n: i + 2 for i, n in enumerate(nodes)}
    dinic = _Dinic(len(nodes) + 2)
    s, t = 0, 1
    for n in nodes:
        # n on source side -> state 0 -> pays unary0 via the severed n->t arc
        c_s = unary1[n]
        c_t = unary0[n]
        shift = min(c_s, c_t)  # normalize so both t-link caps are non-negative
        if shift != INF and shift != 0.0:
            c_s, c_t = c_s - shift, c_t - shift
        if c_s > 0:
            dinic.add(s, idx[n], c_s)
        if c_t > 0:
            dinic.add(idx[n], t, c_t)
    for (i, j), (cap_ij, cap_ji) in pairwise.items():
        if cap_ij > 0 or cap_ji > 0:
            dinic.add(idx[i], idx[j], cap_ij, cap_ji)
    dinic.max_flow(s, t)
    src = dinic.source_side(s)
    return {n for n in nodes if idx[n] not in src}


def restricted_cut(problem: CutProblem) -> dict[int, int]:
    """Label every node of the subgraph, honoring seeds.

    Exact for two labels; expansion moves until no improvement otherwise.
    """
    labels = problem.labels()
    if len(labels) < 2:
        raise ValueError("restricted cut needs seeds of at least two distinct objects")
    pre = _prepared(problem)
    nodes = list(problem.subgraph.nodes)
    unary = pre["unary"]
    pairwise = pre["pairwise"]

    if len(labels) == 2:
        la, lb = labels
        u0 = {n: unary[n][la] for n in nodes}
        u1 = {n: unary[n][lb] for n in nodes}
        sym = {e: (c, c) for e, c in pairwise.items()}
        side_b = _binary_cut(nodes, u0, u1, sym)
        return {n: (lb if n in side_b else la) for n in nodes}

    # alpha expansion over the same energy
    current = {}
    for n in nodes:
        if n in problem.label_seeds:
            current[n] = problem.label_seeds[n]
        else:
            row = unary[n]
            current[n] = min(labels, key=lambda l: (row[l], l))
    current_e = cut_energy(problem, current)
    improved = True
    sweeps = 0
    while improved and sweeps < 50:
        improved = False
        sweeps += 1
        for alpha in labels:
            u0 = {n: unary[n][current[n]] for n in nodes}
            u1 = {n: unary[n][alpha] for n in nodes}
            pw: dict[tuple[int, int], tuple[float, float]] = {}
            for (i, j), cost in pairwise.items():
                a = cost if current[i] != current[j] else 0.0
                b = cost if current[i] != alpha else 0.0
                c = cost if current[j] != alpha else 0.0
                # E(xi,xj) = A + (C-A) xi - C xj + (B+C-A)(1-xi)xj, up to +C per edge
                u1[i] = u1[i] + (c - a)
                u0[j] = u0[j] + c
                k = b + c - a  # >= 0 by the triangle inequality of the label costs
                if k > 0:
                    pw[(i, j)] = (k, 0.0)
            switched = _binary_cut(nodes, u0, u1, pw)
            candidate = {n: (alpha if n in switched else current[n]) for n in nodes}
            cand_e = cut_energy(problem, candidate)
            if cand_e < current_e - 1e-12:
                current = candidate
                current_e = cand_e
                improved = True
    return current


def boundary_midpoints(graph: AdjacencyGraph, labeling: dict[int, int]) -> np.ndarray:
    """Midpoints of edges whose endpoints carry different labels."""
    mids = []
    for (i, j) in sorted(graph.edges):
        if labeling.get(i) != labeling.get(j):
            mids.append((graph.svs[i].centroid + graph.svs[j].centroid) / 2.0)
    if not mids:
        return np.empty((0, 3))
    return np.asarray(mids)


def ncut_value(graph: AdjacencyGraph, side_a) -> float:
    """Normalized cut of a bipartition.

    assoc(A, V) counts each intra-pair weight once plus the cut, so the
    two-clique case with a 0.01 bridge evaluates to 0.01/3.01 + 0.01/3.01.
    """
    a = set(side_a)
    cut = 0.0
    wa = 0.0
    wb = 0.0
    for (i, j), w in graph.edges.items():
        ina, inb = i in a, j in a
        if ina != inb:
            cut += w
        elif ina:
            wa += w
        else:
            wb += w
    if cut == 0.0:
        return 0.0
    return cut / (wa + cut) + cut / (wb + cut)


def _second_eigenvector(graph: AdjacencyGraph, config: OversegConfig) -> np.ndarray:
    """Second-smallest generalized eigenvector of (D - W) x = t D x.

    Shifted inverse power iteration on the symmetrized problem, deflating the
    trivial constant eigenvector each step.
    """
    nodes = graph.nodes
    n = len(nodes)
    pos = {m: i for i, m in enumerate(nodes)}
    W = np.zeros((n, n))
    for (i, j), w in graph.edges.items():
        W[pos[i], pos[j]] = w
        W[pos[j], pos[i]] = w
    d = W.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(d)
    lsym = -W * inv_sqrt[:, None] * inv_sqrt[None, :]
    lsym[np.arange(n), np.arange(n)] += 1.0
    lsym = (lsym + lsym.T) / 2.0
    z0 = np.sqrt(d)
    z0 /= np.linalg.norm(z0)
    shift = 1e-10
    factor = cho_factor(lsym + shift * np.eye(n))

    rng = np.random.Generator(np.random.Philox(key=np.uint64(0x5EED)))
    v = rng.standard_normal(n)
    v -= (z0 @ v) * z0
    nv = np.linalg.norm(v)
    if nv < 1e-30:
        v = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
        v -= (z0 @ v) * z0
        nv = np.linalg.norm(v)
    v /= nv
    prev_eig = INF
    for _ in range(config.eigen_max_iterations):
        y = cho_solve(factor, v)
        y -= (z0 @ y) * z0
        ny = np.linalg.norm(y)
        if ny < 1e-300:
            raise RuntimeError("eigenvector iteration collapsed")
        v = y / ny
        eig = float(v @ (lsym @ v))
        if abs(eig - prev_eig) <= config.eigen_tolerance * max(1.0, abs(eig)):
            return inv_sqrt * v
        prev_eig = eig
    raise RuntimeError(
        f"eigenvector iteration did not converge in {config.eigen_max_iterations} iterations"
    )


N_THRESHOLDS = 32


def normalized_cut_bisect(
    graph: AdjacencyGraph, config: OversegConfig = OversegConfig()
) -> tuple[frozenset[int], frozenset[int], float]:
    """Best threshold bisection along the second eigenvector.

    Threshold chosen among 32 evenly spaced candidates over the eigenvector
    range; both sides are always non-empty.
    """
    if graph.num_nodes < 2:
        raise ValueError("need at least two nodes to bisect")
    if not graph.edges:
        raise ValueError("need at least one edge to bisect")
    if not graph.is_connected():
        raise ValueError("subgraph is disconnected; bisect its components first")
    x = _second_eigenvector(graph, config)
    nodes = graph.nodes
    best: tuple[float, int] | None = None
    best_mask: np.ndarray | None = None
    for k, t in enumerate(np.linspace(float(x.min()), float(x.max()), N_THRESHOLDS)):
        mask = x <= t
        na = int(mask.sum())
        if na == 0 or na == len(nodes):
            continue
        cost = ncut_value(graph, {nodes[i] for i in range(len(nodes)) if mask[i]})
        if best is None or cost < best[0]:
            best = (cost, k)
            best_mask = mask
    if best is None or best_mask is None:
        # degenerate flat eigenvector: peel off the first node
        best_mask = np.zeros(len(nodes), dtype=bool)
        best_mask[0] = True
        best = (ncut_value(graph, {nodes[0]}), 0)
    side_a = frozenset(nodes[i] for i in range(len(nodes)) if best_mask[i])
    side_b = frozenset(nodes) - side_a
    if min(side_b) < min(side_a):
        side_a, side_b = side_b, side_a
    return side_a, side_b, best[0]


def oversegment(graph: AdjacencyGraph, config: OversegConfig = OversegConfig()) -> list[frozenset[int]]:
    """Recursive bisection until the best cut costs more than the threshold.

    A part splits only if its best bisection costs at most ncut_threshold and
    both halves keep at least min_segment_supervoxels nodes.  Disconnected
    parts always separate into their components.
    """
    if graph.num_nodes == 0:
        return []

    out: list[frozenset[int]] = []

    def recurse(g: AdjacencyGraph) -> None:
        if g.num_nodes == 1:
            out.append(frozenset(g.nodes))
            return
        comps = connected_sets(g.nodes, g.edges)
        if len(comps) > 1:
            for c in comps:
                recurse(g.subgraph(c))
            return
        if g.num_nodes < 2 * config.min_segment_supervoxels:
            out.append(frozenset(g.nodes))
            return
        a, b, cost = normalized_cut_bisect(g, config)
        if cost <= config.ncut_threshold and len(a) >= config.min_segment_supervoxels and len(b) >= config.min_segment_supervoxels:
            recurse(g.subgraph(a))
            recurse(g.subgraph(b))
        else:
            out.append(frozenset(g.nodes))

    recurse(graph)
    out.sort(key=min)
    return out
