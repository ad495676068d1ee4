"""Seeded multi-label cuts over blob subgraphs and normalized-cut over-segmentation.

Cut energy for a labeling l:
    E = sum_n U(n, l(n))
      + sum_{cut edges} (lambda * w_ij + mu * exp(-dist(midpoint_ij, boundary) / sigma_b))
with U(n, l) = min over seeds of label l of claim_costs(n, seed):
    |c_n - c_seed| / seed_resolution + dE_lab(n, seed) / 100.
Seeded nodes keep their seed label (zero cost own label, infinite otherwise).
Two labels are solved by max-flow on integer-rounded capacities (exact up to
the rounding); three or more by expansion moves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .graph import AdjacencyGraph
from .supervoxel import COLOR_NORM, nearest

INF = float("inf")


@dataclass
class CutParams:
    lambda_smooth: float = 1.0
    mu_coherence: float = 0.5
    sigma_boundary: float | None = None  # default seed_resolution

    def resolve(self, seed_resolution: float) -> "CutParams":
        return replace(self, sigma_boundary=seed_resolution if self.sigma_boundary is None else self.sigma_boundary)


@dataclass
class OversegConfig:
    ncut_threshold: float = 0.2  # split while the best bisection costs no more than this
    min_segment_supervoxels: int = 4


def claim_costs(centroids, colors, ref_centroids, ref_colors, seed_resolution: float) -> np.ndarray:
    """(N, R) cost of node n claiming reference r: |c_n - c_r| / seed_resolution + dE_lab(n, r) / COLOR_NORM."""
    ds = np.linalg.norm(centroids[:, None, :] - ref_centroids[None, :, :], axis=2)
    dc = np.linalg.norm(colors[:, None, :] - ref_colors[None, :, :], axis=2)
    return ds / seed_resolution + dc / COLOR_NORM


@dataclass
class CutProblem:
    subgraph: AdjacencyGraph
    seeds: np.ndarray  # (N,) object id seeded at each subgraph node, in node order, -1 for none
    previous_boundary: np.ndarray  # (B, 3) positions of the prior cut boundary, may be empty
    params: CutParams  # resolved
    seed_resolution: float  # the unary's distance scale

    def __post_init__(self) -> None:
        self.seeds = np.asarray(self.seeds, dtype=np.int64)
        self.previous_boundary = np.asarray(self.previous_boundary, dtype=np.float64).reshape(-1, 3)
        if self.seeds.shape != self.subgraph.nodes.shape:
            raise ValueError(f"{self.seeds.size} seeds for {self.subgraph.num_nodes} nodes")
        for name in ("lambda_smooth", "mu_coherence"):  # max-flow would drop negative capacities
            if not getattr(self.params, name) >= 0:
                raise ValueError(f"{name} must be >= 0")

    def labels(self) -> list[int]:
        return np.unique(self.seeds[self.seeds >= 0]).tolist()

    @cached_property
    def unary(self) -> np.ndarray:
        """(N, L) cost of each node taking each label, columns in labels() order."""
        g = self.subgraph
        labels = self.labels()
        seeds = np.flatnonzero(self.seeds >= 0)
        seed_label = np.searchsorted(labels, self.seeds[seeds])
        to_seed = claim_costs(g.centroids, g.colors_lab, g.centroids[seeds], g.colors_lab[seeds], self.seed_resolution)
        out = np.column_stack([to_seed[:, seed_label == l].min(axis=1) for l in range(len(labels))])
        out[seeds] = INF
        out[seeds, seed_label] = 0.0
        return out

    @cached_property
    def pairwise(self) -> np.ndarray:
        """(E,) cost of cutting each subgraph edge, in edge order."""
        p = self.params
        g = self.subgraph
        cost = p.lambda_smooth * g.weights
        if len(self.previous_boundary):
            d, _ = nearest(_midpoints(g, g.edges), self.previous_boundary)
            cost = cost + p.mu_coherence * np.exp(-d[:, 0] / p.sigma_boundary)
        return cost


def _midpoints(graph: AdjacencyGraph, pos: np.ndarray) -> np.ndarray:
    """(len(pos), 3) centroid midpoints of the node-position pairs ``pos``."""
    return (graph.centroids[pos[:, 0]] + graph.centroids[pos[:, 1]]) / 2.0


def _energy(problem: CutProblem, lab: np.ndarray) -> float:
    """Energy of a labeling given as one label position per node."""
    pos = problem.subgraph.edges
    cut = lab[pos[:, 0]] != lab[pos[:, 1]]
    return float(problem.unary[np.arange(len(lab)), lab].sum() + problem.pairwise[cut].sum())


def cut_energy(problem: CutProblem, labeling) -> float:
    """Energy of a full labeling, one object id per subgraph node; seed violations cost infinity."""
    lab = np.asarray(labeling, dtype=np.int64)
    if lab.shape != problem.subgraph.nodes.shape:
        raise ValueError(f"{lab.size} labels for {problem.subgraph.num_nodes} nodes")
    labels = problem.labels()
    unknown = np.setdiff1d(lab, labels)
    if len(unknown):
        raise ValueError(f"label {unknown[0]} has no seed")
    return _energy(problem, np.searchsorted(labels, lab))


# Quantized finite capacities sum to about this; the int32 flow solver keeps
# headroom for the rounding and for the seed t-links clamped one above the sum.
_FLOW_BUDGET = 2**30


def _binary_cut(
    unary0: np.ndarray, unary1: np.ndarray, pos: np.ndarray, cap_ij: np.ndarray, cap_ji: np.ndarray
) -> np.ndarray:
    """Mask of nodes choosing state 1 (sink side) for min sum of unaries plus cut costs.

    Edge k joins node positions pos[k]; it costs cap_ij[k] when its first
    node is 0-side and its second 1-side, and cap_ji[k] for the reverse split.
    Capacities are rounded to integers at _FLOW_BUDGET / (sum of the finite
    ones), so the cut is optimal to within (E + N) / that scale.
    """
    n = len(unary0)
    s, t = 0, 1
    # normalize so both t-link caps are non-negative; a node on the source
    # side takes state 0 and pays unary0 via the severed n->t arc
    shift = np.minimum(unary0, unary1)
    shift[shift == INF] = 0.0
    nodes = np.arange(2, n + 2)
    tail = np.concatenate([np.full(n, s), nodes, pos[:, 0] + 2, pos[:, 1] + 2])
    head = np.concatenate([nodes, np.full(n, t), pos[:, 1] + 2, pos[:, 0] + 2])
    cap = np.concatenate([unary1 - shift, unary0 - shift, cap_ij, cap_ji])
    keep = cap > 0
    tail, head, cap = tail[keep], head[keep], cap[keep]
    finite = cap < INF
    total = float(cap[finite].sum())
    scale = _FLOW_BUDGET / total if total > 0 else 1.0
    quantized = np.rint(cap[finite] * scale).astype(np.int64)
    capacity = np.full(len(cap), int(quantized.sum()) + 1, dtype=np.int32)
    capacity[finite] = quantized
    graph = csr_matrix((capacity, (tail, head)), shape=(n + 2, n + 2))
    residual = graph - maximum_flow(graph, s, t, method="dinic").flow
    sink_side = np.ones(n + 2, dtype=bool)
    sink_side[breadth_first_order(residual > 0, s, return_predecessors=False)] = False
    return sink_side[2:]


def restricted_cut(problem: CutProblem) -> np.ndarray:
    """One object id per subgraph node, in node order, honoring seeds.

    Exact for two labels; expansion moves until no improvement otherwise.
    """
    labels = np.asarray(problem.labels())
    if len(labels) < 2:
        raise ValueError("restricted cut needs seeds of at least two distinct objects")
    unary, cost = problem.unary, problem.pairwise
    pos = problem.subgraph.edges

    if len(labels) == 2:
        return labels[_binary_cut(unary[:, 0], unary[:, 1], pos, cost, cost).astype(np.intp)]

    # alpha expansion over the same energy; seeds start on their own label
    current = unary.argmin(axis=1)
    current_e = _energy(problem, current)
    rows = np.arange(len(current))
    improved = True
    sweeps = 0
    while improved and sweeps < 50:
        improved = False
        sweeps += 1
        for alpha in range(len(labels)):
            ci, cj = current[pos[:, 0]], current[pos[:, 1]]
            a = np.where(ci != cj, cost, 0.0)
            b = np.where(ci != alpha, cost, 0.0)
            c = np.where(cj != alpha, cost, 0.0)
            # E(xi,xj) = A + (C-A) xi - C xj + (B+C-A)(1-xi)xj, up to +C per edge;
            # add.at accumulates per node in edge order
            u0 = unary[rows, current]
            u1 = unary[:, alpha].copy()
            np.add.at(u1, pos[:, 0], c - a)
            np.add.at(u0, pos[:, 1], c)
            k = b + c - a  # >= 0 by the triangle inequality of the label costs
            switched = _binary_cut(u0, u1, pos, k, np.zeros_like(k))
            candidate = np.where(switched, alpha, current)
            cand_e = _energy(problem, candidate)
            if cand_e < current_e - 1e-12:
                current = candidate
                current_e = cand_e
                improved = True
    return labels[current]


def boundary_midpoints(graph: AdjacencyGraph, labels: np.ndarray) -> np.ndarray:
    """Midpoints of edges whose endpoints carry different labels, in edge order.

    ``labels`` holds one label per node, in node order.
    """
    lab = np.asarray(labels)
    if len(lab) != graph.num_nodes:
        raise ValueError(f"{len(lab)} labels for {graph.num_nodes} nodes")
    pos = graph.edges
    return _midpoints(graph, pos[lab[pos[:, 0]] != lab[pos[:, 1]]])


def _ncut(weights: np.ndarray, side: np.ndarray) -> float:
    """Normalized cut of edges whose endpoints lie on side A where ``side`` (E, 2) is True."""
    crossing = side[:, 0] != side[:, 1]
    cut = float(weights[crossing].sum())
    if cut == 0.0:
        return 0.0
    wa = float(weights[~crossing & side[:, 0]].sum())
    wb = float(weights[~crossing & ~side[:, 0]].sum())
    return cut / (wa + cut) + cut / (wb + cut)


def ncut_value(graph: AdjacencyGraph, side_a) -> float:
    """Normalized cut of a bipartition; ``side_a`` is an id array.

    assoc(A, V) counts each intra-pair weight once plus the cut, so the
    two-clique case with a 0.01 bridge evaluates to 0.01/3.01 + 0.01/3.01.
    """
    return _ncut(graph.weights, np.isin(graph.nodes, side_a)[graph.edges])


def _second_eigenpair(graph: AdjacencyGraph) -> tuple[float, np.ndarray]:
    """Second-smallest generalized eigenvalue and eigenvector of (D - W) x = t D x.

    Solved densely as the symmetrized problem D^-1/2 (D - W) D^-1/2 y = t y
    with x = D^-1/2 y.  The sign is fixed so that the largest-magnitude
    entry of x (the first one on a tie) is positive.
    """
    n = graph.num_nodes
    pos = graph.edges
    W = np.zeros((n, n))
    W[pos[:, 0], pos[:, 1]] = graph.weights
    W[pos[:, 1], pos[:, 0]] = graph.weights
    inv_sqrt = 1.0 / np.sqrt(W.sum(axis=1))
    lsym = -W * inv_sqrt[:, None] * inv_sqrt[None, :]
    lsym[np.arange(n), np.arange(n)] += 1.0
    value, y = eigh(lsym, subset_by_index=[1, 1])
    x = inv_sqrt * y[:, 0]
    return float(value[0]), -x if x[np.argmax(np.abs(x))] < 0 else x


N_THRESHOLDS = 32
# relative margin over eigh's rounding before lambda2 rejects a bisection unswept
SPECTRAL_MARGIN = 1e-9


def normalized_cut_bisect(
    graph: AdjacencyGraph, bound: float | None = None
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Best threshold bisection along the second eigenvector, as two sorted id arrays.

    Threshold chosen among 32 evenly spaced candidates over the eigenvector
    range; both sides are always non-empty, and the first holds the smallest
    node.  Thresholds that take in the same nodes give the same mask, and a
    later equal cost never wins, so each distinct mask is evaluated once, at
    its first threshold.

    No bipartition's normalized cut is below the second eigenvalue lambda2
    (Shi and Malik, TPAMI 2000), and _ncut's assoc counts each intra-side
    weight once, so its cost is at least theirs.  Given a ``bound``, a
    graph whose lambda2 exceeds it by more than SPECTRAL_MARGIN therefore
    has no bisection within it, and the result is None, without the sweep.
    """
    if graph.num_nodes < 2:
        raise ValueError("need at least two nodes to bisect")
    if not len(graph.edges):
        raise ValueError("need at least one edge to bisect")
    if not graph.is_connected():
        raise ValueError("subgraph is disconnected; bisect its components first")
    value, x = _second_eigenpair(graph)
    if bound is not None and value > bound * (1.0 + SPECTRAL_MARGIN):
        return None
    n = graph.num_nodes
    thresholds = np.linspace(float(x.min()), float(x.max()), N_THRESHOLDS)
    # nodes at or below each threshold; a mask is new where that count grows
    taken = np.searchsorted(np.sort(x), thresholds, "right")
    first = np.flatnonzero(np.diff(taken, prepend=0))
    best_cost = INF
    best_mask: np.ndarray | None = None
    for t in thresholds[first[taken[first] < n]]:
        mask = x <= t
        cost = _ncut(graph.weights, mask[graph.edges])
        if cost < best_cost:
            best_cost, best_mask = cost, mask
    if best_mask is None:
        # degenerate flat eigenvector: peel off the first node
        best_mask = np.arange(n) == 0
        best_cost = _ncut(graph.weights, best_mask[graph.edges])
    if not best_mask[0]:
        best_mask = ~best_mask
    return graph.nodes[best_mask], graph.nodes[~best_mask], best_cost


def oversegment(graph: AdjacencyGraph, config: OversegConfig = OversegConfig()) -> list[np.ndarray]:
    """Recursive bisection until the best cut costs more than the threshold, as sorted id arrays.

    A part splits only if its best bisection costs at most ncut_threshold and
    both halves keep at least min_segment_supervoxels nodes; ncut_threshold
    is each bisection's bound, so a part that lambda2 rejects is not swept.
    Disconnected parts always separate into their components.
    """
    if graph.num_nodes == 0:
        return []

    out: list[np.ndarray] = []

    def recurse(g: AdjacencyGraph) -> None:
        if g.num_nodes == 1:
            out.append(g.nodes)
            return
        if len(g.pieces) > 1:
            for c in g.pieces:
                recurse(g.subgraph(c, connected=True))
            return
        if g.num_nodes < 2 * config.min_segment_supervoxels:
            out.append(g.nodes)
            return
        bisection = normalized_cut_bisect(g, config.ncut_threshold)
        if bisection is not None:
            a, b, cost = bisection
            if cost <= config.ncut_threshold and min(len(a), len(b)) >= config.min_segment_supervoxels:
                recurse(g.subgraph(a))
                recurse(g.subgraph(b))
                return
        out.append(g.nodes)

    recurse(graph)
    out.sort(key=lambda seg: seg[0])
    return out
