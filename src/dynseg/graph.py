"""Adjacency graph over supervoxels, its blobs, and the connectivity helper.

Two supervoxels are linked when they touch, meaning the supervoxel growth
linked a voxel of one to a voxel of the other (its contacts), or when their
centroids are closer than the adjacency radius.
Edge weight: w_ij = exp(-dE_lab / sigma_color) * exp(-d / sigma_distance).

A set of supervoxels (a blob, a piece, a cut side, a segment) is a sorted
int64 id array, and lists of them are ordered by smallest member: blob k is
entry k of ``connected_components``.  The frame graph's ids are its node
positions 0..N-1; a subgraph's ``nodes`` map its positions back to frame ids.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _csgraph_components

from .supervoxel import Supervoxels, pairs_closer_than, squared_norms


@dataclass
class GraphConfig:
    adjacency_radius: float | None = None  # default 1.5 * seed_resolution
    sigma_color: float = 30.0
    sigma_distance: float | None = None  # default seed_resolution

    def resolve(self, seed_resolution: float) -> "GraphConfig":
        return replace(
            self,
            adjacency_radius=1.5 * seed_resolution if self.adjacency_radius is None else self.adjacency_radius,
            sigma_distance=seed_resolution if self.sigma_distance is None else self.sigma_distance,
        )


@dataclass
class AdjacencyGraph:
    """Supervoxel adjacency graph in array form.

    Every consumer relies on the node and edge order noted below, which the
    constructor checks rather than restores.  A graph is not modified after
    construction, so ``pieces`` is computed once.
    """

    nodes: np.ndarray  # (N,) sorted distinct int64 supervoxel ids
    edges: np.ndarray  # (E, 2) int64 node positions, i < j, unique, lexicographic
    weights: np.ndarray  # (E,) build_graph's weights lie in (0, 1]
    centroids: np.ndarray  # (N, 3) supervoxel centroids, in node order
    colors_lab: np.ndarray  # (N, 3) supervoxel mean Lab colours, in node order
    point_counts: np.ndarray  # (N,) float point count of each supervoxel, in node order

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.int64).reshape(-1)
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        self.centroids = np.asarray(self.centroids, dtype=np.float64).reshape(-1, 3)
        self.colors_lab = np.asarray(self.colors_lab, dtype=np.float64).reshape(-1, 3)
        self.point_counts = np.asarray(self.point_counts, dtype=np.float64).reshape(-1)
        n = len(self.nodes)
        if not n == len(self.centroids) == len(self.colors_lab) == len(self.point_counts):
            raise ValueError("nodes, centroids, colours and point counts differ in length")
        if len(self.weights) != len(self.edges):
            raise ValueError(f"{len(self.edges)} edges but {len(self.weights)} weights")
        if (np.diff(self.nodes) <= 0).any():
            raise ValueError("node ids must be sorted and distinct")
        # pairs 0 <= i < j < n in lexicographic order have rising codes i * n + j
        i, j = self.edges.T
        if not ((0 <= i) & (i < j) & (j < n)).all() or (np.diff(i * n + j) <= 0).any():
            raise ValueError(f"edges must be distinct position pairs 0 <= i < j < {n} in lexicographic order")

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def subgraph(self, nodes, connected: bool = False) -> "AdjacencyGraph":
        """The graph induced on ``nodes``, a sorted id array.

        The parent's edges with both ends in ``nodes`` are renumbered to
        positions in it, which keeps their order.  ``connected`` says the
        caller already knows ``nodes`` to be one connected piece, such as an
        entry of ``pieces``; the subgraph then holds that as its pieces and
        never searches them.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        at = np.searchsorted(self.nodes, nodes)
        if not (at < self.num_nodes).all() or not np.array_equal(self.nodes[at], nodes):
            raise ValueError("subgraph nodes must be nodes of the graph")
        where = np.full(self.num_nodes, -1, dtype=np.int64)  # -1 for nodes left out
        where[at] = np.arange(len(at))
        ends = where[self.edges]
        inside = (ends[:, 0] >= 0) & (ends[:, 1] >= 0)
        sub = AdjacencyGraph(
            nodes, ends[inside], self.weights[inside], self.centroids[at], self.colors_lab[at], self.point_counts[at]
        )
        if connected and len(nodes):
            sub.pieces = [sub.nodes]  # fills the cached property
        return sub

    @cached_property
    def pieces(self) -> list[np.ndarray]:
        """Connected pieces of the graph, ordered by smallest member."""
        return _pieces(self.nodes, self.edges)

    def is_connected(self) -> bool:
        return len(self.pieces) <= 1


def _pieces(order: np.ndarray, links: np.ndarray) -> list[np.ndarray]:
    """Connected pieces of the sorted ids ``order`` linked by (E, 2) positions, ordered by smallest member."""
    n = len(order)
    if not n:
        return []
    # CSR built directly (rows from a count, stable order by row), so csgraph
    # converts nothing.  Undirected, since connected_sets' links may repeat and
    # csgraph's strong-component search does not end on repeated entries.
    tails = links[:, 0]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    adjacency = csr_matrix((np.ones(len(tails)), links[np.argsort(tails, kind="stable"), 1], indptr), shape=(n, n))
    count, labels = _csgraph_components(adjacency, directed=False)
    # each piece comes out sorted, so its first entry is its smallest member
    sizes = np.bincount(labels, minlength=count)
    pieces = np.split(order[np.argsort(labels, kind="stable")], np.cumsum(sizes)[:-1])
    return sorted(pieces, key=lambda p: p[0])


def build_graph(supervoxels: Supervoxels, config: GraphConfig) -> AdjacencyGraph:
    """Link supervoxels that touch (their ``contacts``) or whose centroids are near; ``config`` is resolved."""
    n = len(supervoxels)
    centroids, colors = supervoxels.centroids, supervoxels.colors_lab
    # centroid proximity, strictly inside the radius
    near = pairs_closer_than(centroids, config.adjacency_radius)
    both = np.concatenate([supervoxels.contacts, near])
    a, b = np.divmod(np.unique(both.min(axis=1) * n + both.max(axis=1)), n)
    dc = np.sqrt(squared_norms(colors[a] - colors[b]))
    d = np.sqrt(squared_norms(centroids[a] - centroids[b]))
    weights = np.exp(-dc / config.sigma_color) * np.exp(-d / config.sigma_distance)
    return AdjacencyGraph(
        nodes=np.arange(n),
        edges=np.column_stack([a, b]),
        weights=weights,
        centroids=centroids,
        colors_lab=colors,
        point_counts=supervoxels.point_counts,
    )


def connected_sets(nodes, pairs) -> list[np.ndarray]:
    """Connected pieces of ``nodes`` linked by ``pairs``, ordered by smallest member.

    ``nodes`` and ``pairs`` are anything that converts to an integer array
    and an (E, 2) one.  Pairs with an endpoint outside ``nodes`` are ignored.
    """
    order = np.unique(np.asarray(nodes, dtype=np.int64))
    if not len(order):
        return []
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    pos = np.minimum(np.searchsorted(order, pairs), len(order) - 1)
    return _pieces(order, pos[(order[pos] == pairs).all(axis=1)])


def connected_components(graph: AdjacencyGraph) -> list[np.ndarray]:
    """Blobs of the graph as sorted id arrays, ordered by smallest member."""
    return list(graph.pieces)
