"""Adjacency graph over supervoxels, its blobs, and the connectivity helper.

Two supervoxels are linked when their voxel footprints touch under
26-adjacency or their centroids are closer than the adjacency radius.
Edge weight: w_ij = exp(-dE_lab / sigma_color) * exp(-d / sigma_distance).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _csgraph_components
from scipy.spatial import cKDTree

from .supervoxel import SuperVoxel, voxel_neighbour_pairs


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
    nodes: list[int]
    edges: dict[tuple[int, int], float]  # keyed (i, j) with i < j, weight in (0, 1]
    svs: dict[int, SuperVoxel]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def weight(self, i: int, j: int) -> float:
        return self.edges[(i, j) if i < j else (j, i)]

    def has_edge(self, i: int, j: int) -> bool:
        return ((i, j) if i < j else (j, i)) in self.edges

    def subgraph(self, node_subset) -> "AdjacencyGraph":
        keep = set(node_subset)
        nodes = sorted(keep)
        edges = {(i, j): w for (i, j), w in self.edges.items() if i in keep and j in keep}
        return AdjacencyGraph(nodes=nodes, edges=edges, svs=self.svs)

    def is_connected(self) -> bool:
        return len(connected_sets(self.nodes, self.edges)) <= 1


@dataclass(frozen=True)
class Blob:
    blob_id: int
    member_supervoxels: frozenset[int]

    @property
    def members_sorted(self) -> list[int]:
        return sorted(self.member_supervoxels)


def build_graph(supervoxels: list[SuperVoxel], config: GraphConfig, seed_resolution: float) -> AdjacencyGraph:
    """Link supervoxels by footprint adjacency or centroid proximity."""
    cfg = config.resolve(seed_resolution)
    svs = {sv.sv_id: sv for sv in supervoxels}
    if len(svs) != len(supervoxels):
        raise ValueError("duplicate supervoxel ids")
    nodes = sorted(svs)
    if not nodes:
        return AdjacencyGraph(nodes=[], edges={}, svs={})
    centroids = np.asarray([svs[n].centroid for n in nodes], dtype=np.float64)
    colors = np.asarray([svs[n].mean_color_lab for n in nodes], dtype=np.float64)

    # footprint contact, as positions in nodes
    owner = np.repeat(np.arange(len(nodes)), [len(svs[n].voxel_keys) for n in nodes])
    touching = owner[voxel_neighbour_pairs(np.concatenate([svs[n].voxel_keys for n in nodes]))]
    touching = touching[touching[:, 0] != touching[:, 1]]
    # centroid proximity, strictly inside the radius
    near = cKDTree(centroids).query_pairs(cfg.adjacency_radius, output_type="ndarray")
    near = near[np.linalg.norm(centroids[near[:, 0]] - centroids[near[:, 1]], axis=1) < cfg.adjacency_radius]
    both = np.concatenate([touching, near])
    a, b = np.divmod(np.unique(both.min(axis=1) * len(nodes) + both.max(axis=1)), len(nodes))
    dc = np.linalg.norm(colors[a] - colors[b], axis=1)
    d = np.linalg.norm(centroids[a] - centroids[b], axis=1)
    weights = np.exp(-dc / cfg.sigma_color) * np.exp(-d / cfg.sigma_distance)
    ids = np.asarray(nodes, dtype=np.int64)
    edges = dict(zip(zip(ids[a].tolist(), ids[b].tolist()), weights.tolist()))
    return AdjacencyGraph(nodes=nodes, edges=edges, svs=svs)


def connected_sets(nodes, pairs) -> list[frozenset[int]]:
    """Connected pieces of ``nodes`` linked by ``pairs``, ordered by smallest member.

    Pairs with an endpoint outside ``nodes`` are ignored.
    """
    order = sorted(set(nodes))
    if not order:
        return []
    pos = {n: k for k, n in enumerate(order)}
    links = np.asarray(
        [(pos[a], pos[b]) for a, b in pairs if a in pos and b in pos], dtype=np.intp
    ).reshape(-1, 2)
    adjacency = coo_matrix(
        (np.ones(len(links)), (links[:, 0], links[:, 1])), shape=(len(order), len(order))
    )
    count, labels = _csgraph_components(adjacency, directed=False)
    pieces: list[list[int]] = [[] for _ in range(count)]
    for n, label in zip(order, labels):
        pieces[label].append(n)
    return sorted((frozenset(p) for p in pieces), key=min)


def connected_components(graph: AdjacencyGraph) -> list[Blob]:
    """Blobs of the graph; ids ordered by each blob's smallest member id."""
    pieces = connected_sets(graph.nodes, graph.edges)
    return [Blob(blob_id=k, member_supervoxels=piece) for k, piece in enumerate(pieces)]
