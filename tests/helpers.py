"""Shared builders for hand-constructed graphs and supervoxels."""

from __future__ import annotations

import numpy as np

from dynseg.graph import AdjacencyGraph
from dynseg.supervoxel import SuperVoxel

_next_point = [0]


def make_sv(
    sv_id: int,
    centroid,
    color_lab=(50.0, 0.0, 0.0),
    n_points: int = 5,
    key=None,
) -> SuperVoxel:
    start = _next_point[0]
    _next_point[0] += n_points
    if key is None:
        key = (sv_id, 0, 0)
    return SuperVoxel(
        sv_id=sv_id,
        point_indices=np.arange(start, start + n_points),
        voxel_keys=np.asarray([key], dtype=np.int64),
        centroid=np.asarray(centroid, dtype=np.float64),
        mean_color_lab=np.asarray(color_lab, dtype=np.float64),
    )


def graph_from_edges(edges: dict, positions: dict | None = None, colors: dict | None = None) -> AdjacencyGraph:
    """AdjacencyGraph over the nodes mentioned in edges (plus positions keys)."""
    nodes = set()
    for i, j in edges:
        nodes.add(i)
        nodes.add(j)
    if positions:
        nodes.update(positions)
    nodes = sorted(nodes)
    svs = {}
    for n in nodes:
        pos = positions.get(n, (float(n), 0.0, 0.0)) if positions else (float(n), 0.0, 0.0)
        col = colors.get(n, (50.0, 0.0, 0.0)) if colors else (50.0, 0.0, 0.0)
        svs[n] = make_sv(n, pos, col)
    return AdjacencyGraph(nodes=nodes, edges=list(edges), weights=list(edges.values()), svs=svs)


def edge_dict(graph: AdjacencyGraph) -> dict[tuple[int, int], float]:
    """The graph's edges as {(i, j): weight}, in edge order."""
    return dict(zip(map(tuple, graph.edges.tolist()), graph.weights.tolist()))


def grid_cloud(shape=(4, 4, 1), spacing=0.02, origin=(0.0, 0.0, 0.0), color=(128, 128, 128)):
    """Regular lattice of points with one uniform color."""
    nx, ny, nz = shape
    pts = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                pts.append(
                    (origin[0] + i * spacing, origin[1] + j * spacing, origin[2] + k * spacing)
                )
    pts = np.asarray(pts, dtype=np.float64)
    cols = np.tile(np.asarray(color, dtype=np.uint8), (len(pts), 1))
    return pts, cols
