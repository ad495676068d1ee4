"""Shared builders for hand-constructed graphs and supervoxels, and the per-frame tree invariant check."""

from __future__ import annotations

import numpy as np

from dynseg.graph import AdjacencyGraph
from dynseg.pipeline import init_state, process_frame
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


def check_frame_invariants(tree, labels) -> set[int]:
    """Assert the object tree's partition invariants for one frame.

    ``labels`` are the frame's point labels.  Returns the object ids on file,
    live or not, so the caller can check across frames that a dropped id
    never comes back.
    """
    labels = np.asarray(labels)
    assert (labels >= 0).all()
    objects = set(tree.births)
    nodes = tree.nodes.tolist()
    assert nodes == sorted(set(nodes)) and len(tree.component_of) == len(tree.segment_of) == len(nodes)

    def labelled(labels, key):
        return frozenset(n for n, k in zip(nodes, labels.tolist()) if k == key)

    components = {c: (oid, bid, labelled(tree.component_of, c)) for c, (oid, bid) in tree.components.items()}
    assert set(tree.component_of.tolist()) == set(components), "component ids repeat"
    num_segments = len(tree.segment_centroids)
    assert set(tree.segment_of.tolist()) == set(range(num_segments)) and len(tree.segment_colors) == num_segments
    segments = [(tree.component_of[tree.segment_of == s][0], labelled(tree.segment_of, s)) for s in range(num_segments)]
    blobs = {}
    for _, bid, svs in components.values():
        blobs[bid] = blobs.get(bid, frozenset()) | svs

    live = {oid for oid, _, _ in components.values()}
    assert set(np.unique(labels).tolist()) == live, "point labels and live objects differ"
    for cid, (oid, bid, svs) in components.items():
        assert oid in objects and bid in blobs and svs, f"component {cid} has a dangling link"
    for bid, members in blobs.items():
        parts = [svs for _, b, svs in components.values() if b == bid]
        assert sum(map(len, parts)) == len(members) and frozenset().union(*parts) == members, (
            f"components do not partition blob {bid}"
        )
    for cid, (_, _, svs) in components.items():
        parts = [s for c, s in segments if c == cid]
        assert sum(map(len, parts)) == len(svs) and frozenset().union(*parts) == svs, (
            f"segments do not partition component {cid}"
        )
    assert all(c in components for c, _ in segments), "a segment has no component"
    return set(objects)


def run_checked(frames, config):
    """Run frames through process_frame, checking the invariants after each one."""
    state = init_state(config)
    results, on_file, dropped = [], set(), set()
    for frame in frames:
        results.append(process_frame(state, frame))
        if state.tree is None:
            assert len(results[-1].point_labels) == 0
            continue
        now = check_frame_invariants(state.tree, results[-1].point_labels)
        assert not now & dropped, f"object ids {sorted(now & dropped)} came back"
        dropped |= on_file - now
        on_file = now
    return results
