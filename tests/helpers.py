"""Shared builders for hand-constructed graphs and supervoxels, per-supervoxel views, and the per-frame tree invariant check."""

from __future__ import annotations

import numpy as np

from dynseg.assignment import Segments
from dynseg.graph import AdjacencyGraph
from dynseg.pipeline import init_state, process_frame
from dynseg.supervoxel import Supervoxels, voxelize


def make_supervoxels(centroids, colors_lab=None, contacts=(), n_points: int = 5) -> Supervoxels:
    """A frame's supervoxels by hand: n_points points each, touching along ``contacts``."""
    centroids = np.asarray(centroids, dtype=np.float64).reshape(-1, 3)
    count = len(centroids)
    colors = np.tile([50.0, 0.0, 0.0], (count, 1)) if colors_lab is None else colors_lab
    return Supervoxels(
        of_point=np.repeat(np.arange(count), n_points),
        centroids=centroids,
        colors_lab=np.asarray(colors, dtype=np.float64).reshape(-1, 3),
        point_counts=np.full(count, n_points),
        contacts=np.asarray(contacts, dtype=np.int64).reshape(-1, 2),
    )


def segment_table(rows) -> Segments:
    """Segments from (centroid, Lab colour, parent component id, parent object id) rows, in row order."""
    rows = list(rows)
    if not rows:
        return Segments.empty()
    centroids, colors, components, objects = zip(*rows)
    return Segments(
        np.asarray(centroids, dtype=np.float64).reshape(-1, 3),
        np.asarray(colors, dtype=np.float64).reshape(-1, 3),
        np.asarray(components, dtype=np.int64),
        np.asarray(objects, dtype=np.int64),
    )


def members(supervoxels: Supervoxels) -> list[np.ndarray]:
    """Each supervoxel's sorted point indices."""
    return [np.flatnonzero(supervoxels.of_point == k) for k in range(len(supervoxels))]


def footprints(frame, supervoxels: Supervoxels, voxel_resolution: float) -> list[np.ndarray]:
    """Each supervoxel's voxel keys, lexicographically sorted rows, rebuilt from ``voxelize``."""
    keys, point_voxel, _ = voxelize(frame, voxel_resolution)
    return [keys[np.unique(point_voxel[supervoxels.of_point == k])] for k in range(len(supervoxels))]


def graph_from_edges(edges: dict, positions: dict | None = None, colors: dict | None = None) -> AdjacencyGraph:
    """AdjacencyGraph over the nodes mentioned in edges (plus positions keys), 5 points per node.

    ``edges`` maps id pairs, in either orientation and any order, to weights.
    """
    nodes = set()
    for i, j in edges:
        nodes.add(i)
        nodes.add(j)
    if positions:
        nodes.update(positions)
    nodes = sorted(nodes)
    positions, colors = positions or {}, colors or {}
    at = {n: k for k, n in enumerate(nodes)}
    links = sorted((min(at[i], at[j]), max(at[i], at[j]), w) for (i, j), w in edges.items())
    return AdjacencyGraph(
        nodes=nodes,
        edges=[(i, j) for i, j, _ in links],
        weights=[w for _, _, w in links],
        centroids=[positions.get(n, (float(n), 0.0, 0.0)) for n in nodes],
        colors_lab=[colors.get(n, (50.0, 0.0, 0.0)) for n in nodes],
        point_counts=np.full(len(nodes), 5),
    )


def blob_graph(rows) -> tuple[AdjacencyGraph, list[np.ndarray]]:
    """An edgeless frame graph from per-blob (centroids, Lab colours) rows, and each blob's node positions.

    ``rows`` is read one blob at a time, so a generator that draws them keeps its draw order.
    """
    centroids, colors, blobs, n = [np.zeros((0, 3))], [np.zeros((0, 3))], [], 0
    for blob_centroids, blob_colors in rows:
        centroids.append(np.asarray(blob_centroids, dtype=np.float64).reshape(-1, 3))
        colors.append(np.asarray(blob_colors, dtype=np.float64).reshape(-1, 3))
        blobs.append(np.arange(n, n + len(centroids[-1])))
        n += len(centroids[-1])
    graph = AdjacencyGraph(
        nodes=np.arange(n),
        edges=[],
        weights=[],
        centroids=np.concatenate(centroids),
        colors_lab=np.concatenate(colors),
        point_counts=np.ones(n),
    )
    return graph, blobs


def edge_dict(graph: AdjacencyGraph) -> dict[tuple[int, int], float]:
    """The graph's edges as {(i, j): weight} over node ids, in edge order."""
    return dict(zip(map(tuple, graph.nodes[graph.edges].tolist()), graph.weights.tolist()))


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
    nodes = range(len(tree.object_of))  # frame graph node positions, which are the supervoxel ids
    assert len(tree.object_of) == len(tree.component_of) == len(tree.segment_of) == len(tree.blob_of)

    def labelled(labels, key):
        return frozenset(n for n, k in zip(nodes, labels.tolist()) if k == key)

    owners: dict[int, set[tuple[int, int]]] = {}  # component -> its (object, blob) pairs
    for cid, oid, bid in zip(tree.component_of.tolist(), tree.object_of.tolist(), tree.blob_of.tolist()):
        owners.setdefault(cid, set()).add((oid, bid))
    for cid, pairs in owners.items():
        assert len(pairs) == 1, f"component {cid} spans objects and blobs {sorted(pairs)}"
    components = {cid: (*next(iter(pairs)), labelled(tree.component_of, cid)) for cid, pairs in owners.items()}
    num_segments = len(tree.segment_centroids)
    assert set(tree.segment_of.tolist()) == set(range(num_segments)) and len(tree.segment_colors) == num_segments
    segments = [(tree.component_of[tree.segment_of == s][0], labelled(tree.segment_of, s)) for s in range(num_segments)]

    live = {oid for oid, _, _ in components.values()}
    assert set(np.unique(labels).tolist()) == live, "point labels and live objects differ"
    for a, b in tree.object_similarity:
        assert a < b and a in live and b in live, f"object similarity key {(a, b)} is not an ascending live pair"
    for a, b in tree.component_similarity:
        assert a < b and a in components and b in components and components[a][0] == components[b][0], (
            f"component similarity key {(a, b)} is not an ascending pair of live components of one object"
        )
    assert live <= objects, f"live objects {sorted(live - objects)} are not on file"
    for cid, (_, _, svs) in components.items():
        parts = [s for c, s in segments if c == cid]
        assert sum(map(len, parts)) == len(svs) and frozenset().union(*parts) == svs, (
            f"segments do not partition component {cid}"
        )
    assert all(c in components for c, _ in segments), "a segment has no component"
    return set(objects)


def run_checked(frames, config):
    """Run frames through process_frame, checking the invariants and that exactly the missing objects have ghosts after each one."""
    state = init_state(config)
    results, on_file, dropped = [], set(), set()
    for frame in frames:
        results.append(process_frame(state, frame))
        if state.tree is None:
            assert len(results[-1].point_labels) == 0
            continue
        now = check_frame_invariants(state.tree, results[-1].point_labels)
        missing = set(state.tree.missing_objects())
        assert set(state.missing_since) == missing, "the ghosts and the missing objects on file differ"
        assert set(state.ghosts.object_ids.tolist()) == missing, "a missing object on file has no ghost rows"
        assert not now & dropped, f"object ids {sorted(now & dropped)} came back"
        dropped |= on_file - now
        on_file = now
    return results
