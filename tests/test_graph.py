"""Adjacency graph construction and connected components."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynseg.cloud_io import PointCloudFrame
from dynseg.graph import AdjacencyGraph, GraphConfig, build_graph, connected_components, connected_sets
from dynseg.supervoxel import SupervoxelConfig, cluster_supervoxels

from helpers import edge_dict, footprints, graph_from_edges, make_supervoxels


def _cc_oracle(nodes, edges):
    """Components via boolean transitive closure, independent of connected_sets."""
    index = {n: k for k, n in enumerate(nodes)}
    n = len(nodes)
    reach = np.eye(n, dtype=bool)
    for i, j in edges:
        reach[index[i], index[j]] = True
        reach[index[j], index[i]] = True
    for k in range(n):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    groups = {}
    for a in range(n):
        key = tuple(np.flatnonzero(reach[a]))
        groups.setdefault(key, []).append(nodes[a])
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def _union_find_pieces(nodes, pairs):
    """Reference pieces from a plain union-find whose roots are set minima."""
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        if a in parent and b in parent:
            ra, rb = find(a), find(b)
            parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for n in parent:
        groups.setdefault(find(n), set()).add(n)
    return [sorted(groups[root]) for root in sorted(groups)]


class TestConnectedSets:
    @settings(max_examples=200, deadline=None)
    @given(
        nodes=st.sets(st.integers(-5, 30), max_size=20),
        # endpoints range wider than the nodes, so some pairs leave the set
        pairs=st.lists(st.tuples(st.integers(-8, 36), st.integers(-8, 36)), max_size=40),
    )
    @example(nodes=set(), pairs=[])
    @example(nodes=set(), pairs=[(0, 1)])
    @example(nodes={0, 2}, pairs=[(0, 1), (1, 2)])
    @example(nodes={0, 1, 2}, pairs=[(0, 1), (1, 2)])
    # repeated, reversed and self pairs
    @example(nodes={0, 1, 2, 3}, pairs=[(0, 1), (1, 0), (0, 1), (2, 2)])
    def test_matches_union_find_reference(self, nodes, pairs):
        pieces = connected_sets(sorted(nodes), pairs)
        assert all(p.dtype == np.int64 for p in pieces)
        assert [p.tolist() for p in pieces] == _union_find_pieces(nodes, pairs)


def _build_graph_loop(feet, centroids, colors, cfg, reach=1):
    """Reference: the 26- or 124-offset walk over the footprints ``feet`` plus the strict centroid-radius test."""
    owner = {tuple(int(v) for v in k): sv for sv, keys in enumerate(feet) for k in keys}
    pairs = set()
    steps = range(-reach, reach + 1)
    for (x, y, z), a in owner.items():
        for dx in steps:
            for dy in steps:
                for dz in steps:
                    b = owner.get((x + dx, y + dy, z + dz))
                    if b is not None and b != a:
                        pairs.add((min(a, b), max(a, b)))
    ids = list(range(len(feet)))
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if float(np.linalg.norm(centroids[a] - centroids[b])) < cfg.adjacency_radius:
                pairs.add((a, b))
    edges = {}
    for a, b in sorted(pairs):
        dc = float(np.linalg.norm(colors[a] - colors[b]))
        d = float(np.linalg.norm(centroids[a] - centroids[b]))
        edges[(a, b)] = math.exp(-dc / cfg.sigma_color) * math.exp(-d / cfg.sigma_distance)
    return ids, edges


def _subgraph_loop(graph, node_subset):
    """Reference: the dict-of-pairs subgraph, keeping edges with both ends in the subset."""
    keep = set(node_subset)
    return sorted(keep), {pair: w for pair, w in edge_dict(graph).items() if pair[0] in keep and pair[1] in keep}


@st.composite
def _random_graphs(draw):
    """Graphs on sparse ids, edges given in random orientation and order."""
    ids = sorted(draw(st.sets(st.integers(0, 60), max_size=16)))
    pairs = draw(st.sets(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=40)) if ids else set()
    edges = {}
    for i, j in pairs:
        if i != j and (j, i) not in edges:
            edges[(i, j)] = draw(st.floats(0.01, 1.0))
    return graph_from_edges(edges, positions={n: (0.01 * n, 0.0, 0.0) for n in ids})


class TestGraphConfig:
    def test_resolve_defaults(self):
        cfg = GraphConfig().resolve(0.08)
        assert cfg.adjacency_radius == pytest.approx(0.12)
        assert cfg.sigma_distance == pytest.approx(0.08)
        assert cfg.sigma_color == 30.0

    def test_resolve_keeps_explicit_values(self):
        cfg = GraphConfig(adjacency_radius=0.3, sigma_distance=0.05).resolve(0.08)
        assert cfg.adjacency_radius == 0.3
        assert cfg.sigma_distance == 0.05


def _cell_frame(keys, voxel=0.01):
    """One grey point at the centre of each listed voxel key."""
    pts = (np.asarray(keys, dtype=np.float64) + 0.5) * voxel
    return PointCloudFrame(0, pts, np.full(pts.shape, 128, dtype=np.uint8))


# seed cells as small as the voxel give every voxel of _cell_frame its own
# supervoxel; a radius this small leaves footprint contact as the only link
_ONE_PER_VOXEL = SupervoxelConfig(voxel_resolution=0.01, seed_resolution=0.01)
_NO_RADIUS = GraphConfig(adjacency_radius=1e-9).resolve(0.08)
_DEFAULT = GraphConfig().resolve(0.08)


class TestBuildGraph:
    def test_edge_weight_hand_value(self):
        # dLab = 15, d = 0.04, sigma_c = 30, sigma_d = 0.08
        # w = exp(-15/30) * exp(-0.04/0.08) = exp(-1)
        svs = make_supervoxels([(0.0, 0.0, 0.0), (0.04, 0.0, 0.0)], colors_lab=[(50.0, 10.0, 0.0), (50.0, -5.0, 0.0)])
        g = build_graph(svs, _DEFAULT)
        assert g.edges.tolist() == [[0, 1]]
        assert g.weights[0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_adjacency_radius_is_strict(self):
        # centroids exactly at the radius must not link
        g = build_graph(make_supervoxels([(0.0, 0.0, 0.0), (0.12, 0.0, 0.0)]), _DEFAULT)
        assert g.edges.tolist() == []

        g2 = build_graph(make_supervoxels([(0.0, 0.0, 0.0), (0.119, 0.0, 0.0)]), _DEFAULT)
        assert g2.edges.tolist() == [[0, 1]]

    def test_footprint_adjacency_overrides_distance(self):
        # diagonal voxel neighbors link even with centroids far apart
        svs = cluster_supervoxels(_cell_frame([(0, 0, 0), (1, 1, 1)]), _ONE_PER_VOXEL)
        assert svs.contacts.tolist() == [[0, 1]]
        g = build_graph(svs, _NO_RADIUS)
        assert g.edges.tolist() == [[0, 1]]
        assert 0.0 < g.weights[0] <= 1.0
        far = make_supervoxels([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], contacts=[(0, 1)])
        assert build_graph(far, _DEFAULT).edges.tolist() == [[0, 1]]

    def test_gap_in_footprints_and_distance_gives_no_edge(self):
        svs = cluster_supervoxels(_cell_frame([(0, 0, 0), (2, 0, 0)]), _ONE_PER_VOXEL)
        assert len(svs) == 2 and svs.contacts.shape == (0, 2)
        g = build_graph(svs, _NO_RADIUS)
        assert g.edges.shape == (0, 2)
        assert g.weights.shape == (0,)

    def test_reach_two_bridges_a_one_voxel_gap(self):
        frame = _cell_frame([(0, 0, 0), (2, -2, 2), (5, 0, 0)])
        svs = cluster_supervoxels(frame, _ONE_PER_VOXEL, reach=2)
        g = build_graph(svs, _NO_RADIUS)
        assert g.edges.tolist() == [[0, 1]]
        assert cluster_supervoxels(frame, _ONE_PER_VOXEL, reach=1).contacts.shape == (0, 2)

    def test_nodes_sorted_regardless_of_input_order(self):
        # contacts listed out of order, one of them also a centroid pair
        svs = make_supervoxels([(0.0, 0.0, 0.0), (0.05, 0.0, 0.0), (1.0, 0.0, 0.0)], contacts=[(1, 2), (0, 1)])
        g = build_graph(svs, _DEFAULT)
        assert g.nodes.tolist() == [0, 1, 2]
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_weights_in_unit_interval(self):
        rng = np.random.default_rng(11)
        svs = make_supervoxels(
            rng.uniform(0, 0.3, size=(12, 3)),
            colors_lab=np.column_stack([rng.uniform(20, 80, 12), rng.uniform(-40, 40, 12), rng.uniform(-40, 40, 12)]),
        )
        g = build_graph(svs, _DEFAULT)
        assert len(g.weights) > 0
        assert ((g.weights > 0.0) & (g.weights <= 1.0)).all()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 200),
        extent=st.sampled_from([0.05, 0.15, 0.3]),
        voxel=st.sampled_from([0.02, 0.008]),
        radius=st.sampled_from([None, 0.05]),
        reach=st.sampled_from([1, 2]),
    )
    def test_matches_loop_reference(self, seed, n, extent, voxel, radius, reach):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, extent, size=(n, 3))
        cols = rng.integers(0, 256, size=(n, 3), dtype=np.uint8)
        order = rng.permutation(n)
        frame = PointCloudFrame(0, pts[order], cols[order])
        svs = cluster_supervoxels(frame, SupervoxelConfig(voxel_resolution=voxel, seed_resolution=0.08), reach)
        config = GraphConfig(adjacency_radius=radius).resolve(0.08)
        got = build_graph(svs, config)
        want_nodes, want_edges = _build_graph_loop(footprints(frame, svs, voxel), svs.centroids, svs.colors_lab, config, reach)
        assert got.nodes.tolist() == want_nodes
        assert list(map(tuple, got.edges.tolist())) == sorted(want_edges)
        np.testing.assert_allclose(got.weights, [want_edges[p] for p in sorted(want_edges)], rtol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        svs = make_supervoxels(rng.uniform(0, 0.2, size=(10, 3)))
        g1 = build_graph(svs, _DEFAULT)
        g2 = build_graph(svs, _DEFAULT)
        assert np.array_equal(g1.nodes, g2.nodes)
        assert np.array_equal(g1.edges, g2.edges)
        assert np.array_equal(g1.weights, g2.weights)


def _bare(nodes, edges, weights):
    """A graph whose nodes all sit at the origin with one colour."""
    return AdjacencyGraph(
        nodes=nodes,
        edges=edges,
        weights=weights,
        centroids=np.zeros((len(nodes), 3)),
        colors_lab=np.zeros((len(nodes), 3)),
        point_counts=np.ones(len(nodes)),
    )


class TestAdjacencyGraph:
    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            _bare([3, 3], [], [])

    def test_unsorted_nodes_rejected(self):
        # the constructor checks the node order; it does not restore it
        with pytest.raises(ValueError):
            _bare([5, 0, 2], [(0, 1)], [0.5])

    @pytest.mark.parametrize("short", ["centroids", "colors_lab", "point_counts"])
    def test_node_columns_of_unequal_length_rejected(self, short):
        columns = {"centroids": np.zeros((2, 3)), "colors_lab": np.zeros((2, 3)), "point_counts": np.ones(2)}
        columns[short] = columns[short][:1]
        with pytest.raises(ValueError, match="^nodes, centroids, colours and point counts differ in length$"):
            AdjacencyGraph(nodes=[0, 1], edges=[], weights=[], **columns)

    @pytest.mark.parametrize(
        "edges, weights",
        [
            ([(0, 1), (1, 0)], [0.5, 0.5]),
            ([(1, 1)], [0.5]),
            ([(0, 1)], [0.5, 0.5]),
            ([(0, 1), (0, 1)], [0.5, 0.5]),
            ([(0, 1), (1, 2)], [0.5]),
            # the constructor checks the edge order; it does not restore it
            ([(1, 0)], [0.5]),
            ([(0, 2), (0, 1)], [0.5, 0.5]),
            ([(0, 1), (1, 3)], [0.5, 0.5]),
            ([(-1, 1)], [0.5]),
        ],
    )
    def test_constructor_rejects_malformed_edges(self, edges, weights):
        with pytest.raises(ValueError):
            _bare([0, 1, 2], edges, weights)

    def test_subgraph_keeps_internal_edges_only(self):
        g = graph_from_edges({(0, 1): 0.5, (1, 2): 0.5, (2, 3): 0.5})
        sub = g.subgraph([1, 2, 3])
        assert sub.nodes.tolist() == [1, 2, 3]
        assert sub.nodes[sub.edges].tolist() == [[1, 2], [2, 3]]
        with pytest.raises(ValueError):
            g.subgraph([1, 4])

    @settings(max_examples=100, deadline=None)
    @given(graph=_random_graphs(), data=st.data())
    def test_subgraph_matches_loop_reference(self, graph, data):
        # a subgraph of a subgraph, so the renumbering is shown to compose
        parent = graph
        for _ in range(2):
            subset = data.draw(st.sets(st.sampled_from(parent.nodes.tolist()))) if parent.num_nodes else set()
            sub = parent.subgraph(sorted(subset))
            want_nodes, want_edges = _subgraph_loop(graph, subset)
            assert sub.nodes.tolist() == want_nodes
            assert edge_dict(sub) == want_edges
            assert list(edge_dict(sub)) == sorted(want_edges)
            kept = np.isin(graph.nodes, want_nodes)
            for rows in ("centroids", "colors_lab", "point_counts"):
                assert np.array_equal(getattr(sub, rows), getattr(graph, rows)[kept])
            parent = sub

    def test_is_connected(self):
        path = graph_from_edges({(0, 1): 0.5, (1, 2): 0.5})
        assert path.is_connected()
        split = graph_from_edges({(0, 1): 0.5}, positions={0: (0, 0, 0), 1: (1, 0, 0), 2: (2, 0, 0)})
        assert not split.is_connected()
        assert graph_from_edges({}).is_connected()

    @settings(max_examples=100, deadline=None)
    @given(graph=_random_graphs())
    def test_is_connected_matches_oracle(self, graph):
        assert graph.is_connected() == (len(_cc_oracle(graph.nodes.tolist(), graph.nodes[graph.edges].tolist())) <= 1)


class TestConnectedComponents:
    def test_blob_ids_follow_smallest_member(self):
        g = graph_from_edges(
            {(4, 5): 0.5, (0, 3): 0.5},
            positions={n: (float(n), 0.0, 0.0) for n in range(6)},
        )
        blobs = connected_components(g)
        assert [b.tolist() for b in blobs] == [[0, 3], [1], [2], [4, 5]]
        assert all(b.dtype == np.int64 for b in blobs)

    def test_empty_graph(self):
        assert connected_components(graph_from_edges({})) == []

    def test_single_node(self):
        g = graph_from_edges({}, positions={5: (0.0, 0.0, 0.0)})
        blobs = connected_components(g)
        assert len(blobs) == 1
        assert blobs[0].tolist() == [5]

    def test_against_transitive_closure_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            n = int(rng.integers(1, 40))
            nodes = list(range(n))
            edges = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.06:
                        edges[(i, j)] = 1.0
            g = graph_from_edges(edges, positions={k: (float(k), 0.0, 0.0) for k in nodes})
            found = [b.tolist() for b in connected_components(g)]
            assert found == _cc_oracle(nodes, set(edges))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        raw_edges=st.sets(
            st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda e: e[0] != e[1]),
            max_size=20,
        ),
    )
    def test_blobs_partition_nodes(self, n, raw_edges):
        edges = {}
        for i, j in raw_edges:
            a, b = min(i, j) % n, max(i, j) % n
            if a != b:
                edges[(min(a, b), max(a, b))] = 1.0
        g = graph_from_edges(edges, positions={k: (float(k), 0.0, 0.0) for k in range(n)})
        blobs = connected_components(g)
        # disjoint cover of the node set
        seen = []
        for b in blobs:
            seen.extend(b.tolist())
        assert sorted(seen) == list(range(n))
        # no edge crosses blobs, every blob is internally connected
        owner = {sv: k for k, b in enumerate(blobs) for sv in b.tolist()}
        for i, j in edges:
            assert owner[i] == owner[j]
        for b in blobs:
            assert g.subgraph(b).is_connected()
