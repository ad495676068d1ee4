"""Adjacency graph construction and connected components."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynseg.cloud_io import PointCloudFrame
from dynseg.graph import AdjacencyGraph, GraphConfig, build_graph, connected_components, connected_sets
from dynseg.supervoxel import SupervoxelConfig, cluster_supervoxels

from helpers import graph_from_edges, make_sv


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
    return [frozenset(groups[root]) for root in sorted(groups)]


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
    def test_matches_union_find_reference(self, nodes, pairs):
        assert connected_sets(nodes, pairs) == _union_find_pieces(nodes, pairs)


def _build_graph_loop(supervoxels, config, seed_resolution):
    """Reference: the 26-offset footprint walk plus the strict centroid-radius test."""
    cfg = config.resolve(seed_resolution)
    svs = {sv.sv_id: sv for sv in supervoxels}
    owner = {tuple(int(v) for v in k): sv.sv_id for sv in supervoxels for k in sv.voxel_keys}
    pairs = set()
    for (x, y, z), a in owner.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    b = owner.get((x + dx, y + dy, z + dz))
                    if b is not None and b != a:
                        pairs.add((min(a, b), max(a, b)))
    ids = sorted(svs)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if float(np.linalg.norm(svs[a].centroid - svs[b].centroid)) < cfg.adjacency_radius:
                pairs.add((a, b))
    edges = {}
    for a, b in sorted(pairs):
        dc = float(np.linalg.norm(svs[a].mean_color_lab - svs[b].mean_color_lab))
        d = float(np.linalg.norm(svs[a].centroid - svs[b].centroid))
        edges[(a, b)] = math.exp(-dc / cfg.sigma_color) * math.exp(-d / cfg.sigma_distance)
    return AdjacencyGraph(nodes=ids, edges=edges, svs=svs)


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


class TestBuildGraph:
    def test_edge_weight_hand_value(self):
        # dLab = 15, d = 0.04, sigma_c = 30, sigma_d = 0.08
        # w = exp(-15/30) * exp(-0.04/0.08) = exp(-1)
        a = make_sv(0, (0.0, 0.0, 0.0), color_lab=(50.0, 10.0, 0.0), key=(0, 0, 0))
        b = make_sv(1, (0.04, 0.0, 0.0), color_lab=(50.0, -5.0, 0.0), key=(50, 0, 0))
        g = build_graph([a, b], GraphConfig(), seed_resolution=0.08)
        assert g.has_edge(0, 1)
        assert g.weight(0, 1) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_adjacency_radius_is_strict(self):
        # centroids exactly at the radius must not link
        a = make_sv(0, (0.0, 0.0, 0.0), key=(0, 0, 0))
        b = make_sv(1, (0.12, 0.0, 0.0), key=(50, 0, 0))
        g = build_graph([a, b], GraphConfig(), seed_resolution=0.08)
        assert not g.has_edge(0, 1)

        c = make_sv(1, (0.119, 0.0, 0.0), key=(50, 0, 0))
        g2 = build_graph([a, c], GraphConfig(), seed_resolution=0.08)
        assert g2.has_edge(0, 1)

    def test_footprint_adjacency_overrides_distance(self):
        # diagonal voxel neighbors link even with centroids far apart
        a = make_sv(0, (0.0, 0.0, 0.0), key=(0, 0, 0))
        b = make_sv(1, (1.0, 0.0, 0.0), key=(1, 1, 1))
        g = build_graph([a, b], GraphConfig(), seed_resolution=0.08)
        assert g.has_edge(0, 1)
        assert 0.0 < g.weight(0, 1) <= 1.0

    def test_gap_in_footprints_and_distance_gives_no_edge(self):
        a = make_sv(0, (0.0, 0.0, 0.0), key=(0, 0, 0))
        b = make_sv(1, (1.0, 0.0, 0.0), key=(2, 0, 0))
        g = build_graph([a, b], GraphConfig(), seed_resolution=0.08)
        assert not g.has_edge(0, 1)
        assert g.edges == {}

    def test_duplicate_ids_rejected(self):
        a = make_sv(3, (0.0, 0.0, 0.0))
        b = make_sv(3, (0.1, 0.0, 0.0))
        with pytest.raises(ValueError):
            build_graph([a, b], GraphConfig(), seed_resolution=0.08)

    def test_nodes_sorted_regardless_of_input_order(self):
        a = make_sv(7, (0.0, 0.0, 0.0), key=(0, 0, 0))
        b = make_sv(3, (0.05, 0.0, 0.0), key=(50, 0, 0))
        g = build_graph([a, b], GraphConfig(), seed_resolution=0.08)
        assert g.nodes == [3, 7]
        assert g.has_edge(3, 7)

    def test_weights_in_unit_interval(self):
        rng = np.random.default_rng(11)
        svs = [
            make_sv(
                i,
                rng.uniform(0, 0.3, size=3),
                color_lab=(rng.uniform(20, 80), rng.uniform(-40, 40), rng.uniform(-40, 40)),
                key=(100 * i, 0, 0),
            )
            for i in range(12)
        ]
        g = build_graph(svs, GraphConfig(), seed_resolution=0.08)
        for w in g.edges.values():
            assert 0.0 < w <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 200),
        extent=st.sampled_from([0.05, 0.15, 0.3]),
        voxel=st.sampled_from([0.02, 0.008]),
        radius=st.sampled_from([None, 0.05]),
    )
    def test_matches_loop_reference(self, seed, n, extent, voxel, radius):
        rng = np.random.default_rng(seed)
        frame = PointCloudFrame(
            0, rng.uniform(0.0, extent, size=(n, 3)), rng.integers(0, 256, size=(n, 3), dtype=np.uint8)
        )
        svs = cluster_supervoxels(frame, SupervoxelConfig(voxel_resolution=voxel, seed_resolution=0.08))
        # sparse ids in shuffled input order
        svs = [dataclasses.replace(sv, sv_id=3 * sv.sv_id + 1) for sv in svs]
        svs = [svs[i] for i in rng.permutation(len(svs))]
        config = GraphConfig(adjacency_radius=radius)
        got = build_graph(svs, config, seed_resolution=0.08)
        want = _build_graph_loop(svs, config, seed_resolution=0.08)
        assert got.nodes == want.nodes
        assert list(got.edges) == sorted(want.edges)
        for pair, w in want.edges.items():
            assert got.edges[pair] == pytest.approx(w, rel=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        svs = [make_sv(i, rng.uniform(0, 0.2, size=3), key=(100 * i, 0, 0)) for i in range(10)]
        g1 = build_graph(svs, GraphConfig(), seed_resolution=0.08)
        g2 = build_graph(svs, GraphConfig(), seed_resolution=0.08)
        assert g1.nodes == g2.nodes
        assert g1.edges == g2.edges


class TestAdjacencyGraph:
    def test_weight_symmetric_lookup(self):
        g = graph_from_edges({(0, 1): 0.7})
        assert g.weight(0, 1) == g.weight(1, 0) == 0.7

    def test_subgraph_keeps_internal_edges_only(self):
        g = graph_from_edges({(0, 1): 0.5, (1, 2): 0.5, (2, 3): 0.5})
        sub = g.subgraph({1, 2, 3})
        assert sub.nodes == [1, 2, 3]
        assert set(sub.edges) == {(1, 2), (2, 3)}

    def test_is_connected(self):
        path = graph_from_edges({(0, 1): 0.5, (1, 2): 0.5})
        assert path.is_connected()
        split = graph_from_edges({(0, 1): 0.5}, positions={0: (0, 0, 0), 1: (1, 0, 0), 2: (2, 0, 0)})
        assert not split.is_connected()
        empty = AdjacencyGraph(nodes=[], edges={}, svs={})
        assert empty.is_connected()


class TestConnectedComponents:
    def test_blob_ids_follow_smallest_member(self):
        g = graph_from_edges(
            {(4, 5): 0.5, (0, 3): 0.5},
            positions={n: (float(n), 0.0, 0.0) for n in range(6)},
        )
        blobs = connected_components(g)
        assert [b.members_sorted for b in blobs] == [[0, 3], [1], [2], [4, 5]]
        assert [b.blob_id for b in blobs] == [0, 1, 2, 3]

    def test_empty_graph(self):
        g = AdjacencyGraph(nodes=[], edges={}, svs={})
        assert connected_components(g) == []

    def test_single_node(self):
        g = graph_from_edges({}, positions={5: (0.0, 0.0, 0.0)})
        blobs = connected_components(g)
        assert len(blobs) == 1
        assert blobs[0].member_supervoxels == frozenset({5})

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
            found = [b.members_sorted for b in connected_components(g)]
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
            seen.extend(b.member_supervoxels)
        assert sorted(seen) == list(range(n))
        # no edge crosses blobs, every blob is internally connected
        owner = {sv: b.blob_id for b in blobs for sv in b.member_supervoxels}
        for i, j in edges:
            assert owner[i] == owner[j]
        for b in blobs:
            assert g.subgraph(b.member_supervoxels).is_connected()
