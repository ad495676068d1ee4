"""Seeded cuts, normalized cut, and the over-segmentation loop."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from dynseg import graph as graph_module
from dynseg import graphcut
from dynseg.graphcut import (
    N_THRESHOLDS,
    CutParams,
    CutProblem,
    OversegConfig,
    _FLOW_BUDGET,
    _binary_cut,
    _second_eigenpair,
    boundary_midpoints,
    cut_energy,
    ncut_value,
    normalized_cut_bisect,
    oversegment,
    restricted_cut,
)

from helpers import edge_dict, graph_from_edges


def _path_problem(boundary=()):
    # 0 -- 1 -- 2 along x, seeds on the ends
    g = graph_from_edges(
        {(0, 1): 0.8, (1, 2): 0.2},
        positions={0: (0.0, 0.0, 0.0), 1: (0.04, 0.0, 0.0), 2: (0.08, 0.0, 0.0)},
    )
    return CutProblem(
        subgraph=g,
        seeds=[10, -1, 20],
        previous_boundary=np.asarray(boundary, dtype=np.float64).reshape(-1, 3),
        params=CutParams().resolve(0.08),
        seed_resolution=0.08,
    )


def _random_problem(rng, n, n_labels, with_boundary=False):
    edges = {}
    order = rng.permutation(n)
    for a, b in zip(order, order[1:]):  # spanning tree keeps it connected
        i, j = int(min(a, b)), int(max(a, b))
        edges[(i, j)] = float(rng.uniform(0.1, 1.0))
    for _ in range(n):
        i, j = rng.integers(0, n, 2)
        if i != j:
            edges[(int(min(i, j)), int(max(i, j)))] = float(rng.uniform(0.1, 1.0))
    positions = {k: tuple(rng.uniform(0.0, 0.3, 3)) for k in range(n)}
    colors = {k: (rng.uniform(20, 80), rng.uniform(-30, 30), rng.uniform(-30, 30)) for k in range(n)}
    g = graph_from_edges(edges, positions=positions, colors=colors)
    seeds = np.full(n, -1)
    seeds[rng.choice(n, size=n_labels, replace=False)] = 100 + np.arange(n_labels)
    boundary = rng.uniform(0.0, 0.3, (3, 3)) if with_boundary else np.empty((0, 3))
    return CutProblem(
        subgraph=g,
        seeds=seeds,
        previous_boundary=boundary,
        params=CutParams().resolve(0.08),
        seed_resolution=0.08,
    )


def _brute_force_cut(problem):
    lab = np.where(problem.seeds >= 0, problem.seeds, 0)
    free = np.flatnonzero(problem.seeds < 0)
    best = math.inf
    for combo in itertools.product(problem.labels(), repeat=len(free)):
        lab[free] = combo
        best = min(best, cut_energy(problem, lab))
    return best


def _brute_force_ncut(graph):
    nodes = graph.nodes
    n = len(nodes)
    best = math.inf
    for bits in range(1, 2 ** (n - 1)):
        side = [nodes[i] for i in range(n) if (bits >> i) & 1]
        best = min(best, ncut_value(graph, side))
    return best


def _two_cliques(bridge=0.01, size=3, intra=1.0):
    edges = {}
    for group in (range(size), range(size, 2 * size)):
        for i, j in itertools.combinations(group, 2):
            edges[(i, j)] = intra
    edges[(size - 1, size)] = bridge
    return graph_from_edges(edges)


# Loop references for the array code: each walks the edges one pair at a time.


def _centroid_of(graph):
    """Supervoxel id -> centroid row."""
    return dict(zip(graph.nodes.tolist(), graph.centroids))


def _color_of(graph):
    """Supervoxel id -> mean Lab colour row."""
    return dict(zip(graph.nodes.tolist(), graph.colors_lab))


def _pairwise_costs_loop(problem):
    p = problem.params
    out = {}
    boundary = problem.previous_boundary
    centroid = _centroid_of(problem.subgraph)
    for (i, j), w in sorted(edge_dict(problem.subgraph).items()):
        cost = p.lambda_smooth * w
        if boundary.size:
            mid = (centroid[i] + centroid[j]) / 2.0
            d = float(np.min(np.linalg.norm(boundary - mid, axis=1)))
            cost += p.mu_coherence * math.exp(-d / p.sigma_boundary)
        out[(i, j)] = cost
    return out


def _unaries_loop(problem):
    centroid, color = _centroid_of(problem.subgraph), _color_of(problem.subgraph)
    own_label = {n: l for n, l in zip(problem.subgraph.nodes.tolist(), problem.seeds.tolist()) if l >= 0}
    seeds_by_label = {}
    for n, l in own_label.items():
        seeds_by_label.setdefault(l, []).append(n)
    out = {}
    for n in problem.subgraph.nodes.tolist():
        if n in own_label:
            own = own_label[n]
            out[n] = {l: (0.0 if l == own else math.inf) for l in seeds_by_label}
            continue
        row = {}
        for l, seeds in seeds_by_label.items():
            best = math.inf
            for s in seeds:
                ds = float(np.linalg.norm(centroid[n] - centroid[s]))
                dc = float(np.linalg.norm(color[n] - color[s]))
                best = min(best, ds / problem.seed_resolution + dc / 100.0)
            row[l] = best
        out[n] = row
    return out


def _boundary_midpoints_loop(graph, labeling):
    centroid = _centroid_of(graph)
    mids = []
    for i, j in sorted(edge_dict(graph)):
        if labeling[i] != labeling[j]:
            mids.append((centroid[i] + centroid[j]) / 2.0)
    return np.asarray(mids).reshape(-1, 3)


def _ncut_value_loop(graph, side_a):
    a = set(side_a)
    cut = wa = wb = 0.0
    for (i, j), w in edge_dict(graph).items():
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


# Max-flow oracle: a pure-Python Dinic on float capacities, and the binary cut
# built on it one arc at a time.

_EPS = 1e-12


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


def _binary_cut_dinic(
    unary0: np.ndarray, unary1: np.ndarray, pos: np.ndarray, cap_ij: np.ndarray, cap_ji: np.ndarray
) -> np.ndarray:
    """The binary cut on float capacities through _Dinic: the exact minimal min cut."""
    n = len(unary0)
    dinic = _Dinic(n + 2)
    s, t = 0, 1
    # normalize so both t-link caps are non-negative; a node on the source
    # side takes state 0 and pays unary0 via the severed n->t arc
    shift = np.minimum(unary0, unary1)
    shift[shift == math.inf] = 0.0
    for k, (c_s, c_t) in enumerate(zip((unary1 - shift).tolist(), (unary0 - shift).tolist())):
        if c_s > 0:
            dinic.add(s, k + 2, c_s)
        if c_t > 0:
            dinic.add(k + 2, t, c_t)
    for i, j, c_ij, c_ji in zip(pos[:, 0].tolist(), pos[:, 1].tolist(), cap_ij.tolist(), cap_ji.tolist()):
        if c_ij > 0 or c_ji > 0:
            dinic.add(i + 2, j + 2, c_ij, c_ji)
    dinic.max_flow(s, t)
    sink_side = np.ones(n + 2, dtype=bool)
    sink_side[list(dinic.source_side(s))] = False
    return sink_side[2:]


def _binary_energy(unary0, unary1, pos, cap_ij, cap_ji, state):
    """Energy of a 0/1 state per node under _binary_cut's cost model."""
    x = np.asarray(state, dtype=bool)
    first, second = x[pos[:, 0]], x[pos[:, 1]]
    return float(
        np.where(x, unary1, unary0).sum() + cap_ij[~first & second].sum() + cap_ji[first & ~second].sum()
    )


def _flow_scale(unary0, unary1, pos, cap_ij, cap_ji):
    """The quantization scale _binary_cut uses: budget over the finite positive capacities."""
    shift = np.minimum(unary0, unary1)
    shift[shift == math.inf] = 0.0
    cap = np.concatenate([unary1 - shift, unary0 - shift, cap_ij, cap_ji])
    total = cap[(cap > 0) & (cap < math.inf)].sum()
    return _FLOW_BUDGET / total if total > 0 else 1.0


@st.composite
def _binary_problems(draw):
    """Unaries and edge caps of one binary cut; some nodes seeded, some caps zero or tied."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    pairs = {tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(3 * n)} if n > 1 else set()
    pos = np.asarray(sorted(pairs), dtype=np.intp).reshape(-1, 2)
    magnitude = draw(st.sampled_from([1e-3, 1.0, 1e3]))

    def values(size):
        v = rng.uniform(0.0, magnitude, size)
        if draw(st.booleans()):  # coarse grid: ties between cuts
            v = np.round(v * 4 / magnitude) * magnitude / 4
        v[rng.random(size) < 0.2] = 0.0
        return v

    unary0, unary1 = values(n), values(n)
    seeded = rng.random(n) < 0.2
    forced_one = rng.random(n) < 0.5
    unary0[seeded & forced_one] = math.inf
    unary1[seeded & ~forced_one] = math.inf
    return unary0, unary1, pos, values(len(pos)), values(len(pos))


def _random_connected_graph(rng, n):
    """Random spanning tree plus up to n extra edges, weights in [0.05, 1)."""
    edges = {}
    order = rng.permutation(n)
    for k in range(1, n):
        a, b = int(order[k]), int(order[int(rng.integers(0, k))])
        edges[(min(a, b), max(a, b))] = float(rng.uniform(0.05, 1.0))
    for _ in range(n):
        i, j = (int(v) for v in rng.integers(0, n, 2))
        if i != j:
            edges[(min(i, j), max(i, j))] = float(rng.uniform(0.05, 1.0))
    return graph_from_edges(edges)


def _normalized_laplacian(graph):
    """Dense D^-1/2 (D - W) D^-1/2 and D^-1/2, built one edge at a time."""
    index = {v: k for k, v in enumerate(graph.nodes.tolist())}
    W = np.zeros((graph.num_nodes, graph.num_nodes))
    for (i, j), w in edge_dict(graph).items():
        W[index[i], index[j]] = W[index[j], index[i]] = w
    inv_sqrt = 1.0 / np.sqrt(W.sum(axis=1))
    return np.eye(len(W)) - inv_sqrt[:, None] * W * inv_sqrt[None, :], inv_sqrt


@st.composite
def _sparse_problems(draw):
    """Cut problems on sparse node ids, edges in random orientation, several seeds per label."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 30))
    ids = np.sort(rng.choice(5 * n, size=n, replace=False)).tolist()
    edges = {}
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = (int(v) for v in rng.choice(ids, 2, replace=False))
        if (j, i) not in edges:
            edges[(i, j)] = float(rng.uniform(0.05, 1.0))
    positions = {k: tuple(rng.uniform(0.0, 0.3, 3)) for k in ids}
    colors = {k: (rng.uniform(20, 80), rng.uniform(-30, 30), rng.uniform(-30, 30)) for k in ids}
    n_labels = draw(st.integers(1, min(n, 4)))
    seed_at = rng.choice(n, size=draw(st.integers(n_labels, n)), replace=False)
    seeds = np.full(n, -1)
    seeds[seed_at] = 100 + np.arange(len(seed_at)) % n_labels
    boundary = rng.uniform(0.0, 0.3, (draw(st.sampled_from([0, 1, 5])), 3))
    return CutProblem(
        subgraph=graph_from_edges(edges, positions=positions, colors=colors),
        seeds=seeds,
        previous_boundary=boundary,
        params=CutParams().resolve(0.08),
        seed_resolution=0.08,
    )


class TestMatchesLoopReference:
    @settings(max_examples=100, deadline=None)
    @given(problem=_sparse_problems())
    def test_pairwise_costs(self, problem):
        want = _pairwise_costs_loop(problem)
        graph = problem.subgraph
        assert list(map(tuple, graph.nodes[graph.edges].tolist())) == list(want)
        np.testing.assert_allclose(problem.pairwise, list(want.values()), rtol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(problem=_sparse_problems())
    def test_unaries(self, problem):
        want = _unaries_loop(problem)
        expected = [[want[n][l] for l in problem.labels()] for n in problem.subgraph.nodes.tolist()]
        np.testing.assert_allclose(problem.unary, expected, rtol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(problem=_sparse_problems(), data=st.data())
    def test_ncut_value(self, problem, data):
        graph = problem.subgraph
        side = data.draw(st.sets(st.sampled_from(graph.nodes.tolist())))
        assert ncut_value(graph, sorted(side)) == pytest.approx(_ncut_value_loop(graph, side), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(problem=_sparse_problems(), data=st.data())
    def test_boundary_midpoints(self, problem, data):
        graph = problem.subgraph
        labels = data.draw(st.lists(st.integers(0, 2), min_size=graph.num_nodes, max_size=graph.num_nodes))
        labeling = dict(zip(graph.nodes.tolist(), labels))
        np.testing.assert_allclose(
            boundary_midpoints(graph, np.asarray(labels)), _boundary_midpoints_loop(graph, labeling), rtol=1e-12
        )


class TestCutEnergy:
    def test_hand_value_without_boundary(self):
        prob = _path_problem()
        # unary(1, either label) = 0.04/0.08 = 0.5
        assert cut_energy(prob, [10, 10, 20]) == pytest.approx(0.5 + 0.2, rel=1e-12)
        assert cut_energy(prob, [10, 20, 20]) == pytest.approx(0.5 + 0.8, rel=1e-12)

    def test_hand_value_with_boundary_bonus(self):
        # boundary point sits on the midpoint of edge (0, 1)
        prob = _path_problem(boundary=[(0.02, 0.0, 0.0)])
        got = cut_energy(prob, [10, 20, 20])
        assert got == pytest.approx(0.5 + 0.8 + 0.5 * 1.0, rel=1e-12)
        # the other cut edge midpoint is 0.04 away
        got2 = cut_energy(prob, [10, 10, 20])
        assert got2 == pytest.approx(0.5 + 0.2 + 0.5 * math.exp(-0.04 / 0.08), rel=1e-12)

    def test_seed_violation_is_infinite(self):
        prob = _path_problem()
        assert cut_energy(prob, [20, 20, 20]) == math.inf

    def test_missing_node_rejected(self):
        prob = _path_problem()
        with pytest.raises(ValueError):
            cut_energy(prob, [10, 20])

    def test_unknown_label_rejected(self):
        prob = _path_problem()
        with pytest.raises(ValueError):
            cut_energy(prob, [10, 30, 20])

    def test_seeds_of_another_length_rejected(self):
        g = graph_from_edges({(0, 1): 0.5})
        with pytest.raises(ValueError, match="^3 seeds for 2 nodes$"):
            CutProblem(
                subgraph=g,
                seeds=[1, -1, 2],
                previous_boundary=np.empty((0, 3)),
                params=CutParams().resolve(0.08),
                seed_resolution=0.08,
            )


class TestMaxFlow:
    def test_long_chain_flow_is_its_bottleneck(self):
        # deeper than the interpreter's default recursion limit
        n = 2000
        caps = [1.0 + (k % 7) for k in range(n - 1)]
        caps[1234] = 0.25
        dinic = _Dinic(n)
        for k, c in enumerate(caps):
            dinic.add(k, k + 1, c)
        assert dinic.max_flow(0, n - 1) == 0.25
        assert dinic.source_side(0) == set(range(1235))

    def test_matches_scipy_on_integer_capacities(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(3, 12))
            caps = np.zeros((n, n), dtype=np.int32)
            dinic = _Dinic(n)
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < 0.3:
                        caps[u, v] = int(rng.integers(1, 10))
                        dinic.add(u, v, float(caps[u, v]))
            expected = maximum_flow(csr_matrix(caps), 0, n - 1).flow_value
            assert dinic.max_flow(0, n - 1) == expected

    @settings(max_examples=200, deadline=None)
    @given(problem=_binary_problems())
    def test_binary_cut_energy_within_rounding_of_oracle(self, problem):
        unary0, unary1, pos, cap_ij, cap_ji = problem
        got = _binary_energy(*problem, _binary_cut(*problem))
        want = _binary_energy(*problem, _binary_cut_dinic(*problem))
        assert math.isfinite(got) and math.isfinite(want)
        bound = (len(pos) + len(unary0)) / _flow_scale(*problem)
        assert got - want <= bound + 1e-12 * max(1.0, abs(want))

    def test_capacities_summing_past_int32_keep_the_oracle_cut(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = 30
            pairs = {tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(3 * n)}
            pos = np.asarray(sorted(pairs), dtype=np.intp)
            unary0, unary1 = rng.uniform(0.5e9, 1.5e9, (2, n))
            cap = rng.uniform(0.5e9, 1.5e9, len(pos))
            unary1[:3] = math.inf  # seeded to state 0
            unary0[3:6] = math.inf  # seeded to state 1
            problem = (unary0, unary1, pos, cap, cap)
            assert 1.0 / _flow_scale(*problem) > 2**31 / _FLOW_BUDGET
            got = _binary_cut(*problem)
            assert np.array_equal(got, _binary_cut_dinic(*problem))
            assert not got[:3].any() and got[3:6].all()

    def test_long_chain_through_binary_cut(self):
        n = 2000
        cap = 1.0 + np.arange(n - 1) % 7
        cap[1234] = 0.25
        unary0, unary1 = np.zeros(n), np.zeros(n)
        unary1[0] = math.inf
        unary0[-1] = math.inf
        pos = np.column_stack([np.arange(n - 1), np.arange(1, n)])
        assert np.array_equal(_binary_cut(unary0, unary1, pos, cap, cap), np.arange(n) > 1234)

    def test_no_edges_takes_each_cheaper_state(self):
        unary0 = np.array([0.0, 1.0, 2.0, 0.5, math.inf])
        unary1 = np.array([1.0, 0.0, 2.0, 0.5, 0.0])
        pos, none = np.empty((0, 2), dtype=np.intp), np.empty(0)
        got = _binary_cut(unary0, unary1, pos, none, none)
        # a tie leaves the node unreached from the source, so on the sink side
        assert got.tolist() == [False, True, True, True, True]
        assert np.array_equal(got, _binary_cut_dinic(unary0, unary1, pos, none, none))

    def test_all_zero_capacities_put_every_node_on_the_sink_side(self):
        pos = np.array([[0, 1], [1, 2], [0, 2]])
        zeros3 = np.zeros(3)
        got = _binary_cut(zeros3, zeros3, pos, zeros3, zeros3)
        assert got.all()
        assert np.array_equal(got, _binary_cut_dinic(zeros3, zeros3, pos, zeros3, zeros3))


class TestSecondEigenvector:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
    def test_matches_dense_reference(self, seed, n):
        graph = _random_connected_graph(np.random.default_rng(seed), n)
        lsym, inv_sqrt = _normalized_laplacian(graph)
        vals, vecs = np.linalg.eigh(lsym)
        assume(n == 2 or vals[2] - vals[1] > 1e-4)
        value, x = _second_eigenpair(graph)
        assert value == pytest.approx(vals[1], abs=1e-10)
        ref = inv_sqrt * vecs[:, 1]
        cos = abs(x @ ref) / (np.linalg.norm(x) * np.linalg.norm(ref))
        assert cos == pytest.approx(1.0, abs=1e-8)
        k = int(np.argmax(np.abs(x)))
        assert x[k] > 0
        assert not (np.abs(x[:k]) == x[k]).any()

    def test_repeated_eigenvalue_is_deterministic(self):
        # a uniform 6-cycle: the second eigenvalue, 1/2, has a 2-D eigenspace
        def cycle():
            return graph_from_edges({(min(k, (k + 1) % 6), max(k, (k + 1) % 6)): 1.0 for k in range(6)})

        lsym, inv_sqrt = _normalized_laplacian(cycle())
        assert np.linalg.eigvalsh(lsym)[1:3] == pytest.approx([0.5, 0.5])
        value, x = _second_eigenpair(cycle())
        assert value == pytest.approx(0.5)
        assert np.array_equal(x, _second_eigenpair(cycle())[1])
        y = x / inv_sqrt
        np.testing.assert_allclose(lsym @ y, 0.5 * y, atol=1e-12)
        a, b, cost = _listed(normalized_cut_bisect(cycle()))
        assert a and b and sorted(a + b) == list(range(6))
        assert (a, b, cost) == _listed(normalized_cut_bisect(cycle()))


class TestRestrictedCut:
    def test_path_prefers_weak_edge(self):
        prob = _path_problem()
        lab = restricted_cut(prob)
        assert lab.tolist() == [10, 10, 20]

    def test_two_label_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for k in range(20):
            prob = _random_problem(rng, n=int(rng.integers(4, 11)), n_labels=2, with_boundary=(k % 4 == 0))
            lab = restricted_cut(prob)
            assert lab.shape == prob.subgraph.nodes.shape
            seeded = prob.seeds >= 0
            assert (lab[seeded] == prob.seeds[seeded]).all()
            assert cut_energy(prob, lab) == pytest.approx(_brute_force_cut(prob), rel=1e-9)

    def test_three_label_matches_brute_force(self):
        rng = np.random.default_rng(29)
        for _ in range(12):
            prob = _random_problem(rng, n=int(rng.integers(5, 9)), n_labels=3)
            lab = restricted_cut(prob)
            seeded = prob.seeds >= 0
            assert (lab[seeded] == prob.seeds[seeded]).all()
            assert cut_energy(prob, lab) == pytest.approx(_brute_force_cut(prob), rel=1e-9)

    def test_single_label_rejected(self):
        g = graph_from_edges({(0, 1): 0.5})
        prob = CutProblem(
            subgraph=g, seeds=[1, -1], previous_boundary=np.empty((0, 3)), params=CutParams().resolve(0.08),
            seed_resolution=0.08,
        )
        with pytest.raises(ValueError):
            restricted_cut(prob)

    @pytest.mark.parametrize("name", ["lambda_smooth", "mu_coherence"])
    def test_negative_weight_rejected(self, name):
        # with lambda_smooth = -1 this chain's cut used to return [7, 7, 9, 9],
        # though [7, 9, 7, 9] has the lower energy
        g = graph_from_edges(
            {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0},
            positions={k: (0.02 * k, 0.0, 0.0) for k in range(4)},
        )
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            CutProblem(
                subgraph=g, seeds=[7, -1, -1, 9], previous_boundary=np.empty((0, 3)),
                params=CutParams(**{name: -1.0}).resolve(0.08), seed_resolution=0.08,
            )

    def test_boundary_term_breaks_ties(self):
        # symmetric 3-node path: both cut positions tie at 1.0 without the
        # boundary term, so the proximity cost alone decides the side
        g = graph_from_edges(
            {(0, 1): 0.5, (1, 2): 0.5},
            positions={k: (0.04 * k, 0.0, 0.0) for k in range(3)},
        )
        base = dict(subgraph=g, params=CutParams().resolve(0.08), seed_resolution=0.08)
        near_01 = CutProblem(
            seeds=[1, -1, 2], previous_boundary=[(0.02, 0.0, 0.0)], **base
        )
        near_12 = CutProblem(
            seeds=[1, -1, 2], previous_boundary=[(0.06, 0.0, 0.0)], **base
        )
        lab_01 = restricted_cut(near_01)
        lab_12 = restricted_cut(near_12)
        # cutting along the remembered line pays the full proximity cost, so
        # the middle node joins the seed on the boundary's side
        assert lab_01[1] == 1
        assert lab_12[1] == 2
        assert cut_energy(near_01, lab_01) == pytest.approx(_brute_force_cut(near_01), rel=1e-9)
        assert cut_energy(near_12, lab_12) == pytest.approx(_brute_force_cut(near_12), rel=1e-9)


class TestBoundaryMidpoints:
    def test_cut_edges_only(self):
        g = graph_from_edges(
            {(0, 1): 0.5, (1, 2): 0.5},
            positions={0: (0.0, 0.0, 0.0), 1: (0.1, 0.0, 0.0), 2: (0.3, 0.0, 0.0)},
        )
        mids = boundary_midpoints(g, np.asarray([1, 1, 2]))
        assert mids.shape == (1, 3)
        assert mids[0] == pytest.approx([0.2, 0.0, 0.0])
        with pytest.raises(ValueError):
            boundary_midpoints(g, np.asarray([1, 1]))

    def test_uniform_labeling_gives_empty(self):
        g = graph_from_edges({(0, 1): 0.5})
        assert boundary_midpoints(g, np.asarray([1, 1])).shape == (0, 3)


class TestNcutValue:
    def test_two_clique_frozen_value(self):
        g = _two_cliques(bridge=0.01)
        got = ncut_value(g, [0, 1, 2])
        assert got == pytest.approx(2 * 0.01 / 3.01, rel=1e-12)
        assert abs(got - 0.0066445183) < 1e-6

    def test_symmetric_in_sides(self):
        g = _two_cliques(bridge=0.3)
        assert ncut_value(g, [0, 1, 2]) == pytest.approx(ncut_value(g, [3, 4, 5]), rel=1e-12)

    def test_no_cut_is_zero(self):
        g = graph_from_edges({(0, 1): 0.5}, positions={k: (float(k), 0.0, 0.0) for k in range(3)})
        assert ncut_value(g, [0, 1]) == 0.0


class TestBisect:
    def test_two_cliques_split_exactly(self):
        g = _two_cliques(bridge=0.01)
        a, b, cost = normalized_cut_bisect(g)
        assert a.tolist() == [0, 1, 2]
        assert b.tolist() == [3, 4, 5]
        assert cost == pytest.approx(2 * 0.01 / 3.01, rel=1e-9)

    def test_within_ten_percent_of_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            n = int(rng.integers(4, 11))
            edges = {}
            order = rng.permutation(n)
            for x, y in zip(order, order[1:]):
                i, j = int(min(x, y)), int(max(x, y))
                edges[(i, j)] = float(rng.uniform(0.05, 1.0))
            for _ in range(n):
                i, j = rng.integers(0, n, 2)
                if i != j:
                    edges[(int(min(i, j)), int(max(i, j)))] = float(rng.uniform(0.05, 1.0))
            g = graph_from_edges(edges, positions={k: (float(k), 0.0, 0.0) for k in range(n)})
            a, _, cost = normalized_cut_bisect(g)
            assert cost == pytest.approx(ncut_value(g, a), rel=1e-12)
            assert cost <= 1.1 * _brute_force_ncut(g) + 1e-12

    def test_validation(self):
        single = graph_from_edges({}, positions={0: (0.0, 0.0, 0.0)})
        with pytest.raises(ValueError):
            normalized_cut_bisect(single)
        disconnected = graph_from_edges(
            {(0, 1): 0.5}, positions={k: (float(k), 0.0, 0.0) for k in range(3)}
        )
        with pytest.raises(ValueError):
            normalized_cut_bisect(disconnected)


def _bisect_loop(graph):
    """The plain threshold scan: every threshold's mask evaluated, the first strictly cheapest kept."""
    x = graphcut._second_eigenpair(graph)[1]
    n = graph.num_nodes
    best = None
    for t in np.linspace(float(x.min()), float(x.max()), N_THRESHOLDS):
        mask = x <= t
        if 0 < mask.sum() < n:
            cost = ncut_value(graph, graph.nodes[mask].tolist())
            if best is None or cost < best[0]:
                best = (cost, mask)
    if best is None:
        # flat eigenvector: peel off the first node
        mask = np.arange(n) == 0
        best = (ncut_value(graph, graph.nodes[mask].tolist()), mask)
    cost, mask = best
    a, b = graph.nodes[mask].tolist(), graph.nodes[~mask].tolist()
    return (b, a, cost) if min(b) < min(a) else (a, b, cost)


def _listed(bisection):
    """A bisection's two sides as lists, and its cost."""
    a, b, cost = bisection
    assert a.dtype == b.dtype == np.int64
    return a.tolist(), b.tolist(), cost


@st.composite
def _bisect_graphs(draw):
    """Connected graphs on sparse ids; stars, cliques and few weight values give tied eigenvector entries."""
    n = draw(st.integers(2, 24))
    shape = draw(st.sampled_from(["tree", "star", "clique", "cycle"]))
    weight = st.sampled_from([0.25, 1.0]) if draw(st.booleans()) else st.floats(0.05, 1.0)
    if shape == "star":
        pairs = [(0, k) for k in range(1, n)]
    elif shape == "clique":
        pairs = list(itertools.combinations(range(min(n, 9)), 2))
    elif shape == "cycle":
        pairs = [(k, k + 1) for k in range(n - 1)] + ([(0, n - 1)] if n > 2 else [])
    else:
        pairs = [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]
        pairs += [p for p in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)) if p[0] < p[1]]
    ids = sorted(draw(st.sets(st.integers(0, 200), min_size=n, max_size=n)))
    return graph_from_edges({(ids[i], ids[j]): draw(weight) for i, j in sorted(set(pairs))})


class TestBisectMatchesThresholdLoop:
    @settings(max_examples=150, deadline=None)
    @given(graph=_bisect_graphs(), levels=st.sampled_from([None, 0, 1, 2, 3, 5]))
    def test_same_sides_and_cost(self, graph, levels):
        """``levels`` rounds the eigenvector to that many steps per unit, 0 makes it flat: repeated masks."""
        real = graphcut._second_eigenpair
        if levels is None:
            eigenpair = real
        else:
            def eigenpair(g):
                value, x = real(g)
                return value, np.round(x / np.abs(x).max() * levels) if levels else np.zeros_like(x)

        with mock.patch.object(graphcut, "_second_eigenpair", eigenpair):
            assert _listed(normalized_cut_bisect(graph)) == _bisect_loop(graph)

    def test_flat_eigenvector_peels_the_first_node(self):
        g = _two_cliques()
        with mock.patch.object(graphcut, "_second_eigenpair", lambda g: (0.0, np.ones(g.num_nodes))):
            a, b, cost = _listed(normalized_cut_bisect(g))
        assert (a, b) == ([0], [1, 2, 3, 4, 5])
        assert cost == ncut_value(g, [0])

    def test_connectivity_is_computed_once_per_graph(self):
        g = _two_cliques(size=4)
        with mock.patch.object(graph_module, "_pieces", wraps=graph_module._pieces) as pieces:
            assert g.is_connected()
            normalized_cut_bisect(g)
            assert len(oversegment(g)) == 2
        # the root's pieces are computed once; each half of its split once more
        assert pieces.call_count == 3


class TestSpectralBound:
    @settings(max_examples=150, deadline=None)
    @given(graph=_bisect_graphs(), position=st.floats(-1.0, 2.0))
    def test_cost_is_at_least_lambda2_and_the_bound_rejects_only_costlier_cuts(self, graph, position):
        """``position`` places the bound on the line from lambda2 (0) to the unbounded cost (1)."""
        value, _ = graphcut._second_eigenpair(graph)
        unbounded = _listed(normalized_cut_bisect(graph))
        cost = unbounded[2]
        assert cost >= value * (1 - 1e-9)
        bound = value + position * (cost - value)
        bounded = normalized_cut_bisect(graph, bound)
        if bounded is None:
            assert cost > bound
        else:
            assert _listed(bounded) == unbounded

    @settings(max_examples=150, deadline=None)
    @given(
        graph=_bisect_graphs(),
        threshold=st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0, None]),
        min_size=st.integers(1, 4),
    )
    def test_oversegment_matches_the_unbounded_bisection(self, graph, threshold, min_size):
        """A threshold of None is the whole graph's bisection cost, so its split sits on the bound."""
        if threshold is None:
            threshold = normalized_cut_bisect(graph)[2]
        config = OversegConfig(ncut_threshold=threshold, min_segment_supervoxels=min_size)
        real = graphcut.normalized_cut_bisect
        with mock.patch.object(graphcut, "normalized_cut_bisect", lambda g, bound=None: real(g)):
            unbounded = _parts(oversegment(graph, config))
        assert _parts(oversegment(graph, config)) == unbounded


def _parts(parts):
    """Sorted id arrays as lists."""
    assert all(p.dtype == np.int64 and (np.diff(p) > 0).all() for p in parts)
    return [p.tolist() for p in parts]


class TestOversegment:
    def test_small_clique_stays_whole(self):
        edges = {e: 1.0 for e in itertools.combinations(range(4), 2)}
        g = graph_from_edges(edges)
        assert _parts(oversegment(g)) == [list(range(4))]

    def test_weakly_bridged_cliques_split(self):
        g = _two_cliques(bridge=0.01, size=4)
        parts = oversegment(g)
        assert _parts(parts) == [list(range(4)), list(range(4, 8))]

    def test_strongly_bridged_cliques_stay(self):
        g = _two_cliques(bridge=5.0, size=4)
        assert _parts(oversegment(g)) == [list(range(8))]

    def test_min_segment_size_blocks_split(self):
        # 3+3 cliques: halves would fall under the 4-node floor
        g = _two_cliques(bridge=0.01, size=3)
        assert _parts(oversegment(g)) == [list(range(6))]

    def test_disconnected_parts_always_separate(self):
        g = graph_from_edges(
            {(0, 1): 1.0},
            positions={k: (float(k), 0.0, 0.0) for k in range(3)},
        )
        parts = oversegment(g)
        assert _parts(parts) == [[0, 1], [2]]

    def test_partition_property(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(1, 16))
            edges = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.25:
                        edges[(i, j)] = float(rng.uniform(0.05, 1.0))
            g = graph_from_edges(edges, positions={k: (float(k), 0.0, 0.0) for k in range(n)})
            parts = oversegment(g)
            seen = sorted(sv for p in parts for sv in p)
            assert seen == list(range(n))

    def test_empty_graph(self):
        assert oversegment(graph_from_edges({})) == []

    def test_deterministic(self):
        g = _two_cliques(bridge=0.05, size=5)
        assert _parts(oversegment(g)) == _parts(oversegment(g))

    def test_threshold_zero_never_splits_connected(self):
        g = _two_cliques(bridge=0.01, size=4)
        cfg = OversegConfig(ncut_threshold=0.0)
        assert _parts(oversegment(g, cfg)) == [list(range(8))]
