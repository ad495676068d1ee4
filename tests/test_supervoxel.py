import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy.spatial import cKDTree  # a test oracle only: dynseg itself does not load scipy.spatial

from dynseg import supervoxel
from dynseg.cloud_io import PointCloudFrame
from dynseg.graph import connected_sets
from dynseg.supervoxel import (
    COLOR_NORM,
    KEY_RANGE_VOXELS,
    REACH_2_SPACING,
    SupervoxelConfig,
    Supervoxels,
    _link_costs,
    _nearest_per_group,
    cluster_supervoxels,
    nearest,
    pairs_closer_than,
    rgb_to_lab,
    squared_norms,
    voxel_neighbour_pairs,
    voxel_reach,
    voxelize,
)

from helpers import footprints, grid_cloud, members


def test_lab_white():
    lab = rgb_to_lab(np.array([255, 255, 255]))
    np.testing.assert_allclose(lab, [100.0, 0.0, 0.0], atol=5e-3)


def test_lab_black():
    lab = rgb_to_lab(np.array([0, 0, 0]))
    np.testing.assert_allclose(lab, [0.0, 0.0, 0.0], atol=1e-9)


def test_lab_srgb_red():
    # reference values for sRGB (255,0,0) under D65 two-degree observer
    lab = rgb_to_lab(np.array([255, 0, 0]))
    np.testing.assert_allclose(lab, [53.2408, 80.0925, 67.2032], atol=2e-3)


def test_lab_batch_shape():
    lab = rgb_to_lab(np.zeros((7, 3)))
    assert lab.shape == (7, 3)


def _norm_form_costs(centroids, labs, a, b, config):
    """The growth metric of each link, written with np.linalg.norm over gathered rows."""
    ds = np.linalg.norm(centroids[a] - centroids[b], axis=-1)
    dc = np.linalg.norm(labs[a] - labs[b], axis=-1)
    return np.sqrt(
        config.weight_color * (dc / COLOR_NORM) ** 2 + config.weight_spatial * (ds / config.seed_resolution) ** 2
    )


def growth_distance(centroid_a, lab_a, centroid_b, lab_b, config) -> float:
    """The growth metric D between two voxels: the scalar reference."""
    rows = np.array([centroid_a, centroid_b], dtype=np.float64), np.array([lab_a, lab_b], dtype=np.float64)
    return float(_norm_form_costs(*rows, [0], [1], config)[0])


_COORD = st.floats(-2.0, 2.0, allow_nan=False)
_ROWS = st.lists(st.tuples(*[_COORD] * 6), min_size=1, max_size=25)


@settings(max_examples=150, deadline=None)
@given(
    rows=_ROWS,
    links=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=40),
    offset=st.sampled_from([0.0, 1e6, -3.7e7, 2.0**40]),
    weights=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
# a link from a row to itself and one between equal rows: zero differences
@example(rows=[(0.1, 0.2, 0.3, 50.0, 1.0, -2.0)] * 2, links=[(0, 0), (0, 1)], offset=1e6, weights=(0.2, 0.4))
def test_link_costs_equal_the_norm_form_bit_for_bit(rows, links, offset, weights):
    """The vectorized link costs and the row helper give np.linalg.norm's bytes, also far from the origin."""
    table = np.asarray(rows, dtype=np.float64)
    centroids, labs = table[:, :3] + offset, table[:, 3:] * 50.0
    a, b = (np.asarray(links, dtype=np.int64).reshape(-1, 2) % len(table)).T
    config = SupervoxelConfig(weight_color=weights[0], weight_spatial=weights[1])
    assert _link_costs(centroids, labs, a, b, config).tobytes() == _norm_form_costs(centroids, labs, a, b, config).tobytes()
    for d in (centroids[a] - centroids[b], labs[a] - labs[b], centroids):
        assert squared_norms(d).tobytes() == np.sum(d**2, axis=1).tobytes()
        assert np.sqrt(squared_norms(d)).tobytes() == np.linalg.norm(d, axis=1).tobytes()


def test_growth_distance_symmetry():
    cfg = SupervoxelConfig()
    a = (np.array([0.01, 0.02, 0.0]), rgb_to_lab(np.array([10, 200, 30])))
    b = (np.array([0.05, -0.01, 0.03]), rgb_to_lab(np.array([200, 10, 30])))
    assert growth_distance(*a, *b, cfg) == pytest.approx(growth_distance(*b, *a, cfg))
    assert growth_distance(*a, *a, cfg) == 0.0


def test_voxelize_groups_points():
    pts = np.array(
        [
            [0.001, 0.001, 0.001],
            [0.007, 0.0, 0.0],  # same cell as above at 0.008
            [0.009, 0.0, 0.0],  # next cell over
            [-0.001, 0.0, 0.0],  # negative side -> cell -1
        ]
    )
    cols = np.zeros((4, 3), dtype=np.uint8)
    keys, inverse, counts = voxelize(PointCloudFrame(0, pts, cols), 0.008)
    np.testing.assert_array_equal(keys, [(-1, 0, 0), (0, 0, 0), (1, 0, 0)])
    np.testing.assert_array_equal(inverse, [1, 1, 2, 0])
    np.testing.assert_array_equal(counts, [1, 2, 1])


def test_voxelize_empty():
    frame = PointCloudFrame(0, np.zeros((0, 3)), np.zeros((0, 3), dtype=np.uint8))
    keys, inverse, counts = voxelize(frame, 0.01)
    assert keys.shape == (0, 3) and len(inverse) == 0 and len(counts) == 0


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=60),
    shift=st.sampled_from([0, 2**40, -(2**45)]),
    step=st.sampled_from([1, 2**61]),
)
@example(keys=[(0, 0, 0)], shift=2**45, step=1)
@example(keys=[(3, -3, 0), (-3, 3, 0), (3, -3, 0), (0, 0, 0)], shift=-(2**45), step=1)
@example(keys=[(2, -2, 2), (-2, 2, -2), (2, -2, 2), (0, 1, -1)], shift=0, step=2**61)
def test_voxelize_matches_unique_rows(keys, shift, step):
    """voxelize equals np.unique over the key rows, also at keys near +-2**45.

    With ``step`` 2**61 the keys reach +-1.5 * 2**62, and keys spread over
    the axes span a box of more than 2**63 cells, which _lex_rank ranks a
    column at a time; smaller boxes take one packed int64 code.
    """
    rows = np.asarray([(x * step + shift, y * step, z * step - shift) for x, y, z in keys], dtype=np.int64)
    frame = PointCloudFrame(0, rows + 0.5, np.zeros((len(rows), 3), dtype=np.uint8))
    got = voxelize(frame, 1.0)
    expected = np.unique(rows, axis=0, return_inverse=True, return_counts=True)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b.reshape(a.shape))
        assert a.dtype == np.int64


def test_voxelize_far_from_the_origin():
    """The 1e6 m offset probe at the default voxel groups like np.unique."""
    points = 1e6 + np.random.default_rng(5).uniform(0.0, 0.2, size=(500, 3))
    frame = PointCloudFrame(0, points, np.zeros((500, 3), dtype=np.uint8))
    keys, inverse, counts = voxelize(frame, 0.008)
    expected = np.unique(np.floor(points / 0.008).astype(np.int64), axis=0, return_inverse=True, return_counts=True)
    for a, b in zip((keys, inverse, counts), expected):
        np.testing.assert_array_equal(a, b.reshape(a.shape))


def _nearest_by_lexsort(groups, d2):
    """The sort form of _nearest_per_group: each group's least d2, ties to the lowest index."""
    order = np.lexsort((d2, groups))
    first = np.ones(len(order), dtype=bool)
    first[1:] = groups[order[1:]] != groups[order[:-1]]
    return np.sort(order[first])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), min_size=1, max_size=40))
def test_nearest_per_group_matches_lexsort(rows):
    """Integer-valued distances in a small range force ties within groups."""
    labels, d2 = np.asarray(rows).T
    _, groups = np.unique(labels, return_inverse=True)
    d2 = d2.astype(np.float64)
    np.testing.assert_array_equal(_nearest_per_group(groups, d2), _nearest_by_lexsort(groups, d2))


def test_coordinates_the_grid_cannot_key_are_rejected():
    """At voxel 0.02, +-3e17 m lie beyond int64 keys; each is rejected naming its coordinate and the cell."""
    for x in (3e17, -3e17):
        points = np.array([[x, 0.0, 0.0], [0.0, 0.0, 0.0]])
        frame = PointCloudFrame(0, points, np.zeros((2, 3), dtype=np.uint8))
        message = re.escape(f"coordinate {x!r} lies ") + r".* voxels of 0\.02 or more from the origin"
        with pytest.raises(ValueError, match=message):
            voxelize(frame, 0.02)
        with pytest.raises(ValueError, match=message):
            voxel_reach(points, 0.02)


def test_gaps_wider_than_int64_close():
    """Keys of opposite sign more than 2**63 apart still close to reach + 1."""
    far = int(0.99 * KEY_RANGE_VOXELS)
    keys = np.array([[-far, 0, 0], [far, 0, 0]], dtype=np.int64)
    np.testing.assert_array_equal(supervoxel._close_gaps(keys, 2), [[0, 0, 0], [3, 0, 0]])


def test_voxelize_rejects_nonpositive_resolution():
    frame = PointCloudFrame(0, np.zeros((1, 3)), np.zeros((1, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        voxelize(frame, 0.0)


def test_growth_distance_formula():
    cfg = SupervoxelConfig()
    # pure spatial displacement of one seed_resolution
    d = growth_distance(
        np.array([0.0, 0, 0]), np.array([50.0, 0, 0]),
        np.array([cfg.seed_resolution, 0, 0]), np.array([50.0, 0, 0]), cfg,
    )
    assert d == pytest.approx(math.sqrt(cfg.weight_spatial))
    # pure color displacement of the full Lab scale
    d = growth_distance(
        np.array([0.0, 0, 0]), np.array([0.0, 0, 0]),
        np.array([0.0, 0, 0]), np.array([100.0, 0, 0]), cfg,
    )
    assert d == pytest.approx(math.sqrt(cfg.weight_color))


def test_config_validation():
    with pytest.raises(ValueError):
        SupervoxelConfig(voxel_resolution=0.1, seed_resolution=0.05).validate()
    with pytest.raises(ValueError):
        SupervoxelConfig(voxel_resolution=-1).validate()
    with pytest.raises(ValueError):
        SupervoxelConfig(max_iterations=0).validate()


def _flat_cfg():
    return SupervoxelConfig(voxel_resolution=0.02, seed_resolution=0.08)


def test_cluster_partition_covers_all_points():
    pts, cols = grid_cloud(shape=(10, 10, 2), spacing=0.02)
    svs = cluster_supervoxels(PointCloudFrame(0, pts, cols), _flat_cfg())
    seen = np.concatenate(members(svs))
    assert len(seen) == len(pts)
    assert len(np.unique(seen)) == len(pts)


def test_cluster_one_seed_per_occupied_seed_cell():
    # two tight clumps, one per seed cell, far apart
    pts = np.array([[0.01, 0.01, 0.01], [0.012, 0.01, 0.01], [0.25, 0.01, 0.01]])
    cols = np.full((3, 3), 128, dtype=np.uint8)
    svs = cluster_supervoxels(PointCloudFrame(0, pts, cols), _flat_cfg())
    assert len(svs) == 2
    assert sorted(svs.point_counts.tolist()) == [1, 2]
    assert sorted(map(len, members(svs))) == [1, 2]


def test_cluster_centroid_and_color_are_member_means():
    pts, cols = grid_cloud(shape=(3, 3, 1), spacing=0.02, color=(200, 40, 40))
    frame = PointCloudFrame(0, pts, cols)
    svs = cluster_supervoxels(frame, _flat_cfg())
    lab = rgb_to_lab(cols)
    for k, idx in enumerate(members(svs)):
        np.testing.assert_allclose(svs.centroids[k], pts[idx].mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(svs.colors_lab[k], lab[idx].mean(axis=0), atol=1e-9)
        assert svs.point_counts[k] == len(idx)


def test_cluster_footprints_disjoint():
    pts, cols = grid_cloud(shape=(12, 6, 1), spacing=0.02)
    frame = PointCloudFrame(0, pts, cols)
    all_keys = np.concatenate(footprints(frame, cluster_supervoxels(frame, _flat_cfg()), 0.02))
    assert len(all_keys) == len(np.unique(all_keys, axis=0))


def test_cluster_color_boundary_respected():
    # a 2-cell bar with a sharp color edge in the middle of one seed cell:
    # spatially every voxel is closest to the midline, color pulls it home
    pts = []
    cols = []
    for i in range(8):
        pts.append((0.01 + 0.02 * i, 0.01, 0.01))
        cols.append((230, 40, 40) if i < 4 else (40, 40, 230))
    frame = PointCloudFrame(0, np.asarray(pts, float), np.asarray(cols, np.uint8))
    for idx in members(cluster_supervoxels(frame, _flat_cfg())):
        member_cols = np.asarray(cols)[idx]
        assert len(np.unique(member_cols, axis=0)) == 1, "supervoxel mixes colors"


def test_cluster_deterministic():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 0.3, size=(400, 3))
    cols = rng.integers(0, 256, size=(400, 3), dtype=np.uint8)
    frame = PointCloudFrame(0, pts, cols)
    a = cluster_supervoxels(frame, _flat_cfg())
    b = cluster_supervoxels(frame, _flat_cfg())
    assert len(a) == len(b)
    np.testing.assert_array_equal(a.of_point, b.of_point)
    np.testing.assert_array_equal(a.contacts, b.contacts)


def test_cluster_ids_sorted_and_stable():
    pts, cols = grid_cloud(shape=(8, 8, 1), spacing=0.02)
    frame = PointCloudFrame(0, pts, cols)
    svs = cluster_supervoxels(frame, _flat_cfg())
    assert np.array_equal(np.unique(svs.of_point), np.arange(len(svs)))
    smallest = [tuple(keys[0]) for keys in footprints(frame, svs, 0.02)]
    assert smallest == sorted(smallest)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**31 - 1))
def test_cluster_partition_property(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.1, 0.1, size=(n, 3))
    cols = rng.integers(0, 256, size=(n, 3), dtype=np.uint8)
    svs = cluster_supervoxels(PointCloudFrame(0, pts, cols), _flat_cfg())
    assert svs.of_point.shape == (n,)
    assert np.array_equal(svs.point_counts, np.bincount(svs.of_point, minlength=len(svs)))
    assert (svs.point_counts > 0).all()
    assert np.isfinite(svs.centroids).all()


def _is_connected(keys, reach: int = 1) -> bool:
    return len(connected_sets(range(len(keys)), voxel_neighbour_pairs(keys, reach).tolist())) == 1


def test_footprint_connected():
    # grown clusters must have 26-connected voxel footprints
    pts, cols = grid_cloud(shape=(14, 4, 1), spacing=0.02)
    frame = PointCloudFrame(0, pts, cols)
    for keys in footprints(frame, cluster_supervoxels(frame, _flat_cfg()), 0.02):
        assert _is_connected(keys)


def _offsets(reach: int) -> list[tuple[int, int, int]]:
    return [d for d in itertools.product(range(-reach, reach + 1), repeat=3) if d != (0, 0, 0)]


_DENSE = set(itertools.product(range(-2, 2), range(-1, 2), range(2)))  # 24 keys filling their box
_SPARSE = {(-3, -3, -3), (-2, -3, -3), (1, 0, 2), (3, 3, 3)}  # 4 keys in a box of 7**3
_APART = _DENSE | {(x + 40, y - 40, z + 40) for x, y, z in _DENSE}  # two dense blocks far apart
# the helpers each branch calls: the table, the sorted codes, the gap-closed table
_BRANCH_CALLS = ((), ("_close_gaps", "_sorted_code_pairs"), ("_close_gaps",))


@pytest.mark.parametrize("reach", [1, 2])
@pytest.mark.parametrize("keys, branch", [(_DENSE, 0), (_SPARSE, 1), (_APART, 2)])
def test_voxel_neighbour_pairs_branch(monkeypatch, keys, branch, reach):
    """A padded box within TABLE_CELLS_PER_VOXEL cells per key takes the table; a sparser one
    has its gaps closed, then takes the table if it fits and the sorted codes if not."""
    calls = []
    for name in ("_close_gaps", "_sorted_code_pairs"):
        real = getattr(supervoxel, name)
        monkeypatch.setattr(supervoxel, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    supervoxel.voxel_neighbour_pairs(np.asarray(sorted(keys), dtype=np.int64), reach)
    assert tuple(calls) == _BRANCH_CALLS[branch]


@settings(max_examples=60, deadline=None)
@given(
    keys=st.sets(st.tuples(*[st.integers(-3, 3)] * 3), max_size=60),
    shift=st.sampled_from([0, 2**40, -(2**45)]),
    reach=st.sampled_from([1, 2]),
)
@example(keys=set(), shift=0, reach=1)
@example(keys={(0, 0, 0)}, shift=0, reach=1)
@example(keys={(0, 0, 0), (2, -2, 1), (3, 0, 0)}, shift=2**40, reach=2)
# _DENSE, _SPARSE and _APART take each branch at both reaches
@example(keys=_DENSE, shift=0, reach=1)
@example(keys=_DENSE, shift=-(2**45), reach=2)
@example(keys=_SPARSE, shift=2**40, reach=1)
@example(keys=_SPARSE, shift=0, reach=2)
@example(keys=_APART, shift=2**40, reach=1)
@example(keys=_APART, shift=-(2**45), reach=2)
def test_voxel_neighbour_pairs_match_offset_lookup(keys, shift, reach):
    """The pair table equals the 26- or 124-offset dictionary lookup, also far from the origin.

    The pairs come one half-stencil offset at a time, in offset order, rows
    ascending, which lets cluster_supervoxels build its link matrix unsorted.
    """
    rows = sorted((x + shift, y, z - shift) for x, y, z in keys)
    index = {k: i for i, k in enumerate(rows)}
    expected = {
        (i, index[n])
        for i, (x, y, z) in enumerate(rows)
        for dx, dy, dz in _offsets(reach)
        if (n := (x + dx, y + dy, z + dz)) in index and i < index[n]
    }
    got = voxel_neighbour_pairs(np.asarray(rows, dtype=np.int64).reshape(-1, 3), reach)
    assert {(int(a), int(b)) for a, b in got} == expected
    assert len(got) == len(expected)
    offset_rank = {d: k for k, d in enumerate(sorted(d for d in _offsets(reach) if d > (0, 0, 0)))}
    listed = [(offset_rank[tuple(q - p for p, q in zip(rows[i], rows[j]))], i) for i, j in got.tolist()]
    assert listed == sorted(listed)


def _random_cloud(seed: int, n: int, extent: float):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, extent, size=(n, 3))
    cols = rng.integers(0, 256, size=(n, 3), dtype=np.uint8)
    return PointCloudFrame(0, pts, cols)


def _seedless_components(frame: PointCloudFrame, cfg: SupervoxelConfig, reach: int) -> list[set[tuple]]:
    """Voxel components (under ``reach``) holding no grid seed, by a loop over voxels."""
    members: dict[tuple, list[int]] = {}
    for i, p in enumerate(frame.points):
        members.setdefault(tuple(int(v) for v in np.floor(p / cfg.voxel_resolution)), []).append(i)
    keys = sorted(members)
    centroid = {k: frame.points[members[k]].mean(axis=0) for k in keys}
    cells: dict[tuple, list[tuple]] = {}
    for k in keys:
        cells.setdefault(tuple(int(v) for v in np.floor(centroid[k] / cfg.seed_resolution)), []).append(k)
    seeds = set()
    for cell, ks in cells.items():
        center = (np.asarray(cell) + 0.5) * cfg.seed_resolution
        seeds.add(min(ks, key=lambda k: (float(np.sum((centroid[k] - center) ** 2)), k)))
    index = {k: i for i, k in enumerate(keys)}
    pairs = [
        (index[k], index[n])
        for k in keys
        for d in _offsets(reach)
        if (n := (k[0] + d[0], k[1] + d[1], k[2] + d[2])) in index
    ]
    pieces = [{keys[i] for i in piece} for piece in connected_sets(range(len(keys)), pairs)]
    return [piece for piece in pieces if not piece & seeds]


_clouds = dict(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 150),
    extent=st.sampled_from([0.05, 0.15, 0.3]),
    voxel=st.sampled_from([0.02, 0.008]),
)


@settings(max_examples=40, deadline=None)
@given(reach=st.sampled_from([1, 2]), **_clouds)
def test_cluster_invariants_on_random_clouds(reach, seed, n, extent, voxel):
    cfg = SupervoxelConfig(voxel_resolution=voxel, seed_resolution=0.08)
    frame = _random_cloud(seed, n, extent)
    svs = cluster_supervoxels(frame, cfg, reach)
    feet = footprints(frame, svs, voxel)
    # every point lands in exactly one supervoxel, and each holds one
    assert svs.of_point.shape == (n,)
    assert np.array_equal(np.unique(svs.of_point), np.arange(len(svs)))
    # ids run 0..k-1 in order of smallest voxel key; footprints partition the
    # voxels, each is the keys of its points and connected under the reach
    smallest = [tuple(keys[0]) for keys in feet]
    assert smallest == sorted(smallest) and len(set(smallest)) == len(svs)
    assert sum(map(len, feet)) == len(voxelize(frame, voxel)[0])
    for idx, keys in zip(members(svs), feet):
        point_keys = np.floor(frame.points[idx] / voxel).astype(np.int64)
        np.testing.assert_array_equal(keys, np.unique(point_keys, axis=0))
        assert _is_connected(keys, reach)
    # contacts are the distinct supervoxel pairs owning two voxels within the reach
    owner = {tuple(k): sv for sv, keys in enumerate(feet) for k in keys.tolist()}
    touching = {
        (min(a, b), max(a, b))
        for (x, y, z), a in owner.items()
        for dx, dy, dz in _offsets(reach)
        if (b := owner.get((x + dx, y + dy, z + dz), a)) != a
    }
    assert svs.contacts.tolist() == [list(p) for p in sorted(touching)]
    # each seedless voxel component becomes exactly one supervoxel
    footprint = {frozenset(map(tuple, keys.tolist())) for keys in feet}
    for piece in _seedless_components(frame, cfg, reach):
        assert frozenset(piece) in footprint


@settings(max_examples=25, deadline=None)
@given(order_seed=st.integers(0, 2**31 - 1), **_clouds)
def test_point_order_does_not_change_the_partition(order_seed, seed, n, extent, voxel):
    cfg = SupervoxelConfig(voxel_resolution=voxel, seed_resolution=0.08)
    frame = _random_cloud(seed, n, extent)
    perm = np.random.default_rng(order_seed).permutation(n)
    shuffled = PointCloudFrame(0, frame.points[perm], frame.colors[perm])
    base = {frozenset(idx.tolist()) for idx in members(cluster_supervoxels(frame, cfg))}
    moved = {frozenset(perm[idx].tolist()) for idx in members(cluster_supervoxels(shuffled, cfg))}
    assert moved == base


@pytest.mark.parametrize(
    "points, reach",
    [
        ([[0.3, -0.2, 0.5]], 2),  # spacing inf
        (np.tile([0.3, -0.2, 0.5], (40, 1)), 1),  # spacing 0
        (np.outer(np.arange(300) * 0.002, [1.0, 0.5, 0.0]), 1),
        (np.outer(np.arange(300) * 0.012, [1.0, 0.5, 0.0]), 2),
    ],
)
def test_voxel_reach_on_degenerate_clouds(points, reach):
    assert voxel_reach(np.asarray(points), 0.008) == reach


def test_voxel_reach_threshold_is_relative_to_the_voxel():
    line = np.outer(np.arange(50), [0.01, 0.0, 0.0])  # spacing 0.01; 0.875 * 0.0114 < 0.01 < 0.875 * 0.0115
    for scale in (1.0, 2.0, 0.5, 1000.0):
        assert [voxel_reach(scale * line, scale * v) for v in (0.0114, 0.0115)] == [2, 1]


@settings(max_examples=40, deadline=None)
@given(order_seed=st.integers(0, 2**31 - 1), shift=st.sampled_from([0.0123, -3.7, 1e3]), **_clouds)
def test_voxel_reach_ignores_point_order_and_translation(order_seed, shift, seed, n, extent, voxel):
    points = _random_cloud(seed, n, extent).points
    reach = voxel_reach(points, voxel)
    assert reach in (1, 2)
    assert voxel_reach(points[np.random.default_rng(order_seed).permutation(n)], voxel) == reach
    assert voxel_reach(points + shift, voxel) == reach


@st.composite
def _grid_clouds(draw, max_n=40):
    """(points, scale): integer-grid points times a scale, so duplicates and distance ties are common;
    optionally jittered, optionally flattened to a plane."""
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * 3), min_size=n, max_size=n))
    scale = draw(st.sampled_from([0.01, 0.37, 5.0]))
    points = np.asarray(rows, dtype=np.float64) * scale
    if draw(st.booleans()):
        points += np.random.default_rng(draw(st.integers(0, 2**16))).normal(scale=0.3 * scale, size=points.shape)
    if draw(st.booleans()):
        points[:, 2] = 0.0
    return points, scale


def _kd_tree_reach(points, voxel):
    """The k-d tree form of voxel_reach's rule."""
    return 2 if np.median(cKDTree(points).query(points, k=2)[0][:, 1]) >= REACH_2_SPACING * voxel else 1


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ref=_grid_clouds(), query=_grid_clouds(), k=st.integers(1, 3))
@pytest.mark.parametrize("block", [1, 5, 1 << 16])
def test_nearest_matches_the_kd_tree(monkeypatch, block, ref, query, k):
    """Bit-equal distances to the k nearest rows, nearest first, ties to the lower row, in blocks of any size."""
    monkeypatch.setattr(supervoxel, "DISTANCE_BLOCK", block)
    (ref, _), (query, _) = ref, query
    k = min(k, len(ref))
    dist, rows = nearest(query, ref, k)
    want, _ = cKDTree(ref).query(query, k=k)
    assert dist.tobytes() == np.asarray(want).reshape(len(query), k).tobytes()
    for q, row in zip(query, rows.tolist()):
        d2 = squared_norms(q - ref)
        assert row == sorted(range(len(ref)), key=lambda r: (d2[r], r))[:k]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cloud=_grid_clouds(), factor=st.sampled_from([0.0, 0.9, 1.3, 2.2, 4.7, 30.0]))
@pytest.mark.parametrize("block", [1, 1 << 16])
def test_pairs_closer_than_match_the_kd_tree(monkeypatch, block, cloud, factor):
    """The k-d tree's pairs within the radius that lie strictly inside it, as i < j rows in row order."""
    monkeypatch.setattr(supervoxel, "DISTANCE_BLOCK", block)
    points, scale = cloud
    radius = factor * scale
    near = cKDTree(points).query_pairs(radius, output_type="ndarray")
    want = near[np.sqrt(squared_norms(points[near[:, 0]] - points[near[:, 1]])) < radius]
    got = pairs_closer_than(points, radius).tolist()
    assert got == sorted(want.tolist()) == sorted(got)


@settings(max_examples=200, deadline=None)
@given(cloud=_grid_clouds(max_n=60), factor=st.sampled_from([0.3, 0.8, 1.1, 1.2, 2.5]))
def test_voxel_reach_matches_the_kd_tree_rule(cloud, factor):
    points, scale = cloud
    assert voxel_reach(points, factor * scale) == _kd_tree_reach(points, factor * scale)


@settings(max_examples=80, deadline=None)
@given(pairs=st.integers(1, 6), a=st.floats(0.0, 0.87), b=st.floats(0.88, 3.0), shift=st.sampled_from([0.0, -7.3]))
@example(pairs=2, a=0.5, b=1.2, shift=0.0)  # median 0.85: reach 1
@example(pairs=2, a=0.5, b=1.3, shift=0.0)  # median 0.90: reach 2
@example(pairs=3, a=0.0, b=1.74, shift=0.0)  # median 0.87 < t with b just inside 2t: reach 1
@example(pairs=1, a=0.1, b=1.8, shift=0.0)  # b beyond 2t, so the median is above t: reach 2
def test_voxel_reach_on_even_clouds_split_at_the_threshold(pairs, a, b, shift):
    """Half the points have their neighbour at a < t, half at b > t, so the median (a + b) / 2 decides."""
    centres = np.arange(2 * pairs)[:, None] * np.array([10.0, 0.0, 0.0]) + shift
    gaps = np.repeat([a, b], pairs)[:, None] * np.array([0.0, 1.0, 0.0])
    points = np.concatenate([centres, centres + gaps])
    reach = voxel_reach(points, 1.0)
    assert reach == _kd_tree_reach(points, 1.0)
    if abs((a + b) / 2 - REACH_2_SPACING) > 1e-9:
        assert reach == (2 if (a + b) / 2 >= REACH_2_SPACING else 1)


def test_growth_counts_passes_until_no_seed_moves():
    frame = _random_cloud(11, 400, 0.3)
    cfg = _flat_cfg()
    svs = cluster_supervoxels(frame, cfg)
    assert 2 <= svs.passes <= cfg.max_iterations and svs.converged  # its seeds move in the first pass
    cfg.max_iterations = 1
    capped = cluster_supervoxels(frame, cfg)
    assert (capped.passes, capped.converged) == (1, False)


def test_growth_counters_on_one_point_and_no_points():
    one = cluster_supervoxels(PointCloudFrame(0, [[0.1, 0.2, 0.3]], [[9, 9, 9]]), _flat_cfg())
    assert (one.passes, one.converged) == (1, True)
    assert Supervoxels.empty().passes == 0


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_seedless_component_is_seeded_at_its_smallest_voxel(order):
    # three points hold the grid seed at voxel (2, 2, 2); a line through
    # voxels (0, 0, 0), (1, 0, 0) and (2, 0, 0) lies beyond reach 1 of it, so
    # the first pass seeds the line at (0, 0, 0) and moves that seed to the
    # middle voxel, whichever of the line's points comes first
    line = np.asarray([[0.01, 0.01, 0.01], [0.03, 0.01, 0.01], [0.05, 0.01, 0.01]])
    points = np.concatenate([line[list(order)], np.full((3, 3), 0.045)])
    cfg = SupervoxelConfig(voxel_resolution=0.02, seed_resolution=0.08, max_iterations=1)
    frame = PointCloudFrame(0, points, np.full((6, 3), 128))
    assert _seedless_components(frame, cfg, 1) == [{(0, 0, 0), (1, 0, 0), (2, 0, 0)}]
    svs = cluster_supervoxels(frame, cfg)
    assert (svs.passes, svs.converged, len(svs)) == (1, False, 2)
