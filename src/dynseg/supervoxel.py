"""Supervoxel clustering: voxelize, seed on a coarse grid, grow by path cost.

Occupied voxels are linked to those within a Chebyshev reach of 1
(26-adjacency) or, on clouds sparser than the voxel grid, 2 (``voxel_reach``),
and each link costs the growth metric between the two voxels' features,
    D = sqrt(w_c * (dE_lab / 100)^2 + w_s * (d_spatial / seed_resolution)^2).
A growth pass gives every voxel to the seed with the cheapest path to it
(one multi-source Dijkstra), so each cluster is a shortest-path tree and
its footprint stays connected under the reach.  After each pass every seed
moves to the member voxel nearest its cluster's centroid; passes stop once
no seed moves or after max_iterations.

The bookkeeping around the Dijkstra sorts as little as it can: voxel and
seed-cell keys are grouped through 1-D codes built from per-axis ranks, the
voxel links are read from an index table over the keys' bounding box, the
symmetric link matrix is built once per frame, each pass renumbers its
claims through a seed -> slot array, and row lengths are summed by
``squared_norms`` rather than ``np.linalg.norm``, with the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from .cloud_io import PointCloudFrame

COLOR_NORM = 100.0  # Lab distance scale in the growth metric
# reach 2 once the median nearest-neighbour spacing is this many voxels; the
# synthetic kinds read 0.40-0.74 at voxel 0.02 and 1.00-1.85 at voxel 0.008
REACH_2_SPACING = 0.875
# the voxel-neighbour index table may hold this many int32 cells per voxel;
# the benchmark workloads' padded bounding boxes read 4-45 cells per voxel
TABLE_CELLS_PER_VOXEL = 64

# sRGB (D65) to XYZ, then XYZ to CIELab with the D65 reference white.
_RGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_D65 = np.array([0.95047, 1.0, 1.08883])


def rgb_to_lab(rgb: np.ndarray) -> np.ndarray:
    """Convert 8-bit sRGB rows to CIELab (D65 white)."""
    c = np.asarray(rgb, dtype=np.float64) / 255.0
    lin = np.where(c <= 0.04045, c / 12.92, ((c + 0.055) / 1.055) ** 2.4)
    xyz = lin @ _RGB_TO_XYZ.T / _D65
    eps = (6.0 / 29.0) ** 3
    f = np.where(xyz > eps, np.cbrt(xyz), xyz / (3.0 * (6.0 / 29.0) ** 2) + 4.0 / 29.0)
    lab = np.empty_like(f)
    lab[..., 0] = 116.0 * f[..., 1] - 16.0
    lab[..., 1] = 500.0 * (f[..., 0] - f[..., 1])
    lab[..., 2] = 200.0 * (f[..., 1] - f[..., 2])
    return lab


@dataclass
class SupervoxelConfig:
    voxel_resolution: float = 0.008
    seed_resolution: float = 0.08
    weight_color: float = 0.2
    weight_spatial: float = 0.4
    max_iterations: int = 10

    def validate(self) -> None:
        if self.voxel_resolution <= 0 or self.seed_resolution <= 0:
            raise ValueError("resolutions must be positive")
        if self.seed_resolution < self.voxel_resolution:
            raise ValueError("seed_resolution must be >= voxel_resolution")
        if self.weight_color < 0 or self.weight_spatial < 0:
            raise ValueError("weights must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class Supervoxels:
    """A frame's supervoxels as arrays; supervoxel k has id k."""

    of_point: np.ndarray  # (P,) supervoxel of each point
    centroids: np.ndarray  # (S, 3) mean of member point positions
    colors_lab: np.ndarray  # (S, 3) mean of member point Lab colours
    point_counts: np.ndarray  # (S,) number of member points
    contacts: np.ndarray  # (C, 2) distinct pairs i < j owning two linked voxels, lexicographic
    passes: int = 0  # growth passes run
    converged: bool = True  # the last pass moved no seed

    def __len__(self) -> int:
        return len(self.centroids)

    @classmethod
    def empty(cls) -> "Supervoxels":
        """The supervoxels of a frame with no points."""
        none = np.zeros(0, dtype=np.int64)
        return cls(none, np.zeros((0, 3)), np.zeros((0, 3)), none, np.zeros((0, 2), dtype=np.int64))


def _lex_rank(rows: np.ndarray) -> np.ndarray:
    """Dense rank of each (n, k) integer row in lexicographic row order.

    The rank of the leading columns and the next column's rank combine into
    one code below n**2, so no key value can overflow int64.
    """
    rank = np.zeros(len(rows), dtype=np.int64)
    for column in rows.T:
        values, column_rank = np.unique(column, return_inverse=True)
        _, rank = np.unique(rank * len(values) + column_rank, return_inverse=True)
    return rank


def voxelize(frame: PointCloudFrame, resolution: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occupied voxels of a frame as ``(keys, inverse, counts)``.

    ``keys`` holds the distinct voxel keys floor(p / resolution) as (n, 3)
    int64 rows in lexicographic order, ``inverse`` the row of each point's
    voxel, and ``counts`` the number of points in each voxel.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    keys = np.floor(frame.points / resolution).astype(np.int64)
    inverse = _lex_rank(keys)
    counts = np.bincount(inverse)
    uniq = np.empty((len(counts), 3), dtype=np.int64)
    uniq[inverse] = keys
    return uniq, inverse, counts


def _half_stencil(reach: int) -> np.ndarray:
    """The lexicographically positive offsets within Chebyshev ``reach``: one of each +-d pair."""
    span = np.arange(-reach, reach + 1)
    offsets = np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1).reshape(-1, 3)
    return offsets[len(offsets) // 2 + 1 :]


def voxel_neighbour_pairs(keys: np.ndarray, reach: int = 1) -> np.ndarray:
    """(m, 2) row pairs ``i < j`` of ``keys`` within Chebyshev distance ``reach`` (1: 26-adjacent).

    Each half-stencil offset is looked up in an index table over the keys'
    bounding box, padded by the reach.  A box with more than
    TABLE_CELLS_PER_VOXEL cells per key falls back to a k-d tree.
    """
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
    n = len(keys)
    if n == 0:
        return np.zeros((0, 2), dtype=np.int64)
    low = keys.min(axis=0)
    # in Python ints: the extent of far-apart keys need not fit in int64
    dims = [int(hi) - int(lo) + 1 + 2 * reach for lo, hi in zip(low, keys.max(axis=0))]
    if dims[0] * dims[1] * dims[2] > TABLE_CELLS_PER_VOXEL * n:
        return cKDTree(keys).query_pairs(reach, p=np.inf, output_type="ndarray")
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    cell = (keys - low + reach) @ strides
    table = np.full(dims[0] * dims[1] * dims[2], -1, dtype=np.int32)
    table[cell] = np.arange(n)
    rows, found = [], []
    for step in _half_stencil(reach) @ strides:
        hit = table[cell + step]
        (row,) = np.nonzero(hit >= 0)
        rows.append(row)
        found.append(hit[row])
    rows, found = np.concatenate(rows), np.concatenate(found)
    return np.column_stack([np.minimum(rows, found), np.maximum(rows, found)])


def voxel_reach(points: np.ndarray, voxel_resolution: float) -> int:
    """Voxel-neighbour reach: 2 when the median nearest-neighbour spacing is
    at least REACH_2_SPACING voxels, else 1.  26-adjacency (reach 1) assumes a
    cloud as dense as the voxel grid and splits sparser ones into islands.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    spacing = np.median(cKDTree(points).query(points, k=2)[0][:, 1])
    return 2 if spacing >= REACH_2_SPACING * voxel_resolution else 1


def squared_norms(d: np.ndarray) -> np.ndarray:
    """Squared length of each (m, 3) row, summed as (x^2 + y^2) + z^2.

    That is the order in which ``np.sum(d ** 2, axis=1)`` and
    ``np.linalg.norm(d, axis=1)`` add up a row of three, so the results are
    bit for bit theirs, without the reduction's per-call overhead.
    """
    return (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]


def _link_costs(centroids: np.ndarray, labs: np.ndarray, a: np.ndarray, b: np.ndarray, config: SupervoxelConfig) -> np.ndarray:
    """Growth metric D of each link between voxel rows ``a`` and ``b``."""
    ds = np.sqrt(squared_norms(np.take(centroids, a, axis=0) - np.take(centroids, b, axis=0)))
    dc = np.sqrt(squared_norms(np.take(labs, a, axis=0) - np.take(labs, b, axis=0)))
    return np.sqrt(
        config.weight_color * (dc / COLOR_NORM) ** 2
        + config.weight_spatial * (ds / config.seed_resolution) ** 2
    )


def _group_means(values: np.ndarray, groups: np.ndarray, n: int, weights: np.ndarray | None = None) -> np.ndarray:
    """(n, k) weighted means of the (m, k) ``values`` rows by group label 0..n-1.

    Each group's sum accumulates its rows in input order.
    """
    w = np.ones(len(groups)) if weights is None else weights
    sums = np.stack([np.bincount(groups, weights=w * col, minlength=n) for col in values.T], axis=1)
    return sums / np.bincount(groups, weights=w, minlength=n)[:, None]


def _nearest_per_group(groups: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Sorted indices of each group's least ``d2``, ties to the lowest index; groups are 0..n-1."""
    n = groups.max() + 1
    least = np.full(n, np.inf)
    np.minimum.at(least, groups, d2)
    (at_least,) = np.nonzero(d2 == least[groups])
    nearest = np.full(n, len(groups))
    np.minimum.at(nearest, groups[at_least], at_least)
    return np.sort(nearest)


def cluster_supervoxels(frame: PointCloudFrame, config: SupervoxelConfig, reach: int = 1) -> Supervoxels:
    """Partition a frame's points into supervoxels, linking voxels within ``reach``.

    One seed per occupied cell of a grid at seed_resolution, placed at the
    occupied voxel whose centroid is nearest the cell center, and one at the
    smallest voxel of each voxel component (under ``reach``) that no grid
    seed lies in.  Each pass gives every voxel to the seed of least path cost,
    then moves every seed to the member voxel nearest its cluster's point
    centroid.  Voxel ties go to the smallest key.  Passes stop when no seed
    moves, since the next pass would repeat the claims, or after
    max_iterations passes; the record keeps the pass count and whether the
    last pass moved no seed.  Ids follow each supervoxel's smallest voxel key.
    Contacts are the supervoxel pairs that own the two ends of a voxel link.
    """
    config.validate()
    if frame.num_points == 0:
        raise ValueError("cannot cluster an empty frame")
    keys, point_voxel, counts = voxelize(frame, config.voxel_resolution)
    n_vox = len(keys)
    lab_all = rgb_to_lab(frame.colors)
    vox_centroid = _group_means(frame.points, point_voxel, n_vox)
    vox_lab = _group_means(lab_all, point_voxel, n_vox)

    pairs = voxel_neighbour_pairs(keys, reach)
    a, b = pairs.T
    cost = _link_costs(vox_centroid, vox_lab, a, b, config)
    # symmetric, so every pass runs a directed Dijkstra with no transpose;
    # CSR built from coordinates has sorted indices
    both = (np.concatenate([a, b]), np.concatenate([b, a]))
    links = csr_matrix((np.concatenate([cost, cost]), both), shape=(n_vox, n_vox))

    cell_keys = np.floor(vox_centroid / config.seed_resolution).astype(np.int64)
    centers = (cell_keys + 0.5) * config.seed_resolution
    seeds = _nearest_per_group(_lex_rank(cell_keys), squared_norms(vox_centroid - centers))
    # links is symmetric, so its strong components are its components
    _, component = connected_components(links, directed=True, connection="strong")
    _, first_voxel = np.unique(component, return_index=True)
    seedless = np.setdiff1d(np.arange(len(first_voxel)), component[seeds])
    seeds = np.sort(np.concatenate([seeds, first_voxel[seedless]]))

    # every seed claims itself, so slot[claim] numbers the clusters in seed order
    slot = np.empty(n_vox, dtype=np.int64)
    passes, converged = 0, False
    while passes < config.max_iterations and not converged:
        passes += 1
        _, _, claim = dijkstra(links, directed=True, indices=seeds, min_only=True, return_predecessors=True)
        slot[seeds] = np.arange(len(seeds))
        cluster = slot[claim]
        centroid = _group_means(vox_centroid, cluster, len(seeds), counts)
        moved = _nearest_per_group(cluster, squared_norms(vox_centroid - np.take(centroid, cluster, axis=0)))
        converged = np.array_equal(moved, seeds)
        seeds = moved

    # number the clusters by their smallest voxel index, which is also their smallest key
    first_member = np.full(len(seeds), n_vox)
    np.minimum.at(first_member, cluster, np.arange(n_vox))
    n_sv = len(first_member)
    sv_of_voxel = np.argsort(np.argsort(first_member))[cluster]
    of_point = sv_of_voxel[point_voxel]
    # only links between two supervoxels make contacts; order the few that remain
    sv_a, sv_b = np.take(sv_of_voxel, a), np.take(sv_of_voxel, b)
    across = sv_a != sv_b
    sv_a, sv_b = sv_a[across], sv_b[across]
    touch = np.unique(np.minimum(sv_a, sv_b) * n_sv + np.maximum(sv_a, sv_b))
    return Supervoxels(
        of_point=of_point,
        centroids=_group_means(frame.points, of_point, n_sv),
        colors_lab=_group_means(lab_all, of_point, n_sv),
        point_counts=np.bincount(of_point, minlength=n_sv),
        contacts=np.column_stack(np.divmod(touch, n_sv)),
        passes=passes,
        converged=converged,
    )

