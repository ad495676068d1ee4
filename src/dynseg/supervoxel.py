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
seed-cell keys are grouped through one packed int64 code per key (a column
loop over per-axis ranks when the keys' box exceeds int64), the voxel links
are read from an index table over the keys' bounding box (with empty
stretches between far-apart keys closed first, and binary search over
sorted codes when the box is still too sparse), the symmetric link matrix
is built once per frame from int32 link ends listed in an order that needs
no sort, the link costs are summed a coordinate column at a time,
the voxel components are searched only when the first pass leaves a voxel
unclaimed, each pass renumbers its claims through a seed -> slot array, and
row lengths are summed by ``squared_norms`` rather than ``np.linalg.norm``,
with the same bytes.  Every grid key comes from ``grid_keys``, which rejects
a coordinate too far from the origin for int64 keys.

The module also answers the method's point queries with numpy alone: the
nearest rows of one small set to another (``nearest``) and the close pairs
within one (``pairs_closer_than``) by brute force over blocks of distances,
and the median nearest-neighbour spacing (``voxel_reach``) by a grid pass
capped at a radius.  Their distances are sqrt(squared_norms(q - r)), the
values a k-d tree query returns, bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .cloud_io import PointCloudFrame

COLOR_NORM = 100.0  # Lab distance scale in the growth metric
# reach 2 once the median nearest-neighbour spacing is this many voxels; the
# synthetic kinds read 0.40-0.74 at voxel 0.02 and 1.00-1.85 at voxel 0.008
REACH_2_SPACING = 0.875
# the voxel-neighbour index table may hold this many int32 cells per voxel;
# the benchmark workloads' padded bounding boxes read 4-45 cells per voxel
TABLE_CELLS_PER_VOXEL = 64
# entries of one block of the brute-force distance queries
DISTANCE_BLOCK = 1 << 16
# candidate point pairs voxel_reach expands at once, so dense clouds stay small
REACH_BATCH = 1 << 13
# the grids key coordinates below this many voxels from the origin: the
# finest grid, voxel_reach's, has cells a little wider than REACH_2_SPACING
# voxels, so every key fits in int64
KEY_RANGE_VOXELS = 2.0**63 * REACH_2_SPACING

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
        """Raise ValueError naming the first ``supervoxel.*`` key whose value is out of range."""
        for name in ("voxel_resolution", "seed_resolution"):
            if not getattr(self, name) > 0:
                raise ValueError(f"supervoxel.{name} must be > 0")
        if self.seed_resolution < self.voxel_resolution:
            raise ValueError("supervoxel.seed_resolution must be >= supervoxel.voxel_resolution")
        for name in ("weight_color", "weight_spatial"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"supervoxel.{name} must be >= 0")
        if self.max_iterations < 1:
            raise ValueError("supervoxel.max_iterations must be >= 1")


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


def grid_keys(points: np.ndarray, cell: float, voxel: float) -> np.ndarray:
    """floor(points / cell) as int64 keys of a grid whose voxels are ``voxel`` wide.

    Raises ValueError naming the first coordinate KEY_RANGE_VOXELS voxels or
    more from the origin, which the grids cannot key.
    """
    far = ~(np.abs(points) < KEY_RANGE_VOXELS * voxel)
    if far.any():
        raise ValueError(
            f"coordinate {float(points[far][0])!r} lies {KEY_RANGE_VOXELS:.3g} voxels of {voxel!r} or more"
            " from the origin, beyond what the voxel grid can key"
        )
    return np.floor(points / cell).astype(np.int64)


def _lex_rank(rows: np.ndarray) -> np.ndarray:
    """Dense rank of each (n, k) integer row in lexicographic row order.

    When the rows' bounding box has at most 2**63 cells, each row's offset
    into it, read in row-major order, is one int64 code that sorts like the
    row, and one ``np.unique`` ranks the codes.  A larger box is ranked a
    column at a time: the rank of the leading columns and the next column's
    rank combine into one code below n**2, so no key value can overflow
    int64.
    """
    if not len(rows):
        return np.zeros(0, dtype=np.int64)
    low, sizes = _padded_box(rows, 0)
    if math.prod(sizes) <= 2**63:
        code = np.zeros(len(rows), dtype=np.int64)
        for column, lo, size in zip(rows.T, low, sizes):
            code = code * size + (column - lo)
        return np.unique(code, return_inverse=True)[1]
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
    keys = grid_keys(frame.points, resolution, resolution)
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


def _padded_box(keys: np.ndarray, reach: int) -> tuple[np.ndarray, list[int]]:
    """Low corner and per-axis sizes of the keys' bounding box padded by ``reach``.

    The sizes are Python ints: the extent of far-apart keys need not fit in int64.
    """
    # reducing each contiguous column is several times faster than reducing over axis 0
    columns = np.ascontiguousarray(keys.T)
    low = columns.min(axis=1)
    return low, [int(hi) - int(lo) + 1 + 2 * reach for lo, hi in zip(low, columns.max(axis=1))]


def _too_sparse(dims: list[int], n: int) -> bool:
    return dims[0] * dims[1] * dims[2] > TABLE_CELLS_PER_VOXEL * n


def _close_gaps(keys: np.ndarray, reach: int) -> np.ndarray:
    """``keys`` with each gap wider than ``reach`` between successive values of an axis closed to ``reach + 1``.

    Keys within Chebyshev ``reach`` of each other stay so, and no others come within it.
    """
    closed = np.empty_like(keys)
    for axis in range(3):
        values, rank = np.unique(keys[:, axis], return_inverse=True)
        # a gap between keys of opposite sign may exceed int64; it is exact as uint64
        gaps = np.minimum(np.diff(values).view(np.uint64), reach + 1).astype(np.int64)
        closed[:, axis] = np.concatenate([[0], np.cumsum(gaps)])[rank]
    return closed


def _table_pairs(keys: np.ndarray, reach: int, low: np.ndarray, dims: list[int]) -> tuple[list, list]:
    """Rows and partner rows of each half-stencil offset, looked up in an index table over the padded box."""
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    cell = (keys - low + reach) @ strides
    table = np.full(dims[0] * dims[1] * dims[2], -1, dtype=np.int32)
    table[cell] = np.arange(len(keys))
    rows, found = [], []
    for step in _half_stencil(reach) @ strides:
        hit = table[cell + step]
        (row,) = np.nonzero(hit >= 0)
        rows.append(row)
        found.append(hit[row])
    return rows, found


def _sorted_code_pairs(keys: np.ndarray, reach: int, low: np.ndarray, dims: list[int]) -> tuple[list, list]:
    """Rows and partner rows of each half-stencil offset, found by binary search over sorted codes.

    A key's code is the dense rank of its (x, y) pair times the padded depth,
    plus its padded z, so no code exceeds n times the depth.  ``keys`` have
    their gaps closed, so the (x, y) pair codes fit in int64 too.
    """
    n = len(keys)
    padded = keys - low + reach
    xy = padded[:, 0] * dims[1] + padded[:, 1]
    xy_values, xy_rank = np.unique(xy, return_inverse=True)
    code = xy_rank * dims[2] + padded[:, 2]
    order = np.argsort(code)
    sorted_code = code[order]
    rows, found = [], []
    for dx, dy, dz in _half_stencil(reach):
        target = xy + (dx * dims[1] + dy)
        at = np.minimum(np.searchsorted(xy_values, target), len(xy_values) - 1)
        target_code = at * dims[2] + padded[:, 2] + dz
        pos = np.minimum(np.searchsorted(sorted_code, target_code), n - 1)
        (row,) = np.nonzero((xy_values[at] == target) & (sorted_code[pos] == target_code))
        rows.append(row)
        found.append(order[pos[row]])
    return rows, found


def voxel_neighbour_pairs(keys: np.ndarray, reach: int = 1) -> np.ndarray:
    """(m, 2) row pairs ``i < j`` of ``keys`` within Chebyshev distance ``reach`` (1: 26-adjacent).

    The pairs come one half-stencil offset at a time, in lexicographic
    offset order, and by ascending row within an offset; for keys in
    lexicographic order each pair is (row, partner).

    Each half-stencil offset is looked up in an index table over the keys'
    bounding box, padded by the reach.  A box with more than
    TABLE_CELLS_PER_VOXEL cells per key first has its gaps closed
    (``_close_gaps``), which removes the empty space between keys that stand
    apart; a box still too sparse is searched through sorted codes.
    """
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
    n = len(keys)
    if n == 0:
        return np.zeros((0, 2), dtype=np.int64)
    low, dims = _padded_box(keys, reach)
    lookup = _table_pairs
    if _too_sparse(dims, n):
        keys = _close_gaps(keys, reach)
        low, dims = _padded_box(keys, reach)
        if _too_sparse(dims, n):
            lookup = _sorted_code_pairs
    rows, found = lookup(keys, reach, low, dims)
    rows, found = np.concatenate(rows), np.concatenate(found)
    return np.column_stack([np.minimum(rows, found), np.maximum(rows, found)])


def _capped_nearest(points: np.ndarray, cap: float, voxel: float) -> np.ndarray:
    """Distance from each point to its nearest other point, or inf where that exceeds ``cap``.

    Points are binned in cells a little wider than ``cap``, so every pair
    within it lies in one cell or two 26-adjacent ones.  The candidate pairs
    of those cells are expanded REACH_BATCH at a time.
    """
    near = np.full(len(points), np.inf)
    if not len(points):
        return near
    cell_keys = grid_keys(points, cap * 1.001, voxel)
    cell = _lex_rank(cell_keys)
    size = np.bincount(cell)
    keys = np.empty((len(size), 3), dtype=np.int64)
    keys[cell] = cell_keys
    members = np.argsort(cell, kind="stable")
    first = np.cumsum(size) - size
    # each cell with itself, then each 26-adjacent pair of cells
    links = voxel_neighbour_pairs(keys, 1)
    a = np.concatenate([np.arange(len(size)), links[:, 0]])
    b = np.concatenate([np.arange(len(size)), links[:, 1]])
    count = size[a] * size[b]
    end = np.cumsum(count)
    for lo in range(0, int(end[-1]), REACH_BATCH):
        candidate = np.arange(lo, min(lo + REACH_BATCH, int(end[-1])))
        link = np.searchsorted(end, candidate, side="right")
        u, v = np.divmod(candidate - (end[link] - count[link]), size[b[link]])
        keep = (a[link] != b[link]) | (u < v)
        i = members[first[a[link]] + u][keep]
        j = members[first[b[link]] + v][keep]
        d = np.sqrt(squared_norms(points[i] - points[j]))
        close = d <= cap
        np.minimum.at(near, i[close], d[close])
        np.minimum.at(near, j[close], d[close])
    return near


def voxel_reach(points: np.ndarray, voxel_resolution: float) -> int:
    """Voxel-neighbour reach: 2 when the median nearest-neighbour spacing is
    at least REACH_2_SPACING voxels, else 1.  26-adjacency (reach 1) assumes a
    cloud as dense as the voxel grid and splits sparser ones into islands.

    The spacings are capped at that threshold t.  When the lower middle one
    is capped, the median exceeds t; else a finite capped median is the true
    one.  An infinite one is taken again capped at 2t; if that too is
    infinite, the upper middle spacing exceeds 2t, so the median exceeds t.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    threshold = REACH_2_SPACING * voxel_resolution
    near = _capped_nearest(points, threshold, voxel_resolution)
    if np.count_nonzero(near <= threshold) <= (len(near) - 1) // 2:
        return 2
    spacing = np.median(near)
    if np.isinf(spacing):
        spacing = np.median(_capped_nearest(points, 2 * threshold, voxel_resolution))
    return 2 if spacing >= threshold else 1


def squared_norms(d: np.ndarray) -> np.ndarray:
    """Squared length of each (m, 3) row, summed as (x^2 + y^2) + z^2.

    That is the order in which ``np.sum(d ** 2, axis=1)`` and
    ``np.linalg.norm(d, axis=1)`` add up a row of three, so the results are
    bit for bit theirs, without the reduction's per-call overhead.
    """
    return (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]


def _distance_blocks(query: np.ndarray, ref: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Squared distances from runs of ``query`` rows to every ``ref`` row, about DISTANCE_BLOCK entries a block.

    Yields (rows, d2) with d2[q, r] = squared_norms(query[rows][q] - ref[r]).
    """
    step = max(1, DISTANCE_BLOCK // max(len(ref), 1))
    for start in range(0, len(query), step):
        q = query[start : start + step]
        d2 = squared_norms((q[:, None, :] - ref[None, :, :]).reshape(-1, 3))
        yield slice(start, start + len(q)), d2.reshape(len(q), len(ref))


def nearest(query: np.ndarray, ref: np.ndarray, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(distances, rows), each (len(query), k): the ``k`` rows of ``ref`` nearest each query row.

    Nearest first, ties to the lower row; ``k`` is at most len(ref).
    """
    dist = np.empty((len(query), k))
    row = np.empty((len(query), k), dtype=np.int64)
    for rows, d2 in _distance_blocks(query, ref):
        order = d2.argmin(axis=1)[:, None] if k == 1 else np.argsort(d2, axis=1, kind="stable")[:, :k]
        row[rows] = order
        dist[rows] = np.sqrt(np.take_along_axis(d2, order, axis=1))
    return dist, row


def pairs_closer_than(points: np.ndarray, radius: float) -> np.ndarray:
    """(m, 2) row pairs ``i < j`` of ``points`` whose distance is below ``radius``, in row order."""
    pairs = [np.zeros((0, 2), dtype=np.int64)]
    for rows, d2 in _distance_blocks(points, points):
        i, j = np.nonzero(np.sqrt(d2) < radius)
        i += rows.start
        pairs.append(np.column_stack([i, j])[i < j])
    return np.concatenate(pairs)


def _squared_gaps(values: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """squared_norms(values[a] - values[b]) summed one column at a time, with the same bytes.

    The columns add in squared_norms' order, (x^2 + y^2) + z^2, and no (m, 3)
    gather is made.
    """
    total = np.zeros(len(a))
    for column in values.T:
        d = np.take(column, a)
        d -= np.take(column, b)
        d *= d
        total += d
    return total


def _link_costs(centroids: np.ndarray, labs: np.ndarray, a: np.ndarray, b: np.ndarray, config: SupervoxelConfig) -> np.ndarray:
    """Growth metric D of each link between voxel rows ``a`` and ``b``."""
    ds = np.sqrt(_squared_gaps(centroids, a, b))
    dc = np.sqrt(_squared_gaps(labs, a, b))
    return np.sqrt(
        config.weight_color * (dc / COLOR_NORM) ** 2
        + config.weight_spatial * (ds / config.seed_resolution) ** 2
    )


def _link_graph(
    keys: np.ndarray, reach: int, centroids: np.ndarray, labs: np.ndarray, config: SupervoxelConfig
) -> tuple[csr_matrix, np.ndarray, np.ndarray]:
    """The symmetric link matrix of the voxels within ``reach``, weighted by ``_link_costs``, and its links' ends a < b.

    Symmetric, so every growth pass runs a directed Dijkstra with no
    transpose.  The pairs come one half-stencil offset at a time, in offset
    order, rows ascending, each partner after its row; so with every link's
    upper end listed first, in reverse pair order, scipy's stable bucketing by
    row leaves each row's columns ascending, and the CSR needs no sort.  The
    ends are int32, the index width of scipy's CSR; ``a`` and ``b`` are the
    second half of the matrix's own row and column inputs, and the int64
    pairs and the costs are freed before the matrix is built.
    """
    pairs = voxel_neighbour_pairs(keys, reach)
    m, n = len(pairs), len(keys)
    ends = np.empty((2, 2 * m), dtype=np.int32)
    ends[:, m:] = pairs.T
    del pairs
    rows, cols = ends
    a, b = rows[m:], cols[m:]
    rows[:m], cols[:m] = b[::-1], a[::-1]
    cost = _link_costs(centroids, labs, a, b, config)
    weights = np.concatenate([cost[::-1], cost])
    del cost
    return csr_matrix((weights, (rows, cols)), shape=(n, n)), a, b


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

    links, a, b = _link_graph(keys, reach, vox_centroid, vox_lab, config)

    cell_keys = grid_keys(vox_centroid, config.seed_resolution, config.voxel_resolution)
    centers = (cell_keys + 0.5) * config.seed_resolution
    seeds = _nearest_per_group(_lex_rank(cell_keys), squared_norms(vox_centroid - centers))

    # every seed claims itself, so slot[claim] numbers the clusters in seed order
    slot = np.empty(n_vox, dtype=np.int64)
    passes, converged = 0, False
    while passes < config.max_iterations and not converged:
        passes += 1
        _, _, claim = dijkstra(links, directed=True, indices=seeds, min_only=True, return_predecessors=True)
        unclaimed = claim < 0
        if unclaimed.any():
            # a voxel component holds no grid seed, which only the first pass
            # can find: its smallest voxel becomes its one seed and claims all
            # of it.  links is symmetric, so its strong components are its
            # components.
            _, component = connected_components(links, directed=True, connection="strong")
            _, first_voxel = np.unique(component, return_index=True)
            claim[unclaimed] = first_voxel[component[unclaimed]]
            seeds = np.union1d(seeds, claim[unclaimed])
        slot[seeds] = np.arange(len(seeds))
        cluster = slot[claim]
        centroid = _group_means(vox_centroid, cluster, len(seeds), counts)
        moved = _nearest_per_group(cluster, squared_norms(vox_centroid - np.take(centroid, cluster, axis=0)))
        converged = np.array_equal(moved, seeds)
        seeds = moved

    del links  # the contacts need only the link ends
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

