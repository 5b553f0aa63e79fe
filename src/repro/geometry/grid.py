"""Uniform voxel grids and voxel indexing.

The paper's point-cloud precision operator works by "gridding the space into
cells, mapping the points onto the cells using their coordinates, and then
reducing each cell to a single average point" (§III-B).  ``VoxelGrid``
implements exactly that bucketing, and ``voxel_key`` is the shared
world-coordinate → integer-cell mapping used by the grid, the octree ray
caster and the collision checker so that all of them agree on voxel
boundaries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.geometry.aabb import AABB
from repro.geometry.vec3 import Vec3

VoxelKey = Tuple[int, int, int]

# Packed-key encoding: one int64 per (i, j, k) voxel key.  Components are
# shifted by _PACK_OFF and mixed in base _PACK_BASE, supporting |i| < 2**19
# (±100 km at 0.2 m voxels) without overflowing the 63-bit positive range.
_PACK_OFF = 1 << 19
_PACK_BASE = 1 << 20


def pack_keys(ijk: np.ndarray) -> np.ndarray:
    """Encode an ``(N, 3)`` int voxel-key array into ``(N,)`` int64 scalars."""
    ijk = np.asarray(ijk, dtype=np.int64)
    return (
        (ijk[..., 0] + _PACK_OFF) * _PACK_BASE + (ijk[..., 1] + _PACK_OFF)
    ) * _PACK_BASE + (ijk[..., 2] + _PACK_OFF)


def key_array(keys: Sequence[VoxelKey]) -> np.ndarray:
    """A list of voxel keys as an ``(N, 3)`` int64 array (one C-level pass)."""
    flat = itertools.chain.from_iterable(keys)
    return np.fromiter(flat, dtype=np.int64, count=3 * len(keys)).reshape(-1, 3)


def first_occurrence_groups(packed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group equal packed keys, numbering groups by first appearance.

    Returns ``(first, group)``: ``first[g]`` is the index of the first
    element of group ``g`` and ``group[n]`` the group of element ``n``, with
    groups numbered in the order their first element appears — the order a
    dict keyed by these values would hold after inserting them one by one.
    """
    _, first, inverse = np.unique(packed, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse.reshape(-1)]


def voxel_key(point: Vec3, resolution: float) -> VoxelKey:
    """Map a world-space point to the integer index of its containing voxel.

    Voxel ``(i, j, k)`` spans ``[i*res, (i+1)*res)`` along each axis, so the
    voxel centre is at ``(i + 0.5) * res``.

    Args:
        point: world-space coordinates in metres.
        resolution: voxel edge length in metres; must be positive.
    """
    if resolution <= 0:
        raise ValueError("voxel resolution must be positive")
    return (
        int(math.floor(point.x / resolution)),
        int(math.floor(point.y / resolution)),
        int(math.floor(point.z / resolution)),
    )


def voxel_center(key: VoxelKey, resolution: float) -> Vec3:
    """Return the world-space centre of the voxel with the given index."""
    return Vec3(
        (key[0] + 0.5) * resolution,
        (key[1] + 0.5) * resolution,
        (key[2] + 0.5) * resolution,
    )


def voxel_bounds(key: VoxelKey, resolution: float) -> AABB:
    """Return the AABB spanned by the voxel with the given index."""
    lo = Vec3(key[0] * resolution, key[1] * resolution, key[2] * resolution)
    hi = lo + Vec3(resolution, resolution, resolution)
    return AABB(lo, hi)


@dataclass
class _CellAccumulator:
    """Running sum used to average the points that fall in one grid cell."""

    count: int = 0
    sum_x: float = 0.0
    sum_y: float = 0.0
    sum_z: float = 0.0

    def add(self, point: Vec3) -> None:
        self.count += 1
        self.sum_x += point.x
        self.sum_y += point.y
        self.sum_z += point.z

    def mean(self) -> Vec3:
        return Vec3(self.sum_x / self.count, self.sum_y / self.count, self.sum_z / self.count)


@dataclass
class VoxelGrid:
    """A sparse uniform grid that buckets points by voxel.

    This is the data structure behind the point-cloud precision operator:
    points inserted into the grid are grouped by cell and each occupied cell
    can be reduced to its average point.  The grid is sparse (a dictionary
    keyed by voxel index), so memory scales with the number of occupied cells
    rather than the bounding volume.
    """

    resolution: float
    _cells: Dict[VoxelKey, _CellAccumulator] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.resolution <= 0:
            raise ValueError("voxel resolution must be positive")

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, point: Vec3) -> VoxelKey:
        """Insert a point, returning the key of the cell it landed in."""
        key = voxel_key(point, self.resolution)
        cell = self._cells.get(key)
        if cell is None:
            cell = _CellAccumulator()
            self._cells[key] = cell
        cell.add(point)
        return key

    def insert_many(self, points: Iterable[Vec3]) -> None:
        """Insert every point in the iterable."""
        for p in points:
            self.insert(p)

    def clear(self) -> None:
        """Remove every cell."""
        self._cells.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, key: VoxelKey) -> bool:
        return key in self._cells

    def occupied_keys(self) -> Iterator[VoxelKey]:
        """Iterate over the indices of occupied cells."""
        return iter(self._cells.keys())

    def count_in_cell(self, key: VoxelKey) -> int:
        """Number of points inserted into the given cell (0 if empty)."""
        cell = self._cells.get(key)
        return cell.count if cell else 0

    def total_points(self) -> int:
        """Total number of points inserted across all cells."""
        return sum(cell.count for cell in self._cells.values())

    def averaged_points(self) -> List[Vec3]:
        """Reduce every occupied cell to its average point.

        This is the core of the point-cloud precision operator: the output
        has at most one point per ``resolution``-sized cell, so the downstream
        OctoMap insertion cost scales with the requested precision rather than
        the raw sensor density.
        """
        return [cell.mean() for cell in self._cells.values()]

    def occupied_volume(self) -> float:
        """Total volume (m^3) of occupied cells."""
        return len(self._cells) * self.resolution**3

    def bounds(self) -> AABB:
        """The tight AABB of occupied voxels.

        Raises:
            ValueError: when the grid is empty.
        """
        if not self._cells:
            raise ValueError("bounds of an empty grid are undefined")
        keys = list(self._cells.keys())
        lo_key = (
            min(k[0] for k in keys),
            min(k[1] for k in keys),
            min(k[2] for k in keys),
        )
        hi_key = (
            max(k[0] for k in keys),
            max(k[1] for k in keys),
            max(k[2] for k in keys),
        )
        lo = Vec3(
            lo_key[0] * self.resolution,
            lo_key[1] * self.resolution,
            lo_key[2] * self.resolution,
        )
        hi = Vec3(
            (hi_key[0] + 1) * self.resolution,
            (hi_key[1] + 1) * self.resolution,
            (hi_key[2] + 1) * self.resolution,
        )
        return AABB(lo, hi)


def downsample_points(points: Iterable[Vec3], resolution: float) -> List[Vec3]:
    """Grid-average downsampling of a point cloud at the given precision.

    Convenience wrapper used by the point-cloud precision operator: builds a
    temporary :class:`VoxelGrid`, inserts every point and returns the cell
    averages.
    """
    grid = VoxelGrid(resolution)
    grid.insert_many(points)
    return grid.averaged_points()


def downsample_array(points: np.ndarray, resolution: float) -> np.ndarray:
    """Array twin of :func:`downsample_points` over an ``(N, 3)`` float64 array.

    Cells come out in first-occurrence order, as the grid's dict holds them.
    Each cell's coordinate sums use :func:`np.bincount` with weights, which
    adds in input order starting from zero exactly as ``_CellAccumulator``
    does, and the mean divides by the same count, so every average is
    bit-identical to the scalar grid's.
    """
    if resolution <= 0:
        raise ValueError("voxel resolution must be positive")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        return pts
    first, group = first_occurrence_groups(
        pack_keys(np.floor(pts / resolution).astype(np.int64))
    )
    cells = first.size
    counts = np.bincount(group, minlength=cells)
    means = np.empty((cells, 3), dtype=np.float64)
    for axis in range(3):
        means[:, axis] = np.bincount(group, weights=pts[:, axis], minlength=cells) / counts
    return means
