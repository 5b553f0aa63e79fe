"""The point-cloud kernel.

"We use the Point cloud kernel to extract obstacle positions by converting
pixels to 3D coordinates" (§III-A).  The kernel consumes the depth images
captured by the camera rig and produces a :class:`PointCloud`.  Its precision
operator "is enforced by controlling the sampling distance between points. We
grid the space into cells, map the points onto the cells using their
coordinates, and then reduce each cell to a single average point" (§III-B) —
implemented here by :func:`~repro.geometry.grid.downsample_array`, the array
twin of :class:`~repro.geometry.grid.VoxelGrid`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import hotpath
from repro.geometry.aabb import AABB
from repro.geometry.grid import downsample_array, downsample_points
from repro.geometry.vec3 import Vec3, centroid
from repro.sensors.rig import RigScan


class PointCloud:
    """A set of 3-D obstacle points measured from a single drone pose.

    The points are held as one ``(N, 3)`` float64 array; ``Vec3`` points are
    built only when a caller asks for :attr:`points`.

    Attributes:
        origin: the sensor position the points were observed from.
        raw_point_count: number of points before precision downsampling, used
            by the compute model to charge the fixed point-cloud conversion
            cost the paper reports (about 210 ms regardless of the knobs).
        resolution: the grid resolution the cloud was downsampled at, metres.
    """

    __slots__ = (
        "origin",
        "raw_point_count",
        "resolution",
        "_array",
        "_points",
        "_origin_distances",
    )

    def __init__(
        self,
        origin: Vec3,
        points: Union[np.ndarray, Sequence[Vec3]],
        raw_point_count: int,
        resolution: float,
    ) -> None:
        """``points`` is an ``(N, 3)`` array or a sequence of ``Vec3``."""
        self.origin = origin
        self.raw_point_count = raw_point_count
        self.resolution = resolution
        self._points: Optional[Tuple[Vec3, ...]] = None
        if isinstance(points, np.ndarray):
            self._array = np.ascontiguousarray(points, dtype=np.float64).reshape(-1, 3)
        else:
            self._points = tuple(points)
            self._array = np.array(
                [(p.x, p.y, p.z) for p in self._points], dtype=np.float64
            ).reshape(-1, 3)
        self._origin_distances: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self._array.shape[0]

    @property
    def points(self) -> Tuple[Vec3, ...]:
        """The points as ``Vec3`` objects (built on first access)."""
        if self._points is None:
            self._points = tuple(Vec3(x, y, z) for x, y, z in self._array.tolist())
        return self._points

    def is_empty(self) -> bool:
        """True when no obstacle points were observed."""
        return len(self) == 0

    def as_array(self) -> np.ndarray:
        """The points as a contiguous ``(N, 3)`` float64 array."""
        return self._array

    def origin_distances(self) -> np.ndarray:
        """Cached per-point distance to the sensor origin, ``(N,)`` float64.

        Computed with the same left-to-right summation order as
        ``Vec3.distance_to`` so every entry equals the scalar distance bit
        for bit.
        """
        distances = self._origin_distances
        if distances is None:
            d = self._array - np.array(
                (self.origin.x, self.origin.y, self.origin.z), dtype=np.float64
            )
            distances = np.sqrt(
                (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]
            )
            self._origin_distances = distances
        return distances

    def nearest_distance(self) -> float:
        """Distance from the origin to the closest observed point.

        Returns ``math.inf`` for an empty cloud, signalling "no visible
        obstacle" to the profilers.
        """
        if self.is_empty():
            return math.inf
        if hotpath.enabled():
            return float(self.origin_distances().min())
        return min(self.origin.distance_to(p) for p in self.points)

    def centroid(self) -> Optional[Vec3]:
        """Mean of the observed points, or ``None`` when empty."""
        if self.is_empty():
            return None
        return centroid(list(self.points))

    def points_within(self, radius: float) -> List[Vec3]:
        """Points within ``radius`` metres of the sensor origin."""
        return [p for p in self.points if self.origin.distance_to(p) <= radius]

    def array_within(self, radius: float) -> np.ndarray:
        """:meth:`points_within` as rows of the point array, order kept."""
        return self._array[self.origin_distances() <= radius]

    def bounding_volume(self) -> float:
        """Volume (m^3) of the axis-aligned box containing all points (0 when < 2 points)."""
        if len(self) < 2:
            return 0.0
        return AABB.from_points(list(self.points)).volume


@dataclass
class PointCloudKernel:
    """Converts rig scans into (optionally downsampled) point clouds.

    Attributes:
        default_resolution: grid resolution used when the runtime does not
            override precision, metres.  The static baseline keeps this at the
            worst-case 0.3 m from Table II.
    """

    default_resolution: float = 0.3

    def __post_init__(self) -> None:
        if self.default_resolution <= 0:
            raise ValueError("point-cloud resolution must be positive")

    def process(
        self,
        scan: RigScan,
        resolution: Optional[float] = None,
        max_points: Optional[int] = None,
    ) -> PointCloud:
        """Convert a rig scan into a point cloud at the requested precision.

        Args:
            scan: the merged depth images from the camera rig.
            resolution: grid cell edge used for the precision operator; when
                ``None`` the kernel's default (static) resolution is used.
            max_points: optional hard cap applied after downsampling, keeping
                the points closest to the sensor (a volume-style guard used
                in stress tests; the paper's volume operators act on the map
                instead).

        Returns:
            The downsampled point cloud.
        """
        res = self.default_resolution if resolution is None else resolution
        if res <= 0:
            raise ValueError("point-cloud resolution must be positive")
        if hotpath.enabled():
            raw = scan.hit_array()
            reduced = downsample_array(raw, res)
        else:
            raw = scan.all_hit_points()
            reduced = downsample_points(raw, res)
        cloud = PointCloud(
            origin=scan.position, points=reduced, raw_point_count=len(raw), resolution=res
        )
        if max_points is not None and len(cloud) > max_points:
            # A stable sort on the exact Vec3 distances: ties keep cell order.
            keep = np.argsort(cloud.origin_distances(), kind="stable")[:max_points]
            cloud = PointCloud(
                origin=scan.position,
                points=cloud.as_array()[keep],
                raw_point_count=len(raw),
                resolution=res,
            )
        return cloud

    @staticmethod
    def from_points(
        origin: Vec3, points: Sequence[Vec3], resolution: float
    ) -> PointCloud:
        """Build a cloud directly from points (used heavily by unit tests)."""
        raw = np.array([(p.x, p.y, p.z) for p in points], dtype=np.float64)
        return PointCloud(
            origin=origin,
            points=downsample_array(raw, resolution),
            raw_point_count=len(points),
            resolution=resolution,
        )
