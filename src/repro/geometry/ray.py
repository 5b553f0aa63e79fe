"""Rays, ray/box intersection and voxel traversal.

Two of RoboRun's precision operators are ray-caster step-size controls: the
OctoMap insertion ray caster and the planner's collision ray caster both have
their step size scaled with the requested precision (§III-B, "Precision
Operators").  This module provides the underlying machinery:

* :func:`ray_aabb_intersect` — slab-test intersection used for obstacle and
  frustum clipping.
* :func:`traverse_voxels` — exact Amanatides–Woo voxel walking, the
  "infinitely fine" reference traversal.
* :func:`sample_ray` — fixed-step sampling along a ray, whose step size is the
  knob the precision operators turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.geometry.aabb import AABB
from repro.geometry.grid import VoxelKey, voxel_key
from repro.geometry.vec3 import Vec3

_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class Ray:
    """A half-line defined by an origin and a (not necessarily unit) direction."""

    origin: Vec3
    direction: Vec3

    def __post_init__(self) -> None:
        if self.direction.norm_sq() <= _EPS:
            raise ValueError("ray direction must be non-zero")

    def point_at(self, t: float) -> Vec3:
        """The point ``origin + t * direction``."""
        return self.origin + self.direction * t

    def unit(self) -> "Ray":
        """Return a copy with a unit-length direction."""
        return Ray(self.origin, self.direction.normalized())

    @staticmethod
    def between(start: Vec3, end: Vec3) -> "Ray":
        """Ray from ``start`` towards ``end`` (t=1 lands exactly on ``end``)."""
        return Ray(start, end - start)


def ray_aabb_intersect(ray: Ray, box: AABB) -> Optional[Tuple[float, float]]:
    """Slab-test ray/box intersection.

    Returns:
        ``(t_enter, t_exit)`` such that ``ray.point_at(t)`` lies inside the
        box for ``t_enter <= t <= t_exit`` and ``t_exit >= 0``, or ``None``
        when the ray misses the box entirely or the box lies behind the
        origin.
    """
    t_min = -math.inf
    t_max = math.inf
    for axis in range(3):
        o = ray.origin[axis]
        d = ray.direction[axis]
        lo = box.min_corner[axis]
        hi = box.max_corner[axis]
        if abs(d) < _EPS:
            if o < lo or o > hi:
                return None
            continue
        t1 = (lo - o) / d
        t2 = (hi - o) / d
        if t1 > t2:
            t1, t2 = t2, t1
        t_min = max(t_min, t1)
        t_max = min(t_max, t2)
        if t_min > t_max:
            return None
    if t_max < 0:
        return None
    return (t_min, t_max)


def fan_side_planes(directions: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Unit inward normals of the side planes bounding a fan of rays.

    Each plane passes through the shared origin and two consecutive corner
    rays, so a rectangular fan has four.  A side that collapses (a fan one
    pixel wide or tall repeats its corner rays) has no plane and is dropped.

    Args:
        directions: ``(R, 3)`` every ray of the fan.
        corners: ``(4, 3)`` the fan's corner rays in winding order.

    Returns:
        ``(P, 3)`` normals, ``P <= 4``, with ``n . d >= -1e-12`` for every
        ray ``d`` of the fan (asserted).
    """
    normals = np.cross(corners, np.roll(corners, -1, axis=0))
    lengths = np.linalg.norm(normals, axis=1)
    keep = lengths > _EPS
    normals = normals[keep] / lengths[keep, None]
    # The winding fixes one orientation for all four sides; point them at
    # the fan's mean ray.  Elementwise products, not matmul: the first BLAS
    # call would grow every campaign worker's RSS by its buffers.
    if (normals * directions.sum(axis=0)).sum() < 0.0:
        normals = -normals
    heights = (directions[:, None, :] * normals[None, :, :]).sum(axis=2)
    assert (heights >= -_EPS).all(), "fan ray outside its planes"
    return normals


def has_parallel_component(directions: np.ndarray) -> bool:
    """True when some ray runs parallel to an axis (a component under eps)."""
    return bool((np.abs(directions) < _EPS).any())


#: Relative outward slack of :func:`boxes_in_fan`: a box is dropped only
#: when it clears the range or a side plane by ``_CULL_SLACK * (1 +
#: max_range)`` metres, far more than the rounding of the slab test and of
#: the fan's planes, far less than any obstacle.
_CULL_SLACK = 1e-6


def boxes_in_fan(
    origin: Vec3,
    box_lo: np.ndarray,
    box_hi: np.ndarray,
    max_range: float,
    side_planes: np.ndarray,
) -> np.ndarray:
    """Mask of the boxes a fan of unit rays can hit within ``max_range``.

    A box is dropped when its surface lies farther than ``max_range`` from
    the origin or wholly outside one of the fan's side planes.  The cull is
    exact for :func:`raycast_aabbs_batch`: a ray that hits a box at ``t``
    reaches a box point ``t`` metres from the origin on the inner side of
    every plane, so a dropped box could only have produced an entry beyond
    ``max_range`` (reported ``inf`` anyway) or none.  Removing it leaves
    every per-ray minimum, and so every depth, bit-identical.

    Args:
        origin: the fan's shared ray origin.
        box_lo: ``(O, 3)`` float64 minimum corners.
        box_hi: ``(O, 3)`` float64 maximum corners.
        max_range: the fan's sensing range, metres.
        side_planes: ``(P, 3)`` unit normals through the origin with every
            ray on their inner side (:func:`fan_side_planes`).

    Returns:
        ``(O,)`` bool array, True for the boxes to keep.
    """
    o = np.array((origin.x, origin.y, origin.z), dtype=np.float64)
    lo_rel = box_lo - o
    hi_rel = box_hi - o
    slack = _CULL_SLACK * (1.0 + max_range)
    reach = max_range + slack
    gap = np.maximum(np.maximum(lo_rel, -hi_rel), 0.0)  # origin-to-box, per axis
    keep = (gap * gap).sum(axis=1) <= reach * reach
    if side_planes.shape[0]:
        n = side_planes[None, :, :]  # (1, P, 3)
        # Height of each box's farthest point above each plane.
        height = np.maximum(lo_rel[:, None, :] * n, hi_rel[:, None, :] * n)
        keep &= (height.sum(axis=2) >= -slack).all(axis=1)
    return keep


def raycast_aabbs_batch(
    origin: Vec3,
    directions: np.ndarray,
    box_lo: np.ndarray,
    box_hi: np.ndarray,
    max_range: float,
    parallel: bool = True,
) -> np.ndarray:
    """Nearest entry distance per ray against a stack of boxes, batched.

    The vectorised twin of looping :func:`ray_aabb_intersect` over obstacles
    per ray (the depth camera's inner loop): one slab test over every
    ``(R rays, O boxes)`` pair, axis by axis.  Elementwise arithmetic
    reproduces the scalar routine operation for operation, so the returned
    depths are bit-identical to the scalar loop's.

    Args:
        origin: shared ray origin (one sensor pose).
        directions: ``(R, 3)`` float64 ray directions (need not be unit).
        box_lo: ``(O, 3)`` float64 minimum corners.
        box_hi: ``(O, 3)`` float64 maximum corners.
        max_range: depths beyond this report ``inf`` (nothing sensed).
        parallel: ``False`` promises no direction component is under eps
            (:func:`has_parallel_component`), skipping the parallel-axis
            fix-ups that would then change nothing.

    Returns:
        ``(R,)`` float64 array: ``max(t_enter, 0)`` of the closest box hit
        with ``t_exit >= 0``, or ``inf`` when no box is hit within range.
    """
    rays = np.asarray(directions, dtype=np.float64)
    if len(box_lo) == 0:
        return np.full(rays.shape[0], math.inf)
    o = np.array((origin.x, origin.y, origin.z), dtype=np.float64)
    lo_rel = np.asarray(box_lo, dtype=np.float64) - o  # (O, 3)
    hi_rel = np.asarray(box_hi, dtype=np.float64) - o

    # One (R, O) slab per axis.  Where the scalar test keeps the first of two
    # equal values (no swap when t1 == t2; running max/min that replace only
    # on a strict improvement; the first nearest box), np.where makes the
    # same choice, so even the sign of a zero depth matches.
    t_enter = t_exit = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for axis in range(3):
            d = rays[:, axis, None]  # (R, 1)
            lo_k = lo_rel[:, axis]  # (O,)
            hi_k = hi_rel[:, axis]
            t1 = lo_k / d
            t2 = hi_k / d
            swap = t1 > t2
            near = np.where(swap, t2, t1)
            far = np.where(swap, t1, t2)
            # Axes the ray runs parallel to contribute no constraint when the
            # origin lies inside the slab and an immediate miss otherwise —
            # the same two branches the scalar test takes for abs(d) < eps.
            if parallel:
                axis_parallel = np.abs(d) < _EPS
                inside = (lo_k <= 0.0) & (hi_k >= 0.0)  # origin within the slab
                near = np.where(axis_parallel, np.where(inside, -np.inf, np.inf), near)
                far = np.where(axis_parallel, np.where(inside, np.inf, -np.inf), far)
            if t_enter is None:
                t_enter, t_exit = near, far
            else:
                t_enter = np.where(near > t_enter, near, t_enter)
                t_exit = np.where(far < t_exit, far, t_exit)
    hit = (t_enter <= t_exit) & (t_exit >= 0.0)
    entry = np.where(hit, np.where(t_enter < 0.0, 0.0, t_enter), np.inf)
    nearest = np.take_along_axis(entry, entry.argmin(axis=1)[:, None], axis=1)[:, 0]
    return np.where(nearest > max_range, np.inf, nearest)


def segment_intersects_aabb(start: Vec3, end: Vec3, box: AABB) -> bool:
    """True when the straight segment from ``start`` to ``end`` enters the box."""
    if box.contains(start) or box.contains(end):
        return True
    direction = end - start
    if direction.norm_sq() <= _EPS:
        return box.contains(start)
    hit = ray_aabb_intersect(Ray(start, direction), box)
    if hit is None:
        return False
    t_enter, t_exit = hit
    return t_enter <= 1.0 and t_exit >= 0.0


def traverse_voxels(
    start: Vec3,
    end: Vec3,
    resolution: float,
    max_voxels: Optional[int] = None,
) -> Iterator[VoxelKey]:
    """Amanatides–Woo traversal of the voxels between two points.

    Yields every voxel the segment passes through, beginning with the voxel
    containing ``start`` and ending with the voxel containing ``end``.  This
    is the exact traversal used as the reference (highest precision) ray cast
    by the OctoMap insertion and the collision checker.

    Args:
        start: segment start point.
        end: segment end point.
        resolution: voxel edge length in metres.
        max_voxels: optional safety cap on the number of voxels yielded.
    """
    if resolution <= 0:
        raise ValueError("voxel resolution must be positive")

    current = list(voxel_key(start, resolution))
    last = voxel_key(end, resolution)
    direction = end - start
    length = direction.norm()

    yield tuple(current)  # type: ignore[misc]
    if tuple(current) == last or length <= _EPS:
        return

    step = [0, 0, 0]
    t_max = [math.inf, math.inf, math.inf]
    t_delta = [math.inf, math.inf, math.inf]
    for axis in range(3):
        d = direction[axis]
        if d > _EPS:
            step[axis] = 1
            boundary = (current[axis] + 1) * resolution
            t_max[axis] = (boundary - start[axis]) / d
            t_delta[axis] = resolution / d
        elif d < -_EPS:
            step[axis] = -1
            boundary = current[axis] * resolution
            t_max[axis] = (boundary - start[axis]) / d
            t_delta[axis] = -resolution / d

    count = 1
    # Traverse until we reach the end voxel or pass t = 1 (the end point).
    while True:
        axis = t_max.index(min(t_max))
        if t_max[axis] > 1.0 + _EPS:
            return
        current[axis] += step[axis]
        t_max[axis] += t_delta[axis]
        key = (current[0], current[1], current[2])
        yield key
        count += 1
        if key == last:
            return
        if max_voxels is not None and count >= max_voxels:
            return


def sample_ray(start: Vec3, end: Vec3, step: float) -> List[Vec3]:
    """Sample points along a segment at a fixed step, always including the end.

    This is the approximate ray cast whose ``step`` is controlled by the
    OctoMap and planning precision operators: a larger step visits fewer
    sample points (cheaper, coarser) while a smaller step approaches the
    exact traversal.
    """
    if step <= 0:
        raise ValueError("sampling step must be positive")
    direction = end - start
    length = direction.norm()
    if length <= _EPS:
        return [start]
    unit = direction / length
    points: List[Vec3] = []
    t = 0.0
    while t < length:
        points.append(start + unit * t)
        t += step
    points.append(end)
    return points
