"""The six-camera sensor rig.

The paper's quadrotor uses six cameras to observe its surroundings; the
baseline's knob table sizes the OctoMap volume "to allow the MAV to collect
all 6 camera data" (§IV).  The rig arranges six depth cameras at 60-degree
yaw increments for full horizontal coverage and merges their captures into a
single scan per decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.environment.world import World
from repro.geometry.vec3 import Vec3
from repro.sensors.depth_camera import DepthCamera, DepthImage


@dataclass(frozen=True, slots=True)
class RigScan:
    """The merged output of one capture from every camera on the rig."""

    position: Vec3
    images: tuple[DepthImage, ...]

    def all_hit_points(self) -> List[Vec3]:
        """World-space obstacle points across every camera."""
        points: List[Vec3] = []
        for image in self.images:
            points.extend(image.hit_points())
        return points

    def hit_array(self) -> np.ndarray:
        """:meth:`all_hit_points` as one ``(N, 3)`` float64 array."""
        if not self.images:
            return np.empty((0, 3), dtype=np.float64)
        return np.concatenate([image.hit_array() for image in self.images])

    def total_pixels(self) -> int:
        """Total rays cast across every camera in this scan."""
        return sum(img.width * img.height for img in self.images)

    def min_obstacle_distance(self) -> float:
        """Closest measured obstacle distance across every camera."""
        return min(image.min_depth() for image in self.images)

    def mean_visibility(self) -> float:
        """Average visibility over every camera (metres)."""
        if not self.images:
            return 0.0
        return sum(img.mean_visibility() for img in self.images) / len(self.images)

    def forward_visibility(self) -> float:
        """Visibility of the forward-facing camera (index 0)."""
        return self.images[0].mean_visibility() if self.images else 0.0

    def forward_min_depth(self) -> float:
        """Closest measured depth of the forward-facing camera.

        The conservative look-ahead estimate the deadline computation uses:
        the nearest thing in the direction of travel bounds how far the drone
        can safely commit to flying.
        """
        return self.images[0].min_depth() if self.images else 0.0


@dataclass
class CameraRig:
    """Six depth cameras mounted at evenly spaced yaw angles."""

    camera_count: int = 6
    horizontal_fov_deg: float = 90.0
    vertical_fov_deg: float = 60.0
    width: int = 16
    height: int = 12
    max_range: float = 40.0
    cameras: List[DepthCamera] = field(init=False)

    def __post_init__(self) -> None:
        if self.camera_count < 1:
            raise ValueError("the rig needs at least one camera")
        step = 360.0 / self.camera_count
        self.cameras = [
            DepthCamera(
                horizontal_fov_deg=self.horizontal_fov_deg,
                vertical_fov_deg=self.vertical_fov_deg,
                width=self.width,
                height=self.height,
                max_range=self.max_range,
                mount_yaw_deg=i * step,
            )
            for i in range(self.camera_count)
        ]

    def capture(self, world: World, position: Vec3, body_yaw_deg: float = 0.0) -> RigScan:
        """Capture one scan: every camera captures from the same pose.

        The broad-phase candidates are gathered once for the whole rig; each
        camera then casts only at the ones its fan can see.
        """
        boxes = world.obstacle_arrays_near(position, self.max_range)
        images = tuple(
            camera.capture(world, position, body_yaw_deg, boxes)
            for camera in self.cameras
        )
        return RigScan(position=position, images=images)

    def with_resolution(self, width: int, height: int) -> "CameraRig":
        """A rig identical to this one but capturing at a different resolution.

        The fault-injection layer uses this to model a degraded camera: same
        mounting, field of view and range, fewer pixels per frame.
        """
        return CameraRig(
            camera_count=self.camera_count,
            horizontal_fov_deg=self.horizontal_fov_deg,
            vertical_fov_deg=self.vertical_fov_deg,
            width=width,
            height=height,
            max_range=self.max_range,
        )

    def empty_scan(self, position: Vec3) -> RigScan:
        """The scan a lost frame produces: every camera reports zero pixels.

        Zero-pixel images keep every :class:`RigScan` aggregate well defined
        (no hit points, nominal visibility, ``max_range`` minimum depth)
        while charging no point-cloud conversion work.
        """
        images = tuple(
            DepthImage(
                origin=position,
                directions=(),
                depths=(),
                max_range=camera.max_range,
                width=0,
                height=0,
            )
            for camera in self.cameras
        )
        return RigScan(position=position, images=images)

    def total_pixels(self) -> int:
        """Rays cast per scan (the raw point-cloud size upper bound)."""
        return sum(cam.pixel_count() for cam in self.cameras)

    def max_sensor_volume(self) -> float:
        """Upper bound on the observable volume per scan (the paper's v_sensor)."""
        return sum(
            cam.frustum(Vec3.zero()).volume() for cam in self.cameras
        )
