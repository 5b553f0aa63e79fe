"""The depth camera's per-camera box cull is exact: no depth ever moves.

Each camera of a :class:`CameraRig` drops the broad-phase candidates its
fan cannot hit (wholly outside a side plane, or beyond ``max_range``)
before the batched slab test, and skips the parallel-axis fix-ups when no
ray has an axis-parallel component.  These properties pin both shortcuts
to the two references, bit for bit:

* the unculled batched cast over the rig's full candidate set;
* the scalar twin (``hotpath.scalar_mode``), the per-ray oracle.

Worlds are the registered archetypes with a crossing mover and random peer
boxes; poses, yaws and rig resolutions are random, with the edge cases the
cull must survive drawn on purpose: poses inside, touching or at the edge
of the world, boxes straddling a side plane or sitting just past the range,
and 1x1 / one-row / one-column / odd resolutions whose az=0 columns and
el=0 rows carry exactly-parallel components.
"""

import functools

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import hotpath
from repro.environment.generator import EnvironmentConfig
from repro.environment.world import Obstacle
from repro.geometry.aabb import AABB
from repro.geometry.ray import raycast_aabbs_batch
from repro.geometry.vec3 import Vec3
from repro.sensors.rig import CameraRig
from repro.worlds import archetype_names, build_environment
from repro.worlds.movers import MoverSpec
from repro.worlds.spec import WorldSpec

RESOLUTIONS = ((16, 12), (1, 1), (1, 6), (7, 1), (5, 3), (3, 5), (9, 7), (2, 2))
RANGES = (40.0, 12.5)
# Offsets of a box's nearest corner from max_range, metres: inside, on and
# just past the range, then past the cull's slack.
RANGE_OFFSETS = (-1e-7, 0.0, 1e-9, 1e-7, 1e-5, 1e-3, 0.5)

CROSSER = MoverSpec(
    kind="crosser",
    velocity=(0.0, 3.0, 0.0),
    origin=(20.0, -15.0, 4.0),
    span_m=30.0,
    size=(3.0, 3.0, 3.0),
)


@functools.lru_cache(maxsize=None)
def _environment(archetype):
    config = EnvironmentConfig(
        obstacle_density=0.3, obstacle_spread=30.0, goal_distance=60.0, seed=7
    )
    return build_environment(config, WorldSpec(archetype=archetype, movers=(CROSSER,)))


def _vec(a):
    return Vec3(float(a[0]), float(a[1]), float(a[2]))


@st.composite
def poses(draw, world):
    """A pose near obstacles, inside or touching one, or on the world edge."""
    bounds = world.bounds
    lo = np.array([bounds.min_corner.x, bounds.min_corner.y, bounds.min_corner.z])
    hi = np.array([bounds.max_corner.x, bounds.max_corner.y, bounds.max_corner.z])
    kind = draw(st.sampled_from(("near", "inside", "touching", "edge")))
    unit = np.array(draw(st.tuples(*[st.floats(0.0, 1.0)] * 3)))
    if kind == "edge":
        point = lo + unit * (hi - lo)
        axis = draw(st.integers(0, 2))
        point[axis] = draw(st.sampled_from((lo[axis], hi[axis])))
        return _vec(point)
    obstacles = world.obstacles
    box = obstacles[draw(st.integers(0, len(obstacles) - 1))].box
    b_lo = np.array([box.min_corner.x, box.min_corner.y, box.min_corner.z])
    b_hi = np.array([box.max_corner.x, box.max_corner.y, box.max_corner.z])
    point = b_lo + unit * (b_hi - b_lo)
    if kind == "touching":
        axis = draw(st.integers(0, 2))
        point[axis] = draw(st.sampled_from((b_lo[axis], b_hi[axis])))
    elif kind == "near":
        point = point + (unit - 0.5) * 30.0
    return _vec(np.clip(point, lo, hi))


@st.composite
def edge_boxes(draw, rig, position, yaw):
    """Peer boxes on a camera's side planes and around its range limit."""
    boxes = []
    for _ in range(draw(st.integers(0, 4))):
        camera = rig.cameras[draw(st.integers(0, len(rig.cameras) - 1))]
        fan = camera.ray_fan(position, yaw).array
        o = np.array([position.x, position.y, position.z])
        if draw(st.booleans()):
            # Straddle a side plane: a box around a point on a corner ray or
            # between two of them.
            i, j = draw(st.integers(0, len(fan) - 1)), draw(st.integers(0, len(fan) - 1))
            direction = fan[i] + fan[j]
            direction /= np.linalg.norm(direction)
            t = draw(st.floats(0.5, camera.max_range))
            half = draw(st.floats(0.01, 2.0))
            centre = o + direction * t
            boxes.append(AABB(_vec(centre - half), _vec(centre + half)))
        else:
            # A box whose nearest point sits on a fan ray at max_range + offset.
            direction = fan[draw(st.integers(0, len(fan) - 1))]
            offset = draw(st.sampled_from(RANGE_OFFSETS))
            near = o + direction * (camera.max_range + offset)
            far = near + np.sign(direction) * draw(st.floats(0.2, 3.0))
            boxes.append(AABB(_vec(np.minimum(near, far)), _vec(np.maximum(near, far))))
    return boxes


@st.composite
def peer_boxes(draw, position):
    """Random peer-drone boxes around the pose."""
    boxes = []
    for _ in range(draw(st.integers(0, 5))):
        offset = draw(st.tuples(*[st.floats(-30.0, 30.0)] * 3))
        centre = position + Vec3(*offset)
        boxes.append(AABB.cube(centre, draw(st.floats(0.2, 4.0))))
    return boxes


def _bits(depths):
    return np.array(depths, dtype=np.float64).tobytes()


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_culled_capture_is_bit_identical(data):
    archetype = data.draw(st.sampled_from(archetype_names()))
    environment = _environment(archetype)
    world = environment.world
    environment.dynamics.step(data.draw(st.integers(0, 40)))
    width, height = data.draw(st.sampled_from(RESOLUTIONS))
    rig = CameraRig(max_range=data.draw(st.sampled_from(RANGES))).with_resolution(
        width, height
    )
    position = data.draw(poses(world))
    yaw = data.draw(st.one_of(st.sampled_from((0.0, 90.0, -90.0, 180.0, 45.0)),
                              st.floats(-180.0, 180.0)))
    agents = data.draw(peer_boxes(position)) + data.draw(
        edge_boxes(rig, position, yaw)
    )
    world.set_agent_obstacles([Obstacle(box, name="peer") for box in agents])

    with hotpath.vectorized_mode():
        scan = rig.capture(world, position, yaw)
        lo, hi = world.obstacle_arrays_near(position, rig.max_range)
        for camera, image in zip(rig.cameras, scan.images):
            fan = camera.ray_fan(position, yaw)
            full = raycast_aabbs_batch(position, fan.array, lo, hi, camera.max_range)
            assert _bits(image.depths) == _bits(full), "cull changed a depth"
    with hotpath.scalar_mode():
        oracle = rig.capture(world, position, yaw)
    for image, reference in zip(scan.images, oracle.images):
        assert _bits(image.depths) == _bits(reference.depths)
        assert image.directions == reference.directions


def test_degenerate_fans_keep_the_parallel_branch():
    """One-column and one-row fans hold exactly-parallel components."""
    position = Vec3(0.0, 0.0, 5.0)
    for width, height in ((1, 1), (1, 6), (7, 1), (5, 3)):
        rig = CameraRig().with_resolution(width, height)
        fan = rig.cameras[0].ray_fan(position, 0.0)
        assert fan.parallel, (width, height)
    default = CameraRig()
    for camera in default.cameras:
        fan = camera.ray_fan(position, 0.0)
        assert not fan.parallel
        assert fan.side_planes.shape == (4, 3)
        assert (fan.array @ fan.side_planes.T >= -1e-12).all()
