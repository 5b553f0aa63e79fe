"""Property-style equivalence: every batch query == its scalar twin, exactly.

The vectorised hot path (PR 7) promises *bit-identical* results, not
approximate ones: every numpy batch routine reproduces the scalar twin's
IEEE-754 arithmetic operation for operation.  These tests enforce that
promise on randomized inputs — voxel sets, segments, query points, mover
configurations — plus the empty-index and single-voxel edge cases, comparing
with ``==`` throughout (no tolerances anywhere).
"""

import random

import numpy as np
import pytest

from repro import (
    EnvironmentConfig,
    EnvironmentGenerator,
    MissionConfig,
    MissionSimulator,
    MoverSpec,
    RoboRunRuntime,
    ScenarioSpec,
    WorldSpec,
)
from repro import hotpath
from repro.environment.world import World, Obstacle
from repro.geometry.aabb import AABB
from repro.geometry.vec3 import Vec3
from repro.perception.octomap import OccupancyOctree
from repro.perception.planning_view import build_planning_view
from repro.perception.point_cloud import PointCloud
from repro.perception.spatial_index import (
    PackedCellTable,
    SpatialIndex,
    point_hits_cells,
    point_hits_cells_batch,
    segment_hits_cells,
    segment_hits_cells_batch,
)
from repro.sensors.depth_camera import DepthCamera
from repro.worlds.movers import DynamicObstacleSet, build_movers


def random_keys(rng, count, spread=12):
    return {
        (
            rng.randint(-spread, spread),
            rng.randint(-spread, spread),
            rng.randint(-spread // 2, spread),
        )
        for _ in range(count)
    }


def random_vec(rng, lo=-6.0, hi=6.0):
    return Vec3(rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi))


def seeded_index(rng, count, vox_min=0.25):
    index = SpatialIndex(vox_min=vox_min, levels=4)
    for key in random_keys(rng, count):
        index.add(key)
    return index


def segment_batch_arrays(pairs):
    starts = np.array([(a.x, a.y, a.z) for a, _ in pairs], dtype=np.float64)
    ends = np.array([(b.x, b.y, b.z) for _, b in pairs], dtype=np.float64)
    return starts, ends


class TestSpatialIndexBatches:
    @pytest.mark.parametrize("seed", range(5))
    def test_segment_occupied_batch_matches_scalar(self, seed):
        rng = random.Random(100 + seed)
        index = seeded_index(rng, rng.choice([0, 1, 40, 400]))
        pairs = [(random_vec(rng), random_vec(rng)) for _ in range(60)]
        # Degenerate segments (zero length) must agree too.
        p = random_vec(rng)
        pairs.append((p, p))
        starts, ends = segment_batch_arrays(pairs)
        for step in (0.1, 0.3, 1.7):
            for lateral in (0.0, 0.4):
                for include_start in (True, False):
                    scalar = [
                        index.segment_occupied(a, b, step, lateral, include_start)
                        for a, b in pairs
                    ]
                    batch = index.segment_occupied_batch(
                        starts, ends, step, lateral, include_start
                    )
                    assert batch.tolist() == scalar

    @pytest.mark.parametrize("seed", range(5))
    def test_nearest_occupied_distance_batch_matches_scalar(self, seed):
        rng = random.Random(200 + seed)
        index = seeded_index(rng, rng.choice([0, 1, 40, 400]))
        points = [random_vec(rng, -10.0, 10.0) for _ in range(50)]
        arr = np.array([(p.x, p.y, p.z) for p in points], dtype=np.float64)
        for max_radius in (0.5, 4.0, 100.0):
            scalar = [index.nearest_occupied_distance(p, max_radius) for p in points]
            batch = index.nearest_occupied_distance_batch(arr, max_radius)
            assert batch.tolist() == scalar

    def test_batches_track_mutation(self):
        # The array snapshot must be invalidated by add/remove/clear.
        index = SpatialIndex(vox_min=0.25, levels=4)
        pt = np.array([[0.1, 0.1, 0.1]])
        assert index.nearest_occupied_distance_batch(pt, 10.0).tolist() == [10.0]
        index.add((0, 0, 0))
        first = index.nearest_occupied_distance_batch(pt, 10.0)[0]
        assert first == index.nearest_occupied_distance(Vec3(0.1, 0.1, 0.1), 10.0)
        index.remove((0, 0, 0))
        assert index.nearest_occupied_distance_batch(pt, 10.0).tolist() == [10.0]


class TestCellTableBatches:
    @pytest.mark.parametrize("cell_count", [0, 1, 30, 300])
    def test_point_hits_cells_batch_matches_scalar(self, cell_count):
        rng = random.Random(17 + cell_count)
        cells = frozenset(random_keys(rng, cell_count))
        table = PackedCellTable(cells)
        resolution = 0.6
        points = [random_vec(rng) for _ in range(80)]
        arr = np.array([(p.x, p.y, p.z) for p in points], dtype=np.float64)
        for margin in (0.0, 0.5, 1.3):
            scalar = [point_hits_cells(cells, resolution, p, margin) for p in points]
            batch = point_hits_cells_batch(table, resolution, arr, margin)
            assert batch.tolist() == scalar

    @pytest.mark.parametrize("cell_count", [0, 1, 30, 300])
    def test_segment_hits_cells_batch_matches_scalar(self, cell_count):
        rng = random.Random(23 + cell_count)
        cells = frozenset(random_keys(rng, cell_count))
        table = PackedCellTable(cells)
        resolution = 0.6
        pairs = [(random_vec(rng), random_vec(rng)) for _ in range(40)]
        p = random_vec(rng)
        pairs.append((p, p))
        starts, ends = segment_batch_arrays(pairs)
        for step in (None, 0.2, 5.0):
            for margin in (0.0, 0.7):
                scalar = [
                    segment_hits_cells(cells, resolution, a, b, step, margin)
                    for a, b in pairs
                ]
                batch = segment_hits_cells_batch(
                    table, resolution, starts, ends, step, margin
                )
                assert batch.tolist() == scalar


def _mover_world(rng):
    """A world with static boxes plus mover and agent layers, as the fleet sees it."""
    world = World(AABB(Vec3(-60, -60, 0), Vec3(60, 60, 40)))
    for _ in range(rng.randint(3, 12)):
        c = Vec3(rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(2, 20))
        world.add_obstacle(Obstacle(AABB.cube(c, rng.uniform(1.0, 5.0))))
    specs = (
        MoverSpec(
            kind="crosser",
            origin=(rng.uniform(-20, 20), rng.uniform(-20, 0), 3.0),
            velocity=(0.0, 2.0, 0.0),
            span_m=30.0,
            epoch_s=0.5,
            size=(2.0, 2.0, 2.0),
        ),
        MoverSpec(
            kind="waypoint_loop",
            waypoints=((10.0, 5.0, 2.0), (20.0, 5.0, 2.0), (20.0, -5.0, 2.0)),
            speed_mps=2.0,
            epoch_s=0.5,
        ),
    )
    movers = DynamicObstacleSet(build_movers(specs), world)
    movers.step(rng.randint(0, 40))
    world.set_agent_obstacles(
        [Obstacle(AABB.cube(Vec3(5.0, 5.0, 4.0), 1.2), name="peer")]
    )
    return world


class TestWorldAndCameraEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_capture_scalar_vs_vectorised(self, seed):
        rng = random.Random(300 + seed)
        world = _mover_world(rng)
        camera = DepthCamera(width=12, height=8, max_range=35.0)
        for _ in range(6):
            pose = Vec3(rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(2, 15))
            yaw = rng.uniform(-180.0, 180.0)
            with hotpath.vectorized_mode():
                fast = camera.capture(world, pose, yaw)
            with hotpath.scalar_mode():
                slow = camera.capture(world, pose, yaw)
            assert fast.depths == slow.depths
            assert fast.directions == slow.directions
            slow_hits = [[p.x, p.y, p.z] for p in slow.hit_points()]
            assert fast.hit_array().tolist() == slow_hits
            assert slow.hit_array().tolist() == slow_hits

    @pytest.mark.parametrize("seed", range(4))
    def test_obstacle_arrays_near_matches_obstacles_near(self, seed):
        rng = random.Random(400 + seed)
        world = _mover_world(rng)
        from repro.environment.world import _boxes_distance_to_point, _corner_arrays

        for _ in range(10):
            point = Vec3(rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(0, 20))
            radius = rng.uniform(5.0, 60.0)
            scalar = world.obstacles_near(point, radius)
            lo, hi = world.obstacle_arrays_near(point, radius)
            slo, shi = _corner_arrays(scalar)
            assert lo.tolist() == slo.tolist()
            assert hi.tolist() == shi.tolist()
            # And the batched point distance matches the per-box scalar.
            if scalar:
                batch_d = _boxes_distance_to_point(lo, hi, point)
                assert batch_d.tolist() == [o.distance_to(point) for o in scalar]


class TestPointCloudAndViewEquivalence:
    def make_cloud(self, rng, count):
        origin = random_vec(rng)
        points = [random_vec(rng, -15.0, 15.0) for _ in range(count)]
        return PointCloud(
            origin=origin,
            points=tuple(points),
            raw_point_count=count,
            resolution=0.3,
        )

    @pytest.mark.parametrize("count", [1, 2, 50])
    def test_cloud_queries_scalar_vs_vectorised(self, count):
        rng = random.Random(500 + count)
        cloud = self.make_cloud(rng, count)
        with hotpath.vectorized_mode():
            fast = (cloud.nearest_distance(), cloud.array_within(6.0).tolist())
        with hotpath.scalar_mode():
            slow = (
                cloud.nearest_distance(),
                [[p.x, p.y, p.z] for p in cloud.points_within(6.0)],
            )
        assert fast == slow

    @pytest.mark.parametrize("seed", range(3))
    def test_build_planning_view_scalar_vs_vectorised(self, seed):
        rng = random.Random(600 + seed)
        octree = OccupancyOctree(vox_min=0.3, levels=4)
        for key in random_keys(rng, rng.choice([1, 30, 250])):
            octree.mark_occupied(
                Vec3(key[0] * 0.3 + 0.15, key[1] * 0.3 + 0.15, key[2] * 0.3 + 0.15)
            )
        focus = random_vec(rng)
        for precision in (0.3, 0.6):
            for max_volume, region in ((None, None), (2.0, 8.0), (0.5, None)):
                with hotpath.vectorized_mode():
                    fast = build_planning_view(
                        octree, precision, max_volume, focus, region
                    )
                with hotpath.scalar_mode():
                    slow = build_planning_view(
                        octree, precision, max_volume, focus, region
                    )
                assert fast.cells == slow.cells
                assert fast.total_volume == slow.total_volume
                assert fast.precision == slow.precision


class TestMissionEquivalence:
    """End to end: a short mission must be bit-identical in both modes."""

    ENV = EnvironmentConfig(
        obstacle_density=0.3, obstacle_spread=40.0, goal_distance=100.0, seed=11
    )
    CFG = MissionConfig(max_decisions=12, max_mission_time_s=60.0)

    def run_mission(self):
        env = EnvironmentGenerator().generate(self.ENV)
        return MissionSimulator(env, RoboRunRuntime(), self.CFG).run()

    def test_short_mission_scalar_vs_vectorised(self):
        with hotpath.vectorized_mode():
            fast = self.run_mission()
        with hotpath.scalar_mode():
            slow = self.run_mission()
        assert fast.metrics.as_dict() == slow.metrics.as_dict()
        assert len(fast.traces) == len(slow.traces)
        for a, b in zip(fast.traces, slow.traces):
            assert a.end_to_end_latency == b.end_to_end_latency
            assert a.policy == b.policy
            assert a.zone == b.zone

    FLEET_SPEC = ScenarioSpec(
        name="rubble_pair",
        environment=EnvironmentConfig(
            obstacle_density=0.3, obstacle_spread=30.0, goal_distance=30.0, seed=5
        ),
        mission=MissionConfig(max_decisions=8, max_mission_time_s=60.0, rng_seed=5),
        world=WorldSpec(
            archetype="disaster_rubble",
            movers=(
                MoverSpec(
                    kind="crosser",
                    size=(2.0, 2.0, 3.0),
                    velocity=(0.0, 1.5, 0.0),
                    origin=(12.0, -25.0, 5.0),
                    span_m=50.0,
                ),
            ),
        ),
        n_drones=2,
    )

    def test_fleet_with_crosser_scalar_vs_vectorised(self):
        """Movers and peers re-marked every epoch: the batched map updates
        and the array insert must fly the fleet exactly as the scalar path."""
        with hotpath.vectorized_mode():
            fast = self.FLEET_SPEC.build_simulator().run()
        with hotpath.scalar_mode():
            slow = self.FLEET_SPEC.build_simulator().run()
        assert fast.metrics.as_dict() == slow.metrics.as_dict()
        assert fast.fleet == slow.fleet
        assert len(fast.drones) == len(slow.drones) == 2
        for a, b in zip(fast.drones, slow.drones):
            assert a.metrics.as_dict() == b.metrics.as_dict()
            assert a.traces == b.traces
        assert fast.pipeline.executor.dispatch_log == slow.pipeline.executor.dispatch_log
