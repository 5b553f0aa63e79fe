"""Tests for the obstacle world, zones and the environment generator."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.environment.generator import (
    DENSITY_LEVELS,
    EnvironmentConfig,
    EnvironmentGenerator,
    GOAL_DISTANCE_LEVELS_M,
    SPREAD_LEVELS_M,
)
from repro.environment.world import Obstacle, World
from repro.environment.zones import Zone, ZoneMap
from repro.geometry.aabb import AABB
from repro.geometry.vec3 import Vec3


def make_world():
    bounds = AABB(Vec3(-10, -10, 0), Vec3(110, 110, 30))
    world = World(bounds)
    world.add_obstacle(Obstacle(AABB.from_center(Vec3(20, 0, 10), Vec3(2, 2, 20)), "a"))
    world.add_obstacle(Obstacle(AABB.from_center(Vec3(26, 0, 10), Vec3(2, 2, 20)), "b"))
    return world


class TestWorld:
    def test_occupancy(self):
        world = make_world()
        assert world.is_occupied(Vec3(20, 0, 5))
        assert not world.is_occupied(Vec3(23, 0, 5))
        assert world.is_occupied(Vec3(21.3, 0, 5), margin=0.5)

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            make_world().is_occupied(Vec3(20, 0, 5), margin=-0.1)

    def test_margin_check_matches_expanded_boxes(self):
        """The inline margin test compares the floats expanded() builds."""
        world = make_world()
        rng = random.Random(7)
        for _ in range(300):
            point = Vec3(rng.uniform(-5, 45), rng.uniform(-15, 15), rng.uniform(-2, 12))
            margin = rng.choice([0.0, 0.2, 0.5, 1.0])
            expected = any(
                o.box.expanded(margin).contains(point) for o in world.obstacles
            )
            assert world.is_occupied(point, margin=margin) == expected

    def test_segment_collision(self):
        world = make_world()
        assert world.segment_collides(Vec3(0, 0, 5), Vec3(40, 0, 5))
        assert not world.segment_collides(Vec3(0, 10, 5), Vec3(40, 10, 5))

    def test_nearest_obstacle_distance(self):
        world = make_world()
        assert world.nearest_obstacle_distance(Vec3(15, 0, 5)) == pytest.approx(4.0, abs=0.1)
        assert world.nearest_obstacle_distance(Vec3(100, 100, 5), search_radius=10.0) == 10.0

    def test_visibility_along(self):
        world = make_world()
        vis = world.visibility_along(Vec3(0, 0, 5), Vec3(1, 0, 0), max_range=50.0)
        assert vis == pytest.approx(19.0, abs=0.1)
        open_vis = world.visibility_along(Vec3(0, 50, 5), Vec3(1, 0, 0), max_range=50.0)
        assert open_vis == 50.0

    def test_gap_statistics(self):
        world = make_world()
        gap_min, gap_avg = world.gap_statistics(Vec3(23, 0, 5), radius=20.0)
        assert gap_min == pytest.approx(4.0, abs=0.2)
        assert gap_avg >= gap_min
        # Far from everything: saturates at the radius.
        assert world.gap_statistics(Vec3(100, 100, 5), radius=15.0) == (15.0, 15.0)

    def test_obstacle_density_bounds(self):
        world = make_world()
        dense = world.obstacle_density(Vec3(20, 0, 5), radius=3.0)
        empty = world.obstacle_density(Vec3(80, 80, 5), radius=3.0)
        assert 0.0 <= empty < dense <= 1.0

    def test_obstacles_near_filters(self):
        world = make_world()
        assert len(world.obstacles_near(Vec3(20, 0, 5), 10.0)) >= 2
        assert world.obstacles_near(Vec3(100, 100, 5), 5.0) == []

    def test_free_space_ratio(self):
        world = make_world()
        assert world.free_space_ratio_along(Vec3(0, 50, 5), Vec3(50, 50, 5)) == 1.0
        assert world.free_space_ratio_along(Vec3(19, 0, 5), Vec3(21, 0, 5)) < 1.0


class TestZones:
    def test_invalid_zone_fractions(self):
        with pytest.raises(ValueError):
            Zone("X", 0.5, 0.4, congested=False)

    def test_default_zone_layout(self):
        zone_map = ZoneMap(Vec3(0, 0, 5), Vec3(100, 0, 5))
        assert [z.name for z in zone_map.zones] == ["A", "B", "C"]
        assert zone_map.congested_zone_names() == ["A", "C"]

    def test_zone_at_positions(self):
        zone_map = ZoneMap(Vec3(0, 0, 5), Vec3(100, 0, 5))
        assert zone_map.zone_at(Vec3(10, 0, 5)).name == "A"
        assert zone_map.zone_at(Vec3(50, 20, 5)).name == "B"
        assert zone_map.zone_at(Vec3(90, 0, 5)).name == "C"
        assert zone_map.zone_at(Vec3(500, 0, 5)).name == "C"
        assert zone_map.zone_at(Vec3(-50, 0, 5)).name == "A"

    def test_zone_named_and_missing(self):
        zone_map = ZoneMap(Vec3(0, 0, 5), Vec3(100, 0, 5))
        assert zone_map.zone_named("B").congested is False
        with pytest.raises(KeyError):
            zone_map.zone_named("D")

    def test_zone_centers_lie_on_axis(self):
        zone_map = ZoneMap(Vec3(0, 0, 5), Vec3(100, 0, 5))
        centers = zone_map.zone_centers()
        assert centers["B"].x == pytest.approx(50.0)

    def test_identical_endpoints_rejected(self):
        with pytest.raises(ValueError):
            ZoneMap(Vec3(0, 0, 0), Vec3(0, 0, 0))


class TestGenerator:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnvironmentConfig(obstacle_density=0.0)
        with pytest.raises(ValueError):
            EnvironmentConfig(obstacle_spread=-1.0)
        with pytest.raises(ValueError):
            EnvironmentConfig(goal_distance=0.0)

    def test_config_rejects_nonsense_knobs_with_clear_messages(self):
        with pytest.raises(ValueError, match="peak occupied fraction"):
            EnvironmentConfig(obstacle_density=-0.3)
        with pytest.raises(ValueError, match="in \\(0, 1\\)"):
            EnvironmentConfig(obstacle_density=1.5)
        with pytest.raises(ValueError, match="scatter radius"):
            EnvironmentConfig(obstacle_spread=0.0)
        with pytest.raises(ValueError, match="mission length"):
            EnvironmentConfig(goal_distance=-600.0)
        with pytest.raises(ValueError, match="inverts the corridor"):
            EnvironmentConfig(corridor_width=-150.0)
        with pytest.raises(ValueError, match="flight altitude"):
            EnvironmentConfig(flight_altitude=0.0)
        with pytest.raises(ValueError, match="obstacle height"):
            EnvironmentConfig(obstacle_height=-20.0)
        # A flight plane above every obstacle generates no congestion at all.
        with pytest.raises(ValueError, match="below"):
            EnvironmentConfig(flight_altitude=25.0, obstacle_height=20.0)
        with pytest.raises(ValueError, match="at least one congestion cluster"):
            EnvironmentConfig(clusters_per_zone=0)
        for knob in ("obstacle_density", "obstacle_spread", "goal_distance",
                     "corridor_width", "flight_altitude", "obstacle_height"):
            with pytest.raises(ValueError, match="finite"):
                EnvironmentConfig(**{knob: float("nan")})
            with pytest.raises(ValueError):
                EnvironmentConfig(**{knob: float("inf")})

    def test_generation_is_deterministic(self):
        cfg = EnvironmentConfig(goal_distance=200.0, seed=7)
        a = EnvironmentGenerator().generate(cfg)
        b = EnvironmentGenerator().generate(cfg)
        assert a.world.obstacle_count() == b.world.obstacle_count()
        assert a.world.obstacles[0].center == b.world.obstacles[0].center

    def test_start_and_goal_clear_of_obstacles(self):
        env = EnvironmentGenerator().generate(EnvironmentConfig(goal_distance=200.0, seed=5))
        assert not env.world.is_occupied(env.start, margin=2.0)
        assert not env.world.is_occupied(env.goal, margin=2.0)

    def test_obstacles_concentrate_in_congested_zones(self):
        env = EnvironmentGenerator().generate(
            EnvironmentConfig(goal_distance=300.0, obstacle_spread=40.0, seed=2)
        )
        zone_counts = {"A": 0, "B": 0, "C": 0}
        for obstacle in env.world.obstacles:
            zone_counts[env.zone_map.zone_at(obstacle.center).name] += 1
        assert zone_counts["A"] + zone_counts["C"] > zone_counts["B"]

    def test_density_knob_changes_obstacle_count(self):
        gen = EnvironmentGenerator()
        low = gen.generate(EnvironmentConfig(obstacle_density=0.3, goal_distance=200.0, seed=1))
        high = gen.generate(EnvironmentConfig(obstacle_density=0.6, goal_distance=200.0, seed=1))
        assert high.world.obstacle_count() > low.world.obstacle_count()

    def test_suite_has_27_environments(self):
        configs = EnvironmentGenerator().suite_configs()
        assert len(configs) == 27
        assert len({c.label() for c in configs}) == 27
        densities = {c.obstacle_density for c in configs}
        assert densities == set(DENSITY_LEVELS)
        assert {c.obstacle_spread for c in configs} == set(SPREAD_LEVELS_M)
        assert {c.goal_distance for c in configs} == set(GOAL_DISTANCE_LEVELS_M)

    def test_congestion_map_covers_world(self):
        env = EnvironmentGenerator().generate(
            EnvironmentConfig(goal_distance=200.0, seed=3)
        )
        heat = EnvironmentGenerator().congestion_map(env, cell=50.0)
        assert heat
        assert all(0.0 <= value <= 1.0 for value in heat.values())

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=10, deadline=None)
    def test_generated_obstacles_inside_bounds(self, seed):
        env = EnvironmentGenerator().generate(
            EnvironmentConfig(goal_distance=150.0, seed=seed)
        )
        for obstacle in env.world.obstacles:
            assert env.world.bounds.expanded(50.0).contains(obstacle.center)
