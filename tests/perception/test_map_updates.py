"""Array-native map updates against a sequential per-key reference.

``OccupancyOctree`` integrates a cloud in one array pass and marks/clears
footprints through ``SpatialIndex.add_many``/``remove_many``.  The reference
below does the same work the way the map was first written: one ray, one
sample and one voxel key at a time, through ``SpatialIndex.add``/``remove``.
Both must end in the same state — the occupied and free sets, every level
map *in iteration order* (the planning view breaks distance ties by it), the
buckets and the returned statistics.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import hotpath
from repro.geometry.aabb import AABB
from repro.geometry.grid import downsample_array, downsample_points, voxel_center, voxel_key
from repro.geometry.ray import sample_ray
from repro.geometry.vec3 import Vec3
from repro.perception.octomap import OccupancyOctree
from repro.perception.point_cloud import PointCloud
from repro.perception.spatial_index import SpatialIndex

VOX = 0.3
LEVELS = 5


class ReferenceMap:
    """The occupancy map, one key at a time."""

    def __init__(self) -> None:
        self.free_resolution = VOX * 8.0
        self.occupied = set()
        self.free = set()
        self.index = SpatialIndex(VOX, LEVELS)

    def add(self, key) -> None:
        if key not in self.occupied:
            self.occupied.add(key)
            self.index.add(key)

    def remove(self, key) -> None:
        if key in self.occupied:
            self.occupied.remove(key)
            self.index.remove(key)

    def ray_order(self, origin, points, focus):
        anchor = focus if focus is not None else origin
        return sorted(points, key=lambda p: anchor.distance_to(p))

    def ray(self, origin, point, step):
        """(charged cells, volume, samples) of one ray."""
        charged = int(origin.distance_to(point) / step) + 1
        volume = VOX**3
        samples = sample_ray(origin, point, max(step, self.free_resolution))[:-1]
        for _ in samples:
            volume += self.free_resolution**3
        return charged, volume, samples

    def insert(self, origin, points, ray_step, max_volume, focus):
        step = max(ray_step if ray_step is not None else VOX, VOX)
        ordered = self.ray_order(origin, points, focus)
        protected = {voxel_key(p, VOX) for p in ordered}
        new_volume = 0.0
        integrated = skipped = cells = 0
        for point in ordered:
            if max_volume is not None and new_volume >= max_volume:
                skipped += 1
                cells += 1
            else:
                charged, volume, samples = self.ray(origin, point, step)
                for sample in samples:
                    self.free.add(voxel_key(sample, self.free_resolution))
                    key = voxel_key(sample, VOX)
                    if key not in protected:
                        self.remove(key)
                integrated += 1
                cells += charged
                new_volume += volume
            self.add(voxel_key(point, VOX))
            self.free.discard(voxel_key(point, self.free_resolution))
        return {
            "points_integrated": float(integrated),
            "points_skipped": float(skipped),
            "cells_updated": float(cells),
            "integrated_volume": new_volume,
        }

    def mark_box(self, box):
        lo = voxel_key(box.min_corner, VOX)
        hi = voxel_key(box.max_corner, VOX)
        keys = []
        for key in itertools.product(
            range(lo[0], hi[0] + 1), range(lo[1], hi[1] + 1), range(lo[2], hi[2] + 1)
        ):
            if key in self.occupied:
                continue
            self.add(key)
            self.free.discard(voxel_key(voxel_center(key, VOX), self.free_resolution))
            keys.append(key)
        return keys

    def clear_cells(self, keys):
        cleared = 0
        for key in keys:
            if key in self.occupied:
                self.remove(key)
                cleared += 1
        return cleared


def assert_same_map(octree: OccupancyOctree, ref: ReferenceMap) -> None:
    assert octree._occupied == ref.occupied
    assert octree._free == ref.free
    for level in range(LEVELS):
        assert list(octree._index.level_cells(level).items()) == list(
            ref.index.level_cells(level).items()
        )
    assert list(octree._index._buckets.items()) == list(ref.index._buckets.items())
    assert octree._index.matches(octree._occupied)


coord = st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False)
vec = st.builds(Vec3, coord, coord, st.floats(-1.0, 5.0))

insert_op = st.fixed_dictionaries(
    {
        "op": st.just("insert"),
        "origin": vec,
        "points": st.lists(vec, max_size=25),
        # Indices into the cloud to repeat (duplicate endpoints).
        "repeat": st.lists(st.integers(0, 24), max_size=4),
        "with_origin": st.booleans(),
        "ray_step": st.sampled_from([None, 0.05, VOX, 0.7, 3.1]),
        # None, a plain budget, or "exact": a budget equal to the volume
        # accumulated after ray k.
        "budget": st.one_of(
            st.none(),
            st.just(0.0),
            st.floats(0.0, 200.0),
            st.tuples(st.just("exact"), st.integers(0, 30)),
        ),
        "focus": st.one_of(st.none(), vec),
    }
)
mark_op = st.fixed_dictionaries(
    {
        "op": st.just("mark"),
        "boxes": st.lists(
            st.tuples(vec, st.floats(0.0, 2.5), st.floats(0.0, 2.5), st.floats(0.0, 2.5)),
            max_size=4,
        ),
        # Add a box over an occupied voxel, and a copy of the first box
        # shifted by less than its size (two movers overlapping).
        "over_occupied": st.booleans(),
        "overlap": st.booleans(),
    }
)
clear_op = st.fixed_dictionaries({"op": st.just("clear"), "stride": st.integers(1, 3)})


def resolve_budget(ref: ReferenceMap, op, points):
    budget = op["budget"]
    if not isinstance(budget, tuple):
        return budget
    ordered = ref.ray_order(op["origin"], points, op["focus"])
    step = max(op["ray_step"] if op["ray_step"] is not None else VOX, VOX)
    total = 0.0
    for point in ordered[: budget[1] + 1]:
        total += ref.ray(op["origin"], point, step)[1]
    return total


@settings(max_examples=120, deadline=None)
@given(st.lists(st.one_of(insert_op, mark_op, clear_op), min_size=1, max_size=7))
def test_array_updates_match_sequential_reference(ops):
    octree = OccupancyOctree(vox_min=VOX, levels=LEVELS)
    ref = ReferenceMap()
    marks = []
    for op in ops:
        if op["op"] == "insert":
            points = list(op["points"])
            points += [points[i] for i in op["repeat"] if i < len(points)]
            if op["with_origin"]:
                points.append(op["origin"])
            budget = resolve_budget(ref, op, points)
            cloud = PointCloud(op["origin"], tuple(points), len(points), VOX)
            with hotpath.vectorized_mode():
                stats = octree.insert_point_cloud(cloud, op["ray_step"], budget, op["focus"])
            assert stats == ref.insert(op["origin"], points, op["ray_step"], budget, op["focus"])
        elif op["op"] == "mark":
            boxes = [
                AABB(centre, centre + Vec3(sx, sy, sz)) for centre, sx, sy, sz in op["boxes"]
            ]
            if op["over_occupied"] and ref.occupied:
                boxes.append(AABB.cube(voxel_center(min(ref.occupied), VOX), 1.0))
            if op["overlap"] and boxes:
                shift = Vec3(0.4, -0.3, 0.2)
                boxes.append(AABB(boxes[0].min_corner + shift, boxes[0].max_corner + shift))
            marks = octree.mark_boxes(boxes)
            assert marks == [ref.mark_box(box) for box in boxes]
        else:
            keys = [key for box_keys in marks for key in box_keys][:: op["stride"]]
            keys += keys[:2]
            assert octree.clear_cells(keys) == ref.clear_cells(keys)
        assert_same_map(octree, ref)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.lists(st.tuples(*[st.integers(-20, 20)] * 3), max_size=30)),
        max_size=6,
    )
)
def test_index_batches_match_one_key_at_a_time(batches):
    batched = SpatialIndex(0.25, 4)
    single = SpatialIndex(0.25, 4)
    for add, keys in batches:
        if add:
            done = batched.add_many(keys)
            expected = [key for key in keys if single.add(key)]
        else:
            done = batched.remove_many(keys)
            expected = [key for key in keys if single.remove(key)]
        assert done == expected
        for level in range(4):
            assert list(batched.level_cells(level).items()) == list(
                single.level_cells(level).items()
            )
        assert list(batched._buckets.items()) == list(single._buckets.items())
        assert batched.matches(set(single.level_cells(0)))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(coord, coord, coord), max_size=60),
    st.sampled_from([0.05, 0.3, 0.45, 1.0, 2.0]),
)
def test_downsample_array_matches_voxel_grid(raw, resolution):
    points = [Vec3(*p) for p in raw]
    reduced = downsample_array(np.array(raw, dtype=np.float64).reshape(-1, 3), resolution)
    expected = [[p.x, p.y, p.z] for p in downsample_points(points, resolution)]
    assert reduced.tolist() == expected
    # Signed zeros too: the sums start from +0.0 in both.
    assert [math.copysign(1.0, v) for row in reduced.tolist() for v in row] == [
        math.copysign(1.0, v) for row in expected for v in row
    ]


def test_clear_and_add_in_one_coarse_cell_keep_ray_order():
    """A clear and an add landing in one coarse cell replay in ray order.

    Ray 2 adds an endpoint to the 4.8 m cell C; ray 3 then clears the only
    key C held before.  In ray order C never empties, so it keeps its place
    ahead of D; replaying the clear first would delete C and append it
    after D.
    """
    origin = Vec3(0.5, 0.5, 0.5)
    points = [
        Vec3(0.5, -0.2, 0.5),  # ray 0, its endpoint outside C
        Vec3(-0.3, 0.5, 0.5),  # ray 1, likewise
        Vec3(1.5, 0.5, 0.5),  # ray 2, endpoint in C
        Vec3(5.5, 0.5, 0.5),  # ray 3, its t = 2.4 sample clears (9, 1, 1)
    ]
    octree = OccupancyOctree(vox_min=VOX, levels=LEVELS)
    ref = ReferenceMap()
    for key in [(9, 1, 1), (40, 40, 1)]:
        octree.mark_occupied(voxel_center(key, VOX))
        ref.add(key)
        ref.free.discard(voxel_key(voxel_center(key, VOX), ref.free_resolution))
    cloud = PointCloud(origin, tuple(points), len(points), VOX)
    with hotpath.vectorized_mode():
        stats = octree.insert_point_cloud(cloud)
    assert stats == ref.insert(origin, points, None, None, None)
    assert_same_map(octree, ref)
    assert (9, 1, 1) not in octree._occupied
    assert list(octree._index.level_cells(4))[:2] == [(0, 0, 0), (2, 2, 0)]
