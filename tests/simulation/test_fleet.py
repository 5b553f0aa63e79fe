"""Fleet layer: topic namespaces, shared-bus determinism and fleet missions.

The fleet refactor's contract has three legs, and each gets its tests here:

* **Namespacing** — :class:`TopicNamespace` produces per-drone topic and
  node names, and the root namespace produces the exact legacy names.
* **Determinism** — two pipelines interleaved on one bus dispatch in the
  same order on every run, and a two-drone campaign writes byte-identical
  traces serially and across a process pool.
* **Back-compat** — a single-drone fleet is bit-identical to the plain
  :class:`MissionSimulator`, pre-fleet spec dictionaries and trace lines
  still parse, and the default grid's spec names are unchanged.
"""

import json

import pytest

from repro import (
    CampaignRunner,
    DecisionRecord,
    EnvironmentConfig,
    FleetSimulator,
    MissionConfig,
    MissionRecord,
    MissionSimulator,
    ScenarioSpec,
    TopicNamespace,
    TraceRecorder,
    scenario_grid,
)
from repro.analysis.figures import fleet_scaling
from repro.core.runtime import RoboRunRuntime
from repro.simulation.campaign import _run_payload
from repro.worlds import WorldSpec, build_environment

# Small and mild: single missions finish in a couple of seconds while still
# flying every stage of the cascade.
TINY_ENV = EnvironmentConfig(
    obstacle_density=0.15, obstacle_spread=25.0, goal_distance=30.0, seed=3
)
TINY_CFG = MissionConfig(max_decisions=25, max_mission_time_s=90.0)


def tiny_fleet(n_drones: int) -> FleetSimulator:
    environment = build_environment(TINY_ENV, WorldSpec())
    return FleetSimulator(environment, RoboRunRuntime, TINY_CFG, n_drones=n_drones)


# ----------------------------------------------------------------------
# TopicNamespace
# ----------------------------------------------------------------------
class TestTopicNamespace:
    def test_root_namespace_keeps_legacy_names(self):
        root = TopicNamespace()
        assert root.is_root
        assert root.topic("/sense/scan") == "/sense/scan"
        assert root.node("sense") == "sense"

    def test_drone_namespace_prefixes_topics_and_nodes(self):
        ns = TopicNamespace.for_drone(3)
        assert not ns.is_root
        assert ns.prefix == "/drone/3"
        assert ns.topic("/sense/scan") == "/drone/3/sense/scan"
        assert ns.node("sense") == "drone/3/sense"

    def test_invalid_prefixes_rejected(self):
        with pytest.raises(ValueError):
            TopicNamespace(prefix="drone/0")
        with pytest.raises(ValueError):
            TopicNamespace(prefix="/drone/0/")
        with pytest.raises(ValueError):
            TopicNamespace.for_drone(-1)

    def test_topic_base_must_be_rooted(self):
        with pytest.raises(ValueError):
            TopicNamespace.for_drone(0).topic("sense/scan")


# ----------------------------------------------------------------------
# Shared-bus determinism
# ----------------------------------------------------------------------
class TestSharedBusDeterminism:
    @pytest.fixture(scope="class")
    def fleet_runs(self):
        """The same two-drone mission flown twice from scratch."""
        return [tiny_fleet(2).run() for _ in range(2)]

    def test_both_drones_dispatch_on_one_bus(self, fleet_runs):
        log = fleet_runs[0].pipeline.executor.dispatch_log
        topics = {topic for topic, _ in log}
        assert any(t.startswith("/drone/0/") for t in topics)
        assert any(t.startswith("/drone/1/") for t in topics)

    def test_dispatch_order_identical_across_runs(self, fleet_runs):
        first, second = fleet_runs
        assert (
            first.pipeline.executor.dispatch_log
            == second.pipeline.executor.dispatch_log
        )

    def test_round_robin_drains_each_drone_before_the_next(self, fleet_runs):
        log = fleet_runs[0].pipeline.executor.dispatch_log
        first_peer = next(
            i for i, (topic, _) in enumerate(log) if topic.startswith("/drone/1/")
        )
        # Drone 0's full first cascade — through its flight topic — dispatched
        # before drone 1's first message.
        head = [topic for topic, _ in log[:first_peer]]
        assert all(topic.startswith("/drone/0/") for topic in head)
        assert any(topic.endswith("/flight/result") for topic in head)


# ----------------------------------------------------------------------
# Single-drone identity
# ----------------------------------------------------------------------
class TestSingleDroneIdentity:
    def test_n1_fleet_bit_identical_to_mission_simulator(self):
        solo = MissionSimulator(
            build_environment(TINY_ENV, WorldSpec()), RoboRunRuntime(), TINY_CFG
        ).run()
        fleet = tiny_fleet(1).run()
        assert fleet.metrics.as_dict() == solo.metrics.as_dict()
        assert len(fleet.ledger) == len(solo.ledger)
        assert (
            fleet.pipeline.executor.dispatch_log
            == solo.pipeline.executor.dispatch_log
        )
        assert fleet.fleet.n_drones == 1
        assert fleet.fleet.min_separation_m is None

    def test_mission_record_shapes_single_drone_vs_fleet_of_one(self):
        # Both simulators fly one loop, but only the fleet's mission record
        # carries the fleet/drones fields.
        spec = ScenarioSpec(name="solo", environment=TINY_ENV, mission=TINY_CFG)
        solo = TraceRecorder(spec=spec)
        spec.run(recorder=solo)
        assert isinstance(solo.mission_record, MissionRecord)
        assert solo.mission_record.fleet is None
        assert solo.mission_record.drones is None

        fleet = TraceRecorder(spec=spec)
        tiny_fleet(1).run(recorder=fleet)
        assert fleet.mission_record.fleet["n_drones"] == 1
        assert len(fleet.mission_record.drones) == 1
        assert fleet.mission_record.metrics == solo.mission_record.metrics

    def test_neither_run_calls_the_other(self, monkeypatch):
        # Both simulators share one mission loop rather than delegating to
        # each other's run(), so an outer wrapper on run() sees exactly one
        # call per mission.
        calls = []
        for owner in (MissionSimulator, FleetSimulator):
            original = owner.__dict__["run"]

            def counted(self, *args, _original=original, _owner=owner, **kwargs):
                calls.append(_owner.__name__)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(owner, "run", counted)
        MissionSimulator(
            build_environment(TINY_ENV, WorldSpec()), RoboRunRuntime(), TINY_CFG
        ).run()
        assert calls == ["MissionSimulator"]
        tiny_fleet(2).run()
        assert calls == ["MissionSimulator", "FleetSimulator"]

    @pytest.mark.slow
    def test_n1_fleet_matches_benchmark_seed_golden(self):
        # The same environment/mission pair TestGoldenMetrics pins in
        # test_mission.py: equality here chains the fleet path to the
        # golden numbers without duplicating them.
        env_config = EnvironmentConfig(
            obstacle_density=0.3, obstacle_spread=40.0, goal_distance=100.0, seed=11
        )
        cfg = MissionConfig(max_decisions=400, max_mission_time_s=1200.0)
        solo = MissionSimulator(
            build_environment(env_config, WorldSpec()), RoboRunRuntime(), cfg
        ).run()
        fleet = FleetSimulator(
            build_environment(env_config, WorldSpec()),
            RoboRunRuntime,
            cfg,
            n_drones=1,
        ).run()
        assert fleet.metrics.as_dict() == solo.metrics.as_dict()


# ----------------------------------------------------------------------
# Two-drone missions
# ----------------------------------------------------------------------
class TestFleetMission:
    @pytest.fixture(scope="class")
    def recorded(self):
        spec = ScenarioSpec(
            name="fleet_two", environment=TINY_ENV, mission=TINY_CFG, n_drones=2
        )
        recorder = TraceRecorder(spec=spec)
        result = spec.run(recorder=recorder)
        return result, recorder

    def test_fleet_metrics_shape(self, recorded):
        result, _ = recorded
        fleet = result.fleet
        assert fleet.n_drones == 2
        assert 0.0 <= fleet.completion_rate <= 1.0
        assert fleet.makespan_s > 0
        assert fleet.min_separation_m is not None and fleet.min_separation_m > 0
        assert fleet.airspace_conflicts >= 0
        assert len(result.drones) == 2

    def test_aggregate_folds_per_drone_metrics(self, recorded):
        result, _ = recorded
        per_drone = [r.metrics for r in result.drones]
        assert result.metrics.decision_count == sum(
            m.decision_count for m in per_drone
        )
        assert result.metrics.distance_travelled_m == pytest.approx(
            sum(m.distance_travelled_m for m in per_drone)
        )
        assert result.metrics.energy_j == pytest.approx(
            sum(m.energy_j for m in per_drone)
        )

    def test_decision_records_stamp_drone_ids(self, recorded):
        _, recorder = recorded
        decisions = [r for r in recorder.records if isinstance(r, DecisionRecord)]
        assert {r.drone_id for r in decisions} == {0, 1}

    def test_mission_record_carries_fleet_and_drones(self, recorded):
        _, recorder = recorded
        record = recorder.mission_record
        assert record.fleet is not None and record.fleet["n_drones"] == 2
        assert record.drones is not None and len(record.drones) == 2
        assert record.n_drones == 2
        assert record.completion_rate == record.fleet["completion_rate"]
        round_tripped = MissionRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert round_tripped.fleet == record.fleet
        assert round_tripped.drones == record.drones


# ----------------------------------------------------------------------
# Back-compat: specs, trace lines, grid names
# ----------------------------------------------------------------------
class TestBackCompat:
    def test_pre_fleet_spec_dict_parses_as_single_drone(self):
        spec = ScenarioSpec(name="legacy")
        data = spec.to_dict()
        del data["n_drones"]
        assert ScenarioSpec.from_dict(data).n_drones == 1

    def test_spec_round_trips_fleet_size(self):
        spec = ScenarioSpec(name="pair", n_drones=2)
        assert ScenarioSpec.from_json(spec.to_json()).n_drones == 2

    def test_invalid_fleet_size_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", n_drones=0)

    def test_pre_fleet_trace_line_parses(self):
        modern = DecisionRecord(
            spec_name="s",
            design="roborun",
            index=0,
            timestamp=0.1,
            position=(0.0, 0.0, 5.0),
            zone="A",
            speed=1.0,
            velocity_cap=2.0,
            time_budget=0.5,
            predicted_latency=0.2,
            solver_feasible=True,
            policy={},
            stage_latencies={},
            end_to_end_latency=0.2,
            visibility=10.0,
            closest_obstacle=5.0,
            gap_min=1.0,
            gap_avg=2.0,
            sensor_volume=100.0,
            map_volume=50.0,
            map_voxels=10,
            flown=0.5,
            interval=0.5,
            energy=1.0,
            replanned=False,
            dropped=False,
            hit=False,
            drone_id=1,
        )
        data = modern.to_dict()
        del data["drone_id"]
        assert DecisionRecord.from_dict(data).drone_id == 0

    def test_pre_fleet_mission_record_parses(self):
        data = MissionRecord(
            spec_name="s", design="roborun", seed=0, environment={}, metrics={}
        ).to_dict()
        del data["fleet"]
        del data["drones"]
        record = MissionRecord.from_dict(data)
        assert record.fleet is None
        assert record.n_drones == 1


class TestGridNaming:
    def test_default_grid_names_unchanged(self):
        specs = scenario_grid("g", densities=(0.2,))
        assert [s.name for s in specs] == [
            "g_roborun_den0.2_spr80_goal900",
            "g_spatial_oblivious_den0.2_spr80_goal900",
        ]
        assert all(s.n_drones == 1 for s in specs)

    def test_fleet_axis_tags_names_and_sets_sizes(self):
        specs = scenario_grid(
            "g", designs=("roborun",), densities=(0.2,), n_drones=(1, 2)
        )
        assert [s.name for s in specs] == [
            "g_roborun_fleet1_den0.2_spr80_goal900",
            "g_roborun_fleet2_den0.2_spr80_goal900",
        ]
        assert [s.n_drones for s in specs] == [1, 2]

    def test_worlds_and_fleets_swept_together_stay_unique(self):
        specs = scenario_grid(
            "g",
            designs=("roborun",),
            densities=(0.2,),
            worlds=("paper_corridor", "paper_corridor"),
            n_drones=(2, 2),
        )
        names = [s.name for s in specs]
        assert len(set(names)) == len(names) == 4
        assert "g_roborun_paper_corridor0_fleet20_den0.2_spr80_goal900" in names
        assert "g_roborun_paper_corridor1_fleet21_den0.2_spr80_goal900" in names


# ----------------------------------------------------------------------
# Fleet-scaling table
# ----------------------------------------------------------------------
def _mission_record(design, size, time_s, energy_kj, completion):
    fleet = None
    if size > 1:
        fleet = {
            "n_drones": size,
            "completion_rate": completion,
            "collisions": 0,
            "makespan_s": time_s,
            "fleet_energy_kj": energy_kj,
            "min_separation_m": 5.0,
            "airspace_conflicts": 0,
        }
    return MissionRecord(
        spec_name=f"{design}_{size}",
        design=design,
        seed=0,
        environment={},
        metrics={
            "success": completion >= 1.0,
            "mission_time_s": time_s,
            "energy_kj": energy_kj,
        },
        fleet=fleet,
    )


class TestFleetScalingTable:
    def test_rows_group_by_size_with_speedup(self):
        missions = [
            _mission_record("roborun", 1, 100.0, 10.0, 1.0),
            _mission_record("spatial_oblivious", 1, 200.0, 20.0, 1.0),
            _mission_record("roborun", 2, 150.0, 22.0, 1.0),
            _mission_record("spatial_oblivious", 2, 300.0, 45.0, 0.5),
        ]
        table = fleet_scaling(missions)
        assert table.key == "fleet"
        assert table.title.startswith("Fleet scaling")
        assert [row[0] for row in table.rows] == [1, 2]
        assert table.meta["sizes"] == [1, 2]
        assert table.meta["speedups"] == {1: 2.0, 2: 2.0}
        speedup_column = table.columns.index("time_speedup")
        assert [row[speedup_column] for row in table.rows] == [2.0, 2.0]

    def test_incomplete_pair_reports_na(self):
        table = fleet_scaling([_mission_record("roborun", 2, 100.0, 10.0, 1.0)])
        assert table.meta["speedups"] == {2: None}
        assert table.rows[0][-1] == "n/a"


# ----------------------------------------------------------------------
# Campaign determinism and the report CLI
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestFleetCampaignTraces:
    def test_serial_and_parallel_traces_byte_identical(self, tmp_path):
        specs = scenario_grid(
            "pair",
            densities=(TINY_ENV.obstacle_density,),
            spreads=(TINY_ENV.obstacle_spread,),
            goal_distances=(TINY_ENV.goal_distance,),
            base_environment=TINY_ENV,
            mission=TINY_CFG,
            n_drones=(2,),
            base_seed=TINY_ENV.seed,
        )
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        CampaignRunner(max_workers=1).run(specs, trace_dir=serial_dir)
        CampaignRunner(max_workers=2).run(specs, trace_dir=parallel_dir)
        serial_files = sorted(p.name for p in serial_dir.glob("*.jsonl"))
        assert serial_files == sorted(p.name for p in parallel_dir.glob("*.jsonl"))
        assert serial_files
        for name in serial_files:
            assert (serial_dir / name).read_bytes() == (
                parallel_dir / name
            ).read_bytes()


class TestReportCli:
    def _trace_dir(self, tmp_path, spec_dicts):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        for spec_dict in spec_dicts:
            _run_payload({"spec": spec_dict, "trace_dir": str(trace_dir)})
        return trace_dir

    def test_exit_one_when_every_spec_errored(self, tmp_path, capsys):
        from repro.report import main

        bad = ScenarioSpec(name="bad", environment=TINY_ENV).to_dict()
        bad["environment"]["obstacle_density"] = -1.0
        trace_dir = self._trace_dir(tmp_path, [bad])
        code = main(
            ["--traces", str(trace_dir), "--out", str(tmp_path / "report.md")]
        )
        assert code == 1
        assert "ERROR: all 1 spec(s) failed to run" in capsys.readouterr().out

    def test_exit_zero_with_partial_failures(self, tmp_path, capsys):
        from repro.report import main

        good = ScenarioSpec(
            name="good", environment=TINY_ENV, mission=TINY_CFG
        ).to_dict()
        bad = ScenarioSpec(name="bad", environment=TINY_ENV).to_dict()
        bad["environment"]["obstacle_density"] = -1.0
        trace_dir = self._trace_dir(tmp_path, [good, bad])
        out = tmp_path / "report.md"
        code = main(["--traces", str(trace_dir), "--out", str(out)])
        assert code == 0
        assert "WARNING" in capsys.readouterr().out
        # The report always renders the fleet-scaling section.
        assert "Fleet scaling" in out.read_text(encoding="utf-8")
