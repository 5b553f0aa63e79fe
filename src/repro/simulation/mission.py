"""The mission simulator — the decision-loop substitute for the paper's HIL setup.

:class:`MissionSimulator` flies one mission (package delivery or search &
rescue) through a generated environment under a given runtime (RoboRun or the
spatial-oblivious baseline) and returns the mission-level metrics plus the
per-decision traces the analysis layer turns into the paper's figures.

The simulator is a thin façade over the node-based decision pipeline
(:mod:`repro.simulation.pipeline`): it wires the six pipeline nodes —
sense, profile, governor, perception, planning, flight — over the middleware
bus and flies itself as a fleet of one through :func:`_fly`, the one mission
loop (shared with :class:`~repro.simulation.fleet.FleetSimulator`).  The
loop drives one sensor tick per decision, drains the executor until the
cascade completes, and owns only the mission-level policy: termination
(goal, collision, plan-failure and time limits), distance integration and
metric assembly.  Stage logic, latency charging and the comm hops all live
in the nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence

from repro.compute.costs import WorkloadCostModel
from repro.control.follower import PurePursuitFollower
from repro.core.governor import GovernorDecision
from repro.core.operators import OperatorSet
from repro.core.profilers import ProfilerSuite, SpaceProfile
from repro.dynamics.drone import QuadrotorKinematics
from repro.dynamics.energy import EnergyModel
from repro.environment.generator import GeneratedEnvironment
from repro.environment.world import Obstacle, World
from repro.geometry.aabb import AABB
from repro.geometry.vec3 import Vec3
from repro.middleware.clock import SimClock
from repro.middleware.executor import Executor
from repro.middleware.latency import LatencyLedger
from repro.middleware.topic import TopicBus, TopicNamespace
from repro.perception.octomap import OccupancyOctree
from repro.perception.point_cloud import PointCloudKernel
from repro.planning.rrt_star import RRTStarConfig, RRTStarPlanner
from repro.planning.smoothing import PathSmoother, SmoothingConfig
from repro.sensors.rig import CameraRig
from repro.sensors.state_sensors import StateSensorSuite
from repro.simulation.faults import FaultSet
from repro.simulation.metrics import DecisionTrace, MissionMetrics
from repro.simulation.pipeline import DecisionPipeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.recorder import TraceRecorder


class Runtime(Protocol):
    """The per-decision interface both designs implement."""

    name: str
    spatial_aware: bool

    def decide(
        self, profile: SpaceProfile, budget_scale: float = 1.0
    ) -> GovernorDecision:
        """Produce the policy, deadline and velocity cap for one decision.

        ``budget_scale`` multiplies the decision time budget before knobs are
        chosen — platform faults (power brownouts) shrink it below 1; the
        nominal path always passes 1.0 (and the pipeline only forwards a
        non-unit scale, so stubs with the narrow signature keep working on
        fault-free missions).
        """


@dataclass(frozen=True, slots=True)
class MissionConfig:
    """Simulation parameters for one mission.

    Attributes:
        sensor_period_s: minimum interval between decisions (fresh sensor data
            arrives at this rate), seconds.
        control_dt_s: integration step of the flight sub-loop, seconds.
        goal_tolerance_m: the mission succeeds once the drone is within this
            distance of the goal.
        collision_margin_m: the drone's collision radius against ground truth.
        planner_margin_m: obstacle inflation used by the planner's collision
            checks.
        planning_horizon_m: piece-wise planning targets a local goal at most
            this far ahead along the straight line to the mission goal.
        replan_remaining_m: replan when less than this much of the current
            trajectory remains ahead of the drone.
        replan_interval_decisions: periodic replanning cadence.
        block_check_distance_m: how far ahead the current trajectory is checked
            against the fresh map for blockage.
        flight_band_m: (low, high) altitude band the planner may use; keeps
            paths in the band real warehouse missions fly in instead of
            climbing over obstacles.
        emergency_brake_lookahead_s: the flight sub-loop brakes when the map
            shows an obstacle within this many seconds of flight ahead.
        max_decisions: hard cap on pipeline decisions (guards wall-clock time).
        max_mission_time_s: hard cap on simulated mission time.
        max_consecutive_plan_failures: abort after this many failed plans in a
            row.
        camera_width / camera_height: per-camera depth image resolution.
        camera_range_m: camera maximum sensing range.
        local_map_radius_m: radius of the map kept around the drone.
        planner_iterations: RRT* iteration cap per plan.
        planner_step_m: RRT* extension step.
        rng_seed: seed shared by the planner for reproducibility.
    """

    sensor_period_s: float = 0.5
    control_dt_s: float = 0.25
    goal_tolerance_m: float = 10.0
    collision_margin_m: float = 0.2
    planner_margin_m: float = 1.0
    planning_horizon_m: float = 70.0
    replan_remaining_m: float = 15.0
    replan_interval_decisions: int = 40
    block_check_distance_m: float = 25.0
    flight_band_m: tuple[float, float] = (2.0, 12.0)
    emergency_brake_lookahead_s: float = 0.8
    max_decisions: int = 3000
    max_mission_time_s: float = 6000.0
    max_consecutive_plan_failures: int = 8
    camera_width: int = 12
    camera_height: int = 9
    camera_range_m: float = 40.0
    local_map_radius_m: float = 120.0
    planner_iterations: int = 500
    planner_step_m: float = 4.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.sensor_period_s <= 0 or self.control_dt_s <= 0:
            raise ValueError("periods must be positive")
        if self.goal_tolerance_m <= 0:
            raise ValueError("goal tolerance must be positive")
        if self.max_decisions < 1:
            raise ValueError("max_decisions must be at least 1")
        if self.planning_horizon_m <= 0:
            raise ValueError("planning horizon must be positive")
        if self.collision_margin_m < 0:
            raise ValueError(
                f"collision_margin_m cannot be negative, got {self.collision_margin_m}"
            )
        band = self.flight_band_m
        if not isinstance(band, Sequence) or len(band) != 2:
            raise ValueError("flight_band_m must be a (low, high) pair")
        low, high = float(band[0]), float(band[1])
        if not low < high:
            raise ValueError(
                f"flight_band_m must satisfy low < high, got ({band[0]}, {band[1]})"
            )
        # Normalise lists (e.g. from JSON round-trips) to a typed tuple.
        object.__setattr__(self, "flight_band_m", (low, high))


@dataclass
class MissionResult:
    """Everything one flown mission produced.

    Attributes:
        metrics: the mission-level summary (times in seconds, distances in
            metres, energy in joules).
        traces: one :class:`~repro.simulation.metrics.DecisionTrace` per
            decision, in decision order.
        ledger: the per-stage latency ledger (seconds per stage per
            decision).
        environment: the generated world the mission flew through.
        design: name of the runtime evaluated.
        pipeline: the live node graph (``None`` once a result has crossed a
            campaign process boundary).
    """

    metrics: MissionMetrics
    traces: List[DecisionTrace]
    ledger: LatencyLedger
    environment: GeneratedEnvironment
    design: str
    pipeline: Optional[DecisionPipeline] = None

    def trace_values(self, attribute: str) -> List[float]:
        """Convenience accessor: one scalar per decision (e.g. 'speed')."""
        return [getattr(trace, attribute) for trace in self.traces]


class MissionSimulator:
    """Runs one mission of one design through one generated environment.

    Wires the six-node decision pipeline over the simulator's kernels and
    models, drives one decision cascade per sensor tick
    (``sensor_period_s`` seconds apart, or slower when the decision latency
    exceeds the period) and assembles the
    :class:`~repro.simulation.metrics.MissionMetrics` at termination (goal
    reached, collision, plan-failure streak, or the time/decision caps).
    Repeated ``run()`` calls share the operator set, so the occupancy map
    persists across runs of the same simulator.
    """

    def __init__(
        self,
        environment: GeneratedEnvironment,
        runtime: Runtime,
        config: Optional[MissionConfig] = None,
        cost_model: Optional[WorkloadCostModel] = None,
        energy_model: Optional[EnergyModel] = None,
        kinematics: Optional[QuadrotorKinematics] = None,
        profilers: Optional[ProfilerSuite] = None,
        faults: Optional[FaultSet] = None,
    ) -> None:
        self.environment = environment
        self.runtime = runtime
        self.config = config or MissionConfig()
        self.cost_model = cost_model or WorkloadCostModel()
        self.energy_model = energy_model or EnergyModel()
        self.kinematics = kinematics or QuadrotorKinematics()
        self.profilers = profilers or ProfilerSuite(
            max_visibility=self.config.camera_range_m
        )
        self.faults = faults or FaultSet()

        cfg = self.config
        self.rig = CameraRig(
            width=cfg.camera_width,
            height=cfg.camera_height,
            max_range=cfg.camera_range_m,
        )
        self.sensors = StateSensorSuite.ideal()
        self.operators = OperatorSet(
            point_cloud_kernel=PointCloudKernel(),
            octree=OccupancyOctree(vox_min=0.3, levels=6),
            planner=RRTStarPlanner(
                RRTStarConfig(
                    max_iterations=cfg.planner_iterations,
                    step_size=cfg.planner_step_m,
                    collision_margin=cfg.planner_margin_m,
                    seed=cfg.rng_seed,
                )
            ),
            smoother=PathSmoother(SmoothingConfig()),
            planner_seed=cfg.rng_seed,
            local_map_radius=cfg.local_map_radius_m,
        )
        self.follower = PurePursuitFollower()

    # ------------------------------------------------------------------
    # Graph wiring
    # ------------------------------------------------------------------
    def build_pipeline(
        self,
        executor: Executor,
        *,
        namespace: Optional[TopicNamespace] = None,
        drone_id: int = 0,
    ) -> DecisionPipeline:
        """Wire a fresh node graph over the simulator's kernels and models.

        The graph runs on the caller's ``executor`` (and so on its bus and
        clock), with fresh accounting; it shares the simulator's operator
        set, so the occupancy map carries over between pipelines built by
        the same simulator.  A fleet passes one shared ``executor`` plus a
        per-drone ``namespace``/``drone_id`` so N graphs coexist on one bus.
        """
        return DecisionPipeline(
            environment=self.environment,
            runtime=self.runtime,
            config=self.config,
            cost_model=self.cost_model,
            kinematics=self.kinematics,
            profilers=self.profilers,
            operators=self.operators,
            rig=self.rig,
            sensors=self.sensors,
            follower=self.follower,
            faults=self.faults,
            executor=executor,
            namespace=namespace,
            drone_id=drone_id,
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        recorder: Optional["TraceRecorder"] = None,
        taps: Sequence = (),
    ) -> MissionResult:
        """Fly the mission and return its metrics and traces.

        The mission flies as a fleet of one through the shared mission loop.

        Args:
            recorder: optional :class:`~repro.analysis.recorder.
                TraceRecorder`; when given it is attached to the pipeline as
                a passive topic tap and receives one structured record per
                decision plus the final mission record.  ``None`` (the
                default) adds no tracing work at all.
            taps: additional passive observers (``repro.obs`` taps such as
                :class:`~repro.obs.tap.ObsTap`), attached the same way.
                Empty (the default) adds no instrumentation work at all.
        """
        result = _fly([self], recorder, taps).results[0]
        if recorder is not None:
            recorder.on_mission_end(result.metrics)
        return result

    def _result(
        self,
        pipeline: DecisionPipeline,
        distance: float,
        mission_time: float,
        hit: bool,
        reached_goal: bool,
    ) -> MissionResult:
        """Assemble the flown pipeline's metrics into a MissionResult."""
        traces = pipeline.traces
        ledger = pipeline.ledger
        mean_velocity = distance / mission_time if mission_time > 0 else 0.0
        energy = self.energy_model.mission_energy(
            flight_time_s=mission_time,
            mean_speed=mean_velocity,
            compute_busy_s=pipeline.cpu.total_busy_seconds(),
        )
        latencies = ledger.end_to_end_latencies()
        metrics = MissionMetrics(
            design=self.runtime.name,
            success=reached_goal and not hit,
            collided=hit,
            mission_time_s=mission_time,
            distance_travelled_m=distance,
            mean_velocity_mps=mean_velocity,
            energy_j=energy,
            mean_cpu_utilization=pipeline.cpu.mean_utilization(),
            decision_count=len(traces),
            median_latency_s=ledger.median_latency(),
            max_latency_s=max(latencies) if latencies else 0.0,
            deadline_miss_rate=_deadline_misses(traces) / len(traces) if traces else 0.0,
            replan_count=self.operators.plan_count,
        )
        return MissionResult(
            metrics=metrics,
            traces=traces,
            ledger=ledger,
            environment=self.environment,
            design=self.runtime.name,
            pipeline=pipeline,
        )


def _deadline_misses(traces: Sequence[DecisionTrace]) -> int:
    """Number of decisions that missed their deadline."""
    return sum(1 for t in traces if not t.deadline_met)


@dataclass
class _Flight:
    """What one pass of the mission loop produced.

    Attributes:
        results: one :class:`MissionResult` per drone, in drone-id order.
        min_separation_m: smallest pairwise drone distance at any epoch
            boundary (``None`` with fewer than two drones).
        airspace_conflicts: epochs during which some pair of active drones
            was closer than the conflict distance.
    """

    results: List[MissionResult]
    min_separation_m: Optional[float] = None
    airspace_conflicts: int = 0


def _fly(
    simulators: Sequence[MissionSimulator],
    recorder: Optional["TraceRecorder"] = None,
    taps: Sequence = (),
    *,
    peer_box_m: Optional[float] = None,
    conflict_distance_m: Optional[float] = None,
) -> _Flight:
    """The mission loop: fly ``simulators`` as one lock-stepped fleet.

    Every drone's pipeline runs on one shared clock, bus and executor.  Each
    epoch, every active drone (in drone-id order) steps one full decision
    cascade; the clock then advances by the slowest drone's interval.  A
    drone terminates on collision, then goal, then its plan-failure streak,
    and leaves the airspace.  With more than one drone each drone first sees
    its active peers as ``peer_box_m`` boxes (:func:`_expose_peers`), and
    pairs closer than ``conflict_distance_m`` count as airspace conflicts;
    both are required then.  A single drone flies on the root topic
    namespace with none of that.

    ``recorder`` and ``taps`` are attached to every pipeline; the caller
    sends the recorder its mission record.
    """
    n = len(simulators)
    cfg = simulators[0].config
    world = simulators[0].environment.world
    clock = SimClock()
    executor = Executor(TopicBus(), clock, record_dispatch=True)
    pipelines: List[DecisionPipeline] = []
    for drone_id, sim in enumerate(simulators):
        namespace = TopicNamespace() if n == 1 else TopicNamespace.for_drone(drone_id)
        pipeline = sim.build_pipeline(executor, namespace=namespace, drone_id=drone_id)
        if recorder is not None:
            pipeline.add_tap(recorder, energy_model=sim.energy_model)
        for tap in taps:
            pipeline.add_tap(tap, energy_model=sim.energy_model)
        pipelines.append(pipeline)

    distance = [0.0] * n
    collided = [False] * n
    reached = [False] * n
    finish_time: List[Optional[float]] = [None] * n
    last_outcome = [None] * n
    peer_marks: List[List[tuple]] = [[] for _ in range(n)]
    active = list(range(n))
    flight = _Flight(results=[])

    for epoch in range(cfg.max_decisions):
        if clock.now > cfg.max_mission_time_s:
            break
        if not active:
            break

        # Deterministic round-robin: each drone's cascade fully drains
        # (step() spins the shared executor dry) before the next starts.
        intervals = []
        for drone_id in active:
            if n > 1:
                peer_marks[drone_id] = _expose_peers(
                    world,
                    simulators[drone_id].operators.octree,
                    [pipelines[p] for p in active if p != drone_id],
                    peer_marks[drone_id],
                    peer_box_m,
                )
            outcome = pipelines[drone_id].step(epoch)
            last_outcome[drone_id] = outcome
            distance[drone_id] += outcome.flown
            intervals.append(outcome.interval)
        clock.advance(max(intervals))

        if len(active) >= 2:
            positions = [pipelines[d].flight.state.position for d in active]
            epoch_min = min(
                a.distance_to(b) for a, b in itertools.combinations(positions, 2)
            )
            if flight.min_separation_m is None or epoch_min < flight.min_separation_m:
                flight.min_separation_m = epoch_min
            if epoch_min < conflict_distance_m:
                flight.airspace_conflicts += 1

        # Per-drone termination: collision, then goal, then the plan-failure
        # streak.  Finished drones leave the airspace (peers stop seeing
        # them next epoch).
        for drone_id in list(active):
            outcome = last_outcome[drone_id]
            goal = simulators[drone_id].environment.goal
            done = False
            if outcome.hit:
                collided[drone_id] = True
                done = True
            elif outcome.state.position.distance_to(goal) <= cfg.goal_tolerance_m:
                reached[drone_id] = True
                done = True
            elif (
                pipelines[drone_id].planning.consecutive_plan_failures
                >= cfg.max_consecutive_plan_failures
            ):
                done = True
            if done:
                finish_time[drone_id] = clock.now
                active.remove(drone_id)

    # Leave the shared world clean: no stale agent boxes or peer voxels.
    if n > 1:
        world.set_agent_obstacles([])
        for drone_id in range(n):
            if peer_marks[drone_id]:
                simulators[drone_id].operators.octree.clear_cells(peer_marks[drone_id])

    for drone_id, sim in enumerate(simulators):
        flight.results.append(
            sim._result(
                pipelines[drone_id],
                distance[drone_id],
                clock.now if finish_time[drone_id] is None else finish_time[drone_id],
                collided[drone_id],
                reached[drone_id],
            )
        )
    return flight


def _expose_peers(
    world: World,
    octree: OccupancyOctree,
    peers: Sequence[DecisionPipeline],
    previous_marks: List[tuple],
    peer_box_m: float,
) -> List[tuple]:
    """Fold a drone's active peers into its view of the shared world.

    Sets the world's agent obstacle layer (ground truth) to the peers'
    boxes and re-marks them into the drone's octree through the incremental
    spatial index, clearing ``previous_marks`` first.  Returns the new marks.
    """
    size = Vec3(peer_box_m, peer_box_m, peer_box_m)
    obstacles = [
        Obstacle(
            AABB.from_center(peer.flight.state.position, size),
            name=f"drone_{peer.drone_id}",
        )
        for peer in peers
    ]
    world.set_agent_obstacles(obstacles)
    if previous_marks:
        octree.clear_cells(previous_marks)
    marks = octree.mark_boxes([obstacle.box for obstacle in obstacles])
    return list(itertools.chain.from_iterable(marks))
