"""The fleet simulator: N decision pipelines over one world, bus and clock.

A fleet mission flies ``n_drones`` copies of the decision stack through one
shared :class:`~repro.environment.world.World`.  Nothing is forked: each
drone gets its own :class:`~repro.simulation.pipeline.DecisionPipeline`
instantiated inside its own :class:`~repro.middleware.topic.TopicNamespace`
(``/drone/<id>/sense/scan``, …) on a *shared* ``TopicBus``/``Executor``/
``SimClock``, so all cascades interleave on one middleware substrate and the
executor's dispatch log is a single, deterministic witness for the whole
fleet.

Interleaving is deterministic round-robin at decision granularity: every
epoch, each active drone (in drone-id order) publishes its sensor tick and
fully drains its cascade before the next drone starts.  The shared clock
advances once per epoch by the slowest drone's decision interval, which
keeps the fleet time-synchronised the way a lock-stepped HIL rig would be.

Peers appear to each other as obstacles.  Before each drone's turn its
peers' current positions are folded into the world's *agent* obstacle layer
(ground truth for depth cameras and collision probes) and re-marked into
that drone's occupancy octree through the same incremental
``mark_box``/``clear_cells`` spatial-index path the kinematic movers use —
so each drone's octomap, governor profile and planner all see the rest of
the fleet where it currently is.

The epoch loop itself is :func:`repro.simulation.mission._fly`, the one
mission loop :meth:`~repro.simulation.mission.MissionSimulator.run` flies
too.  With ``n_drones=1`` none of the peer machinery engages (no peers, the
root namespace), so single-drone fleet missions are bit-identical to the
single-drone simulator (golden-pinned in the test suite).  This module adds
the formation and the fleet-level aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.dynamics.drone import QuadrotorKinematics
from repro.dynamics.energy import EnergyModel
from repro.compute.costs import WorkloadCostModel
from repro.core.profilers import ProfilerSuite
from repro.environment.generator import GeneratedEnvironment
from repro.environment.zones import ZoneMap
from repro.geometry.vec3 import Vec3
from repro.simulation.faults import FaultSet
from repro.simulation.metrics import MissionMetrics
from repro.simulation.mission import (
    MissionConfig,
    MissionResult,
    MissionSimulator,
    Runtime,
    _deadline_misses,
    _fly,
)
from repro.simulation.pipeline import DecisionPipeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.recorder import TraceRecorder


@dataclass(frozen=True, slots=True)
class FleetMetrics:
    """Fleet-level aggregates a per-drone summary cannot express.

    Attributes:
        n_drones: fleet size.
        completion_rate: fraction of drones that reached their goal without
            colliding, in [0, 1].
        collisions: number of drones that hit an obstacle (or a peer).
        makespan_s: simulated time until the last drone terminated.
        fleet_energy_kj: summed energy over the fleet, kilojoules.
        min_separation_m: smallest pairwise drone distance observed at any
            epoch boundary (``None`` for single-drone missions — there is
            no pair to measure).
        airspace_conflicts: number of epochs during which some pair of
            active drones was closer than the conflict distance.
    """

    n_drones: int
    completion_rate: float
    collisions: int
    makespan_s: float
    fleet_energy_kj: float
    min_separation_m: Optional[float]
    airspace_conflicts: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "n_drones": self.n_drones,
            "completion_rate": self.completion_rate,
            "collisions": self.collisions,
            "makespan_s": self.makespan_s,
            "fleet_energy_kj": self.fleet_energy_kj,
            "min_separation_m": self.min_separation_m,
            "airspace_conflicts": self.airspace_conflicts,
        }


@dataclass
class FleetResult:
    """Everything one flown fleet mission produced.

    Attributes:
        metrics: fleet-aggregate :class:`MissionMetrics` — at ``n_drones=1``
            these are exactly the single drone's metrics, so campaign tables
            keyed on mission metrics work unchanged.
        fleet: the fleet-only aggregates (completion rate, separation, …).
        drones: one full :class:`MissionResult` per drone, in drone-id order.
        environment: the shared environment (drone 0's view).
        design: name of the runtime evaluated.
        pipeline: drone 0's pipeline (``None`` once the result crossed a
            campaign process boundary, like the single-drone field).
    """

    metrics: MissionMetrics
    fleet: FleetMetrics
    drones: List[MissionResult]
    environment: GeneratedEnvironment
    design: str
    pipeline: Optional[DecisionPipeline] = None

    @property
    def traces(self):
        """Drone 0's decision traces (the single-drone result's shape)."""
        return self.drones[0].traces

    @property
    def ledger(self):
        """Drone 0's latency ledger."""
        return self.drones[0].ledger


class FleetSimulator:
    """Runs N drones of one design through one shared environment.

    Args:
        environment: the shared generated environment; drone 0 flies its
            start→goal mission verbatim, drones 1..N-1 fly laterally offset
            copies of it (alternating sides, ``spacing_m`` apart).
        runtime_factory: zero-argument callable producing a fresh runtime
            per drone (each drone gets its own governor state).
        config: mission parameters; drone k>0 runs with ``rng_seed + k`` so
            per-drone planners explore independently.
        n_drones: fleet size (≥ 1).
        spacing_m: lateral formation spacing between adjacent start offsets.
        peer_box_m: edge length of the box a drone occupies in its peers'
            maps and in the world's agent layer.
        conflict_distance_m: pairwise distance under which an epoch counts
            as an airspace conflict.
    """

    def __init__(
        self,
        environment: GeneratedEnvironment,
        runtime_factory: Callable[[], Runtime],
        config: Optional[MissionConfig] = None,
        n_drones: int = 1,
        cost_model: Optional[WorkloadCostModel] = None,
        energy_model: Optional[EnergyModel] = None,
        kinematics: Optional[QuadrotorKinematics] = None,
        profilers: Optional[ProfilerSuite] = None,
        faults: Optional[FaultSet] = None,
        *,
        spacing_m: float = 6.0,
        peer_box_m: float = 1.0,
        conflict_distance_m: float = 2.0,
    ) -> None:
        if n_drones < 1:
            raise ValueError("a fleet needs at least one drone")
        if spacing_m <= 0 or peer_box_m <= 0 or conflict_distance_m <= 0:
            raise ValueError("fleet distances must be positive metres")
        self.environment = environment
        self.config = config or MissionConfig()
        self.n_drones = n_drones
        self.spacing_m = spacing_m
        self.peer_box_m = peer_box_m
        self.conflict_distance_m = conflict_distance_m

        self.simulators: List[MissionSimulator] = []
        for drone_id in range(n_drones):
            if drone_id == 0:
                env, cfg = environment, self.config
            else:
                env = self._offset_environment(drone_id)
                cfg = replace(self.config, rng_seed=self.config.rng_seed + drone_id)
            self.simulators.append(
                MissionSimulator(
                    env,
                    runtime_factory(),
                    cfg,
                    cost_model=cost_model,
                    energy_model=energy_model,
                    kinematics=kinematics,
                    profilers=profilers,
                    faults=faults,
                )
            )

    # ------------------------------------------------------------------
    # Formation
    # ------------------------------------------------------------------
    def _lateral_axis(self) -> Vec3:
        """Unit vector perpendicular (in the x-y plane) to start→goal."""
        axis = self.environment.goal - self.environment.start
        lateral = Vec3(-axis.y, axis.x, 0.0)
        norm = lateral.norm()
        if norm < 1e-9:
            return Vec3(0.0, 1.0, 0.0)
        return lateral * (1.0 / norm)

    def _formation_offset(self, drone_id: int) -> float:
        """Signed lateral offset of a drone: 0, +s, -s, +2s, -2s, …"""
        if drone_id == 0:
            return 0.0
        magnitude = (drone_id + 1) // 2
        sign = 1.0 if drone_id % 2 == 1 else -1.0
        return sign * magnitude * self.spacing_m

    def _offset_environment(self, drone_id: int) -> GeneratedEnvironment:
        """Drone k's view of the shared world: shifted endpoints, same world."""
        shift = self._lateral_axis() * self._formation_offset(drone_id)
        start = self.environment.start + shift
        goal = self.environment.goal + shift
        return replace(
            self.environment, start=start, goal=goal, zone_map=ZoneMap(start, goal)
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        recorder: Optional["TraceRecorder"] = None,
        taps: Sequence = (),
    ) -> FleetResult:
        """Fly the fleet mission and return per-drone plus aggregate results."""
        flight = _fly(
            self.simulators,
            recorder,
            taps,
            peer_box_m=self.peer_box_m,
            conflict_distance_m=self.conflict_distance_m,
        )
        results = flight.results
        per_drone = [result.metrics for result in results]
        aggregate = self._aggregate_metrics(results)
        fleet = FleetMetrics(
            n_drones=self.n_drones,
            completion_rate=sum(1 for m in per_drone if m.success) / self.n_drones,
            collisions=sum(1 for m in per_drone if m.collided),
            makespan_s=aggregate.mission_time_s,
            fleet_energy_kj=sum(m.energy_j for m in per_drone) / 1000.0,
            min_separation_m=flight.min_separation_m,
            airspace_conflicts=flight.airspace_conflicts,
        )
        if recorder is not None:
            recorder.on_mission_end(
                aggregate,
                fleet=fleet.as_dict(),
                drones=[m.as_dict() for m in per_drone],
            )
        return FleetResult(
            metrics=aggregate,
            fleet=fleet,
            drones=results,
            environment=self.environment,
            design=aggregate.design,
            pipeline=results[0].pipeline,
        )

    # ------------------------------------------------------------------
    # Metric assembly
    # ------------------------------------------------------------------
    @staticmethod
    def _aggregate_metrics(results: List[MissionResult]) -> MissionMetrics:
        """Fleet-aggregate MissionMetrics.

        Every fold collapses to the single drone's value at N=1 (sum/max/
        mean over one element, miss counts re-divided by the same decision
        count), which is what makes the aggregate a drop-in replacement for
        the single-drone metrics everywhere downstream.
        """
        per_drone = [result.metrics for result in results]
        n = len(per_drone)
        total_decisions = sum(m.decision_count for m in per_drone)
        misses = sum(_deadline_misses(result.traces) for result in results)
        return MissionMetrics(
            design=per_drone[0].design,
            success=all(m.success for m in per_drone),
            collided=any(m.collided for m in per_drone),
            mission_time_s=max(m.mission_time_s for m in per_drone),
            distance_travelled_m=sum(m.distance_travelled_m for m in per_drone),
            mean_velocity_mps=sum(m.mean_velocity_mps for m in per_drone) / n,
            energy_j=sum(m.energy_j for m in per_drone),
            mean_cpu_utilization=sum(m.mean_cpu_utilization for m in per_drone) / n,
            decision_count=total_decisions,
            median_latency_s=sum(m.median_latency_s for m in per_drone) / n,
            max_latency_s=max(m.max_latency_s for m in per_drone),
            deadline_miss_rate=misses / total_decisions if total_decisions else 0.0,
            replan_count=sum(m.replan_count for m in per_drone),
        )
