"""Every metric the benchmark prints: name, unit, direction and kind.

``kind`` is ``host`` for host wall-clock or memory measurements (they vary
run to run; end-to-end host times are in reference seconds, see
``perfbench/reference.py``), ``sim`` for simulated quantities from
``MissionMetrics`` (they repeat exactly for a set of specs) and ``count``
for exact work counts.
``BENCHMARK.json`` at the repository root lists the same names and units.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    kind: str


END_TO_END: Tuple[Metric, ...] = (
    Metric("decisions_per_s", "decisions/s", "higher", "host"),
    Metric("wall_s", "s", "lower", "host"),
    Metric("specs_per_s", "specs/s", "higher", "host"),
    Metric("setup_s", "s", "lower", "host"),
    Metric("peak_rss_mb", "MiB", "lower", "host"),
    Metric("sim_mission_time_s", "sim_s", "lower", "sim"),
    Metric("sim_energy_kj", "kJ", "lower", "sim"),
    Metric("sim_cpu_utilization", "fraction", "lower", "sim"),
    Metric("sim_deadline_miss_rate", "fraction", "lower", "sim"),
    Metric("sim_success_rate", "fraction", "higher", "sim"),
    Metric("sim_mission_time_ratio", "x", "higher", "sim"),
    Metric("sim_energy_ratio", "x", "higher", "sim"),
)

PER_LAYER: Tuple[Metric, ...] = (
    Metric("sensors.capture_ms", "ms/decision", "lower", "host"),
    Metric("sensors.pixels", "count/decision", "lower", "count"),
    Metric("worlds.build_ms", "ms/world", "lower", "host"),
    Metric("worlds.movers_step_ms", "ms/decision", "lower", "host"),
    Metric("perception.point_cloud_ms", "ms/decision", "lower", "host"),
    Metric("perception.cloud_points", "count/decision", "lower", "count"),
    Metric("perception.octomap_insert_ms", "ms/decision", "lower", "host"),
    Metric("perception.cells_updated", "count/decision", "lower", "count"),
    Metric("perception.octomap_forget_ms", "ms/decision", "lower", "host"),
    Metric("perception.cells_forgotten", "count/decision", "lower", "count"),
    Metric("perception.planning_view_ms", "ms/decision", "lower", "host"),
    Metric("perception.view_cells", "count/decision", "lower", "count"),
    Metric("core.profile_ms", "ms/decision", "lower", "host"),
    Metric("core.solve_ms", "ms/decision", "lower", "host"),
    Metric("core.solver_infeasible_frac", "fraction", "lower", "count"),
    Metric("core.decide_ms", "ms/decision", "lower", "host"),
    Metric("planning.rrt_ms", "ms/call", "lower", "host"),
    Metric("planning.plan_calls", "count/decision", "lower", "count"),
    Metric("planning.rrt_iterations", "count/decision", "lower", "count"),
    Metric("planning.collision_samples", "count/decision", "lower", "count"),
    Metric("planning.rewires", "count/decision", "lower", "count"),
    Metric("planning.plan_success_frac", "fraction", "higher", "count"),
    Metric("planning.smooth_ms", "ms/decision", "lower", "host"),
    Metric("middleware.dispatches", "count/decision", "lower", "count"),
    Metric("simulation.step_ms", "ms/decision", "lower", "host"),
    Metric("simulation.decision_ms_p50", "ms", "lower", "host"),
    Metric("simulation.decision_ms_p95", "ms", "lower", "host"),
    Metric("simulation.step_other_ms", "ms/decision", "lower", "host"),
    Metric("simulation.loop_other_ms", "ms/decision", "lower", "host"),
    Metric("campaign.spec_wall_ms_p50", "ms", "lower", "host"),
    Metric("campaign.spec_wall_ms_p95", "ms", "lower", "host"),
    Metric("campaign.worker_busy_frac", "fraction", "higher", "host"),
    Metric("campaign.parallel_inflation", "x", "lower", "host"),
    Metric("campaign.retries", "count", "lower", "count"),
    Metric("analysis.trace_write_ms", "ms/spec", "lower", "host"),
    Metric("analysis.trace_bytes", "B/spec", "lower", "count"),
    Metric("unattributed_frac", "fraction", "lower", "host"),
    Metric("trace_overhead_frac", "fraction", "lower", "host"),
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
KINDS = {m.name: m.kind for m in END_TO_END + PER_LAYER}
