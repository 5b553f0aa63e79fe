"""Per-layer tracing from outside the program.

:func:`traced` wraps the public entry point of each layer (a class method
or a module-level function) for the duration of a ``with`` block and records
one span per call: name, start, end, parent span and the id of the
``DecisionPipeline.step`` it ran under.  Spans stay in memory; nothing is
written until the run ends.  Nothing under ``src/`` is edited: the wrappers
are installed on the classes and restored on exit.

A layer's self time is its span minus the part its child spans cover, so
within a decision the layer self times plus the step's own self time
(``simulation.step_other_ms``) add up to the step's duration exactly.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

STEP = "simulation.step"
RUN = "simulation.run"

CountFn = Optional[Callable[[Any], Dict[str, float]]]


class SpanRecorder:
    """In-memory span store plus the work counts taken at the same calls."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.decisions: List[int] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._steps = 0
        self._decision = -1

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        if name == STEP:
            self._decision = self._steps
            self._steps += 1
        self.decisions.append(self._decision)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()
        if self.names[index] == STEP:
            self._decision = -1

    def self_times(self) -> List[float]:
        """Each span's duration minus the durations of its direct children."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        covered = [0.0] * len(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[index]
        return [d - c for d, c in zip(durations, covered)]


def _plan_counts(result: Any) -> Dict[str, float]:
    return {
        "planning.plan_calls": 1,
        "planning.plan_successes": int(result.success),
        "planning.rrt_iterations": result.iterations,
        "planning.collision_samples": result.collision_samples,
        "planning.rewires": result.rewires,
    }


def _targets() -> List[Tuple[Any, str, Optional[str], CountFn]]:
    """(owner, attribute, span name or None for count-only, count function)."""
    from repro.analysis.io import TraceWriter
    from repro.core import operators
    from repro.core.governor import Governor
    from repro.core.profilers import ProfilerSuite
    from repro.core.solver import KnobSolver
    from repro.middleware.executor import Executor
    from repro.perception.octomap import OccupancyOctree
    from repro.perception.point_cloud import PointCloudKernel
    from repro.planning.rrt_star import RRTStarPlanner
    from repro.planning.smoothing import PathSmoother
    from repro.sensors.rig import CameraRig
    from repro.simulation import scenario
    from repro.simulation.fleet import FleetSimulator
    from repro.simulation.mission import MissionSimulator
    from repro.simulation.pipeline import DecisionPipeline
    from repro.worlds.movers import DynamicObstacleSet

    return [
        (CameraRig, "capture", "sensors.capture",
         lambda r: {"sensors.pixels": r.total_pixels()}),
        (scenario, "build_environment", "worlds.build", None),
        (DynamicObstacleSet, "step", "worlds.movers_step", None),
        (PointCloudKernel, "process", "perception.point_cloud",
         lambda r: {"perception.cloud_points": len(r)}),
        (OccupancyOctree, "insert_point_cloud", "perception.octomap_insert",
         lambda r: {"perception.cells_updated": int(r.get("cells_updated", 0))}),
        (OccupancyOctree, "forget_beyond", "perception.octomap_forget",
         lambda r: {"perception.cells_forgotten": r}),
        (operators, "build_planning_view", "perception.planning_view",
         lambda r: {"perception.view_cells": len(r)}),
        (ProfilerSuite, "profile", "core.profile", None),
        (KnobSolver, "solve", "core.solve",
         lambda r: {"core.solves": 1, "core.infeasible": int(not r.feasible)}),
        (Governor, "decide", "core.decide", None),
        (RRTStarPlanner, "plan", "planning.rrt", _plan_counts),
        (PathSmoother, "smooth", "planning.smooth", None),
        (Executor, "spin", None, lambda r: {"middleware.dispatches": r}),
        (DecisionPipeline, "step", STEP, None),
        (MissionSimulator, "run", RUN, None),
        (FleetSimulator, "run", RUN, None),
        (TraceWriter, "write", "analysis.trace_write", None),
    ]


def _wrap(recorder: SpanRecorder, fn: Callable, span: Optional[str], count: CountFn) -> Callable:
    if span is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            recorder.counts.update(count(result))
            return result

        return counted

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if count is not None:
            recorder.counts.update(count(result))
        return result

    return wrapper


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer entry point for the duration of the block."""
    originals = []
    try:
        for owner, attribute, span, count in _targets():
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(recorder, original, span, count))
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


#: Layers timed in ms per decision (self time of spans inside steps).
DECISION_LAYERS = {
    "sensors.capture": "sensors.capture_ms",
    "worlds.movers_step": "worlds.movers_step_ms",
    "perception.point_cloud": "perception.point_cloud_ms",
    "perception.octomap_insert": "perception.octomap_insert_ms",
    "perception.octomap_forget": "perception.octomap_forget_ms",
    "perception.planning_view": "perception.planning_view_ms",
    "core.profile": "core.profile_ms",
    "core.solve": "core.solve_ms",
    "core.decide": "core.decide_ms",
    "planning.smooth": "planning.smooth_ms",
}

#: Work counts reported per decision.
DECISION_COUNTS = (
    "sensors.pixels",
    "perception.cloud_points",
    "perception.cells_updated",
    "perception.cells_forgotten",
    "perception.view_cells",
    "planning.plan_calls",
    "planning.rrt_iterations",
    "planning.collision_samples",
    "planning.rewires",
    "middleware.dispatches",
)


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(recorder: SpanRecorder, traced_specs: int) -> Dict[str, float]:
    """Fold the spans and counts of a traced run into the per-layer metrics.

    ``traced_specs`` is the number of specs whose traces were written, the
    denominator of ``analysis.trace_write_ms`` (0 when none were).

    Raises ``ValueError`` when the run made no decision, or when the layer
    self times inside steps do not add up to the step total.
    """
    self_times = recorder.self_times()
    names = recorder.names
    durations = [end - start for start, end in zip(recorder.starts, recorder.ends)]
    step_durations = [d for d, n in zip(durations, names) if n == STEP]
    decisions = len(step_durations)
    if decisions == 0:
        raise ValueError("the traced run made no decision")

    in_step: Counter = Counter()
    total_self: Counter = Counter()
    calls: Counter = Counter()
    for name, own, decision in zip(names, self_times, recorder.decisions):
        total_self[name] += own
        calls[name] += 1
        if decision >= 0:
            in_step[name] += own
    step_total = sum(step_durations)
    if abs(sum(in_step.values()) - step_total) > 1e-9 * max(1.0, step_total) * len(names):
        raise ValueError("layer self times do not add up to the step total")

    per_decision_ms = 1000.0 / decisions
    counts = recorder.counts
    metrics: Dict[str, float] = {
        metric: in_step[span] * per_decision_ms for span, metric in DECISION_LAYERS.items()
    }
    metrics.update(
        {key: counts[key] / decisions for key in DECISION_COUNTS}
    )
    plan_calls = counts["planning.plan_calls"]
    metrics.update(
        {
            "worlds.build_ms": 1000.0 * total_self["worlds.build"] / max(1, calls["worlds.build"]),
            "core.solver_infeasible_frac": counts["core.infeasible"] / max(1, counts["core.solves"]),
            "planning.rrt_ms": 1000.0 * in_step["planning.rrt"] / max(1, plan_calls),
            "planning.plan_success_frac": counts["planning.plan_successes"] / max(1, plan_calls),
            "simulation.step_ms": step_total * per_decision_ms,
            "simulation.decision_ms_p50": 1000.0 * percentile(step_durations, 50),
            "simulation.decision_ms_p95": 1000.0 * percentile(step_durations, 95),
            "simulation.step_other_ms": in_step[STEP] * per_decision_ms,
            "simulation.loop_other_ms": (sum(d for d, n in zip(durations, names) if n == RUN) - step_total) * per_decision_ms,
            "unattributed_frac": in_step[STEP] / step_total,
            "analysis.trace_write_ms": 1000.0 * total_self["analysis.trace_write"] / max(1, traced_specs),
        }
    )
    return metrics
