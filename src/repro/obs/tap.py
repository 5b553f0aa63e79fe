"""The observability tap: spans + metrics wired into a running pipeline.

:class:`ObsTap` is attached exactly like the analysis layer's
``TraceRecorder`` — ``pipeline.add_tap(tap)`` — but it watches the *runtime*
instead of the simulation: wall-clock spans around every decision, the
sense tick's mover step and capture, and every node callback, and
counters/gauges/histograms over the executor, solver,
planner, octree, comm hops and fault engine.

It is strictly off the data path, by construction rather than by care:

* it subscribes to **no topics** — node activity is observed through the
  executor's dispatch observer hooks and payloads are inspected read-only
  as they pass, so the dispatch log (the determinism witness) is identical
  with the tap attached or absent;
* it publishes nothing and calls nothing on the nodes;
* when no tap is attached, the only residue in the runtime is one
  truthiness check per dispatch and six per decision.

One tap instance can observe a whole fleet: each drone's pipeline shares
the tap's tracer (one swimlane per drone) and metrics registry (one label
set per drone).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.tracer import Span, Tracer

#: Buckets for the governor's decision deadline δ_d, seconds.
TIME_BUDGET_BUCKETS: Tuple[float, ...] = (
    0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4,
)


class ObsTap:
    """Passive runtime instrumentation for one mission or fleet run.

    Args:
        tracer: span sink; a fresh :class:`Tracer` by default.
        metrics: metric sink; a fresh :class:`MetricsRegistry` by default.
        process_name: Chrome-trace process name (usually the spec name).
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        process_name: str = "repro",
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer(process_name)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._pipelines: List[Any] = []
        self._executors: List[Any] = []
        # id(node) -> (lane name, short node name); identity keyed because
        # callbacks resolve to bound methods whose __self__ is the node.
        self._node_lanes: Dict[int, Tuple[str, str]] = {}
        # topic name -> (payload kind, lane name) for the payloads sampled.
        self._topic_kinds: Dict[str, Tuple[str, str]] = {}
        # topic name -> last sampled message seq (a topic with N subscribers
        # dispatches the same message N times; sample it once).
        self._seen_seq: Dict[str, int] = {}
        self._open_node_span: Optional[Tuple[int, Span]] = None
        self._mission_spans: Dict[str, Span] = {}
        self._decision_spans: Dict[str, Span] = {}
        self._stage_spans: Dict[str, Span] = {}
        # Hot-path instrument cache, one bundle per lane.
        self._lane_counters: Dict[str, Dict[str, Counter]] = {}
        self._budget_histograms: Dict[str, Histogram] = {}
        self._finished = False

    # ------------------------------------------------------------------
    # Attachment (the pipeline tap protocol)
    # ------------------------------------------------------------------
    def attach(self, pipeline: Any, energy_model: Any = None) -> None:
        """Hook this tap into ``pipeline`` (idempotent per pipeline)."""
        del energy_model  # the tap measures the runtime, not the physics
        if any(p is pipeline for p in self._pipelines):
            return
        self._pipelines.append(pipeline)
        lane = self.lane_for(pipeline)
        self.tracer.lane(lane)
        if self not in pipeline.observers:
            pipeline.observers.append(self)
        executor = pipeline.executor
        executor.add_observer(self)
        if not any(e is executor for e in self._executors):
            self._executors.append(executor)
        for node in pipeline.nodes:
            short = node.name.rsplit("/", 1)[-1]
            self._node_lanes[id(node)] = (lane, short)
        topics = pipeline.topics
        self._topic_kinds[topics.decision] = ("decision", lane)
        self._topic_kinds[topics.planning] = ("planning", lane)
        self._lane_counters.setdefault(lane, self._build_lane_counters(lane))
        self._budget_histograms.setdefault(
            lane,
            self.metrics.histogram(
                "governor_time_budget_seconds",
                help="Decision deadline delta_d chosen by the time budgeter",
                unit="s",
                labels={"drone": lane},
                buckets=TIME_BUDGET_BUCKETS,
            ),
        )

    @staticmethod
    def lane_for(pipeline: Any) -> str:
        return f"drone{pipeline.drone_id}"

    def _build_lane_counters(self, lane: str) -> Dict[str, Counter]:
        labels = {"drone": lane}
        m = self.metrics
        return {
            "dispatches": m.counter(
                "executor_dispatches_total",
                help="Subscriber callbacks delivered for this drone's nodes",
                labels=labels,
            ),
            "decisions": m.counter(
                "decisions_total",
                help="Completed decision cascades",
                labels=labels,
            ),
            "replans": m.counter(
                "planner_replans_total",
                help="Decisions whose planning stage replanned",
                labels=labels,
            ),
            "planner_iterations": m.counter(
                "planner_iterations_total",
                help="RRT* sampling iterations executed",
                labels=labels,
            ),
            "planner_nodes": m.counter(
                "planner_nodes_total",
                help="RRT* tree nodes expanded",
                labels=labels,
            ),
            "collision_samples": m.counter(
                "planner_collision_samples_total",
                help="Collision ray-cast samples probed",
                labels=labels,
            ),
            "rewires": m.counter(
                "planner_rewires_total",
                help="RRT* edges re-parented by the rewiring pass",
                labels=labels,
            ),
            "infeasible": m.counter(
                "governor_infeasible_total",
                help="Decisions where the solver fell back to the safe policy",
                labels=labels,
            ),
            "solver_solves": m.counter(
                "solver_solves_total",
                help="Knob solver invocations",
                labels=labels,
            ),
            "solver_candidates": m.counter(
                "solver_candidates_total",
                help="Precision-ladder candidates the solver evaluated",
                labels=labels,
            ),
        }

    # ------------------------------------------------------------------
    # Executor dispatch observer
    # ------------------------------------------------------------------
    def before_dispatch(self, topic_name: str, callback: Any, message: Any) -> None:
        node = getattr(callback, "__self__", None)
        entry = self._node_lanes.get(id(node))
        if entry is not None:
            lane, short = entry
            self._lane_counters[lane]["dispatches"].inc()
            span = self.tracer.begin(
                short, category="node", lane=lane, args={"topic": topic_name}
            )
            self._open_node_span = (id(node), span)
        kind = self._topic_kinds.get(topic_name)
        if kind is not None:
            seq = message.header.seq
            if self._seen_seq.get(topic_name) != seq:
                self._seen_seq[topic_name] = seq
                payload_kind, lane = kind
                if payload_kind == "planning":
                    self._sample_planning(lane, message.payload)
                else:
                    self._sample_decision(lane, message.payload)

    def after_dispatch(self, topic_name: str, callback: Any, message: Any) -> None:
        del topic_name, message
        open_span = self._open_node_span
        if open_span is None:
            return
        node = getattr(callback, "__self__", None)
        if open_span[0] == id(node):
            self.tracer.end(open_span[1])
            self._open_node_span = None

    # ------------------------------------------------------------------
    # Payload sampling (read-only peeks at passing messages)
    # ------------------------------------------------------------------
    def _sample_planning(self, lane: str, payload: Any) -> None:
        counters = self._lane_counters[lane]
        work = payload.output.work
        counters["planner_iterations"].inc(work.planner_iterations)
        counters["planner_nodes"].inc(work.planner_nodes)
        counters["collision_samples"].inc(work.planner_collision_samples)
        plan = payload.output.plan
        if plan is not None:
            counters["rewires"].inc(plan.rewires)
        if payload.replanned:
            counters["replans"].inc()

    def _sample_decision(self, lane: str, payload: Any) -> None:
        decision = payload.decision
        self._budget_histograms[lane].observe(decision.time_budget)
        if not decision.solver_feasible:
            self._lane_counters[lane]["infeasible"].inc()

    # ------------------------------------------------------------------
    # Pipeline step observer
    # ------------------------------------------------------------------
    def on_decision_start(self, pipeline: Any, index: int) -> None:
        lane = self.lane_for(pipeline)
        if lane not in self._mission_spans:
            self._mission_spans[lane] = self.tracer.begin(
                "mission",
                category="mission",
                lane=lane,
                args={"drone_id": pipeline.drone_id},
            )
        self._decision_spans[lane] = self.tracer.begin(
            "decision",
            category="decision",
            lane=lane,
            args={"index": index, "sim_time_s": pipeline.clock.now},
        )

    def on_stage_start(self, node: Any, stage: str) -> None:
        """Open a stage span (``sense.movers``, ``sense.capture``) for a node."""
        lane = self._node_lanes[id(node)][0]
        self._stage_spans[lane] = self.tracer.begin(stage, category="stage", lane=lane)

    def on_stage_end(self, node: Any, stage: str) -> None:
        del stage
        span = self._stage_spans.pop(self._node_lanes[id(node)][0], None)
        if span is not None:
            self.tracer.end(span)

    def on_decision_end(self, pipeline: Any, index: int, result: Any) -> None:
        lane = self.lane_for(pipeline)
        span = self._decision_spans.pop(lane, None)
        if span is not None:
            self.tracer.end(
                span,
                args={
                    "sim_time_s": pipeline.clock.now,
                    "flown_m": result.flown,
                    "hit": result.hit,
                },
            )
        counters = self._lane_counters[lane]
        counters["decisions"].inc()
        labels = {"drone": lane}

        # Per-stage latency histograms (compute stages and comm_* hops).
        for stage, seconds in pipeline.ledger.stages_for(index).items():
            self.metrics.histogram(
                "pipeline_stage_seconds",
                help="Simulated per-stage latency of the decision cascade",
                unit="s",
                labels={"drone": lane, "stage": stage},
            ).observe(seconds)

        # Map growth and executor pressure.
        octree = pipeline.perception.operators.octree
        self.metrics.gauge(
            "octree_occupied_voxels",
            help="Occupied minimum-resolution voxels in the shared octree",
            labels=labels,
        ).set(octree.occupied_voxel_count())
        executor = pipeline.executor
        self.metrics.gauge(
            "executor_queue_high_water",
            help="Largest executor queue depth reached so far",
            labels={},
        ).set(executor.queue_high_water)
        self.metrics.gauge(
            "executor_queue_depth",
            help="Pending callbacks at the decision boundary",
            labels={},
        ).set(executor.pending)

        # Fault engine activity.
        for fault_name in pipeline.orchestrator.active_fault_names(index):
            self.metrics.counter(
                "fault_active_decisions_total",
                help="Decisions during which each fault was active",
                labels={"drone": lane, "fault": fault_name},
            ).inc()

        # Solver counters (RoboRun runtimes only; the baseline has no solver).
        runtime = getattr(pipeline.governor, "runtime", None)
        governor = getattr(runtime, "governor", None)
        solver = getattr(governor, "solver", None)
        if solver is not None:
            solves = counters["solver_solves"]
            candidates = counters["solver_candidates"]
            solves.inc(max(0, solver.solve_count - solves.value))
            candidates.inc(max(0, solver.candidates_evaluated - candidates.value))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Close every open span and take the final gauge samples."""
        if self._finished:
            return
        self._finished = True
        for lane, span in list(self._decision_spans.items()):
            self.tracer.end(span)
        self._decision_spans.clear()
        for lane, span in list(self._mission_spans.items()):
            self.tracer.end(span)
        self._mission_spans.clear()
        for executor in self._executors:
            self.metrics.gauge(
                "executor_queue_high_water",
                help="Largest executor queue depth reached so far",
                labels={},
            ).set(executor.queue_high_water)
            self.metrics.gauge(
                "executor_dispatched",
                help="Total callbacks the executor delivered",
                labels={},
            ).set(executor.dispatched)
        self.tracer.finish()

    def export(self, out_dir: Any, stem: str = "obs") -> Dict[str, Any]:
        """Write the trace + metric artefacts under ``out_dir``.

        Returns the paths written: ``trace`` (Chrome trace JSON),
        ``metrics`` (JSON snapshot) and ``prometheus`` (text exposition).
        """
        from pathlib import Path

        self.finish()
        out = Path(out_dir)
        return {
            "trace": self.tracer.write_chrome_trace(out / f"{stem}_trace.json"),
            "metrics": self.metrics.write_snapshot(out / f"{stem}_metrics.json"),
            "prometheus": self.metrics.write_prometheus(out / f"{stem}_metrics.prom"),
        }
