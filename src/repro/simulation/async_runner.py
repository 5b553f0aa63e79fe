"""Asynchronous campaign engine: persistent work-stealing workers.

This is the one parallel engine behind
:class:`~repro.simulation.campaign.CampaignRunner`.  A ``Pool.map`` barrier
would assign every spec up front, so a fast worker idles while a slow
archetype finishes, and one hard-crashed worker (SIGKILL, OOM-kill,
segfault in an extension) wedges the whole campaign.  This engine is the
GenTen-style asynchronous alternative:

* **Work stealing** — N persistent worker processes pull ``(index,
  payload)`` tasks from one shared queue, so mission-length skew between
  archetypes never strands capacity; result rows stream back on a second
  queue as they finish, overlapping the parent's heartbeat draining and
  trace IO with worker compute.
* **Crash containment** — each worker advertises the spec it is flying in
  a shared claims array (a synchronous memory write, so it survives the
  worker being SIGKILLed a microsecond later).  When the parent notices a
  dead worker it requeues the claimed spec with exponential backoff and
  spawns a replacement; after ``max_attempts`` dispatches the spec is
  excluded as poisoned and surfaced as an error outcome — never a hang.
* **Timeouts** — with ``spec_timeout_s`` set, a worker whose claim has
  outlived the budget is killed outright and its spec goes through the
  same retry/exclusion path.

Determinism matches the serial path: rows are keyed by spec index and
reassembled in spec order, and each trace file depends only on its spec (a
retried attempt truncates and rewrites the identical bytes), so serial and
async runs of the same grid agree byte-for-byte.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_mod
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from repro.simulation.campaign import (
    _run_payload,
    _telemetry_initializer,
    write_error_trace,
)

#: Claims-array value meaning "this worker holds no spec".
_IDLE = -1

#: Longest the parent sleeps on the result queue between housekeeping
#: passes (liveness checks, timeout enforcement, retry release).
_MAX_POLL_S = 0.5


def _async_worker_main(
    worker_id: int,
    claims: Any,
    task_queue: Any,
    result_queue: Any,
    telemetry_queue: Optional[Any],
) -> None:
    """Persistent worker loop: pull specs until the ``None`` sentinel.

    The claim is written into shared memory *before* the payload runs and
    cleared only *after* the result row is enqueued, so the parent can
    always attribute a dead worker to the spec it was flying.
    """
    if telemetry_queue is not None:
        _telemetry_initializer(telemetry_queue)
    while True:
        item = task_queue.get()
        if item is None:
            return
        index, payload = item
        claims[worker_id] = index
        row = _run_payload(payload)
        result_queue.put((index, row))
        claims[worker_id] = _IDLE


@dataclass
class _Claim:
    """Parent-side view of one worker's current spec."""

    index: int
    since: float  # perf_counter when the parent first observed the claim


class AsyncCampaignEngine:
    """Runs campaign payloads on persistent work-stealing workers.

    Created per campaign by :meth:`CampaignRunner._run_async`; see the
    module docstring for the execution model and
    :class:`~repro.simulation.campaign.CampaignRunner` for the knobs.
    """

    def __init__(
        self,
        workers: int,
        spec_timeout_s: Optional[float] = None,
        max_attempts: int = 3,
        retry_backoff_s: float = 0.1,
    ) -> None:
        if workers < 1:
            raise ValueError("the async engine needs at least one worker")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.workers = workers
        self.spec_timeout_s = spec_timeout_s
        self.max_attempts = max_attempts
        self.retry_backoff_s = retry_backoff_s

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(
        self,
        payloads: List[Dict[str, Any]],
        telemetry: bool = False,
        progress: Optional[Any] = None,
        heartbeats: Optional[List[Dict[str, Any]]] = None,
    ) -> List[Dict[str, Any]]:
        """Fly every payload; returns one result row per payload, in order."""
        total = len(payloads)
        if total == 0:
            return []
        if heartbeats is None:
            heartbeats = []
        self._telemetry = telemetry
        self._progress = progress
        self._heartbeats = heartbeats
        self._payloads = payloads

        context = multiprocessing.get_context()
        self._task_queue = context.Queue()
        self._result_queue = context.Queue()
        self._telemetry_queue = context.Queue() if telemetry else None
        # lock=False: each slot has exactly one writer (its worker); the
        # parent only reads.
        self._claims = context.Array("q", [_IDLE] * self.workers, lock=False)
        self._context = context

        self._rows: Dict[int, Dict[str, Any]] = {}
        self._attempts: Dict[int, int] = {}
        self._queued: Set[int] = set()
        self._delayed: List[tuple] = []  # (ready_time, index)
        self._active: Dict[int, _Claim] = {}
        self._death_seen = False
        self._starved_passes = 0

        for index, _ in enumerate(payloads):
            self._dispatch(index)
        self._procs: List[Any] = [self._spawn(wid) for wid in range(self.workers)]

        try:
            while len(self._rows) < total:
                self._collect_result()
                self._drain_telemetry()
                self._observe_claims()
                self._reap_dead_workers()
                self._enforce_timeouts()
                self._release_retries()
                self._recover_starvation()
        finally:
            self._shutdown()
        return [self._rows[index] for index in range(total)]

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, worker_id: int) -> Any:
        self._claims[worker_id] = _IDLE
        proc = self._context.Process(
            target=_async_worker_main,
            args=(
                worker_id,
                self._claims,
                self._task_queue,
                self._result_queue,
                self._telemetry_queue,
            ),
            daemon=True,
            name=f"campaign-worker-{worker_id}",
        )
        proc.start()
        return proc

    def _reap_dead_workers(self) -> None:
        for worker_id, proc in enumerate(self._procs):
            if proc is None or proc.is_alive():
                continue
            exitcode = proc.exitcode
            proc.join()
            self._procs[worker_id] = None
            self._death_seen = True
            claim = self._active.pop(worker_id, None)
            if claim is not None and claim.index not in self._rows:
                self._retry_or_exclude(
                    claim.index,
                    reason=(
                        f"worker pid={proc.pid} died with exit code "
                        f"{exitcode} while flying this spec"
                    ),
                    error_type="WorkerCrashError",
                    elapsed=time.perf_counter() - claim.since,
                )
            if len(self._rows) < len(self._payloads):
                self._procs[worker_id] = self._spawn(worker_id)

    def _enforce_timeouts(self) -> None:
        if self.spec_timeout_s is None:
            return
        now = time.perf_counter()
        for worker_id, claim in list(self._active.items()):
            if claim.index in self._rows:
                continue  # stale slot: the result already landed
            elapsed = now - claim.since
            if elapsed < self.spec_timeout_s:
                continue
            proc = self._procs[worker_id]
            if proc is not None and proc.is_alive():
                proc.kill()
                proc.join()
                self._procs[worker_id] = None
            self._active.pop(worker_id, None)
            self._death_seen = True
            spec_name = self._spec_name(claim.index)
            self._emit(
                claim.index,
                "timeout",
                elapsed,
                error=(
                    f"spec {spec_name!r} exceeded the "
                    f"{self.spec_timeout_s:g}s wall-clock budget"
                ),
            )
            self._retry_or_exclude(
                claim.index,
                reason=(
                    f"spec exceeded its {self.spec_timeout_s:g}s wall-clock "
                    f"budget ({elapsed:.1f}s elapsed); worker was killed"
                ),
                error_type="SpecTimeoutError",
                elapsed=elapsed,
            )
            if len(self._rows) < len(self._payloads):
                self._procs[worker_id] = self._spawn(worker_id)

    # ------------------------------------------------------------------
    # Task accounting
    # ------------------------------------------------------------------
    def _dispatch(self, index: int) -> None:
        self._attempts[index] = self._attempts.get(index, 0) + 1
        self._queued.add(index)
        self._task_queue.put((index, self._payloads[index]))

    def _retry_or_exclude(
        self, index: int, reason: str, error_type: str, elapsed: float
    ) -> None:
        """A dispatched attempt was lost; back off and requeue, or give up."""
        if self._attempts.get(index, 0) >= self.max_attempts:
            self._exclude(index, reason, error_type, elapsed)
            return
        backoff = self.retry_backoff_s * (2 ** (self._attempts[index] - 1))
        self._delayed.append((time.perf_counter() + backoff, index))
        self._emit(
            index,
            "retry",
            elapsed,
            error=f"{reason}; retrying (attempt "
            f"{self._attempts[index] + 1}/{self.max_attempts})",
        )

    def _exclude(
        self, index: int, reason: str, error_type: str, elapsed: float
    ) -> None:
        """Poisoned spec: stop retrying and surface an error outcome."""
        payload = self._payloads[index]
        spec_dict = payload["spec"]
        message = (
            f"{reason}; excluded after "
            f"{self._attempts.get(index, 0)}/{self.max_attempts} attempt(s)"
        )
        error = {
            "type": error_type,
            "message": message,
            "traceback": "",
            "spec_json": json.dumps(spec_dict, sort_keys=True),
        }
        self._rows[index] = {"spec": spec_dict, "error": error}
        if payload.get("trace_dir"):
            write_error_trace(payload["trace_dir"], spec_dict, error)
        self._emit(index, "error", elapsed, error=f"{error_type}: {message}")

    def _release_retries(self) -> None:
        if not self._delayed:
            return
        now = time.perf_counter()
        ready = [entry for entry in self._delayed if entry[0] <= now]
        if not ready:
            return
        self._delayed = [entry for entry in self._delayed if entry[0] > now]
        for _, index in ready:
            if index not in self._rows:
                self._dispatch(index)

    def _recover_starvation(self) -> None:
        """Requeue tasks lost in the get→claim window of a killed worker.

        A worker SIGKILLed after pulling a task but before writing its claim
        takes the task to its grave without the parent ever learning which
        one.  The signature is: a death happened, no claims are live, no
        retries are pending, the task queue is empty — yet rows are missing.
        Two consecutive starved passes (so a worker merely between ``get``
        and the claim write isn't mistaken for a loss) requeue the missing
        indices.  A spurious requeue is harmless: rows are keyed by index
        and a duplicate result carries identical bytes.
        """
        missing = [
            index
            for index in self._queued
            if index not in self._rows
        ]
        if (
            not self._death_seen
            or not missing
            or self._active
            or self._delayed
            or not self._task_queue.empty()
        ):
            self._starved_passes = 0
            return
        self._starved_passes += 1
        if self._starved_passes < 2:
            return
        self._starved_passes = 0
        for index in missing:
            self._dispatch(index)

    # ------------------------------------------------------------------
    # Event collection
    # ------------------------------------------------------------------
    def _poll_timeout(self) -> float:
        timeout = _MAX_POLL_S
        now = time.perf_counter()
        if self.spec_timeout_s is not None:
            for claim in self._active.values():
                timeout = min(
                    timeout, claim.since + self.spec_timeout_s - now
                )
        for ready_time, _ in self._delayed:
            timeout = min(timeout, ready_time - now)
        return max(timeout, 0.02)

    def _collect_result(self) -> None:
        try:
            index, row = self._result_queue.get(True, self._poll_timeout())
        except queue_mod.Empty:
            return
        if index not in self._rows:
            self._rows[index] = row
        self._queued.discard(index)
        # Drop stale claims for this index so the timeout sweep never kills
        # a worker over a spec that already finished.
        for worker_id, claim in list(self._active.items()):
            if claim.index == index:
                del self._active[worker_id]

    def _observe_claims(self) -> None:
        now = time.perf_counter()
        for worker_id in range(self.workers):
            value = self._claims[worker_id]
            if value == _IDLE:
                self._active.pop(worker_id, None)
                continue
            current = self._active.get(worker_id)
            if current is None or current.index != value:
                self._active[worker_id] = _Claim(index=value, since=now)
            self._queued.discard(value)

    def _drain_telemetry(self) -> None:
        if self._telemetry_queue is None:
            return
        while True:
            try:
                record = self._telemetry_queue.get_nowait()
            except queue_mod.Empty:
                return
            self._heartbeats.append(record)
            if self._progress is not None:
                self._progress(record)

    def _spec_name(self, index: int) -> str:
        return str(self._payloads[index]["spec"].get("name", "unnamed"))

    def _emit(
        self, index: int, status: str, elapsed: float, error: str = ""
    ) -> None:
        """Parent-synthesised heartbeat for retry/timeout/exclusion events."""
        if not self._telemetry:
            return
        from repro.obs.heartbeat import HeartbeatRecord

        record = HeartbeatRecord(
            spec=self._spec_name(index),
            status=status,
            seq=0,
            epoch=-1,
            decisions=0,
            wall_elapsed_s=elapsed,
            rss_mb=0.0,
            pid=os.getpid(),
            error=error,
        ).to_dict()
        self._heartbeats.append(record)
        if self._progress is not None:
            self._progress(record)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def _shutdown(self) -> None:
        alive = [proc for proc in self._procs if proc is not None]
        for _ in alive:
            try:
                self._task_queue.put(None)
            except (ValueError, OSError):  # pragma: no cover - queue closed
                break
        deadline = time.monotonic() + 2.0
        for proc in alive:
            proc.join(timeout=max(deadline - time.monotonic(), 0.1))
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
                proc.join()
        self._drain_telemetry()
        # Unconsumed sentinels (a worker died before its sentinel) must not
        # block interpreter shutdown on the queue's feeder thread.
        self._task_queue.cancel_join_thread()
        self._task_queue.close()
        self._result_queue.cancel_join_thread()
        self._result_queue.close()
        if self._telemetry_queue is not None:
            self._telemetry_queue.cancel_join_thread()
            self._telemetry_queue.close()
