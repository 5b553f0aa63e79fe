"""The async campaign engine: work stealing, chaos, timeouts, resume.

The acceptance bar: serial and async runs of the same grid produce
byte-identical per-spec JSONL traces and identical aggregates — plus
robustness a ``Pool.map`` barrier cannot offer: a SIGKILLed worker neither
hangs nor aborts the campaign, a poisoned spec is excluded as an error
outcome after bounded retries, and ``resume=True`` skips specs whose traces
already completed.

The chaos tests monkeypatch ``ScenarioSpec.run`` in the parent and rely on
``fork`` propagating the patch into the workers, so they are skipped on
platforms whose default start method is ``spawn``.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro import (
    CAMPAIGN_MODES,
    CampaignReport,
    CampaignRunner,
    EnvironmentConfig,
    MissionConfig,
    ScenarioSpec,
)
from repro.analysis.io import is_complete_trace, trace_path
from repro.simulation.campaign import (
    CAMPAIGN_MODE_ENV,
    CampaignResult,
    ScenarioOutcome,
    _run_payload,
    write_error_trace,
)

TINY_ENV = EnvironmentConfig(
    obstacle_density=0.2, obstacle_spread=25.0, goal_distance=40.0, seed=7
)
TINY_CFG = MissionConfig(max_decisions=5, max_mission_time_s=60.0)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="chaos tests inject faults via fork-inherited monkeypatches",
)


def _specs(count=3, max_decisions=5):
    cfg = dataclasses.replace(TINY_CFG, max_decisions=max_decisions)
    return [
        ScenarioSpec(name=f"async-{i}", environment=TINY_ENV, mission=cfg).seeded(
            20 + i
        )
        for i in range(count)
    ]


class TestModeSelection:
    def test_default_mode_is_async(self, monkeypatch):
        monkeypatch.delenv(CAMPAIGN_MODE_ENV, raising=False)
        assert CampaignRunner().mode == "async"

    def test_env_var_selects_async(self, monkeypatch):
        monkeypatch.setenv(CAMPAIGN_MODE_ENV, "async")
        assert CampaignRunner().mode == "async"

    def test_env_var_sync_rejected(self, monkeypatch):
        # The sync pool is gone; the environment variable cannot revive it.
        monkeypatch.setenv(CAMPAIGN_MODE_ENV, "sync")
        with pytest.raises(ValueError, match="'serial', 'async'"):
            CampaignRunner()

    def test_explicit_mode_beats_env(self, monkeypatch):
        monkeypatch.setenv(CAMPAIGN_MODE_ENV, "async")
        assert CampaignRunner(mode="serial").mode == "serial"

    def test_modes_are_the_public_tuple(self):
        assert CAMPAIGN_MODES == ("serial", "async")

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            CampaignRunner(mode="warp")
        with pytest.raises(ValueError, match="mode"):
            CampaignRunner(mode="sync")
        with pytest.raises(ValueError, match="spec_timeout_s"):
            CampaignRunner(spec_timeout_s=0.0)
        with pytest.raises(ValueError, match="max_attempts"):
            CampaignRunner(max_attempts=0)
        with pytest.raises(ValueError, match="retry_backoff_s"):
            CampaignRunner(retry_backoff_s=-1.0)

    def test_serial_mode_forces_inline_even_with_workers(self):
        campaign = CampaignRunner(max_workers=4, mode="serial").run(_specs(2))
        assert all(o.ok for o in campaign.outcomes)


class TestModeEquivalence:
    """Serial and async agree byte-for-byte and row-for-row."""

    def test_traces_and_summary_identical_across_modes(self, tmp_path):
        specs = _specs(3)
        results = {}
        for mode, workers in (("serial", 1), ("async", 2)):
            results[mode] = CampaignRunner(max_workers=workers, mode=mode).run(
                specs, trace_dir=tmp_path / mode
            )
        names = sorted(p.name for p in (tmp_path / "serial").glob("*.jsonl"))
        assert len(names) == len(specs)
        assert sorted(p.name for p in (tmp_path / "async").glob("*.jsonl")) == names
        for name in names:
            assert (tmp_path / "async" / name).read_bytes() == (
                tmp_path / "serial" / name
            ).read_bytes(), f"async trace diverged: {name}"
        assert results["async"].summary() == results["serial"].summary()
        assert [o.metrics for o in results["async"].outcomes] == [
            o.metrics for o in results["serial"].outcomes
        ]

    def test_async_preserves_spec_order(self):
        specs = _specs(4)
        campaign = CampaignRunner(max_workers=2, mode="async").run(specs)
        assert [o.spec.name for o in campaign.outcomes] == [s.name for s in specs]

    def test_async_streams_heartbeats(self, tmp_path):
        from repro.obs.heartbeat import HEARTBEAT_FILE, read_heartbeats

        specs = _specs(2)
        CampaignRunner(max_workers=2, mode="async").run(
            specs, telemetry_dir=tmp_path / "telemetry"
        )
        records = read_heartbeats(tmp_path / "telemetry" / HEARTBEAT_FILE)
        statuses = {(r.spec, r.status) for r in records}
        for spec in specs:
            assert (spec.name, "start") in statuses
            assert (spec.name, "done") in statuses


@fork_only
class TestChaos:
    """SIGKILLed workers: retry-then-success and bounded exclusion."""

    def test_killed_worker_is_retried_to_success(self, tmp_path, monkeypatch):
        real_run = ScenarioSpec.run
        flag = tmp_path / "killed-once.flag"

        def chaotic_run(self, recorder=None, taps=()):
            if self.name == "victim" and not flag.exists():
                flag.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return real_run(self, recorder=recorder, taps=taps)

        monkeypatch.setattr(ScenarioSpec, "run", chaotic_run)
        specs = [
            ScenarioSpec(name="victim", environment=TINY_ENV, mission=TINY_CFG).seeded(1),
            ScenarioSpec(name="calm", environment=TINY_ENV, mission=TINY_CFG).seeded(2),
        ]
        seen = []
        campaign = CampaignRunner(
            max_workers=2, mode="async", max_attempts=3, retry_backoff_s=0.05
        ).run(specs, trace_dir=tmp_path / "traces", progress=seen.append)
        assert all(o.ok for o in campaign.outcomes)
        assert "retry" in {r["status"] for r in seen}

        # The retried attempt rewrote the victim's trace byte-identically
        # to an undisturbed run of the same specs.
        flag.touch()  # already exists; keeps the patched run benign
        CampaignRunner(max_workers=1).run(specs, trace_dir=tmp_path / "clean")
        for path in sorted((tmp_path / "clean").glob("*.jsonl")):
            assert (tmp_path / "traces" / path.name).read_bytes() == (
                path.read_bytes()
            ), f"post-retry trace diverged: {path.name}"

    def test_poisoned_spec_is_excluded_not_hung(self, tmp_path, monkeypatch):
        real_run = ScenarioSpec.run

        def poisoned_run(self, recorder=None, taps=()):
            if self.name == "poison":
                os.kill(os.getpid(), signal.SIGKILL)
            return real_run(self, recorder=recorder, taps=taps)

        monkeypatch.setattr(ScenarioSpec, "run", poisoned_run)
        specs = [
            ScenarioSpec(name="poison", environment=TINY_ENV, mission=TINY_CFG).seeded(1),
            ScenarioSpec(name="calm", environment=TINY_ENV, mission=TINY_CFG).seeded(2),
        ]
        seen = []
        campaign = CampaignRunner(
            max_workers=2, mode="async", max_attempts=2, retry_backoff_s=0.05
        ).run(specs, trace_dir=tmp_path / "traces", progress=seen.append)
        outcome = {o.spec.name: o for o in campaign.outcomes}
        assert outcome["calm"].ok
        assert not outcome["poison"].ok
        assert outcome["poison"].error["type"] == "WorkerCrashError"
        assert "2/2" in outcome["poison"].error["message"]
        assert {r["status"] for r in seen} >= {"retry", "error"}
        # The excluded spec still leaves an error record on disk so the
        # report's partial-failures section covers it.
        poison_trace = trace_path(tmp_path / "traces", "poison")
        assert poison_trace.exists()
        assert not is_complete_trace(poison_trace)
        report = CampaignReport.from_trace_dir(tmp_path / "traces")
        assert len(report.failures()) == 1

    def test_spec_timeout_kills_and_excludes(self, monkeypatch):
        real_run = ScenarioSpec.run

        def sleepy_run(self, recorder=None, taps=()):
            if self.name == "sleeper":
                time.sleep(60)
            return real_run(self, recorder=recorder, taps=taps)

        monkeypatch.setattr(ScenarioSpec, "run", sleepy_run)
        specs = [
            ScenarioSpec(name="sleeper", environment=TINY_ENV, mission=TINY_CFG).seeded(1),
            ScenarioSpec(name="calm", environment=TINY_ENV, mission=TINY_CFG).seeded(2),
        ]
        seen = []
        started = time.perf_counter()
        campaign = CampaignRunner(
            max_workers=2, mode="async", spec_timeout_s=0.5, max_attempts=1
        ).run(specs, progress=seen.append)
        assert time.perf_counter() - started < 30.0
        outcome = {o.spec.name: o for o in campaign.outcomes}
        assert outcome["calm"].ok
        assert not outcome["sleeper"].ok
        assert outcome["sleeper"].error["type"] == "SpecTimeoutError"
        assert "timeout" in {r["status"] for r in seen}


class TestResume:
    def test_resume_requires_trace_dir(self):
        with pytest.raises(ValueError, match="trace_dir"):
            CampaignRunner(max_workers=1).run(_specs(1), resume=True)

    def test_resume_skips_completed_and_matches_uninterrupted_run(
        self, tmp_path, monkeypatch
    ):
        specs = _specs(3)
        full_dir = tmp_path / "full"
        resumed_dir = tmp_path / "resumed"
        CampaignRunner(max_workers=1).run(specs, trace_dir=full_dir)
        CampaignRunner(max_workers=1).run(specs, trace_dir=resumed_dir)

        # Interrupt after the fact: one trace vanishes, one is torn mid-line,
        # and a file from some other campaign is lying around.
        gone = trace_path(resumed_dir, specs[1].name)
        torn = trace_path(resumed_dir, specs[2].name)
        gone.unlink()
        torn.write_text(torn.read_text(encoding="utf-8")[:100], encoding="utf-8")
        (resumed_dir / "stale_other.jsonl").write_text("{}\n", encoding="utf-8")

        flown = []
        real_run = ScenarioSpec.run

        def counting_run(self, recorder=None, taps=()):
            flown.append(self.name)
            return real_run(self, recorder=recorder, taps=taps)

        monkeypatch.setattr(ScenarioSpec, "run", counting_run)
        campaign = CampaignRunner(max_workers=1).run(
            specs, trace_dir=resumed_dir, resume=True
        )

        # Only the missing and torn specs were re-flown; the stale file from
        # another campaign was swept.
        assert sorted(flown) == sorted([specs[1].name, specs[2].name])
        assert not (resumed_dir / "stale_other.jsonl").exists()
        assert len(campaign) == len(specs)
        assert all(o.ok for o in campaign.outcomes)
        assert campaign.outcomes[0].metrics is not None

        # Byte-for-byte, the resumed directory equals the uninterrupted run,
        # so the final report does too.
        names = sorted(p.name for p in full_dir.glob("*.jsonl"))
        assert sorted(p.name for p in resumed_dir.glob("*.jsonl")) == names
        for name in names:
            assert (resumed_dir / name).read_bytes() == (
                full_dir / name
            ).read_bytes(), f"resumed trace diverged: {name}"
        full_md = CampaignReport.from_trace_dir(full_dir).to_markdown(title="t")
        resumed_md = CampaignReport.from_trace_dir(resumed_dir).to_markdown(title="t")
        assert resumed_md == full_md

    def test_resume_with_nothing_to_skip_flies_everything(self, tmp_path):
        specs = _specs(2)
        campaign = CampaignRunner(max_workers=1).run(
            specs, trace_dir=tmp_path / "fresh", resume=True
        )
        assert all(o.ok for o in campaign.outcomes)
        for spec in specs:
            assert is_complete_trace(trace_path(tmp_path / "fresh", spec.name))

    def test_error_trace_is_not_resumable(self, tmp_path, monkeypatch):
        def exploding_run(self, recorder=None, taps=()):
            raise RuntimeError("boom")

        monkeypatch.setattr(ScenarioSpec, "run", exploding_run)
        spec = _specs(1)[0]
        CampaignRunner(max_workers=1).run([spec], trace_dir=tmp_path)
        path = trace_path(tmp_path, spec.name)
        assert path.exists()
        assert not is_complete_trace(path)

    def test_worker_and_parent_error_records_are_byte_identical(self, tmp_path):
        # A spec that fails to parse: the worker writes its error record into
        # the open trace, the parent-side twin replaces the file with its own.
        # Both build the record with the same helper, so the bytes agree.
        spec_dict = dict(_specs(1)[0].to_dict(), mission={"max_decisions": -1})
        row = _run_payload({"spec": spec_dict, "trace_dir": str(tmp_path / "worker")})
        assert row["error"]["type"] == "ValueError"
        write_error_trace(tmp_path / "parent", spec_dict, row["error"])
        worker = trace_path(tmp_path / "worker", spec_dict["name"]).read_bytes()
        parent = trace_path(tmp_path / "parent", spec_dict["name"]).read_bytes()
        assert worker == parent
        assert worker.count(b"\n") == 1


class TestReportCLI:
    def _grid_file(self, tmp_path):
        grid = {"specs": [spec.to_dict() for spec in _specs(2)]}
        path = tmp_path / "mini_grid.json"
        path.write_text(json.dumps(grid), encoding="utf-8")
        return path

    def test_async_run_then_resume(self, tmp_path):
        from repro.report import main

        grid = self._grid_file(tmp_path)
        out = tmp_path / "report.md"
        traces = tmp_path / "traces"
        rc = main(
            [
                "--grid", str(grid), "--mode", "async", "--workers", "2",
                "--out", str(out), "--trace-dir", str(traces), "--no-telemetry",
            ]
        )
        assert rc == 0
        assert out.is_file()
        baseline = {p.name: p.read_bytes() for p in traces.glob("*.jsonl")}
        assert baseline

        # Lose one trace; --resume re-flies only that spec and restores the
        # directory (and therefore the report) byte-for-byte.
        report_bytes = out.read_bytes()
        sorted(traces.glob("*.jsonl"))[0].unlink()
        rc = main(
            [
                "--grid", str(grid), "--resume", "--workers", "1",
                "--out", str(out), "--trace-dir", str(traces), "--no-telemetry",
            ]
        )
        assert rc == 0
        assert {p.name: p.read_bytes() for p in traces.glob("*.jsonl")} == baseline
        assert out.read_bytes() == report_bytes

    def test_resume_rejected_without_grid(self, tmp_path):
        from repro.report import main

        with pytest.raises(SystemExit):
            main(["--traces", str(tmp_path), "--resume"])


class TestMeanMetricHeterogeneous:
    """mean_metric over campaigns whose outcomes carry different metric keys."""

    def _outcome(self, name, metrics):
        spec = ScenarioSpec(name=name, environment=TINY_ENV, mission=TINY_CFG)
        return ScenarioOutcome(spec=spec, metrics=metrics)

    def test_mean_skips_outcomes_without_the_key(self):
        result = CampaignResult(
            outcomes=[
                self._outcome("a", {"mission_time_s": 10.0, "fleet_energy_kj": 3.0}),
                self._outcome("b", {"mission_time_s": 20.0}),
            ]
        )
        # No KeyError, and the denominator is the carrying outcomes only.
        assert result.mean_metric("fleet_energy_kj") == pytest.approx(3.0)
        assert result.metric_count("fleet_energy_kj") == 1
        assert result.mean_metric("mission_time_s") == pytest.approx(15.0)
        assert result.metric_count("mission_time_s") == 2

    def test_summary_survives_heterogeneous_metrics(self):
        result = CampaignResult(
            outcomes=[
                self._outcome("a", {"mission_time_s": 10.0}),
                self._outcome("b", {"success": 1.0}),
            ]
        )
        summary = result.summary()  # must not raise
        assert summary["roborun"]["missions"] == 2.0

    def test_absent_key_is_zero(self):
        result = CampaignResult(outcomes=[self._outcome("a", {"x": 1.0})])
        assert result.mean_metric("no_such_metric") == 0.0
        assert result.metric_count("no_such_metric") == 0
