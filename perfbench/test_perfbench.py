"""The benchmark's own tests, at a tiny size (a few decisions per mission)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import catalog, run
from perfbench.layers import DECISION_LAYERS
from perfbench.workloads import WORKLOADS, CorrectnessError, _InProcessPair

ROOT = Path(__file__).resolve().parents[1]
TINY = ["--max-decisions", "3", "--seconds", "0.1"]


def _bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(completed):
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in catalog.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in catalog.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize(
    "workload,trace,world",
    [(w, t, world) for w in WORKLOADS for t, world in ((0, "dev"), (1, "heldout"))],
)
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace, world):
    result = _result(
        _bench(
            ["--workload", workload, "--seed", "3", "--trace", str(trace),
             "--world-seed", world, "--out-dir", str(tmp_path), *TINY]
        )
    )
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = catalog.PER_LAYER if trace else catalog.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m.name: m.unit for m in expected
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    report = (tmp_path / "report.md").read_text()
    assert "git rev" in report and "cpu_count" in report and workload in report
    host = json.loads((tmp_path / "results.jsonl").read_text().splitlines()[-1])["host"]
    if not trace:
        # A reading before and after the set-ups, and one after every unit.
        assert len(host["reference_s"]) == len(host["unit_wall_s"]) + 2
        assert all(r > 0 for r in host["reference_s"])


def test_layer_self_times_add_up_to_the_step(tmp_path):
    result = _result(
        _bench(["--workload", "fleet_rubble", "--seed", "1", "--trace", "1",
                "--out-dir", str(tmp_path), *TINY])
    )
    values = {name: m["value"] for name, m in result["metrics"].items()}
    layered = sum(values[name] for name in DECISION_LAYERS.values())
    layered += values["planning.rrt_ms"] * values["planning.plan_calls"]
    layered += values["simulation.step_other_ms"]
    assert layered == pytest.approx(values["simulation.step_ms"], rel=1e-9)


def test_gate_rejects_a_perturbed_digest():
    good = type("Unit", (), {"digest": "a" * 64})()
    bad = type("Unit", (), {"digest": "b" + "a" * 63})()
    run._gate([good], "a" * 64, "in a test")
    with pytest.raises(CorrectnessError):
        run._gate([good, bad], "a" * 64, "in a test")


def test_perturbed_digest_fails_the_run_without_numbers(tmp_path, monkeypatch, capsys):
    original = _InProcessPair.run_unit
    calls = []

    def perturbed(self, specs, work_dir):
        unit = original(self, specs, work_dir)
        calls.append(unit)
        if len(calls) == 2:
            unit.digest = "0" * 64
        return unit

    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(_InProcessPair, "run_unit", perturbed)
    code = run.main(
        ["--workload", "fleet_rubble", "--seed", "1", "--trace", "1",
         "--out-dir", str(tmp_path), *TINY]
    )
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert line["correct"] is False and line["metrics"] == {}
    assert line["failed"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _bench(["--workload", "fleet_rubble", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
