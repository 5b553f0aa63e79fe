"""Shared fixtures for the benchmark harness.

Every mission-level benchmark reuses a single pair of missions (RoboRun and
the spatial-oblivious baseline) flown through a reduced-scale environment.
The paper's environments are 600–1200 m; the reduced scale (120 m, mild
density) keeps the full benchmark suite runnable in minutes of pure Python
while preserving the A/B *shape* — which design wins and by roughly what
factor — that EXPERIMENTS.md records.  Scale the parameters back up for a
full-fidelity run.

The benchmarks are built on the scenario layer: each mission is a
:class:`ScenarioSpec`, and multi-mission sweeps go through the
:class:`CampaignRunner` so they parallelise across cores where available.
"""

import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import (  # noqa: E402
    CampaignRunner,
    EnvironmentConfig,
    MissionConfig,
    ScenarioSpec,
)

@pytest.fixture(autouse=True, scope="session")
def bench_out_dir(tmp_path_factory):
    """Send the perf suites' ``BENCH_*.json`` to a temporary directory.

    A plain test run must not rewrite the committed baselines in the repo
    root.  An explicit ``BENCH_OUT_DIR`` wins (the CI perf-smoke job sets
    one); regenerate the baselines with
    ``BENCH_OUT_DIR=. pytest benchmarks/test_perf_*.py``.
    """
    if os.environ.get("BENCH_OUT_DIR"):
        yield Path(os.environ["BENCH_OUT_DIR"])
        return
    out_dir = tmp_path_factory.mktemp("bench_out")
    os.environ["BENCH_OUT_DIR"] = str(out_dir)
    try:
        yield out_dir
    finally:
        del os.environ["BENCH_OUT_DIR"]


# Reduced-scale stand-in for the paper's mid-difficulty environment.
BENCH_ENV = EnvironmentConfig(
    obstacle_density=0.3, obstacle_spread=40.0, goal_distance=120.0, seed=11
)
BENCH_MISSION = MissionConfig(max_decisions=500, max_mission_time_s=1500.0)


def bench_spec(design: str, env_config: EnvironmentConfig = BENCH_ENV, mission=BENCH_MISSION):
    """The scenario spec for one benchmark mission of the named design."""
    return ScenarioSpec(
        name=f"bench_{design}_{env_config.label()}",
        design=design,
        environment=env_config,
        mission=mission,
    )


@pytest.fixture(scope="session")
def mission_pair():
    """One RoboRun mission and one baseline mission on the shared environment.

    The pair is flown as a two-scenario campaign (parallel when the machine
    has the cores for it) with full results kept for the trace-level figures.
    """
    specs = [bench_spec("roborun"), bench_spec("spatial_oblivious")]
    campaign = CampaignRunner().run(specs, keep_results=True)
    return {
        outcome.spec.design: outcome.result for outcome in campaign.outcomes
    }


def print_table(title, rows):
    """Print a small aligned table to stdout (captured with pytest -s)."""
    print(f"\n=== {title} ===")
    for row in rows:
        print("  " + " | ".join(str(item) for item in row))
