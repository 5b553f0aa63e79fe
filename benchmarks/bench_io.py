"""Unified benchmark-result I/O: one schema for every ``BENCH_*.json``.

Every perf suite (fleet throughput, spatial-index microbenchmarks, world
generation) funnels its numbers through :func:`write_bench` so the committed
``BENCH_<suite>.json`` files share one shape and accumulate a comparable
perf trajectory PR over PR:

.. code-block:: json

    {
      "schema_version": 1,
      "suite": "fleet",
      "git_rev": "58e64ee",
      "timestamp": 1754600000.0,
      "machine": {"platform": "...", "python": "...", "cpu_count": 1},
      "config": {"...suite-specific knobs..."},
      "results": {"...suite-specific metrics..."}
    }

The *runner* passes the timestamp in (``time.time()`` at the end of the
measured run) so the schema layer stays deterministic and testable.  Metric
keys ending in ``_per_s`` or ``_speedup`` are the comparable, higher-is-better
numbers that ``check_perf_regression.py`` gates on.

Results land in the repo root by default; set the ``BENCH_OUT_DIR``
environment variable (as the CI perf-smoke job does) to redirect fresh runs
somewhere else so they can be compared against the committed baselines
instead of overwriting them.  Under pytest, ``benchmarks/conftest.py``
points an unset ``BENCH_OUT_DIR`` at a temporary directory, so regenerating
the committed baselines is explicit:
``BENCH_OUT_DIR=. pytest benchmarks/test_perf_*.py``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]

SCHEMA_VERSION = 1

#: Suffixes that mark a results key as a comparable higher-is-better metric.
COMPARABLE_SUFFIXES = ("_per_s", "_speedup")


def git_revision() -> Optional[str]:
    """The short git revision of the repo, or None outside a work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def machine_info() -> Dict[str, Any]:
    """A small fingerprint of the machine the benchmark ran on.

    Absolute throughput numbers are only comparable on similar machines; the
    fingerprint is recorded so a cross-machine comparison can be recognised
    for what it is.
    """
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def bench_path(suite: str, out_dir: Optional[Path] = None) -> Path:
    """Where ``BENCH_<suite>.json`` lives.

    Precedence: explicit ``out_dir`` argument, then the ``BENCH_OUT_DIR``
    environment variable, then the repo root.
    """
    if out_dir is None:
        env_dir = os.environ.get("BENCH_OUT_DIR")
        out_dir = Path(env_dir) if env_dir else REPO_ROOT
    return Path(out_dir) / f"BENCH_{suite}.json"


def write_bench(
    suite: str,
    results: Dict[str, Any],
    timestamp: float,
    config: Optional[Dict[str, Any]] = None,
    out_dir: Optional[Path] = None,
) -> Path:
    """Write one suite's results in the unified schema and return the path."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "git_rev": git_revision(),
        "timestamp": timestamp,
        "machine": machine_info(),
        "config": dict(config) if config else {},
        "results": results,
    }
    path = bench_path(suite, out_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def read_bench(path: Path) -> Dict[str, Any]:
    """Load one ``BENCH_*.json`` file."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def comparable_metrics(results: Any, prefix: str = "") -> Dict[str, float]:
    """Flatten a results dict to its comparable higher-is-better metrics.

    Walks nested dicts and returns ``{"dotted.path": value}`` for every
    numeric leaf whose key ends in one of :data:`COMPARABLE_SUFFIXES`.
    """
    flat: Dict[str, float] = {}
    if isinstance(results, dict):
        for key, value in results.items():
            dotted = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, dict):
                flat.update(comparable_metrics(value, dotted))
            elif isinstance(value, (int, float)) and str(key).endswith(
                COMPARABLE_SUFFIXES
            ):
                flat[dotted] = float(value)
    return flat
