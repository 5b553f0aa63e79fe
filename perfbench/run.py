"""The benchmark of record: one command, two workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_rubble --seed 1 --seconds 45 --trace 0

``--trace 0`` times the workload with no instrumentation for ``--seconds``
(whole units of work, at least one, each started only if it should end
within the window) and prints the end-to-end metrics.  Their host times
are in reference seconds: measured seconds scaled by the median of a
reference kernel's readings taken through the run (``perfbench/reference.py``
says why), so contention from other tenants of a shared host, which slows
the kernel too, largely cancels.  ``--trace 1`` flies
one unit untraced and one with every layer's entry point wrapped
(``perfbench/layers.py``) and prints the per-layer metrics.  ``--seed`` is
recorded but moves nothing; ``perfbench/workloads.py`` says why.  Both check the simulated outputs first (see :func:`_gate`); on a
failed check the result line says ``"correct": false`` with no metrics and
the exit code is 1.

The last line of standard output is the JSON result.  Each run also appends
its result to ``.perfbench/results.jsonl`` and rewrites
``.perfbench/report.md`` beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("fleet_rubble", "campaign_sweep")

#: Setup samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 9


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="run seed, recorded")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--world-seed",
        default="dev",
        help="'dev' (default), 'heldout' or an integer world seed",
    )
    parser.add_argument(
        "--max-decisions",
        type=int,
        default=None,
        help="cap decisions per mission (tiny runs for the benchmark's tests)",
    )
    parser.add_argument("--out-dir", default=str(ROOT / ".perfbench"))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _reference_s() -> float:
    """One reading of the reference kernel, in a fresh interpreter."""
    script = Path(__file__).with_name("reference.py")
    completed = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120, check=True
    )
    return float(completed.stdout.strip().splitlines()[-1])


def _setup_samples(workload: str, world_seed: int, max_decisions: Optional[int]) -> List[float]:
    """Set the workload up in fresh interpreters; seconds per sample."""
    probe = Path(__file__).with_name("setup_probe.py")
    command = [sys.executable, str(probe), workload, str(world_seed)]
    if max_decisions is not None:
        command.append(str(max_decisions))
    samples = []
    for _ in range(SETUP_SAMPLES):
        completed = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(float(completed.stdout.strip().splitlines()[-1]))
    return samples


def _gate(units: Sequence[Any], reference: str, what: str) -> None:
    """Every unit's digest must equal the reference digest."""
    from perfbench.workloads import CorrectnessError

    for unit in units:
        if unit.digest != reference:
            raise CorrectnessError(
                f"simulated outputs differ {what}: {unit.digest} != {reference}"
            )


def _measure(workload, specs, work_dir: Path, seconds: float, max_decisions) -> Dict[str, Any]:
    """Untraced run: whole units for ``seconds``, then the end-to-end metrics.

    Host times are in reference seconds: measured seconds times
    ``REFERENCE_S`` over the median of the kernel readings taken before the
    set-ups, after them and after every unit.  The readings go to the results
    log beside the measured unit seconds.
    """
    from perfbench.reference import REFERENCE_S
    from perfbench.workloads import sim_metrics

    readings = [_reference_s()]
    setup = _setup_samples(workload.name, specs[0].seed, max_decisions)
    readings.append(_reference_s())
    units = []
    start = time.perf_counter()
    elapsed = 0.0
    # Whole units only, and another one only if it should end in the window.
    while not units or elapsed * (len(units) + 1) / len(units) <= seconds:
        units.append(workload.run_unit(specs, work_dir / "unit"))
        readings.append(_reference_s())
        elapsed = time.perf_counter() - start
    _gate(units, units[0].digest, "between repeats")
    scale = REFERENCE_S / _median(readings)
    metrics = {
        "decisions_per_s": _median([u.decisions / u.wall_s for u in units]) / scale,
        "wall_s": _median([u.wall_s for u in units]) * scale,
        "specs_per_s": _median([u.specs / u.wall_s for u in units]) / scale,
        "setup_s": _median(setup) * scale,
        "peak_rss_mb": max(u.peak_rss_mb for u in units),
    }
    metrics.update(sim_metrics(units[0].missions))
    return {
        "units": units,
        "metrics": metrics,
        "digest": units[0].digest,
        "host": {"reference_s": readings, "unit_wall_s": [u.wall_s for u in units]},
    }


def _campaign_layers(workload, specs, work_dir: Path, recorder) -> Dict[str, Any]:
    """Async run, untraced serial replay and traced serial replay of the grid."""
    from perfbench.layers import traced
    from perfbench.workloads import CAMPAIGN_WORKERS

    async_unit = workload.run_unit(specs, work_dir / "async")
    serial = workload.run_unit(specs, work_dir / "serial", mode="serial")
    with traced(recorder):
        replay = workload.run_unit(specs, work_dir / "replay", mode="serial")
    _gate([serial, replay], async_unit.digest, "between the async run and the serial replays")
    return {
        "units": [async_unit, serial, replay],
        "spec_walls": async_unit.spec_walls_s,
        "busy": sum(async_unit.spec_walls_s) / (CAMPAIGN_WORKERS * async_unit.wall_s),
        "inflation": sum(async_unit.spec_walls_s) / sum(serial.spec_walls_s),
        "retries": async_unit.retries,
        "overhead": replay.wall_s / serial.wall_s - 1.0,
        "trace_bytes": replay.trace_bytes,
        "digest": async_unit.digest,
    }


def _layers(workload, specs, work_dir: Path) -> Dict[str, Any]:
    """Traced run: the per-layer metrics, coverage and tracing overhead."""
    from perfbench.layers import SpanRecorder, layer_metrics, percentile, traced

    recorder = SpanRecorder()
    if workload.name == "campaign_sweep":
        run = _campaign_layers(workload, specs, work_dir, recorder)
    else:
        untraced = workload.run_unit(specs, work_dir)
        with traced(recorder):
            traced_unit = workload.run_unit(specs, work_dir)
        _gate([traced_unit], untraced.digest, "between the traced and untraced runs")
        run = {
            "units": [untraced, traced_unit],
            "spec_walls": untraced.spec_walls_s,
            "busy": sum(untraced.spec_walls_s) / untraced.wall_s,
            "inflation": 1.0,
            "retries": 0,
            "overhead": traced_unit.wall_s / untraced.wall_s - 1.0,
            "trace_bytes": [],
            "digest": untraced.digest,
        }
    trace_bytes = run["trace_bytes"]
    metrics = layer_metrics(recorder, traced_specs=len(trace_bytes))
    walls_ms = [1000.0 * w for w in run["spec_walls"]]
    metrics.update(
        {
            "campaign.spec_wall_ms_p50": percentile(walls_ms, 50),
            "campaign.spec_wall_ms_p95": percentile(walls_ms, 95),
            "campaign.worker_busy_frac": run["busy"],
            "campaign.parallel_inflation": run["inflation"],
            "campaign.retries": run["retries"],
            "analysis.trace_bytes": sum(trace_bytes) / max(1, len(trace_bytes)),
            "trace_overhead_frac": run["overhead"],
        }
    )
    return {"units": run["units"], "metrics": metrics, "digest": run["digest"]}


def _resolve_world_seed(workload: str, value: str) -> int:
    from perfbench.workloads import WORLD_SEEDS

    if value in WORLD_SEEDS[workload]:
        return WORLD_SEEDS[workload][value]
    return int(value)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    tmp_dir = out_dir / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    # Keep every temporary file (multiprocessing included) inside the checkout.
    os.environ["TMPDIR"] = str(tmp_dir)
    for path in (str(src), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench import catalog, report
    from perfbench.workloads import WORKLOADS, CorrectnessError

    workload = WORKLOADS[args.workload]
    world_seed = _resolve_world_seed(args.workload, args.world_seed)
    specs = workload.specs(world_seed, args.max_decisions)
    work_dir = out_dir / "work" / args.workload
    started = time.time()
    attempted, failed = len(specs), 0
    try:
        if args.trace:
            run = _layers(workload, specs, work_dir)
            names = [m.name for m in catalog.PER_LAYER]
        else:
            run = _measure(workload, specs, work_dir, args.seconds, args.max_decisions)
            names = [m.name for m in catalog.END_TO_END]
        attempted = sum(u.specs for u in run["units"])
        correct = True
        metrics = {
            name: {"value": float(run["metrics"][name]), "unit": catalog.UNITS[name]}
            for name in names
        }
        digest, host = run["digest"], run.get("host")
    except CorrectnessError as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        correct, failed, metrics, digest, host = False, exc.failed, {}, None, None
    except Exception:  # noqa: BLE001 - a crashed mission is a failed run
        traceback.print_exc()
        correct, failed, metrics, digest, host = False, 1, {}, None, None
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    report.record(
        out_dir,
        {
            "workload": args.workload,
            "seed": args.seed,
            "world_seed": world_seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "started": started,
            "digest": digest,
            "host": host,
            **line,
        },
        ROOT,
    )
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
