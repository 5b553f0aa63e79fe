"""Results log and the human-readable report beside it.

Every run appends its result line, with its seeds and digest, to
``results.jsonl`` and rewrites ``report.md`` from the whole log: the git
revision, the machine, and per workload and metric the number of runs,
median and quartiles, with each metric marked host-time, simulated or count.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from pathlib import Path
from typing import Any, Dict, List

from perfbench.catalog import END_TO_END, KINDS, PER_LAYER, UNITS

RESULTS_FILE = "results.jsonl"
REPORT_FILE = "report.md"


def git_rev(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def machine() -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _quartiles(values: List[float]) -> List[float]:
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="exclusive")


def render(results: List[Dict[str, Any]], rev: str) -> str:
    lines = [
        "# perfbench report",
        "",
        f"- git rev: `{rev}`",
        f"- machine: {json.dumps(machine(), sort_keys=True)}",
        f"- runs: {len(results)} ({sum(1 for r in results if not r['correct'])} failed the correctness gate)",
        "",
        "Kinds: **host** = host wall-clock or memory, varies run to run "
        "(end-to-end host times in reference seconds, see perfbench/reference.py); "
        "**sim** = simulated, repeats exactly for the workload's specs; "
        "**count** = exact work count.",
    ]
    order = [m.name for m in END_TO_END + PER_LAYER]
    for workload in sorted({r["workload"] for r in results}):
        runs = [r for r in results if r["workload"] == workload and r["correct"]]
        digests = sorted({r["digest"] for r in runs})
        lines += [
            "",
            f"## {workload}",
            "",
            f"digests: {', '.join(f'`{d[:16]}`' for d in digests) or 'none'}",
            "",
            "| metric | kind | unit | n | median | q1 | q3 |",
            "| --- | --- | --- | --- | --- | --- | --- |",
        ]
        for name in order:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if not values:
                continue
            q1, _, q3 = _quartiles(values)
            lines.append(
                f"| {name} | {KINDS[name]} | {UNITS[name]} | {len(values)} | "
                f"{statistics.median(values):.6g} | {q1:.6g} | {q3:.6g} |"
            )
    return "\n".join(lines) + "\n"


def record(out_dir: Path, result: Dict[str, Any], root: Path) -> Path:
    """Append one run's result to the log and rewrite the report."""
    out_dir.mkdir(parents=True, exist_ok=True)
    log = out_dir / RESULTS_FILE
    with log.open("a", encoding="utf-8") as stream:
        stream.write(json.dumps({**result, "machine": machine()}, sort_keys=True) + "\n")
    results = [json.loads(line) for line in log.read_text().splitlines() if line.strip()]
    report = out_dir / REPORT_FILE
    report.write_text(render(results, git_rev(root)), encoding="utf-8")
    return report
