#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json      # A: parent, B: change

Each file holds one *set* of runs (``run.py`` appends a run per
invocation).  For every workload × end-to-end metric it prints the two
medians over the runs and one of

``within``      B's median is no worse than A's by more than the bound
``worse``       it is
``unresolved``  the run-to-run spread (inter-quartile range over the
                runs of either side, as a share of A's median) is wider
                than the bound, so the bound cannot be resolved — report
                it as unresolved, not as unchanged

with the bounds read from ``BENCHMARK.json``.  A side with a single run
falls back to that run's own pass-to-pass IQR.  Exits 1 when any row is
``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[tuple[str, str], list[dict]]:
    """``(workload, metric) → [metric entry per run]`` of the untraced records."""
    table: dict[tuple[str, str], list[dict]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        for record in run["records"]:
            if record["trace"]:
                continue
            for name, metric in record["metrics"].items():
                table.setdefault((record["workload"], name), []).append(metric)
    return table


def spread(entries: list[dict]) -> float:
    values = [entry["value"] for entry in entries]
    if len(values) < 2:
        return entries[0]["iqr"]
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    side_a, side_b = load(argv[0]), load(argv[1])
    worse = False
    print(f"{'workload':16} {'metric':18} {'A':>12} {'B':>12} {'change':>8} {'spread':>7} {'bound':>6}")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in side_a or key not in side_b:
                print(f"{workload:16} {metric['name']:18} missing on one side")
                worse = True
                continue
            a = statistics.median(entry["value"] for entry in side_a[key])
            b = statistics.median(entry["value"] for entry in side_b[key])
            change = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            noise = max(spread(side_a[key]), spread(side_b[key])) / abs(a)
            if noise > metric["bound"]:
                status = "unresolved"
            elif change > metric["bound"]:
                status = "worse"
                worse = True
            else:
                status = "within"
            print(
                f"{workload:16} {metric['name']:18} {a:12.5g} {b:12.5g} "
                f"{change:+8.1%} {noise:7.1%} {metric['bound']:6.0%}  {status}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
