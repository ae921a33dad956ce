"""Tier-1 smoke of the serving benchmark: ``run.py --quick`` end to end.

Checks the contract later PRs rely on — the output lists exactly the
workload and metric names of ``BENCHMARK.json``, the generators are
seed-deterministic, and the process exits clean — not any number.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_quick_run_lists_exactly_the_declared_names(tmp_path):
    out = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--quick", "--seed", "3", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    assert "LEAK" not in done.stderr and "NOT CORRECT" not in done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True

    (run,) = json.loads(out.read_text())["runs"]
    assert run["quick"] is True and run["claim"] is None and run["seed"] == 3
    assert {"nproc", "python", "numpy", "platform", "OPENBLAS_NUM_THREADS"} <= set(run["env"])
    names = [workload["name"] for workload in SPEC["workloads"]]
    assert [(r["workload"], r["trace"]) for r in run["records"]] == [
        (name, trace) for name in names for trace in (0, 1)
    ]
    declared = {
        0: {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]},
    }
    for record in run["records"]:
        assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
        assert len(record["digest"]) == 64
        units = {name: metric["unit"] for name, metric in record["metrics"].items()}
        assert units == declared[record["trace"]], record["workload"]


def test_generators_are_seed_deterministic():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    try:
        from workloads import campaign_stream, digest, natural_stream
    finally:
        del sys.path[:2]
    for stream in (natural_stream, campaign_stream):
        assert digest(stream(7, 120)) == digest(stream(7, 120))
        assert digest(stream(7, 120)) != digest(stream(8, 120))
