#!/usr/bin/env python3
"""The real-bundle serving benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N [--out FILE] [--trace-out FILE]   # every workload

Runs in the foreground, in one process and one event loop; builds no
process pool and no subprocess node; closes everything it opens and
exits non-zero, naming the leak, if anything is left behind.  See
``bench/README.md`` for the workloads, the metric definitions and the
layer → metric table.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import platform
import shutil
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
#: Hard per-workload limit: a hang fails loudly instead of lingering.
WORKLOAD_TIMEOUT_S = 150.0
#: The serving path under test is one event-loop thread.  On the 2-core
#: box a second BLAS thread spins on the core the OS needs for everything
#: else, which makes every timing follow the neighbours' load; one BLAS
#: thread measures the work instead.  Set the variable to override.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _listening_sockets() -> list[str]:
    """Listening TCP sockets this process still holds (Linux ``/proc``)."""
    try:
        inodes = set()
        for fd in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:
                continue
            if target.startswith("socket:["):
                inodes.add(target[8:-1])
        found = []
        for table in ("/proc/net/tcp", "/proc/net/tcp6"):
            if not os.path.exists(table):
                continue
            with open(table) as handle:
                for row in handle.readlines()[1:]:
                    fields = row.split()
                    if fields[3] == "0A" and fields[9] in inodes:
                        found.append(fields[1])
        return found
    except OSError:
        return []  # no /proc: nothing to inspect


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def leaks(shm_before: set[str], scratch: Path) -> list[str]:
    """Everything this process would leave behind, by name."""
    found = [f"child process {child.name}" for child in multiprocessing.active_children()]
    found += [
        f"thread {thread.name}"
        for thread in threading.enumerate()
        if thread is not threading.main_thread() and thread.is_alive()
    ]
    found += [f"listening socket {address}" for address in _listening_sockets()]
    uid = os.getuid()
    for name in sorted(_shm_segments() - shm_before):
        try:
            if os.stat(f"/dev/shm/{name}").st_uid == uid:
                found.append(f"shared-memory segment /dev/shm/{name}")
        except OSError:
            pass
    if scratch.exists():
        found.append(f"temp dir {scratch}")
    return found


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        **{variable: os.environ.get(variable) for variable in BLAS_THREAD_VARS},
    }


def run_one(workload: str, trace: bool, args, spec: dict, bundle: Path, scratch: Path) -> dict:
    """One workload run: prints every metric by name, returns its record."""
    from harness import run_workload
    from workloads import Sizes

    run = asyncio.run(
        asyncio.wait_for(
            run_workload(
                workload,
                bundle=bundle,
                scratch=scratch,
                seed=args.seed,
                seconds=args.seconds,
                trace=trace,
                sizes=Sizes.quick() if args.quick else Sizes(),
            ),
            timeout=WORKLOAD_TIMEOUT_S,
        )
    )
    if trace:
        units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
        metrics = run.per_layer(units)
    else:
        metrics = run.end_to_end()
    reasons = run.verdict()
    print(
        f"# {workload} seed={args.seed} trace={int(trace)} events={run.events} "
        f"passes={len(run.passes)} sha256={run.digest}"
    )
    for name, metric in metrics.items():
        print(
            f"{workload}.{name} {metric['value']:.6g} {metric['unit']} "
            f"(iqr {metric['iqr']:.3g}, n={metric['n']})"
        )
    for reason in reasons:
        print(f"bench: NOT CORRECT: {reason}", file=sys.stderr)
    return {
        "workload": workload,
        "trace": int(trace),
        "digest": run.digest,
        "events": run.events,
        "passes": len(run.passes),
        "correct": not reasons,
        "reasons": reasons,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "spans": run.spans,
    }


def last_line(record: dict) -> str:
    """The one JSON object the driver reads."""
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in record["metrics"].items()
            },
        }
    )


def append_run(path: Path, run: dict) -> None:
    """Add *run* to the result file's ``runs`` (created when absent), so
    ten invocations with one ``--out`` make one set for ``compare.py``."""
    document = {"runs": []}
    if path.exists():
        document = json.loads(path.read_text())
    document["runs"].append(run)
    path.write_text(json.dumps(document, indent=1))


def main(argv=None) -> int:
    for variable in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ.setdefault(variable, "1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: every workload, both trace modes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="result file; runs are appended")
    parser.add_argument("--trace-out", type=Path, help="spans of the traced passes")
    parser.add_argument("--quick", action="store_true", help="demo bundle, 200-event streams")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.2 if args.quick else float(spec["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from bundle import ensure_bundle

    shm_before = _shm_segments()
    scratch = BUILD / f"run-{os.getpid()}"
    records = []
    try:
        scratch.mkdir(parents=True)
        build_started = time.perf_counter()
        bundle = ensure_bundle(BUILD, quick=args.quick)
        build_s = time.perf_counter() - build_started
        if args.workload:
            runs = [(args.workload, bool(args.trace))]
        else:
            runs = [(workload, trace) for workload in names for trace in (False, True)]
        for workload, trace in runs:
            records.append(run_one(workload, trace, args, spec, bundle, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    traces = {}
    for record in records:
        spans = record.pop("spans")
        if spans:
            traces[record["workload"]] = spans
    if args.trace_out:
        args.trace_out.write_text(json.dumps(traces))
    if args.out:
        append_run(
            args.out,
            {
                "scorer": "demo" if args.quick else "real",
                "quick": args.quick,
                "claim": None,
                "seed": args.seed,
                "seconds": args.seconds,
                "bundle_build_s": build_s,
                "env": environment(),
                "records": records,
            },
        )

    left = leaks(shm_before, scratch)
    for leak in left:
        print(f"bench: LEAK: {leak}", file=sys.stderr)
    correct = all(record["correct"] for record in records) and not left
    if args.workload:
        records[0]["correct"] = correct
        print(last_line(records[0]))
    else:
        print(json.dumps({"correct": correct, "workloads": names, "records": len(records)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
