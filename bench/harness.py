"""Topologies, passes and metric aggregation for one workload run.

One run = one workload, one process, one event loop: prepare the seeded
stream and its reference verdicts, time the program's set-up, then run
passes until ``--seconds`` of measured wall time is used up.  Every
server, node, router and sink is closed in ``finally``.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import statistics
import time
import traceback
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.fleet.config import FleetConfig
from repro.fleet.node import FleetNode
from repro.fleet.protocol import encode_frame, ingest_message
from repro.fleet.router import FleetRouter
from repro.ids import IntrusionDetectionService
from repro.serving.config import (
    BackendConfig,
    CacheConfig,
    CanonicalizeConfig,
    ServingConfig,
    SessionConfig,
    SinkSpec,
)
from repro.serving.server import DetectionServer

from tracing import Tracer
from workloads import (
    CACHE_SIZE,
    CHUNK,
    PACED_RATE,
    PACED_SLICE,
    Reference,
    Sizes,
    build_stream,
    digest,
)

#: Fewest timed passes of a closed-loop run.
MIN_PASSES = 3
#: Untraced passes the paced schedule is split into.
PACED_PASSES = 3
#: ``trace.coverage_share`` must land here on the closed-loop workloads.
COVERAGE_BAND = (0.95, 1.05)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample (``q`` in 0–100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def iqr(values) -> float:
    """Inter-quartile range as ``statistics.quantiles(n=4)`` gives it."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def serving_config(workload: str, sink_path: Path | None = None) -> ServingConfig:
    """``ServingConfig()`` defaults plus only what the workload pins.

    Precision, batch policy, columnar etc. are deliberately left alone,
    so a later change of a default is measured, not masked.
    """
    session = SessionConfig(mode="hybrid") if workload == "campaign_hybrid" else SessionConfig()
    sinks = (SinkSpec(uri=f"jsonl://{sink_path}"),) if sink_path is not None else ()
    return ServingConfig(
        backend=BackendConfig(kind="inline"),
        canonicalize=CanonicalizeConfig(enabled=True),
        cache=CacheConfig(size=CACHE_SIZE),
        session=session,
        sinks=sinks,
    )


@dataclass
class Tally:
    """What came back for a run of submitted events."""

    completed: int = 0
    mismatched: int = 0
    alerts: int = 0

    def add(self, other: "Tally") -> None:
        self.completed += other.completed
        self.mismatched += other.mismatched
        self.alerts += other.alerts


def tally_results(results, expected) -> Tally:
    """Compare per-event results with the reference verdicts."""
    if len(results) != len(expected):
        return Tally()  # a short answer cannot be aligned: all failed
    tally = Tally(completed=len(results))
    for result, verdict in zip(results, expected):
        if result.dropped != (verdict is None) or result.is_intrusion != bool(verdict):
            tally.mismatched += 1
        if result.alert is not None:
            tally.alerts += 1
    return tally


class ServerTopology:
    """One ``DetectionServer`` built from the bundle (path or service)."""

    def __init__(self, source, config: ServingConfig, sink_path: Path | None = None):
        self.source = source
        self.config = config
        self.sink_path = sink_path
        self.server: DetectionServer | None = None

    async def open(self) -> None:
        self.server = DetectionServer.from_config(self.source, self.config, record=False)
        await self.server.start()

    async def close(self) -> None:
        if self.server is not None:
            server, self.server = self.server, None
            await server.stop()

    @property
    def servers(self) -> list[DetectionServer]:
        return [self.server]

    def trace(self, tracer: Tracer | None) -> None:
        if tracer is not None:
            tracer.install_server(self.server)

    async def submit(self, chunk, expected) -> Tally:
        return tally_results(await self.server.submit_many(chunk), expected)

    async def settle(self) -> None:
        """Wait until every emitted alert reached its sink."""
        await asyncio.to_thread(self.server.sinks.flush)

    def delivered(self, tally: Tally) -> int:
        """Alerts that reached the sink (the JSONL file, when there is one)."""
        if self.sink_path is None:
            return tally.alerts
        if not self.sink_path.exists():
            return 0
        with self.sink_path.open() as handle:
            return sum(1 for _ in handle)

    def problems(self) -> list[str]:
        lost = self.server.sinks.dead_lettered + self.server.sinks.dropped
        return [f"{lost} alerts dead-lettered or dropped"] if lost else []

    def fleet_metrics(self, events) -> dict[str, float]:
        return {}


class _AckLog(deque):
    """``FleetRouter.acks`` that also wakes the client waiting on them."""

    def __init__(self):
        super().__init__(maxlen=65536)
        self.fresh: list[dict] = []
        self.arrived = asyncio.Event()

    def append(self, message) -> None:
        super().append(message)
        self.fresh.append(message)
        self.arrived.set()


class FleetTopology:
    """``FleetRouter`` (heartbeats off) over loopback ``FleetNode`` s,
    all in this process and on this loop — no subprocess nodes."""

    def __init__(self, sources, config: ServingConfig):
        self.sources = sources
        self.config = config
        self.nodes: list[FleetNode] = []
        self.router: FleetRouter | None = None
        self.acks: _AckLog | None = None
        self.tracer: Tracer | None = None
        self.sent_before = 0

    async def open(self) -> None:
        for source in self.sources:
            server = DetectionServer.from_config(source, self.config, record=False)
            node = FleetNode(server, port=0)
            self.nodes.append(node)
            await node.start()
        addresses = tuple(node.address for node in self.nodes)
        self.router = FleetRouter(FleetConfig(nodes=addresses), heartbeats=False)
        await self.router.start()
        self.router.acks = self.acks = _AckLog()

    async def close(self) -> None:
        router, self.router = self.router, None
        nodes, self.nodes = self.nodes, []
        try:
            if router is not None:
                await router.stop()
        finally:
            for node in nodes:
                try:
                    await node.stop()
                except Exception:  # keep closing the other nodes
                    traceback.print_exc()

    @property
    def servers(self) -> list[DetectionServer]:
        return [node.server for node in self.nodes]

    def trace(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.sent_before = self.router.batches_sent
        if tracer is not None:
            for server in self.servers:
                tracer.install_server(server)

    async def submit(self, chunk, expected) -> Tally:
        """Stop-and-wait: send one chunk, wait until every node acked it.

        Acks carry counts, not per-event verdicts, so the reference check
        is on the chunk's dropped / intrusion counts.
        """
        tracer = self.tracer
        with tracer.span("fleet.chunk", "fleet") if tracer else nullcontext() as span:
            if tracer:
                tracer.default_parent = span
            try:
                self.acks.fresh = []
                await self.router.submit_many(chunk)
                await self.router.flush()
                while sum(self.router.stats()["pending"].values()):
                    self.acks.arrived.clear()
                    await self.acks.arrived.wait()
            finally:
                if tracer:
                    tracer.default_parent = None
        acks = self.acks.fresh
        dropped = sum(1 for verdict in expected if verdict is None)
        intrusions = sum(1 for verdict in expected if verdict)
        return Tally(
            completed=sum(ack["events"] for ack in acks),
            mismatched=abs(sum(ack["dropped"] for ack in acks) - dropped)
            + abs(sum(ack["intrusions"] for ack in acks) - intrusions),
            alerts=sum(ack["alerts"] for ack in acks),
        )

    async def settle(self) -> None:
        await self.router.drain()  # raises on orphaned events

    def delivered(self, tally: Tally) -> int:
        return tally.alerts

    def problems(self) -> list[str]:
        stats = self.router.stats()
        return [
            f"fleet {key} = {stats[key]}"
            for key in ("orphaned_events", "batches_nacked", "nodes_evicted", "events_replayed")
            if stats[key]
        ]

    def fleet_metrics(self, events) -> dict[str, float]:
        loads = [node.events_ingested for node in self.nodes]
        return {
            "fleet.batches_sent": self.router.batches_sent - self.sent_before,
            "fleet.wire_bytes_per_event": self.wire_bytes(events) / len(events),
            "fleet.node_skew": max(loads) / statistics.fmean(loads),
            "fleet.replayed": self.router.events_replayed,
        }

    def wire_bytes(self, events) -> int:
        """Bytes of the ingest frames *events* travel in (computed from
        the same ``encode_frame(ingest_message(..))`` the router calls)."""
        total = 0
        for start in range(0, len(events), CHUNK):
            by_node: dict[str, list] = {}
            for event in events[start : start + CHUNK]:
                by_node.setdefault(self.router.owner_of(event.host), []).append(
                    (event.line, event.host, event.timestamp)
                )
            total += sum(
                len(encode_frame(ingest_message(self.router.batches_sent, batch)))
                for batch in by_node.values()
            )
        return total


@dataclass
class PassResult:
    """One timed pass.

    ``segments`` partition the timed window into ``(wall, cpu)`` pieces
    that are the same work in every pass of a run — a chunk's period on
    the closed-loop workloads, a fixed slice of the schedule on the
    paced one — so passes can be compared piece by piece.
    """

    traced: bool
    attempted: int
    tally: Tally
    segments: list[tuple[float, float]]
    latencies_ms: list[float]
    late_ms: list[float]
    delivered: int = 0
    layer: dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(wall for wall, _ in self.segments)

    @property
    def cpu(self) -> float:
        return sum(cpu for _, cpu in self.segments)

    @property
    def failed(self) -> int:
        return self.attempted - self.tally.completed


class _Clock:
    """Cuts the timed window into ``(wall, cpu)`` segments."""

    def __init__(self):
        self.segments: list[tuple[float, float]] = []
        self.wall = time.perf_counter()
        self.cpu = time.process_time()

    def cut(self) -> float:
        wall, cpu = time.perf_counter(), time.process_time()
        self.segments.append((wall - self.wall, cpu - self.cpu))
        self.wall, self.cpu = wall, cpu
        return wall


async def batch_pass(topology, events, expected, tracer: Tracer | None = None) -> PassResult:
    """Closed loop, one client: ``CHUNK`` events per call, next call only
    after the previous one returned; timed until the sinks are flushed.

    One segment per chunk (call to next call), one for the final flush.
    """
    tally = Tally()
    latencies, late = [], []
    topology.trace(tracer)
    gc.collect()
    clock = _Clock()
    called = returned = clock.wall
    try:
        for start in range(0, len(events), CHUNK):
            late.append((called - returned) * 1000.0)
            try:
                tally.add(
                    await topology.submit(
                        events[start : start + CHUNK], expected[start : start + CHUNK]
                    )
                )
            except Exception:  # counted as failed events; the run goes on
                traceback.print_exc()
            returned = time.perf_counter()
            latencies.append((returned - called) * 1000.0)
            called = clock.cut()
        await topology.settle()
        clock.cut()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return PassResult(
        traced=tracer is not None,
        attempted=len(events),
        tally=tally,
        segments=clock.segments,
        latencies_ms=latencies,
        late_ms=late,
    )


async def paced_pass(
    topology, events, expected, prefix: int, lead_in: int, tracer: Tracer | None = None
) -> PassResult:
    """Open loop: one ``submit_event`` per event on a fixed schedule.

    Events do not wait for each other's replies (independent hosts);
    latency runs from each event's *due* time, so a stall is charged to
    every event it delays.  The warm prefix and a short paced lead-in
    run first, untimed.  One segment per ``PACED_SLICE`` events of the
    schedule, the last one ending when every reply is in.
    """
    server = topology.server
    for start in range(0, prefix, CHUNK):
        await server.submit_many(events[start : min(start + CHUNK, prefix)])
    loop = asyncio.get_running_loop()
    tally = Tally()
    first = prefix + lead_in
    latencies = [0.0] * (len(events) - first)
    late: list[float] = []

    async def one(position: int, due: float, timed: bool) -> None:
        try:
            result = await server.submit_event(events[position])
        except Exception:
            traceback.print_exc()
            return
        if timed:
            latencies[position - first] = (time.perf_counter() - due) * 1000.0
            tally.add(tally_results([result], [expected[position]]))

    async def drive(start: int, stop: int, clock: _Clock | None) -> None:
        tasks = []
        started = time.perf_counter()
        for offset, position in enumerate(range(start, stop)):
            due = started + offset / PACED_RATE
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if clock is not None:
                late.append((time.perf_counter() - due) * 1000.0)
                if offset and offset % PACED_SLICE == 0:
                    clock.cut()
            tasks.append(loop.create_task(one(position, due, clock is not None)))
        await asyncio.gather(*tasks)

    await drive(prefix, first, None)
    topology.trace(tracer)
    gc.collect()
    clock = _Clock()
    try:
        await drive(first, len(events), clock)
        await topology.settle()
        clock.cut()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return PassResult(
        traced=tracer is not None,
        attempted=len(events) - first,
        tally=tally,
        segments=clock.segments,
        latencies_ms=latencies,
        late_ms=late,
    )


def layer_metrics(tracer: Tracer, result: PassResult, topology, events) -> dict[str, float]:
    """The per-layer table of one traced pass (names as in the README)."""
    layers, covered = tracer.layers()
    counts = tracer.counts

    def cell(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    sizes = [size for size, _ in tracer.flushes]
    waits = tracer.waits_ms
    lookups = cell("cache.lookup", "calls")
    metrics = {
        "tokenizer.calls": cell("tokenizer", "calls"),
        "tokenizer.busy_ms": cell("tokenizer", "busy_ms"),
        "tokenizer.rows": cell("tokenizer", "rows"),
        "tokenizer.pad_share": share(
            counts["tokenizer.cells"] - counts["tokenizer.tokens"], counts["tokenizer.cells"]
        ),
        "backend.calls": cell("backend", "calls"),
        "backend.busy_ms": cell("backend", "busy_ms"),
        "backend.rows": cell("backend", "rows"),
        "lm.embed_busy_ms": cell("lm", "busy_ms"),
        "ids.head_busy_ms": cell("ids", "busy_ms"),
        "preprocess.calls": cell("preprocess", "calls"),
        "preprocess.busy_ms": cell("preprocess", "busy_ms"),
        "preprocess.dropped": counts["preprocess.dropped"],
        "canonicalize.calls": cell("canonicalize", "calls"),
        "canonicalize.busy_ms": cell("canonicalize", "busy_ms"),
        "canonicalize.changed_share": share(
            counts["canonicalize.changed"], cell("canonicalize", "calls")
        ),
        "canonicalize.failures": counts["canonicalize.failures"],
        "cache.lookups": lookups,
        "cache.busy_ms": cell("cache.lookup", "busy_ms") + cell("cache.put", "busy_ms"),
        "cache.hit_share": share(counts["cache.hits"], lookups),
        "microbatch.submits": cell("microbatch", "calls"),
        "microbatch.flushes": len(sizes),
        "microbatch.mean_batch": statistics.fmean(sizes) if sizes else 0.0,
        "microbatch.wait_p50_ms": percentile(waits, 50) if waits else 0.0,
        "microbatch.wait_p99_ms": percentile(waits, 99) if waits else 0.0,
        "microbatch.deadline_flush_share": share(
            sum(1 for _, reason in tracer.flushes if reason == "deadline"), len(sizes)
        ),
        "sessions.calls": cell("sessions", "calls"),
        "sessions.busy_ms": cell("sessions", "busy_ms"),
        "sessions.escalations": counts["sessions.escalations"],
        "sequence.calls": cell("sequence", "calls"),
        "sequence.rows": cell("sequence", "rows"),
        "sequence.busy_ms": cell("sequence", "busy_ms"),
        "delivery.emits": cell("delivery.emit", "calls"),
        "delivery.emit_busy_ms": cell("delivery.emit", "busy_ms"),
        "delivery.flush_ms": cell("delivery", "busy_ms"),
        "delivery.delivered": sum(server.sinks.delivered for server in topology.servers),
        "delivery.dead_lettered": sum(server.sinks.dead_lettered for server in topology.servers),
        "shard.batches": cell("shard", "calls"),
        "shard.self_ms": cell("shard", "self_ms"),
        "server.self_ms": cell("server", "self_ms"),
        "fleet.batches_sent": 0,
        "fleet.self_ms": cell("fleet", "self_ms"),
        "fleet.wire_bytes_per_event": 0.0,
        "fleet.node_skew": 0.0,
        "fleet.replayed": 0,
        "loadgen.late_p99_ms": percentile(result.late_ms, 99),
        "trace.coverage_share": covered / result.wall,
    }
    metrics.update(topology.fleet_metrics(events))
    return metrics


def quiet(rows: list[list]) -> list:
    """Element-wise minimum over passes: what each piece of work costs
    when nothing else disturbs it.

    The sandbox slows down in bursts and a burst can only add time, so
    the fastest of several repeats of the *same* segment is the steadiest
    estimate of its cost; a median over passes moves with the bursts
    (README, "How the numbers are kept steady").
    """
    return [min(column) for column in zip(*rows)]


@dataclass
class RunResult:
    """Everything one ``--workload`` run measured."""

    workload: str
    digest: str
    events: int
    passes: list[PassResult]
    setup_samples: list[float]
    prepare_s: float
    expected_alerts: int
    problems: list[str]
    spans: list[dict]

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)

    def shares(self) -> dict[str, float]:
        completed = sum(p.tally.completed for p in self.passes)
        expected = self.expected_alerts * len(self.passes)
        delivered = sum(p.delivered for p in self.passes)
        return {
            "failed_share": self.failed / self.attempted,
            "verdict_mismatch_share": sum(p.tally.mismatched for p in self.passes)
            / max(completed, 1),
            "alert_loss_share": 1.0 - delivered / expected if expected else 0.0,
        }

    def end_to_end(self) -> dict[str, dict]:
        """The end-to-end metrics, from the untraced passes.

        Throughput, CPU cost and latency are computed over :func:`quiet`
        segments and latencies; ``iqr`` is the spread of the plain
        per-pass figure, so the noise that was filtered stays visible.
        """
        plain = [p for p in self.passes if not p.traced]
        completed = min(p.tally.completed for p in plain)
        walls = quiet([[wall for wall, _ in p.segments] for p in plain])
        cpus = quiet([[cpu for _, cpu in p.segments] for p in plain])
        latencies = quiet([p.latencies_ms for p in plain])

        def entry(value, unit, spread=0.0, count=len(plain)):
            return {"value": value, "unit": unit, "iqr": spread, "n": count}

        return {
            "events_per_s": entry(
                completed / sum(walls), "1/s", iqr([p.tally.completed / p.wall for p in plain])
            ),
            "cpu_us_per_event": entry(
                sum(cpus) / max(completed, 1) * 1e6,
                "us",
                iqr([p.cpu / max(p.tally.completed, 1) * 1e6 for p in plain]),
            ),
            "latency_p50_ms": entry(percentile(latencies, 50), "ms", count=len(latencies)),
            "latency_p99_ms": entry(percentile(latencies, 99), "ms", count=len(latencies)),
            "setup_s": entry(
                statistics.median(self.setup_samples),
                "s",
                iqr(self.setup_samples),
                len(self.setup_samples),
            ),
            "peak_rss_mb": entry(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", count=1
            ),
        }

    def per_layer(self, units: dict[str, str]) -> dict[str, dict]:
        """The per-layer metrics: medians over the traced passes."""
        traced = [p for p in self.passes if p.traced]
        plain = [p for p in self.passes if not p.traced]
        samples = {name: [p.layer[name] for p in traced] for name in traced[0].layer}
        # the paced schedule fixes the wall: compare CPU there instead
        cost = (lambda p: p.cpu) if self.workload == "paced_events" else (lambda p: p.wall)
        samples["trace.overhead_share"] = [
            statistics.median(map(cost, traced)) / statistics.median(map(cost, plain))
        ]
        samples.update({f"check.{name}": [value] for name, value in self.shares().items()})
        samples["bench.prepare_s"] = [self.prepare_s]
        return {
            name: {
                "value": statistics.median(values),
                "unit": units[name],
                "iqr": iqr(values),
                "n": len(values),
            }
            for name, values in samples.items()
        }

    def verdict(self) -> list[str]:
        """Reasons this run is not correct (empty: it is)."""
        reasons = list(self.problems)
        for name, value in self.shares().items():
            if value > 0:
                reasons.append(f"{name} = {value:.6f}, must be 0")
        if self.workload != "paced_events":
            low, high = COVERAGE_BAND
            for p in self.passes:
                if p.traced and not low <= p.layer["trace.coverage_share"] <= high:
                    reasons.append(
                        f"trace.coverage_share = {p.layer['trace.coverage_share']:.3f}, "
                        f"outside {low}–{high}"
                    )
        return reasons


async def run_workload(
    workload: str,
    *,
    bundle: Path,
    scratch: Path,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sizes,
) -> RunResult:
    """Prepare, set up, and run passes of *workload* for *seconds*."""
    fleet = workload == "fleet_wire"
    paced = workload == "paced_events"
    fresh = workload in ("unique_batch", "campaign_hybrid", "paced_events")
    modes = [False, True] if trace else [False]
    #: the paced schedule is split into passes over the same events:
    #: plain + traced, or PACED_PASSES plain ones for :func:`quiet`
    paced_modes = modes if trace else [False] * PACED_PASSES
    pass_seconds = seconds / len(paced_modes) if paced else seconds

    prepare_started = time.perf_counter()
    reference = Reference(IntrusionDetectionService.load(bundle))
    events = build_stream(workload, seed, sizes, reference, pass_seconds)
    expected = reference.verdicts(events)
    prepare_s = time.perf_counter() - prepare_started
    prefix = sizes.paced_prefix
    timed_from = prefix + sizes.paced_lead_in if paced else 0

    sink_serial = 0

    def topology(from_disk: bool = False):
        nonlocal sink_serial
        sink_path = None
        if workload == "campaign_hybrid":
            sink_serial += 1
            sink_path = scratch / f"alerts-{sink_serial}.jsonl"
        config = serving_config(workload, sink_path)
        if fleet:
            return FleetTopology([bundle, bundle] if from_disk else services, config)
        return ServerTopology(bundle if from_disk else services[0], config, sink_path)

    # the program's set-up: bundle on disk → first chunk answered
    setup_samples = []
    for _ in range(0 if trace else sizes.setup_reps):
        candidate = topology(from_disk=True)
        try:
            started = time.perf_counter()
            await candidate.open()
            await candidate.submit(events[:CHUNK], expected[:CHUNK])
            setup_samples.append(time.perf_counter() - started)
        finally:
            await candidate.close()

    services = [IntrusionDetectionService.load(bundle) for _ in range(2 if fleet else 1)]
    passes: list[PassResult] = []
    problems: list[str] = []
    spans: list[dict] = []

    async def one_pass(active, traced: bool, keep: bool = True) -> None:
        tracer = Tracer() if traced else None
        if paced:
            result = await paced_pass(
                active, events, expected, prefix, sizes.paced_lead_in, tracer
            )
        else:
            result = await batch_pass(active, events, expected, tracer)
        if tracer is not None:
            result.layer = layer_metrics(tracer, result, active, events)
            spans[:] = tracer.dump()
        problems.extend(p for p in active.problems() if p not in problems)
        if fresh:
            await active.close()  # the sink file is complete once closed
        result.delivered = active.delivered(result.tally)
        if keep:
            passes.append(result)

    async def fresh_pass(traced: bool, keep: bool = True) -> None:
        active = topology()
        try:
            await active.open()
            await one_pass(active, traced, keep)
        finally:
            await active.close()

    def more() -> bool:
        return sum(p.wall for p in passes) < seconds or len(passes) < MIN_PASSES * len(modes)

    if paced:
        for traced in paced_modes:
            await fresh_pass(traced)
    elif fresh:
        await fresh_pass(False, keep=False)  # untimed warm-up pass
        while more():
            for traced in modes:
                await fresh_pass(traced)
    else:
        active = topology()
        try:
            await active.open()
            await one_pass(active, False, keep=False)  # untimed: fills the caches
            while more():
                for traced in modes:
                    await one_pass(active, traced)
        finally:
            await active.close()

    return RunResult(
        workload=workload,
        digest=digest(events),
        events=len(events),
        passes=passes,
        setup_samples=setup_samples,
        prepare_s=prepare_s,
        expected_alerts=sum(1 for verdict in expected[timed_from:] if verdict),
        problems=problems,
        spans=spans,
    )
