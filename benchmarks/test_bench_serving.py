"""Benchmarks: streaming throughput (cold vs. warm cache, sharded vs.
inline scoring, shard-router pipelining), cache-admission hit rates,
and hot-swap latency.

Real command telemetry is repeat-heavy (the SCADE observation the
serving cache is built on), so we stream a repeat-heavy event mix twice
through one server: the first pass pays tokenize+forward for every
distinct line (cold), the second is served almost entirely from the LRU
cache (warm).  The warm pass must be at least 2× faster.

The sharded benchmark measures the other scaling axis: the same
cold-cache workload scored inline on the event loop vs. sharded across
worker processes (``ProcessPoolBackend``).  On a multi-core runner the
sharded pass must reach at least 1.5× inline throughput; on a
single-core box the numbers are recorded without the assertion (there
is nothing to parallelize onto).  The swap benchmark measures how long
``swap_model`` holds the scoring path while a live stream keeps
flowing, and that the rotation loses zero events.

The shard-router benchmark isolates what the per-shard pipelines buy:
a single-shard server serializes every micro-batch behind one score
lock, so with a fixed per-batch forward-pass cost its throughput is
``batch_size / batch_cost`` regardless of backend width; four shards
overlap four batches on the same backend.  The admission benchmark
replays a Zipf-with-scan stream and demands the TinyLFU gate's hit
rate be at least plain LRU's.
"""

import asyncio
import os
import time

import numpy as np
import pytest

from repro.experiments.methods import HEAD_EPOCHS, HEAD_LR, training_subset
from repro.ids import IntrusionDetectionService
from repro.serving import (
    CommandEvent,
    DetectionServer,
    ProcessPoolBackend,
    SessionConfig,
    ThreadedBackend,
    serve_stream,
)
from repro.tuning import ClassificationTuner

UNIQUE_LINES = 150
REPEATS = 8
SHARD_WORKERS = 2


@pytest.fixture(autouse=True)
def _tape_after_each_test(request):
    """Servers compile the shared world's encoder in place (at float32 by
    default); hand the next benchmark, and the paper tables after this
    module, the autograd tape back."""
    yield
    if "world" in request.fixturenames:
        request.getfixturevalue("world").encoder.reset_inference()


def _build_service(world) -> IntrusionDetectionService:
    subset = training_subset(world, seed=0)
    tuner = ClassificationTuner(
        world.encoder, lr=HEAD_LR, epochs=HEAD_EPOCHS, pooling="mean", seed=0
    )
    tuner.fit(subset.lines, subset.labels)
    return IntrusionDetectionService.from_tuner(tuner, threshold=0.5)


def _repeat_heavy_stream(world) -> list[str]:
    unique = world.test_lines_dedup[:UNIQUE_LINES]
    stream = unique * REPEATS
    return [stream[i] for i in np.random.default_rng(0).permutation(len(stream))]


def test_bench_serving_cold_vs_warm(world, benchmark, serving_snapshot):
    service = _build_service(world)
    events = _repeat_heavy_stream(world)
    server = DetectionServer(service, max_batch=32, max_latency_ms=25, cache_size=8192)

    started = time.perf_counter()
    cold_results, _ = serve_stream(service, events, concurrency=8, server=server)
    cold_seconds = time.perf_counter() - started
    cold_eps = len(cold_results) / cold_seconds

    # same stream again on the same server: every line is now cached
    warm_results, _ = benchmark.pedantic(
        serve_stream,
        args=(service, events),
        kwargs={"concurrency": 8, "server": server},
        rounds=1,
        iterations=1,
    )
    warm_seconds = benchmark.stats.stats.mean
    warm_eps = len(warm_results) / warm_seconds

    snapshot = server.metrics.snapshot()
    benchmark.extra_info.update(
        {
            "events": len(events),
            "cold_events_per_second": round(cold_eps, 1),
            "warm_events_per_second": round(warm_eps, 1),
            "speedup": round(warm_eps / cold_eps, 2),
            "cache_hit_rate": snapshot["cache_hit_rate"],
            "mean_batch_size": snapshot["mean_batch_size"],
            "latency_p99_ms": snapshot["latency_p99_ms"],
        }
    )
    serving_snapshot["cold_vs_warm"] = {
        "events": len(events),
        "cold_events_per_second": round(cold_eps, 1),
        "warm_events_per_second": round(warm_eps, 1),
        "cache_hit_rate": round(snapshot["cache_hit_rate"], 4),
        "latency_p99_ms": round(snapshot["latency_p99_ms"], 2),
    }
    print(
        f"\nserving: {len(events)} events | cold {cold_eps:,.0f} ev/s | "
        f"warm {warm_eps:,.0f} ev/s | speedup {warm_eps / cold_eps:.1f}x | "
        f"hit-rate {snapshot['cache_hit_rate']:.2%}"
    )

    assert len(warm_results) == len(events)
    # intra-stream repeats already make the cold pass partially cached;
    # the fully-warm pass must still be at least 2× faster end to end.
    assert warm_eps >= 2.0 * cold_eps
    # the warm pass added no misses — all its events were cache hits
    assert all(result.cache_hit for result in warm_results)


def _timed_stream(server, events, *, concurrency=8):
    """Stream *events* through *server* inside ONE server session.

    A short warmup prefix runs before the clock starts, so one-time
    costs (forking workers, per-worker bundle deserialization) are paid
    where a steady-state server pays them: at startup, not per batch.
    Returns (results, seconds) for the measured portion only.
    """

    async def _run():
        async def drive(batch):
            pending = asyncio.Queue()
            for position, line in enumerate(batch):
                pending.put_nowait((position, line))
            results = [None] * len(batch)

            async def producer():
                while True:
                    try:
                        position, item = pending.get_nowait()
                    except asyncio.QueueEmpty:
                        return
                    if isinstance(item, CommandEvent):
                        results[position] = await server.submit_event(item)
                    else:
                        results[position] = await server.submit(item)

            await asyncio.gather(*(producer() for _ in range(concurrency)))
            return results

        async with server:
            await drive(events[:16])  # warmup: workers fork + load here
            started = time.perf_counter()
            results = await drive(events)
            elapsed = time.perf_counter() - started
        return results, elapsed

    return asyncio.run(_run())


def test_bench_serving_sharded_vs_inline(world, benchmark, tmp_path_factory, serving_snapshot):
    """Cold-cache throughput: ProcessPoolBackend(n=2) vs. InlineBackend."""
    service = _build_service(world)
    bundle = tmp_path_factory.mktemp("serving-bench") / "bundle"
    service.save(bundle)
    # all-unique workload with caching off: every event pays a forward
    # pass, so the comparison isolates where that pass runs
    events = list(world.test_lines_dedup[:UNIQUE_LINES])

    inline_server = DetectionServer(
        service, cache_size=0, max_batch=32, max_latency_ms=25
    )
    inline_results, inline_seconds = _timed_stream(inline_server, events)
    inline_eps = len(inline_results) / inline_seconds

    backend = ProcessPoolBackend(bundle, workers=SHARD_WORKERS, min_shard=4)
    server = DetectionServer(
        service, backend=backend, cache_size=0, max_batch=32, max_latency_ms=25
    )
    sharded_results, sharded_seconds = benchmark.pedantic(
        _timed_stream, args=(server, events), rounds=1, iterations=1
    )
    sharded_eps = len(sharded_results) / sharded_seconds
    speedup = sharded_eps / inline_eps

    benchmark.extra_info.update(
        {
            "events": len(events),
            "workers": SHARD_WORKERS,
            "cpu_count": os.cpu_count(),
            "inline_events_per_second": round(inline_eps, 1),
            "sharded_events_per_second": round(sharded_eps, 1),
            "speedup": round(speedup, 2),
            "per_worker_scored": dict(backend.per_worker_scored),
        }
    )
    serving_snapshot["sharded_vs_inline"] = {
        "events": len(events),
        "workers": SHARD_WORKERS,
        "inline_events_per_second": round(inline_eps, 1),
        "sharded_events_per_second": round(sharded_eps, 1),
    }
    print(
        f"\nsharded serving: {len(events)} events | inline {inline_eps:,.0f} ev/s | "
        f"{SHARD_WORKERS}-worker {sharded_eps:,.0f} ev/s | speedup {speedup:.2f}x "
        f"({os.cpu_count()} cpus)"
    )

    assert len(sharded_results) == len(events)
    # both paths agree on every verdict (scores may differ in the last ulp)
    for a, b in zip(inline_results, sharded_results):
        assert a.is_intrusion == b.is_intrusion
        assert abs(a.score - b.score) < 1e-9
    # the batch really was sharded across distinct worker processes
    assert len(backend.per_worker_scored) >= 2
    if (os.cpu_count() or 1) >= 2:
        assert speedup >= 1.5, (
            f"ProcessPoolBackend({SHARD_WORKERS}) must beat inline by >=1.5x on a "
            f"multi-core runner, got {speedup:.2f}x"
        )


def test_bench_serving_swap_latency(world, benchmark, tmp_path_factory):
    """Hot-swap latency under sustained submit load, with zero event loss."""
    service = _build_service(world)
    bench_dir = tmp_path_factory.mktemp("swap-bench")
    bundle_v1 = bench_dir / "bundle-v1"
    bundle_v2 = bench_dir / "bundle-v2"
    service.save(bundle_v1)
    # the rotated bundle: same weights, recalibrated threshold — the
    # cheap end of the weekly update, so the bench isolates swap cost
    original_threshold = service.threshold
    rotated_threshold = min(0.95, original_threshold + 0.1)
    service.threshold = rotated_threshold
    service.save(bundle_v2)
    service.threshold = original_threshold

    events = list(world.test_lines_dedup[:UNIQUE_LINES])

    def run_swap_under_load():
        server = DetectionServer(
            service,
            backend=ProcessPoolBackend(bundle_v1, workers=SHARD_WORKERS),
            cache_size=4096,
            max_batch=32,
            max_latency_ms=10,
        )

        async def scenario():
            pending = asyncio.Queue()
            for line in events:
                pending.put_nowait(line)
            results = []

            async def producer():
                while True:
                    try:
                        line = pending.get_nowait()
                    except asyncio.QueueEmpty:
                        return
                    results.append(await server.submit(line))

            async def swapper():
                while len(results) < len(events) // 4:
                    await asyncio.sleep(0.005)
                return await server.swap_model(str(bundle_v2))

            async with server:
                *_, report = await asyncio.gather(
                    *(producer() for _ in range(8)), swapper()
                )
            return results, report, server

        return asyncio.run(scenario())

    results, report, server = benchmark.pedantic(run_swap_under_load, rounds=1, iterations=1)

    benchmark.extra_info.update(
        {
            "events": len(events),
            "workers": SHARD_WORKERS,
            "swap_ms": round(report.swap_ms, 2),
            "drain_ms": round(report.drain_ms, 2),
            "cache_invalidated": report.cache_invalidated,
        }
    )
    print(
        f"\nhot swap under load: {len(events)} events | swap {report.swap_ms:.1f} ms "
        f"(drain {report.drain_ms:.1f} ms) | {report.cache_invalidated} cache entries purged"
    )

    # zero events lost across the swap, and the swap really landed mid-stream
    assert len(results) == len(events)
    assert not any(result.dropped for result in results)
    assert {result.generation for result in results} == {0, 1}
    assert server.metrics.swaps == 1
    # post-swap events were thresholded by the rotated bundle
    post_swap = [result for result in results if result.generation == 1]
    assert all(
        result.is_intrusion == (result.score >= rotated_threshold)
        or abs(result.score - rotated_threshold) < 1e-9
        for result in post_swap
    )


class _FixedCostService:
    """Deterministic service with a visible per-batch forward-pass cost.

    ``time.sleep`` inside ``score_normalized`` models the encoder's
    batch latency while releasing the GIL (as BLAS does), so the bench
    isolates the *serving-plane* property under test — whether whole
    batches from different shards overlap — from model-speed variance
    on the CI runner.
    """

    threshold = 0.5

    def __init__(self, batch_cost_s: float = 0.004):
        self.batch_cost_s = batch_cost_s

    def preprocess(self, raw: str) -> str | None:
        line = " ".join(raw.split())
        return line or None

    def score_normalized(self, lines):
        time.sleep(self.batch_cost_s)
        return np.array([0.9 if "evil" in line else 0.1 for line in lines])


def _multi_host_mostly_miss_stream(n_events=1024, hosts=64):
    """Distinct lines across many hosts: every event pays a forward pass."""
    return [
        CommandEvent(f"task --job {i} --node n{i % 7}", host=f"host-{i % hosts}")
        for i in range(n_events)
    ]


def test_bench_serving_sharded_router_throughput(benchmark, serving_snapshot, bench_regression_gate):
    """4-shard throughput >= 1.5x single-shard on a mostly-miss stream.

    Both layouts share the same 4-worker threaded backend and the same
    cold cache; the only variable is the shard router.  The single
    shard's global score lock serializes batches; four shards keep up
    to four batches in flight, so the speedup measures exactly the
    inter-batch parallelism the refactor exists to unlock.
    """
    service = _FixedCostService(batch_cost_s=0.004)
    events = _multi_host_mostly_miss_stream()

    def run_layout(shards):
        # min_shard = max_batch: micro-batches stay whole (splitting a
        # 16-line batch into 4-line slivers wastes encoder batch width),
        # so worker lanes parallelize *across* batches — which only the
        # shard router can produce
        server = DetectionServer(
            service,
            backend=ThreadedBackend(service, workers=4, min_shard=16),
            shards=shards,
            cache_size=0,
            max_batch=16,
            max_latency_ms=10,
        )
        # enough in-flight producers that every shard can fill whole
        # batches (16 x 4 shards = 64 minimum; headroom beyond that)
        started = time.perf_counter()
        results, server = serve_stream(service, events, concurrency=128, server=server)
        return results, server, time.perf_counter() - started

    single_results, _, single_seconds = run_layout(1)
    single_eps = len(single_results) / single_seconds

    (sharded_results, sharded_server, sharded_seconds) = benchmark.pedantic(
        run_layout, args=(4,), rounds=1, iterations=1
    )
    sharded_eps = len(sharded_results) / sharded_seconds
    speedup = sharded_eps / single_eps

    router_metrics = {
        "events": len(events),
        "shards": 4,
        "single_events_per_second": round(single_eps, 1),
        "sharded_events_per_second": round(sharded_eps, 1),
        "speedup": round(speedup, 2),
    }
    benchmark.extra_info.update(router_metrics)
    serving_snapshot["shard_router"] = router_metrics
    print(
        f"\nshard router: {len(events)} events | 1-shard {single_eps:,.0f} ev/s | "
        f"4-shard {sharded_eps:,.0f} ev/s | speedup {speedup:.2f}x"
    )

    assert len(sharded_results) == len(events)
    # same verdicts, just faster
    verdict = lambda rs: [(r.host, r.line, r.is_intrusion) for r in rs]  # noqa: E731
    assert verdict(sharded_results) == verdict(single_results)
    # all four shard pipelines actually carried traffic
    assert all(rt.metrics.events_total > 0 for rt in sharded_server.shards)
    assert speedup >= 1.5, (
        f"4-shard serving must beat single-shard by >=1.5x on a mostly-miss "
        f"multi-host stream, got {speedup:.2f}x"
    )
    bench_regression_gate("shard_router", router_metrics)


class _ColumnarFixedCostService:
    """Fixed-cost service with the *real* columnar tokenizer front end.

    Like :class:`_FixedCostService`, the forward pass is modelled as a
    deterministic sleep — a per-call setup cost plus a per-row cost —
    so the benchmark isolates the serving-plane property under test:
    how many Python-loop/asyncio/micro-batch round trips the serving
    layer spends per scored event.  The tokenizer, however, is the
    actual :class:`ColumnarTokenizer` over a trained BPE, so the
    measured batch path runs the same encode seam production uses.

    Scores are a pure function of the token arrays, so the per-event
    and batch-first paths must produce byte-identical floats.
    """

    threshold = 0.5

    def __init__(self, per_call_s: float = 0.003, per_row_s: float = 0.00002):
        from repro.tokenizer import BPETokenizer, ColumnarTokenizer

        corpus = [f"task --job {i} --node n{i % 7}" for i in range(64)]
        self.tokenizer = BPETokenizer(vocab_size=128, min_pair_frequency=2).train(corpus)
        self._columnar = ColumnarTokenizer(self.tokenizer, max_length=48)
        self.per_call_s = per_call_s
        self.per_row_s = per_row_s
        self.batch_calls = 0

    def preprocess(self, raw: str) -> str | None:
        line = " ".join(raw.split())
        return line or None

    def encode_batch(self, lines):
        return self._columnar.encode(list(lines))

    def score_batch(self, batch):
        self.batch_calls += 1
        time.sleep(self.per_call_s + len(batch) * self.per_row_s)
        # pad_id is 0, so the row sum sees only the valid tokens
        return ((batch.lengths * 31 + batch.ids.sum(axis=1)) % 97) / 96.0

    def score_normalized(self, lines):
        return self.score_batch(self.encode_batch(list(lines)))


def _timed_batches(server, events, *, batch_size=1024):
    """Drive *events* through ``submit_many`` in *batch_size* slices.

    Mirrors :func:`_timed_stream`: a warmup slice runs before the clock
    starts, inside one server session.  Returns (results, seconds).
    """

    async def _run():
        async with server:
            await server.submit_many(events[:16])  # warmup
            started = time.perf_counter()
            results = []
            for start in range(0, len(events), batch_size):
                results.extend(await server.submit_many(events[start : start + batch_size]))
            elapsed = time.perf_counter() - started
        return results, elapsed

    return asyncio.run(_run())


def test_bench_serving_columnar_batch_speedup(
    benchmark, serving_snapshot, bench_regression_gate
):
    """Batch-first columnar scoring >= 5x the per-event path, bit for bit.

    Same mostly-miss multi-host stream, same fixed-cost model, same cold
    cache; the only variable is the entry point — per-event ``submit``
    through the micro-batcher vs ``submit_many`` feeding whole columnar
    batches to one deduplicated scoring call.  The per-event path pays
    the per-call setup cost once per micro-batch (a handful of events);
    the batch path amortizes it over the whole slice, which is exactly
    the hot-path overhead the columnar refactor removes.
    """
    events = _multi_host_mostly_miss_stream()

    per_event_service = _ColumnarFixedCostService()
    per_event_server = DetectionServer(
        per_event_service, cache_size=0, max_batch=32, max_latency_ms=10
    )
    per_event_results, per_event_seconds = _timed_stream(per_event_server, events)
    per_event_eps = len(per_event_results) / per_event_seconds

    batch_service = _ColumnarFixedCostService()
    batch_server = DetectionServer(
        batch_service, cache_size=0, max_batch=32, max_latency_ms=10
    )
    batch_results, batch_seconds = benchmark.pedantic(
        _timed_batches, args=(batch_server, events), rounds=1, iterations=1
    )
    batch_eps = len(batch_results) / batch_seconds
    speedup = batch_eps / per_event_eps

    metrics = {
        "events": len(events),
        "per_event_events_per_second": round(per_event_eps, 1),
        "batch_events_per_second": round(batch_eps, 1),
        "speedup": round(speedup, 2),
        "batch_scoring_calls": batch_service.batch_calls,
        "per_event_scoring_calls": per_event_service.batch_calls,
    }
    benchmark.extra_info.update(metrics)
    serving_snapshot["columnar_batch_speedup"] = metrics
    print(
        f"\ncolumnar batch path: {len(events)} events | per-event "
        f"{per_event_eps:,.0f} ev/s ({per_event_service.batch_calls} calls) | "
        f"batch {batch_eps:,.0f} ev/s ({batch_service.batch_calls} calls) | "
        f"speedup {speedup:.1f}x"
    )

    assert len(batch_results) == len(events)
    # the batch path engaged the columnar pipeline for every slice
    assert batch_server.metrics.snapshot()["columnar_batches"] > 0
    # bitwise-equal verdicts: scores are a pure function of the token
    # arrays, so any float deviation means the paths tokenized or
    # composed batches differently
    for a, b in zip(per_event_results, batch_results):
        assert (a.host, a.line) == (b.host, b.line)
        assert a.score == b.score
        assert a.is_intrusion == b.is_intrusion
    assert speedup >= 5.0, (
        f"batch-first columnar scoring must reach >=5x the per-event path on a "
        f"mostly-miss multi-host stream, got {speedup:.2f}x"
    )
    bench_regression_gate("columnar_batch_speedup", metrics)


def test_bench_serving_canonicalize_overhead(benchmark, serving_snapshot, bench_regression_gate):
    """AST canonicalization keeps >= 80% of raw throughput, mostly-miss.

    The same mostly-miss multi-host stream runs with the canonicalize
    stage off (today's pipeline) and on; every event pays a full
    lex+parse+rewrite pass because the cold cache never shortcuts it.
    The stage buys evasion resistance (see the scenario suite); this
    bench bounds what it costs: at most 20% of end-to-end throughput.
    """
    from repro.serving import CanonicalizeConfig

    service = _FixedCostService(batch_cost_s=0.004)
    events = _multi_host_mostly_miss_stream()

    def run(canonicalize):
        server = DetectionServer(
            service,
            cache_size=0,
            max_batch=64,
            max_latency_ms=5,
            canonicalize=CanonicalizeConfig(enabled=True) if canonicalize else None,
        )
        started = time.perf_counter()
        results, server = serve_stream(service, events, concurrency=32, server=server)
        return results, server, time.perf_counter() - started

    off_results, _, off_seconds = run(False)
    off_eps = len(off_results) / off_seconds

    on_results, on_server, on_seconds = benchmark.pedantic(
        run, args=(True,), rounds=1, iterations=1
    )
    on_eps = len(on_results) / on_seconds
    retention = on_eps / off_eps

    metrics = {
        "events": len(events),
        "off_events_per_second": round(off_eps, 1),
        "on_events_per_second": round(on_eps, 1),
        "throughput_retention_rate": round(retention, 4),
        "canonicalize_failures": on_server.metrics.canonicalize_failures,
    }
    benchmark.extra_info.update(metrics)
    serving_snapshot["canonicalize"] = metrics
    print(
        f"\ncanonicalize overhead: {len(events)} events | off {off_eps:,.0f} ev/s | "
        f"on {on_eps:,.0f} ev/s | retention {retention:.2%}"
    )

    assert len(on_results) == len(events)
    # verdicts agree: the bench stream is already canonical, so the
    # stage must be a pure pass-through on it
    verdict = lambda rs: [(r.host, r.line, r.is_intrusion) for r in rs]  # noqa: E731
    assert verdict(on_results) == verdict(off_results)
    assert on_server.metrics.canonicalize_failures == 0
    assert retention >= 0.8, (
        f"canonicalization must keep >=80% of raw throughput on a mostly-miss "
        f"stream, got {retention:.2%} ({off_eps:,.0f} -> {on_eps:,.0f} ev/s)"
    )
    bench_regression_gate("canonicalize", metrics)


def test_bench_serving_zipf_admission_hit_rate(benchmark, serving_snapshot, bench_regression_gate):
    """TinyLFU admission >= plain LRU hit rate on a Zipf-with-scan stream.

    The stream follows the paper's repeat structure: a Zipf-popular hot
    set (most traffic) interleaved with a long tail of one-off lines.
    Under plain LRU the tail continually evicts the hot set from a
    small cache; the frequency gate keeps the hot set resident.
    """
    rng = np.random.default_rng(0)
    hot = rng.zipf(1.3, size=12_000) % 4_000
    tail = rng.integers(100_000, 500_000, size=4_000)
    mixed = np.concatenate([hot, tail])
    rng.shuffle(mixed)
    events = [
        CommandEvent(f"cmd --variant {v}", host=f"host-{i % 32}")
        for i, v in enumerate(mixed)
    ]
    service = _FixedCostService(batch_cost_s=0.0)

    def run_policy(admission):
        server = DetectionServer(
            service,
            cache_size=256,
            cache_admission=admission,
            max_batch=64,
            max_latency_ms=5,
        )
        results, server = serve_stream(service, events, concurrency=16, server=server)
        assert len(results) == len(events)
        return server.metrics.cache_hit_rate

    lru_rate = run_policy("lru")
    tinylfu_rate = benchmark.pedantic(run_policy, args=("tinylfu",), rounds=1, iterations=1)

    admission_metrics = {
        "events": len(events),
        "cache_size": 256,
        "lru_hit_rate": round(lru_rate, 4),
        "tinylfu_hit_rate": round(tinylfu_rate, 4),
    }
    benchmark.extra_info.update(admission_metrics)
    serving_snapshot["zipf_admission"] = admission_metrics
    print(
        f"\nzipf admission: {len(events)} events | lru hit-rate {lru_rate:.2%} | "
        f"tinylfu hit-rate {tinylfu_rate:.2%}"
    )
    assert tinylfu_rate >= lru_rate, (
        f"frequency-aware admission must not lose to plain LRU on a Zipf "
        f"stream: tinylfu {tinylfu_rate:.4f} < lru {lru_rate:.4f}"
    )
    bench_regression_gate("zipf_admission", admission_metrics)


def test_bench_serving_sequence_escalation_overhead(world, benchmark):
    """Sequence escalation pays its second stage only on flagged events.

    A mostly-benign stream (by construction: lines the service itself
    scores below threshold, plus a handful of flagged ones) runs through
    mode='count' and mode='sequence' servers.  The sequence pass may
    only invoke the multi-line head once per alert — never for benign
    traffic — so its throughput stays within a bounded factor of the
    count-mode baseline.
    """
    service = _build_service(world)
    # reuse the stage-1 head as the sequence head: same geometry, zero
    # extra training — the bench measures serving overhead, not accuracy
    service.attach_multiline(service.tuner)

    normalized = [service.preprocess(line) for line in world.test_lines_dedup]
    normalized = [line for line in normalized if line is not None]
    scores = service.score_normalized(normalized)
    benign = [l for l, s in zip(normalized, scores) if s < service.threshold][:UNIQUE_LINES]
    flagged = [l for l, s in zip(normalized, scores) if s >= service.threshold][:5]
    assert benign and flagged, "world must provide both benign and flagged lines"
    mixed = benign + flagged
    order = np.random.default_rng(0).permutation(len(mixed))
    events = [
        CommandEvent(mixed[int(i)], host=f"h{int(i) % 8}", timestamp=float(position))
        for position, i in enumerate(order)
    ]

    count_server = DetectionServer(service, cache_size=0, max_batch=32, max_latency_ms=25)
    count_results, count_seconds = _timed_stream(count_server, events)
    count_eps = len(count_results) / count_seconds

    seq_server = DetectionServer(
        service,
        cache_size=0,
        max_batch=32,
        max_latency_ms=25,
        session=SessionConfig(mode="sequence"),
    )
    seq_results, seq_seconds = benchmark.pedantic(
        _timed_stream, args=(seq_server, events), rounds=1, iterations=1
    )
    seq_eps = len(seq_results) / seq_seconds
    overhead = count_eps / seq_eps if seq_eps else float("inf")

    benchmark.extra_info.update(
        {
            "events": len(events),
            "flagged": seq_server.metrics.alerts,
            "count_events_per_second": round(count_eps, 1),
            "sequence_events_per_second": round(seq_eps, 1),
            "sequence_scored": seq_server.metrics.sequence_scored,
            "overhead_factor": round(overhead, 2),
        }
    )
    print(
        f"\nsequence escalation: {len(events)} events | count {count_eps:,.0f} ev/s | "
        f"sequence {seq_eps:,.0f} ev/s | {seq_server.metrics.sequence_scored} "
        f"second-stage passes for {seq_server.metrics.alerts} alerts"
    )

    # stage-1 verdicts are identical across modes
    assert sum(r.is_intrusion for r in seq_results) == sum(
        r.is_intrusion for r in count_results
    )
    # the second stage ran exactly once per flagged event, never for benign
    assert seq_server.metrics.sequence_scored == seq_server.metrics.alerts
    assert seq_server.metrics.alerts < seq_server.metrics.events_total * 0.25
    assert count_server.metrics.sequence_scored == 0
    # bounded overhead on a mostly-benign stream: the sequence pass keeps
    # at least half the count-mode throughput
    assert seq_eps >= 0.5 * count_eps, (
        f"sequence-mode overhead too high: {count_eps:,.0f} -> {seq_eps:,.0f} ev/s "
        f"({overhead:.2f}x)"
    )


def test_bench_serving_fleet_throughput(benchmark, serving_snapshot, bench_regression_gate):
    """Two-node fleet over real localhost TCP: throughput + merged tails.

    The fleet router consistent-hashes hosts across two
    :class:`FleetNode` s, each wrapping its own server, and every event
    crosses a real socket twice (frame out, ack back).  The recorded
    numbers are the fleet's end-to-end events/sec and the p50/p99 of the
    **merged** latency reservoirs — the same control-plane aggregation
    ``fleet-admin status`` reports — so the snapshot captures what the
    wire and the ring cost on top of a single in-process server.
    """
    from repro.fleet import FleetConfig, FleetNode, FleetRouter

    service = _FixedCostService(batch_cost_s=0.001)
    events = _multi_host_mostly_miss_stream(n_events=2048, hosts=64)
    n_nodes = 2

    async def run_fleet():
        nodes = []
        for _ in range(n_nodes):
            server = DetectionServer(
                service, max_batch=64, max_latency_ms=5, cache_size=0
            )
            node = FleetNode(server, port=0)
            await node.start()
            nodes.append(node)
        config = FleetConfig(
            nodes=tuple(node.address for node in nodes),
            batch_max_events=64,
            batch_max_latency_ms=5.0,
            max_inflight_batches=4,
        )
        started = time.perf_counter()
        async with FleetRouter(config, heartbeats=False) as router:
            await router.submit_many(events)
            await router.drain()
            seconds = time.perf_counter() - started
            merged = await router.merged_metrics()
            stats = router.stats()
        per_node_events = [node.events_ingested for node in nodes]
        for node in nodes:
            await node.stop()
        return merged, stats, per_node_events, seconds

    merged, stats, per_node_events, seconds = benchmark.pedantic(
        lambda: asyncio.run(run_fleet()), rounds=1, iterations=1
    )
    fleet_eps = len(events) / seconds

    fleet_metrics = {
        "events": len(events),
        "nodes": n_nodes,
        "fleet_events_per_second": round(fleet_eps, 1),
        "latency_p50_ms": round(merged.latency_percentile(50), 3),
        "latency_p99_ms": round(merged.latency_percentile(99), 3),
    }
    benchmark.extra_info.update(fleet_metrics)
    serving_snapshot["fleet"] = fleet_metrics
    print(
        f"\nfleet: {len(events)} events over {n_nodes} TCP nodes | "
        f"{fleet_eps:,.0f} ev/s | p50 {fleet_metrics['latency_p50_ms']}ms | "
        f"p99 {fleet_metrics['latency_p99_ms']}ms"
    )

    # exact accounting: the merged totals are the stream, nothing dropped
    assert merged.events_total == len(events)
    assert sum(per_node_events) == len(events)
    assert stats["orphaned_events"] == 0
    assert stats["nodes_evicted"] == 0
    assert stats["batches_nacked"] == 0
    # the ring actually spread hosts: both nodes carried real traffic
    assert all(count > 0 for count in per_node_events)
    assert merged.latency_percentile(99) >= merged.latency_percentile(50) > 0
    bench_regression_gate("fleet", fleet_metrics)


def test_bench_serving_compiled_inference(world, benchmark, serving_snapshot, bench_regression_gate):
    """Compiled inference plan >=3x tape model-forward throughput.

    A mostly-miss multi-host stream is the workload where the model
    forward dominates (every distinct line pays one), so the ratio
    isolates exactly what :class:`~repro.nn.inference.InferencePlan`
    buys over the autograd-tape path.

    The >=3x gate runs at ``precision="float32"``, not float64.  The
    tape's GELU computes ``x ** 3`` through libm's scalar ``pow`` —
    ~60ns/element on this substrate vs ~1.5ns for SIMD multiply — and
    glibc's ``pow`` is 0.52-ulp-bounded but *not* correctly rounded, so
    no cheaper cube reproduces its bits.  float64 therefore keeps the
    ``pow`` call (bitwise parity is its contract, asserted below) and
    its speedup is capped by that shared scalar wall; float32 swaps in
    the multiply-chain cube and realizes the full compiled win at a
    ~1e-7 score tolerance with identical verdicts.
    """
    service = _build_service(world)
    raw = world.test_lines_dedup[: UNIQUE_LINES * 3]
    lines = [line for line in (service.preprocess(r) for r in raw) if line]

    def throughput(tag):
        service.score_normalized(lines[:64])  # warm: scratch, tokenizer
        started = time.perf_counter()
        scores = np.asarray(service.score_normalized(lines))
        seconds = time.perf_counter() - started
        return scores, len(lines) / seconds

    tape_scores, tape_eps = throughput("tape")

    assert service.compile_inference(precision="float64") is True
    f64_scores, f64_eps = throughput("float64")
    # the float64 contract: same bits, not just same verdicts
    assert np.array_equal(f64_scores, tape_scores)

    service.reset_inference()
    assert service.compile_inference(precision="float32") is True
    f32_scores, f32_eps = benchmark.pedantic(
        throughput, args=("float32",), rounds=1, iterations=1
    )
    max_diff = float(np.abs(f32_scores - tape_scores).max())
    assert max_diff < 1e-4
    assert np.array_equal(
        f32_scores >= service.threshold, tape_scores >= service.threshold
    )

    speedup_f32 = f32_eps / tape_eps
    speedup_f64 = f64_eps / tape_eps
    inference_metrics = {
        "events": len(lines),
        "tape_events_per_second": round(tape_eps, 1),
        "float64_events_per_second": round(f64_eps, 1),
        "float32_events_per_second": round(f32_eps, 1),
        "speedup": round(speedup_f32, 2),
        "float64_bitwise": True,
        "float32_max_score_diff": max_diff,
    }
    benchmark.extra_info.update(inference_metrics)
    serving_snapshot["inference"] = inference_metrics
    print(
        f"\ncompiled inference: {len(lines)} lines | tape {tape_eps:,.0f} ev/s | "
        f"f64 {f64_eps:,.0f} ev/s (bitwise, {speedup_f64:.2f}x) | "
        f"f32 {f32_eps:,.0f} ev/s ({speedup_f32:.2f}x)"
    )

    # float64 must never be meaningfully slower than the tape it
    # replaces (loose floor: its win is graph elision, not the
    # pow-bound arithmetic, and single-pass timing is noisy)
    assert speedup_f64 >= 0.8, f"float64 plan slower than tape: {speedup_f64:.2f}x"
    assert speedup_f32 >= 3.0, (
        f"compiled float32 plan must beat the Tensor tape by >=3x on a "
        f"mostly-miss stream, got {speedup_f32:.2f}x"
    )
    bench_regression_gate("inference", inference_metrics)
