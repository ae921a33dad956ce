"""Scoring-backend tests: sharding, fault injection, and backend equivalence.

The stub services and loaders live at module level so they pickle by
reference into forked worker processes — nothing unpicklable crosses
the process boundary, exactly the contract ``ProcessPoolBackend``
imposes on real bundles.
"""

import asyncio
import os

import numpy as np
import pytest

from repro.serving import (
    BatchAborted,
    DetectionServer,
    InlineBackend,
    ProcessPoolBackend,
    ThreadedBackend,
    WorkerCrashError,
    serve_stream,
)
from repro.serving.backends import _split_shards
from repro.serving.demo import DEMO_BENIGN, DEMO_MALICIOUS


def run(coro):
    return asyncio.run(coro)


class FixedScoreService:
    """Stub service scoring every line with one constant."""

    threshold = 0.5

    def __init__(self, score):
        self.score = score

    def preprocess(self, raw):
        line = " ".join(raw.split())
        return line or None

    def score_normalized(self, lines):
        return np.full(len(lines), self.score)


class CrashyService(FixedScoreService):
    """Kills its own process when asked to score a line containing CRASH."""

    def __init__(self):
        super().__init__(0.1)

    def score_normalized(self, lines):
        if any("CRASH" in line for line in lines):
            os._exit(13)
        return super().score_normalized(lines)


class SlowService(FixedScoreService):
    """Takes a while per batch — for stop()-mid-batch tests."""

    def __init__(self, delay=0.3):
        super().__init__(0.1)
        self.delay = delay

    def score_normalized(self, lines):
        import time

        time.sleep(self.delay)
        return super().score_normalized(lines)


def load_low():
    return FixedScoreService(0.25)


def load_high():
    return FixedScoreService(0.75)


def load_crashy():
    return CrashyService()


class TestSharding:
    def test_order_preserving_even_split(self):
        shards = _split_shards([f"l{i}" for i in range(10)], workers=3, min_shard=1)
        assert [len(s) for s in shards] == [4, 3, 3]
        assert [line for shard in shards for line in shard] == [f"l{i}" for i in range(10)]

    def test_small_batch_goes_to_one_worker(self):
        assert len(_split_shards(["a", "b", "c"], workers=4, min_shard=4)) == 1

    def test_empty_batch(self):
        assert _split_shards([], workers=4, min_shard=1) == []

    def test_never_more_shards_than_lines(self):
        shards = _split_shards(["a", "b"], workers=8, min_shard=1)
        assert len(shards) == 2
        assert all(shard for shard in shards)


class TestInlineBackend:
    def test_scores_and_accounts(self):
        backend = InlineBackend(FixedScoreService(0.4))

        async def scenario():
            return await backend.score(["a", "b", "c"])

        assert run(scenario()) == [0.4, 0.4, 0.4]
        assert backend.per_worker_scored == {"inline": 3}
        assert backend.workers == 1

    def test_swap_rotates_service(self):
        backend = InlineBackend(FixedScoreService(0.2))

        async def scenario():
            await backend.swap(service=FixedScoreService(0.9))
            return await backend.score(["x"])

        assert run(scenario()) == [0.9]
        assert backend.generation == 1


class TestThreadedBackend:
    def test_shards_across_threads(self, backend_workers):
        backend = ThreadedBackend(FixedScoreService(0.3), workers=backend_workers, min_shard=1)

        async def scenario():
            try:
                return await backend.score([f"line {i}" for i in range(backend_workers * 3)])
            finally:
                await backend.stop()

        scores = run(scenario())
        assert scores == [0.3] * (backend_workers * 3)
        assert backend.shards_dispatched == backend_workers
        assert sum(backend.per_worker_scored.values()) == backend_workers * 3

    def test_swap_via_loader(self):
        backend = ThreadedBackend(FixedScoreService(0.2), workers=2)

        async def scenario():
            await backend.swap(loader=load_high)
            try:
                return await backend.score(["x"])
            finally:
                await backend.stop()

        assert run(scenario()) == [0.75]

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ThreadedBackend(FixedScoreService(0.1), workers=0)
        with pytest.raises(ValueError):
            ThreadedBackend(FixedScoreService(0.1), workers=2, min_shard=0)


class TestProcessPoolBackend:
    def test_requires_bundle_or_loader(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend()

    def test_scores_with_worker_processes(self, backend_workers):
        backend = ProcessPoolBackend(loader=load_low, workers=backend_workers, min_shard=1)

        async def scenario():
            await backend.start(preload=True)
            try:
                return await backend.score([f"line {i}" for i in range(backend_workers * 4)])
            finally:
                await backend.stop()

        scores = run(scenario())
        assert scores == [0.25] * (backend_workers * 4)
        # every shard was scored in a worker process, not in this one
        assert all(label != f"pid-{os.getpid()}" for label in backend.per_worker_scored)
        assert sum(backend.per_worker_scored.values()) == backend_workers * 4

    def test_worker_crash_surfaces_clean_error_and_server_stays_up(self, backend_workers):
        backend = ProcessPoolBackend(loader=load_crashy, workers=backend_workers, min_shard=1)
        server = DetectionServer(FixedScoreService(0.1), backend=backend, max_latency_ms=5)

        async def scenario():
            async with server:
                with pytest.raises(WorkerCrashError):
                    await server.submit("please CRASH now")
                # the pool was rebuilt: the very next event scores normally
                result = await server.submit("ls -la")
                return result

        result = run(scenario())
        assert result.score == 0.1
        assert not result.dropped
        assert server.metrics.scoring_errors == 1

    def test_crash_mid_shared_batch_fails_all_producers_cleanly(self, backend_workers):
        backend = ProcessPoolBackend(loader=load_crashy, workers=backend_workers, min_shard=1)
        server = DetectionServer(
            FixedScoreService(0.1), backend=backend, max_batch=8, max_latency_ms=50
        )

        async def scenario():
            async with server:
                outcomes = await asyncio.gather(
                    server.submit("benign one"),
                    server.submit("benign two"),
                    server.submit("CRASH here"),
                    return_exceptions=True,
                )
                survivor = await server.submit("after the crash")
                return outcomes, survivor

        outcomes, survivor = run(scenario())
        # the whole batch shares the broken pool: every producer gets the
        # same clean error, none of them hangs
        assert all(isinstance(outcome, WorkerCrashError) for outcome in outcomes)
        assert survivor.score == 0.1


class TestStopMidBatch:
    def test_stop_during_inflight_sharded_batch_aborts_producers(self, backend_workers):
        backend = ThreadedBackend(SlowService(delay=0.4), workers=backend_workers, min_shard=1)
        server = DetectionServer(SlowService(0.0), backend=backend, max_latency_ms=5)

        async def scenario():
            await server.start()
            producers = [
                asyncio.ensure_future(server.submit(f"slow {i}")) for i in range(3)
            ]
            await asyncio.sleep(0.1)  # let the batch reach the handler
            await server.stop()
            return await asyncio.gather(*producers, return_exceptions=True)

        outcomes = run(scenario())
        assert all(isinstance(outcome, BatchAborted) for outcome in outcomes)

    def test_server_restarts_after_stop_mid_batch(self):
        backend = ThreadedBackend(SlowService(delay=0.2), workers=2, min_shard=1)
        server = DetectionServer(SlowService(0.0), backend=backend, max_latency_ms=5)

        async def scenario():
            await server.start()
            producer = asyncio.ensure_future(server.submit("slow"))
            await asyncio.sleep(0.05)
            await server.stop()
            with pytest.raises(BatchAborted):
                await producer
            # a stopped server restarts cleanly on the same loop
            async with server:
                return await server.submit("again")

        assert run(scenario()).score == 0.1


class TestBackendEquivalence:
    """For a fixed bundle and stream, all backends produce identical output.

    Events are submitted sequentially (concurrency=1), so every
    micro-batch is a singleton and the scores are **bitwise** equal —
    the encoder's length-bucketing cannot reorder anything.  The servers
    run the float64 plan: the process workers score on the tape, and
    only float64 reproduces it bit for bit.
    """

    EVENTS = (DEMO_BENIGN + DEMO_MALICIOUS) * 2

    def _stream(self, service, backend):
        server = DetectionServer(
            service, backend=backend, max_latency_ms=5, precision="float64"
        )
        results, server = serve_stream(
            service, list(self.EVENTS), concurrency=1, server=server
        )
        ring_alerts = [
            (r.event_id, r.line, r.score) for r in results if r.is_intrusion
        ]
        return results, ring_alerts

    def test_all_backends_identical(self, demo_service, demo_bundle, backend_workers):
        from repro.ids.pipeline import IntrusionDetectionService

        loaded = IntrusionDetectionService.load(demo_bundle)
        inline_results, inline_alerts = self._stream(loaded, InlineBackend(loaded))
        threaded_results, threaded_alerts = self._stream(
            loaded, ThreadedBackend(loaded, workers=backend_workers)
        )
        process_results, process_alerts = self._stream(
            loaded, ProcessPoolBackend(demo_bundle, workers=backend_workers)
        )

        for other in (threaded_results, process_results):
            assert len(other) == len(inline_results)
            for a, b in zip(inline_results, other):
                assert a.raw_line == b.raw_line
                assert a.score == b.score  # bitwise
                assert a.is_intrusion == b.is_intrusion
                assert a.dropped == b.dropped
        assert inline_alerts == threaded_alerts == process_alerts
        assert inline_alerts, "the malicious demo lines must alert"

    def test_concurrent_equivalence_within_tolerance(self, demo_service, demo_bundle, backend_workers):
        """Under real concurrency batch composition varies, so scores may
        differ in the last float ulp — decisions must still agree."""
        inline_results, _ = serve_stream(
            demo_service,
            list(self.EVENTS),
            concurrency=4,
            max_latency_ms=10,
            precision="float64",
        )
        server = DetectionServer(
            demo_service,
            backend=ProcessPoolBackend(demo_bundle, workers=backend_workers, min_shard=1),
            max_latency_ms=10,
            precision="float64",
        )
        process_results, _ = serve_stream(
            demo_service, list(self.EVENTS), concurrency=4, server=server
        )
        for a, b in zip(inline_results, process_results):
            assert abs(a.score - b.score) < 1e-9
            assert a.is_intrusion == b.is_intrusion
