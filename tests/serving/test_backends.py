"""Scoring-backend tests: sharding, stop mid-batch, and backend equivalence."""

import asyncio

import numpy as np
import pytest

from repro.serving import (
    BatchConfig,
    DetectionServer,
    InlineBackend,
    ServingConfig,
    ThreadedBackend,
    serve_stream,
)
from repro.serving.backends import _split_shards
from repro.serving.demo import DEMO_BENIGN, DEMO_MALICIOUS
from repro.serving.microbatch import BatchAborted
from tests.serving.conftest import THREADED_WORKERS


def run(coro):
    return asyncio.run(coro)


def flushing_after(max_latency_ms: float) -> ServingConfig:
    """Defaults, with a micro-batch flush deadline of *max_latency_ms*."""
    return ServingConfig(batch=BatchConfig(max_latency_ms=max_latency_ms))


class FixedScoreService:
    """Stub service scoring every line with one constant."""

    threshold = 0.5

    def __init__(self, score):
        self.score = score

    def preprocess(self, raw, *, with_ast=False):
        line = " ".join(raw.split()) or None
        return (line, None) if with_ast and line else line

    def score_normalized(self, lines):
        return np.full(len(lines), self.score)


class FailingService(FixedScoreService):
    """Raises when asked to score a line containing CRASH."""

    def __init__(self):
        super().__init__(0.1)

    def score_normalized(self, lines):
        if any("CRASH" in line for line in lines):
            raise RuntimeError("scorer failed")
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
    def test_shards_across_threads(self):
        backend = ThreadedBackend(
            FixedScoreService(0.3), workers=THREADED_WORKERS, min_shard=1
        )

        async def scenario():
            try:
                return await backend.score([f"line {i}" for i in range(THREADED_WORKERS * 3)])
            finally:
                await backend.stop()

        scores = run(scenario())
        assert scores == [0.3] * (THREADED_WORKERS * 3)
        assert backend.shards_dispatched == THREADED_WORKERS
        assert sum(backend.per_worker_scored.values()) == THREADED_WORKERS * 3

    def test_swap_rotates_service(self):
        backend = ThreadedBackend(FixedScoreService(0.2), workers=2)

        async def scenario():
            await backend.swap(FixedScoreService(0.75))
            try:
                return await backend.score(["x"])
            finally:
                await backend.stop()

        assert run(scenario()) == [0.75]
        assert backend.generation == 1

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ThreadedBackend(FixedScoreService(0.1), workers=0)
        with pytest.raises(ValueError):
            ThreadedBackend(FixedScoreService(0.1), workers=2, min_shard=0)


class TestScoringFailure:
    def test_failed_batch_fails_all_producers_and_server_stays_up(self):
        service = FailingService()
        backend = ThreadedBackend(service, workers=THREADED_WORKERS, min_shard=1)
        config = ServingConfig(batch=BatchConfig(max_batch=8, max_latency_ms=50))
        server = DetectionServer(service, config, backend=backend)

        async def scenario():
            async with server:
                outcomes = await asyncio.gather(
                    server.submit("benign one"),
                    server.submit("benign two"),
                    server.submit("CRASH here"),
                    return_exceptions=True,
                )
                survivor = await server.submit("after the failure")
                return outcomes, survivor

        outcomes, survivor = run(scenario())
        # the three events shared one batch: every producer gets the
        # scorer's error, none of them hangs
        assert all(isinstance(outcome, RuntimeError) for outcome in outcomes)
        assert server.metrics.scoring_errors == 1
        # the next event scores normally
        assert survivor.score == 0.1 and not survivor.dropped


class TestStopMidBatch:
    def test_stop_during_inflight_sharded_batch_aborts_producers(self):
        backend = ThreadedBackend(SlowService(delay=0.4), workers=THREADED_WORKERS, min_shard=1)
        server = DetectionServer(SlowService(0.0), flushing_after(5), backend=backend)

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
        server = DetectionServer(SlowService(0.0), flushing_after(5), backend=backend)

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
    """For a fixed bundle and stream, both backends produce identical output.

    Events are submitted sequentially (concurrency=1), so every
    micro-batch is a singleton and the scores are **bitwise** equal —
    the encoder's length-bucketing cannot reorder anything.  The servers
    run the float32 plan, whose rows pool to the same bits in any
    chunk, so a concurrent batch composition moves scores by ulps of
    the float64 head at most.
    """

    EVENTS = (DEMO_BENIGN + DEMO_MALICIOUS) * 2

    def _stream(self, service, backend):
        server = DetectionServer(service, flushing_after(5), backend=backend)
        results = serve_stream(server, list(self.EVENTS), concurrency=1)
        ring_alerts = [
            (r.event_id, r.line, r.score) for r in results if r.is_intrusion
        ]
        return results, ring_alerts

    def test_all_backends_identical(self, demo_bundle):
        from repro.ids.pipeline import IntrusionDetectionService

        loaded = IntrusionDetectionService.load(demo_bundle)
        inline_results, inline_alerts = self._stream(loaded, InlineBackend(loaded))
        threaded_results, threaded_alerts = self._stream(
            loaded, ThreadedBackend(loaded, workers=THREADED_WORKERS)
        )

        assert len(threaded_results) == len(inline_results)
        for a, b in zip(inline_results, threaded_results):
            assert a.raw_line == b.raw_line
            assert a.score == b.score  # bitwise
            assert a.is_intrusion == b.is_intrusion
            assert a.dropped == b.dropped
        assert inline_alerts == threaded_alerts
        assert inline_alerts, "the malicious demo lines must alert"

    def test_concurrent_equivalence_within_tolerance(self, demo_service):
        """Under real concurrency batch composition varies, so scores may
        differ in the last float ulp — decisions must still agree."""
        inline_results = serve_stream(
            DetectionServer(demo_service, flushing_after(10)),
            list(self.EVENTS),
            concurrency=4,
        )
        server = DetectionServer(
            demo_service,
            flushing_after(10),
            backend=ThreadedBackend(demo_service, workers=THREADED_WORKERS, min_shard=1),
        )
        threaded_results = serve_stream(server, list(self.EVENTS), concurrency=4)
        assert len(threaded_results) == len(inline_results)
        for a, b in zip(inline_results, threaded_results):
            assert abs(a.score - b.score) < 1e-9
            assert a.is_intrusion == b.is_intrusion
