"""Hot model swap tests: zero event loss, generation hygiene, cache purge.

The sustained-load tests swap mid-stream while producers keep
submitting; the invariants are the acceptance bar for the weekly
continual-learning hand-off: no event is dropped, no micro-batch mixes
model generations, and everything scored after the swap comes from the
new bundle.
"""

import asyncio

import numpy as np
import pytest

from repro.serving import (
    DetectionServer,
    InlineBackend,
    ProcessPoolBackend,
    ThreadedBackend,
)
from repro.serving.config import CanonicalizeConfig
from tests.serving.conftest import NormalizingService
from tests.serving.test_backends import FixedScoreService, load_high, load_low

OLD_SCORE, NEW_SCORE = 0.25, 0.75


class RecordingService(FixedScoreService):
    """Stub that remembers every batch it scored (for mixing checks)."""

    def __init__(self, score):
        super().__init__(score)
        self.batches = []

    def score_normalized(self, lines):
        self.batches.append(list(lines))
        return super().score_normalized(lines)


def run(coro):
    return asyncio.run(coro)


class TestSwapBasics:
    def test_swap_requires_running_server(self):
        server = DetectionServer(FixedScoreService(OLD_SCORE))
        with pytest.raises(RuntimeError, match="not running"):
            run(server.swap_model(service=FixedScoreService(NEW_SCORE)))

    def test_swap_needs_a_model_source(self):
        async def scenario():
            async with DetectionServer(FixedScoreService(OLD_SCORE)) as server:
                await server.swap_model()

        with pytest.raises(ValueError, match="bundle_dir"):
            run(scenario())

    def test_swap_report_and_metrics(self):
        async def scenario():
            async with DetectionServer(
                FixedScoreService(OLD_SCORE), max_latency_ms=5
            ) as server:
                before = await server.submit("ls -la")
                report = await server.swap_model(service=FixedScoreService(NEW_SCORE))
                after = await server.submit("ls -la")
                return before, report, after, server

        before, report, after, server = run(scenario())
        assert before.score == OLD_SCORE and before.generation == 0
        assert after.score == NEW_SCORE and after.generation == 1
        assert report.generation == 1
        assert report.swap_ms >= 0 and report.drain_ms >= 0
        assert server.metrics.swaps == 1
        assert server.metrics.last_swap_ms == report.swap_ms

    def test_swap_invalidates_cache(self):
        async def scenario():
            async with DetectionServer(
                FixedScoreService(OLD_SCORE), max_latency_ms=5
            ) as server:
                first = await server.submit("cat /etc/shadow")
                repeat = await server.submit("cat /etc/shadow")
                report = await server.swap_model(service=FixedScoreService(NEW_SCORE))
                fresh = await server.submit("cat /etc/shadow")
                return first, repeat, report, fresh, server

        first, repeat, report, fresh, server = run(scenario())
        assert repeat.cache_hit and repeat.score == OLD_SCORE
        assert report.cache_invalidated == 1
        # the old entry is gone: the post-swap repeat re-scores on the new model
        assert not fresh.cache_hit
        assert fresh.score == NEW_SCORE
        assert server.cache.generation == 1

    def test_sequential_swaps_keep_counting(self):
        async def scenario():
            async with DetectionServer(
                FixedScoreService(0.1), max_latency_ms=5
            ) as server:
                for index in range(3):
                    await server.swap_model(service=FixedScoreService(0.2 + index / 10))
                result = await server.submit("ls")
                return result, server

        result, server = run(scenario())
        assert server.generation == 3
        assert result.generation == 3
        assert server.metrics.swaps == 3

    def test_swap_rebuilds_the_front_end(self):
        """The incoming normalizer's cap decides keys and the truncated /
        parse_error split; nothing the old front end computed survives."""
        long_line = "echo 'abcdefghijklmnop'"  # parses whole; cut at 16 it does not
        at_new_cap = "echo 'abcdefghij"  # 16 characters, unterminated quote

        async def scenario():
            async with DetectionServer(
                NormalizingService(max_length=64),
                max_latency_ms=5,
                canonicalize=CanonicalizeConfig(enabled=True),
            ) as server:
                before = [await server.submit(line) for line in (long_line, at_new_cap)]
                memoized = at_new_cap in server.shards[0].front_memo
                truncated_before = server.metrics.canonicalize_truncated
                await server.swap_model(service=NormalizingService(max_length=16))
                memo_after_swap = len(server.shards[0].front_memo)
                after = [await server.submit(line) for line in (long_line, at_new_cap)]
                return before, memoized, truncated_before, memo_after_swap, after, server

        before, memoized, truncated_before, memo_after_swap, after, server = run(scenario())
        assert [r.line for r in before] == ["echo abcdefghijklmnop", at_new_cap]
        assert memoized and truncated_before == 0  # a parse_error under the old cap
        assert memo_after_swap == 0
        assert [r.line for r in after] == [at_new_cap, at_new_cap]
        assert server.shards[0].canonicalizer.truncation_length == 16
        # both post-swap events are failures at the new cap: truncated
        assert server.metrics.canonicalize_failures == 3
        assert server.metrics.canonicalize_truncated == 2


class TestSwapUnderLoad:
    N_EVENTS = 120

    def _drive(self, server, swap_kwargs):
        """Submit N unique events from concurrent producers; swap mid-stream."""

        async def scenario():
            pending = asyncio.Queue()
            for index in range(self.N_EVENTS):
                pending.put_nowait(f"event number {index}")
            results = []

            async def producer():
                while True:
                    try:
                        line = pending.get_nowait()
                    except asyncio.QueueEmpty:
                        return
                    results.append(await server.submit(line))

            async def swapper():
                # let roughly half the stream through, then rotate
                while len(results) < self.N_EVENTS // 2:
                    await asyncio.sleep(0.001)
                return await server.swap_model(**swap_kwargs)

            async with server:
                *_, report = await asyncio.gather(
                    *(producer() for _ in range(6)), swapper()
                )
            return results, report

        return run(scenario())

    def test_threaded_swap_drops_zero_events_and_never_mixes_generations(self):
        old = RecordingService(OLD_SCORE)
        new = RecordingService(NEW_SCORE)
        server = DetectionServer(
            old,
            backend=ThreadedBackend(old, workers=2, min_shard=1),
            max_batch=8,
            max_latency_ms=2,
        )
        results, report = self._drive(server, {"service": new})

        # zero events dropped or lost
        assert len(results) == self.N_EVENTS
        assert not any(result.dropped for result in results)
        # every score matches its generation's model — nothing in between
        for result in results:
            expected = OLD_SCORE if result.generation == 0 else NEW_SCORE
            assert result.score == expected
        assert {result.generation for result in results} == {0, 1}, (
            "the swap must land mid-stream for this test to bite"
        )
        # no single micro-batch was scored by both models
        old_lines = {line for batch in old.batches for line in batch}
        new_lines = {line for batch in new.batches for line in batch}
        assert old_lines.isdisjoint(new_lines)
        assert len(old_lines) + len(new_lines) == self.N_EVENTS
        assert report.generation == 1

    def test_process_swap_drops_zero_events(self, backend_workers):
        service = FixedScoreService(OLD_SCORE)
        server = DetectionServer(
            service,
            backend=ProcessPoolBackend(loader=load_low, workers=backend_workers, min_shard=1),
            max_batch=8,
            max_latency_ms=2,
        )
        results, report = self._drive(
            server, {"service": FixedScoreService(NEW_SCORE), "loader": load_high}
        )
        assert len(results) == self.N_EVENTS
        for result in results:
            expected = OLD_SCORE if result.generation == 0 else NEW_SCORE
            assert result.score == expected
        assert {result.generation for result in results} == {0, 1}
        assert report.generation == 1
        assert server.backend.generation == 1


class TestSwapWithRealBundles:
    def test_process_backend_scores_from_new_bundle_after_swap(
        self, demo_service, demo_bundle, tmp_path, backend_workers
    ):
        from repro.serving.demo import build_demo_service

        second_service = build_demo_service(seed=1)
        second_bundle = tmp_path / "bundle-v2"
        second_service.save(second_bundle)
        probe = "nc -lvnp 4444"

        async def scenario():
            server = DetectionServer(
                demo_service,
                backend=ProcessPoolBackend(demo_bundle, workers=backend_workers),
                max_latency_ms=5,
                precision="float64",
            )
            async with server:
                before = await server.submit(probe)
                report = await server.swap_model(str(second_bundle))
                after = await server.submit(probe)
                return before, report, after, server

        before, report, after, server = run(scenario())
        # singleton batches → bitwise comparison against direct scoring
        assert before.score == float(demo_service.score_normalized([before.line])[0])
        assert after.score == float(second_service.score_normalized([after.line])[0])
        assert before.generation == 0 and after.generation == 1
        assert report.bundle_dir == str(second_bundle)
        # the server-side service rotated too (threshold/preprocess path)
        assert server.service.fingerprint() == second_service.fingerprint()

    def test_continual_learner_export_feeds_swap(self, tmp_path):
        """The weekly loop's hand-off: export_service → swap_model."""
        from datetime import datetime

        from repro.ids.commercial import CommercialIDS
        from repro.lm.continual import ContinualLearner
        from repro.loggen.dataset import CommandDataset
        from repro.loggen.entities import LogRecord
        from repro.serving.demo import DEMO_BENIGN, DEMO_MALICIOUS, build_demo_service

        # a private service: the learner continues pre-training its
        # encoder in place, which must not leak into the session fixture
        demo_service = build_demo_service(seed=2)
        learner = ContinualLearner(
            demo_service.encoder, CommercialIDS(label_noise=0.0), head_epochs=2
        )
        week = CommandDataset(
            LogRecord(line, "u0001", "m000001", datetime(2024, 5, 6))
            for line in DEMO_BENIGN * 3 + DEMO_MALICIOUS * 3
        )
        learner.update(week)
        bundle = tmp_path / "weekly-bundle"
        exported = learner.export_service(bundle, threshold=0.5)
        assert (bundle / "service.json").exists()

        async def scenario():
            async with DetectionServer(
                demo_service, max_latency_ms=5, precision="float64"
            ) as server:
                report = await server.swap_model(str(bundle))
                result = await server.submit("nc -lvnp 4444")
                return report, result, server

        report, result, server = run(scenario())
        assert report.generation == 1
        assert server.service.fingerprint() == exported.fingerprint()
        assert result.score == float(exported.score_normalized([result.line])[0])
