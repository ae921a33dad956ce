"""Tests for the DetectionServer event path (driven with a stub service)."""

import asyncio
import gc
import weakref

import pytest

from repro.errors import ConfigError
from repro.serving import (
    BatchConfig,
    CacheConfig,
    CanonicalizeConfig,
    CommandEvent,
    DetectionServer,
    RingBufferSink,
    ServingConfig,
    SessionConfig,
    serve_stream,
)
from repro.serving.events import AlertStatus

#: Flush a micro-batch after 5 ms instead of 25.
FAST = ServingConfig(batch=BatchConfig(max_latency_ms=5))


def run(coro):
    return asyncio.run(coro)


class TestSubmitPath:
    def test_intrusion_verdict_and_alert(self, stub_service):
        ring = RingBufferSink()

        async def scenario():
            async with DetectionServer(stub_service, FAST, sinks=[ring]) as server:
                return await server.submit("evil --flag", host="web-1")

        result = run(scenario())
        assert result.is_intrusion
        assert result.alert is not None
        assert result.alert.host == "web-1"
        assert ring.emitted == 1

    def test_benign_event_produces_no_alert(self, stub_service):
        async def scenario():
            async with DetectionServer(stub_service, FAST) as server:
                return await server.submit("ls -la")

        result = run(scenario())
        assert not result.is_intrusion
        assert result.alert is None

    def test_dropped_event_skips_scoring(self, stub_service):
        async def scenario():
            async with DetectionServer(stub_service, FAST) as server:
                return await server.submit("echo 'unterminated'")  # stub drops trailing '

        result = run(scenario())
        assert result.dropped
        assert result.score == 0.0
        assert stub_service.scored_batches == []

    def test_normalization_applied_per_event(self, stub_service):
        async def scenario():
            async with DetectionServer(stub_service, FAST) as server:
                return await server.submit("  evil    --flag  ")

        assert run(scenario()).line == "evil --flag"


class TestCacheAccounting:
    def test_repeat_line_hits_cache(self, stub_service):
        async def scenario():
            async with DetectionServer(stub_service, FAST) as server:
                first = await server.submit("evil --flag")
                second = await server.submit("evil --flag")
                return first, second, server

        first, second, server = run(scenario())
        assert not first.cache_hit
        assert second.cache_hit
        assert first.score == second.score
        assert server.metrics.cache_hits == 1
        assert server.metrics.cache_misses == 1
        # the LM only ever saw the line once
        assert sum(len(b) for b in stub_service.scored_batches) == 1

    def test_within_batch_duplicates_scored_once(self, stub_service):
        async def scenario():
            config = ServingConfig(batch=BatchConfig(max_batch=8, max_latency_ms=30))
            async with DetectionServer(stub_service, config) as server:
                results = await asyncio.gather(*(server.submit("evil x") for _ in range(6)))
                return results, server

        results, server = run(scenario())
        assert len({r.score for r in results}) == 1
        assert server.metrics.unique_scored == 1

    def test_cache_disabled_scores_every_event(self, stub_service):
        async def scenario():
            config = ServingConfig(batch=FAST.batch, cache=CacheConfig(size=0))
            async with DetectionServer(stub_service, config) as server:
                await server.submit("ls -la")
                await server.submit("ls -la")
                return server

        server = run(scenario())
        assert server.metrics.cache_hits == 0
        assert server.metrics.cache_misses == 2


class TestEscalation:
    def test_burst_host_escalates_and_status_changes(self, stub_service):
        ring = RingBufferSink()

        async def scenario():
            config = ServingConfig(
                batch=FAST.batch,
                session=SessionConfig(window_seconds=100, escalation_threshold=3),
            )
            async with DetectionServer(stub_service, config, sinks=[ring]) as server:
                for t in range(5):
                    await server.submit("evil burst", host="victim", timestamp=float(t))
                return server

        server = run(scenario())
        assert server.sessions.escalated_hosts() == ["victim"]
        assert server.metrics.escalations == 1
        statuses = [alert.status for alert in ring.alerts]
        assert statuses[:2] == [AlertStatus.OPEN, AlertStatus.OPEN]
        assert statuses[2:] == [AlertStatus.ESCALATED] * 3


class TestSequenceEscalation:
    def test_sequence_mode_escalates_on_corroborated_context(self, two_stage_stub):
        ring = RingBufferSink()
        session = SessionConfig(mode="sequence", escalation_threshold=99)

        async def scenario():
            config = ServingConfig(batch=FAST.batch, session=session)
            async with DetectionServer(two_stage_stub, config, sinks=[ring]) as server:
                first = await server.submit("evil one", host="victim", timestamp=0.0)
                second = await server.submit("evil two", host="victim", timestamp=10.0)
                return first, second, server

        first, second, server = run(scenario())
        # first flagged event: only one evil segment in context → no escalation
        assert first.sequence_score == 0.2
        assert first.alert.status is AlertStatus.OPEN
        # second: the window corroborates → sequence escalation
        assert second.sequence_score == 0.95
        assert second.alert.status is AlertStatus.ESCALATED
        assert second.alert.context == "evil one ; evil two"
        assert second.alert.sequence_score == 0.95
        assert server.sessions.session("victim").escalated_by == "sequence"
        assert server.metrics.sequence_scored == 2
        assert server.metrics.sequence_escalations == 1
        assert server.metrics.escalations == 1

    def test_second_stage_skipped_for_benign_events(self, two_stage_stub):
        session = SessionConfig(mode="sequence")

        async def scenario():
            config = ServingConfig(batch=FAST.batch, session=session)
            async with DetectionServer(two_stage_stub, config) as server:
                for index in range(5):
                    await server.submit(f"ls -la {index}", host="h", timestamp=float(index))
                return server

        server = run(scenario())
        assert two_stage_stub.sequence_batches == []
        assert server.metrics.sequence_scored == 0

    def test_count_mode_never_invokes_second_stage(self, two_stage_stub):
        async def scenario():
            async with DetectionServer(two_stage_stub, FAST) as server:
                await server.submit("evil one", host="h", timestamp=0.0)
                await server.submit("evil two", host="h", timestamp=1.0)
                return server

        server = run(scenario())
        assert two_stage_stub.sequence_batches == []
        assert server.metrics.sequence_scored == 0

    def test_sequence_mode_without_head_fails_at_construction(self, stub_service):
        with pytest.raises(ConfigError, match="multi-line head"):
            DetectionServer(stub_service, ServingConfig(session=SessionConfig(mode="sequence")))

    def test_composition_skew_against_bundle_meta_warns(self, two_stage_stub):
        two_stage_stub.multiline_composer_meta = {"window": 4, "max_gap_seconds": 120.0}
        with pytest.warns(UserWarning, match="training composer"):
            DetectionServer(
                two_stage_stub,
                ServingConfig(session=SessionConfig(mode="sequence", context_window=3)),
            )
        # matching composition (or count mode) stays quiet
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            matching = SessionConfig(
                mode="sequence", context_window=4, context_max_gap_seconds=120.0
            )
            DetectionServer(two_stage_stub, ServingConfig(session=matching))
            DetectionServer(two_stage_stub, ServingConfig(session=SessionConfig(mode="count")))

    def test_swap_refuses_bundle_without_second_stage(self, two_stage_stub, stub_service):
        session = SessionConfig(mode="sequence")

        async def scenario():
            config = ServingConfig(batch=FAST.batch, session=session)
            async with DetectionServer(two_stage_stub, config) as server:
                with pytest.raises(ConfigError, match="multi-line head"):
                    await server.swap_model(service=stub_service)
                # the server kept serving on the old two-stage service
                return await server.submit("evil again", host="h", timestamp=0.0)

        result = run(scenario())
        assert result.is_intrusion
        assert result.sequence_score is not None


class TestServeStream:
    def test_results_in_input_order(self, stub_service):
        events = [CommandEvent(f"cmd-{i}") for i in range(20)]
        results = serve_stream(DetectionServer(stub_service, FAST), events, concurrency=4)
        assert [r.raw_line for r in results] == [f"cmd-{i}" for i in range(20)]

    def test_plain_strings_accepted(self, stub_service):
        server = DetectionServer(stub_service, FAST)
        results = serve_stream(server, ["ls", "evil thing", "ls"], concurrency=2)
        assert len(results) == 3
        assert server.metrics.alerts == 1

    def test_metrics_cover_all_events(self, stub_service):
        events = [CommandEvent("ls")] * 10 + [CommandEvent("bad'")]
        server = DetectionServer(stub_service, FAST)
        serve_stream(server, events, concurrency=3)
        snap = server.metrics.snapshot()
        assert snap["events_total"] == 11
        assert snap["dropped"] == 1
        assert snap["cache_hits"] + snap["cache_misses"] == 10
        assert snap["events_per_second"] > 0

    def test_existing_server_reused_for_warm_cache(self, stub_service):
        server = DetectionServer(stub_service, FAST)
        serve_stream(server, ["ls -la"] * 4, concurrency=2)
        hits_after_cold = server.metrics.cache_hits
        misses_after_cold = server.metrics.cache_misses
        assert misses_after_cold >= 1
        # second pass over the same stream: every event is a cache hit
        serve_stream(server, ["ls -la"] * 4, concurrency=2)
        assert server.metrics.cache_misses == misses_after_cold
        assert server.metrics.cache_hits == hits_after_cold + 4
        # the throughput clock accumulates active time across both passes
        assert server.metrics.events_total == 8
        assert server.metrics.elapsed_seconds > 0

    def test_server_reuse_rejects_conflicting_options(self, stub_service):
        server = DetectionServer(stub_service, FAST)
        # the server's own config is the only policy a drive can use
        with pytest.raises(TypeError, match="cache_size"):
            serve_stream(server, ["ls"], cache_size=0)


class TestLifecycle:
    def test_stopped_server_is_freed_without_the_cyclic_gc(self):
        """The last reference to a stopped server frees its model.

        With the cyclic GC off, only reference counting can free the
        service and its compiled plan — a cycle through the server would
        keep both (and the plan's scratch) alive.
        """
        from repro.serving.demo import build_demo_service

        service = build_demo_service()
        config = ServingConfig(
            batch=BatchConfig(max_latency_ms=1), canonicalize=CanonicalizeConfig(enabled=True)
        )
        server = DetectionServer(service, config)

        async def scenario():
            for _ in range(2):  # stop -> start keeps serving
                async with server:
                    await server.submit("nc -lvnp 4444", host="h")
                    await server.submit_many(["ls -la /tmp", "cat${IFS}/etc/shadow"])

        run(scenario())
        assert server.metrics.events_total == 6
        refs = [weakref.ref(service), weakref.ref(service.encoder.inference_plan)]
        gc.collect()
        gc.disable()
        try:
            del service, server
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
