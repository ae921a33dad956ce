"""One event's front end cannot fail its batch, its node or the fleet.

A line nested past the parser's recursion limit makes ``preprocess``
(and the canonicalizer) raise ``RecursionError``.  The shard turns that
into the event's own outcome: it is counted in
``ServingMetrics.front_errors`` and scored on its normalized text, and
every other event gets the verdict it gets without the poison line —
through ``submit_many``, ``submit_event``, and a ``FleetRouter`` over
two loopback nodes (no eviction, no orphan).
"""

import asyncio

import pytest

from repro.fleet import FleetRouter
from repro.ids.pipeline import IntrusionDetectionService
from repro.serving import DetectionServer
from repro.serving.config import BatchConfig, CanonicalizeConfig, ServingConfig
from repro.serving.demo import DEMO_BENIGN, DEMO_MALICIOUS
from repro.serving.events import CommandEvent
from tests.fleet.conftest import start_fleet, stop_fleet
from tests.serving.conftest import StubService

#: Deep enough to raise at any stack depth the suite runs at (the
#: parser gives out from 248), and well inside ``max_length``.
POISON = "( " * 300 + "id" + " )" * 300


def run(coro):
    return asyncio.run(coro)


def events_with(poison: bool) -> list[CommandEvent]:
    lines = [*DEMO_BENIGN[:6], DEMO_MALICIOUS[0], *DEMO_BENIGN[6:10], *DEMO_MALICIOUS[1:4]]
    events = [CommandEvent(line=line, host=f"host-{i % 5}") for i, line in enumerate(lines)]
    if poison:
        # the poison shares its host with others, a reverse shell follows it
        events.insert(3, CommandEvent(line=POISON, host="host-3"))
    return events


def verdicts(results) -> list[tuple]:
    return [(r.raw_line, r.host, r.line, r.score, r.is_intrusion, r.dropped) for r in results]


def without_poison(results) -> list:
    return [r for r in results if r.raw_line != POISON]


@pytest.fixture
def service(demo_bundle):
    return IntrusionDetectionService.load(demo_bundle)


def test_poison_line_raises_in_preprocess(service):
    with pytest.raises(RecursionError):
        service.preprocess(POISON)


@pytest.mark.parametrize("canonicalize", [False, True])
def test_submit_many_batch_survives_a_poison_line(demo_bundle, canonicalize):
    config = ServingConfig(canonicalize=CanonicalizeConfig(enabled=canonicalize))

    async def serve(events):
        service = IntrusionDetectionService.load(demo_bundle)
        async with DetectionServer(service, config) as server:
            return await server.submit_many(events), server.metrics

    clean, clean_metrics = run(serve(events_with(poison=False)))
    results, metrics = run(serve(events_with(poison=True)))

    assert verdicts(without_poison(results)) == verdicts(clean)
    assert any(r.is_intrusion for r in clean)
    assert metrics.front_errors == 1 and clean_metrics.front_errors == 0
    assert metrics.scoring_errors == 0
    (poisoned,) = [r for r in results if r.raw_line == POISON]
    # scored on its normalized text, not dropped
    assert not poisoned.dropped
    assert poisoned.line == IntrusionDetectionService.load(demo_bundle).normalizer(POISON)


def test_submit_event_survives_a_poison_line(demo_bundle):
    async def serve(events):
        service = IntrusionDetectionService.load(demo_bundle)
        config = ServingConfig(batch=BatchConfig(max_latency_ms=5))
        async with DetectionServer(service, config) as server:
            results = [await server.submit_event(event) for event in events]
            return results, server.metrics

    clean, _ = run(serve(events_with(poison=False)))
    results, metrics = run(serve(events_with(poison=True)))

    assert verdicts(without_poison(results)) == verdicts(clean)
    assert metrics.front_errors == 1
    (poisoned,) = [r for r in results if r.raw_line == POISON]
    assert not poisoned.dropped and poisoned.line


def test_fleet_survives_a_poison_line(demo_bundle):
    async def serve(events):
        harness = await start_fleet(
            2, make_service=lambda: IntrusionDetectionService.load(demo_bundle)
        )
        try:
            async with FleetRouter(harness.config, heartbeats=False) as router:
                await router.submit_many(events)
                stats = await router.drain()
            errors = sum(node.server.metrics.front_errors for node in harness.nodes)
            ingested = sum(node.events_ingested for node in harness.nodes)
        finally:
            await stop_fleet(harness)
        return harness.all_alert_keys(), stats, errors, ingested

    clean_alerts, _, _, _ = run(serve(events_with(poison=False)))
    events = events_with(poison=True)
    alerts, stats, errors, ingested = run(serve(events))

    assert stats["nodes_evicted"] == 0
    assert stats["orphaned_events"] == 0
    assert len(stats["live_nodes"]) == 2
    assert errors == 1
    assert ingested == len(events)
    poisoned = IntrusionDetectionService.load(demo_bundle).normalizer(POISON)
    assert {(host, line) for host, line in alerts if line != poisoned} == clean_alerts
    assert clean_alerts


def test_canonicalizer_error_scores_the_normalized_line(demo_bundle):
    """A canonicalizer that raises on a line preprocess kept: the line is
    scored as preprocess normalized it, and the memo does not keep it."""

    async def serve():
        service = IntrusionDetectionService.load(demo_bundle)
        config = ServingConfig(canonicalize=CanonicalizeConfig(enabled=True))
        async with DetectionServer(service, config) as server:
            runtime = server.shards[0]
            canonicalize = runtime.canonicalizer.canonicalize

            def failing(line, ast=None):
                if "nc" in line.split():
                    raise RecursionError("injected")
                return canonicalize(line, ast)

            runtime.canonicalizer.canonicalize = failing
            events = [CommandEvent(line=line, host="h") for line in ("nc -lvnp 4444", "ls -la")]
            results = await server.submit_many(events * 2)
            return results, server.metrics, set(runtime.front_memo)

    results, metrics, memo = run(serve())
    assert metrics.front_errors == 2  # counted per event, never memoized
    assert "nc -lvnp 4444" not in memo and "ls -la" in memo
    assert [r.line for r in results] == ["nc -lvnp 4444", "ls -la"] * 2
    assert not any(r.dropped for r in results)


def test_service_without_normalizer_drops_the_event():
    class Raising(StubService):
        def preprocess(self, raw, *, with_ast=False):
            if raw == "boom":
                raise RecursionError("injected")
            return super().preprocess(raw, with_ast=with_ast)

    async def serve():
        async with DetectionServer(Raising()) as server:
            events = [CommandEvent(line=line) for line in ("evil x", "boom", "ls")]
            return await server.submit_many(events), server.metrics

    results, metrics = run(serve())
    assert [r.dropped for r in results] == [False, True, False]
    assert [r.is_intrusion for r in results] == [True, False, False]
    assert metrics.front_errors == 1
