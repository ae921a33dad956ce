"""Tests for the sharded serving runtime: router, per-shard pipelines,
cross-shard equivalence, fleet-wide swap, and metrics merging."""

import asyncio

import pytest

from repro.serving import (
    BatchConfig,
    CommandEvent,
    DetectionServer,
    RingBufferSink,
    ServingConfig,
    ServingMetrics,
    SessionConfig,
    ShardConfig,
    ShardRouter,
    serve_stream,
)


def run(coro):
    return asyncio.run(coro)


def fast(shards: int = 1, **sections) -> ServingConfig:
    """*shards* shards flushing a micro-batch after 5 ms instead of 25."""
    return ServingConfig(
        batch=BatchConfig(max_latency_ms=5), shards=ShardConfig(count=shards), **sections
    )


def stream_through(service, config, events, concurrency, sinks=()):
    """``serve_stream`` over a new server: ``(results, stopped server)``."""
    server = DetectionServer(service, config, sinks=sinks)
    return serve_stream(server, events, concurrency=concurrency), server


def _stream(hosts=8, per_host=6, repeats=2):
    """A multi-host stream whose lines are host-disjoint, time-sorted.

    Host-disjoint lines make every counter — unique_scored and cache
    hits included — independent of how hosts are partitioned across
    shards, which is what the N-shard == 1-shard regressions need.
    """
    events = []
    clock = 0.0
    for _ in range(repeats):
        for index in range(per_host):
            for host_index in range(hosts):
                host = f"host-{host_index}"
                kind = "evil" if index % 3 == 0 else "task"
                events.append(
                    CommandEvent(f"{kind} {host}-{index}", host=host, timestamp=clock)
                )
                clock += 1.0
    return events


class TestShardRouter:
    def test_deterministic_and_stable(self):
        router = ShardRouter(4)
        again = ShardRouter(4)
        hosts = [f"h{i}" for i in range(200)]
        assert [router.route(h) for h in hosts] == [again.route(h) for h in hosts]

    def test_single_shard_routes_everything_to_zero(self):
        router = ShardRouter(1)
        assert {router.route(f"h{i}") for i in range(50)} == {0}

    def test_spread_covers_every_shard(self):
        router = ShardRouter(4)
        spread = router.spread(f"h{i}" for i in range(400))
        assert set(spread) == {0, 1, 2, 3}
        assert all(count > 0 for count in spread.values())
        # virtual nodes keep the split roughly even (no shard starves)
        assert min(spread.values()) >= 400 / 4 * 0.4

    def test_resize_moves_a_minority_of_hosts(self):
        """The consistent-hashing property: growing the ring reassigns
        roughly 1/N of hosts, not all of them."""
        before, after = ShardRouter(4), ShardRouter(5)
        hosts = [f"h{i}" for i in range(1000)]
        moved = sum(before.route(h) != after.route(h) for h in hosts)
        assert moved < 500  # naive modulo hashing would move ~80%

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter(0)
        with pytest.raises(ValueError):
            ShardRouter(2, virtual_nodes=0)


class TestShardedServer:
    def test_host_state_is_shard_local(self, stub_service):
        server = DetectionServer(stub_service, fast(4))

        async def scenario():
            async with server:
                for t in range(6):
                    await server.submit("evil burst", host="victim", timestamp=float(t))
                await server.submit("ls", host="bystander", timestamp=0.0)

        run(scenario())
        owner = server.router.route("victim")
        assert server.shards[owner].sessions.session("victim") is not None
        for shard_id, runtime in enumerate(server.shards):
            if shard_id != owner:
                assert runtime.sessions.session("victim") is None
        # the aggregate view still answers for any host
        assert server.sessions.session("victim").alerts == 6
        assert server.sessions.session("bystander") is not None
        assert server.sessions.escalated_hosts() == ["victim"]

    def test_event_ids_unique_and_in_submission_order(self, stub_service):
        events = _stream(hosts=6, per_host=4, repeats=1)
        results, _ = stream_through(stub_service, fast(3), events, concurrency=1)
        assert [r.event_id for r in results] == list(range(1, len(events) + 1))

    def test_alert_ids_unique_across_shards(self, stub_service):
        events = _stream(hosts=6, per_host=6, repeats=1)
        results, _ = stream_through(stub_service, fast(3), events, concurrency=4)
        alert_ids = [r.alert.alert_id for r in results if r.alert is not None]
        assert alert_ids
        assert len(alert_ids) == len(set(alert_ids))

    @pytest.mark.parametrize("shards", [2, 4])
    def test_verdicts_match_single_shard(self, stub_service, shards):
        """Same stream, same verdicts and escalations — sharding is a
        performance decomposition, not a policy change."""
        events = _stream()
        session = SessionConfig(window_seconds=100, escalation_threshold=3)
        single, single_server = stream_through(
            stub_service, fast(session=session), events, concurrency=1
        )
        sharded, sharded_server = stream_through(
            stub_service, fast(shards, session=session), events, concurrency=1
        )
        assert len(sharded) == len(single)
        for a, b in zip(single, sharded):
            assert (a.host, a.line, a.is_intrusion, a.score) == (
                b.host,
                b.line,
                b.is_intrusion,
                b.score,
            )
            assert (a.alert is None) == (b.alert is None)
            if a.alert is not None:
                assert a.alert.status == b.alert.status
        assert set(sharded_server.sessions.escalated_hosts()) == set(
            single_server.sessions.escalated_hosts()
        )

    def test_alert_delivery_has_zero_silent_drops(self, stub_service):
        ring = RingBufferSink(capacity=4096)
        events = _stream()
        results, server = stream_through(
            stub_service, fast(4), events, concurrency=4, sinks=[ring]
        )
        flagged = sum(r.is_intrusion for r in results)
        assert flagged > 0
        assert ring.emitted == flagged
        stats = server.sinks.stats()
        assert all(
            s.submitted == s.delivered and s.dead_lettered == s.dropped == 0
            for s in stats.values()
        )

    def test_sequence_mode_runs_on_the_owning_shard(self, two_stage_stub):
        session = SessionConfig(mode="sequence", escalation_threshold=99)
        server = DetectionServer(two_stage_stub, fast(4, session=session))

        async def scenario():
            async with server:
                await server.submit("evil one", host="victim", timestamp=0.0)
                return await server.submit("evil two", host="victim", timestamp=10.0)

        second = run(scenario())
        # the owning shard composed both lines: context corroborates
        assert second.sequence_score == 0.95
        assert second.alert.context == "evil one ; evil two"
        assert server.sessions.session("victim").escalated_by == "sequence"

    def test_session_view_is_read_only(self, stub_service):
        """Forwarding a mutator to an arbitrary shard would corrupt host
        ownership — the view must refuse, not silently write to shard 0."""
        server = DetectionServer(stub_service, ServingConfig(shards=ShardConfig(count=4)))
        view = server.sessions
        with pytest.raises(AttributeError, match="read-only"):
            view.observe("web-7", 0.0, True, line="evil")
        with pytest.raises(AttributeError, match="read-only"):
            view.record_sequence_score("web-7", 0.9)
        # reads and policy attributes still answer
        assert view.mode == "count"
        assert view.session("web-7") is None

    def test_session_view_composes_context_from_owning_shard(self, two_stage_stub):
        """compose_context must answer for a host on ANY shard, not just
        shard 0 (a per-host read routed like session())."""
        session = SessionConfig(mode="sequence", escalation_threshold=99)
        server = DetectionServer(two_stage_stub, fast(4, session=session))

        async def scenario():
            async with server:
                for host_index in range(8):
                    await server.submit("evil probe", host=f"node-{host_index}", timestamp=0.0)

        run(scenario())
        for host_index in range(8):
            host = f"node-{host_index}"
            owner = server.router.route(host)
            expected = server.shards[owner].sessions.compose_context(host)
            assert expected is not None
            assert server.sessions.compose_context(host) == expected
        assert server.sessions.compose_context("never-seen") is None

    def test_cache_and_batcher_accessors_guide_to_shards(self, stub_service):
        server = DetectionServer(stub_service, ServingConfig(shards=ShardConfig(count=2)))
        with pytest.raises(AttributeError, match="server.shards"):
            server.cache
        with pytest.raises(AttributeError, match="server.shards"):
            server.batcher
        single = DetectionServer(stub_service)
        assert single.cache is single.shards[0].cache
        assert single.batcher is single.shards[0].batcher


class TestShardedSwap:
    def test_swap_rotates_every_shard_without_mixing_generations(self, stub_service):
        new_service = type(stub_service)()
        events = _stream(hosts=8, per_host=8, repeats=1)
        config = ServingConfig(
            batch=BatchConfig(max_batch=8, max_latency_ms=5), shards=ShardConfig(count=4)
        )
        server = DetectionServer(stub_service, config)

        async def scenario():
            pending = asyncio.Queue()
            for event in events:
                pending.put_nowait(event)
            results = []

            async def producer():
                while True:
                    try:
                        event = pending.get_nowait()
                    except asyncio.QueueEmpty:
                        return
                    results.append(await server.submit_event(event))

            async def swapper():
                while len(results) < len(events) // 3:
                    await asyncio.sleep(0.002)
                return await server.swap_model(service=new_service)

            async with server:
                *_, report = await asyncio.gather(
                    *(producer() for _ in range(6)), swapper()
                )
            return results, report

        results, report = run(scenario())
        assert len(results) == len(events)
        assert not any(r.dropped for r in results)
        assert report.generation == 1
        assert {r.generation for r in results} <= {0, 1}
        # every shard cache rotated with the model
        for runtime in server.shards:
            assert runtime.cache.generation == 1
        assert server.service is new_service
        assert server.metrics.swaps == 1

    def test_swap_purge_counts_every_shard_cache(self, stub_service):
        server = DetectionServer(stub_service, fast(4))
        events = _stream(hosts=8, per_host=4, repeats=1)

        async def scenario():
            async with server:
                for event in events:
                    await server.submit_event(event)
                cached = sum(len(runtime.cache) for runtime in server.shards)
                report = await server.swap_model(service=type(stub_service)())
                return cached, report

        cached, report = run(scenario())
        assert cached > 0
        assert report.cache_invalidated == cached
        assert all(len(runtime.cache) == 0 for runtime in server.shards)


class TestMetricsMerge:
    def test_merge_sums_counters(self):
        a, b = ServingMetrics(), ServingMetrics()
        a.record_event(1.0, dropped=False, cache_hit=True)
        a.record_batch(4, "size")
        b.record_event(3.0, dropped=True, cache_hit=False)
        b.record_event(2.0, dropped=False, cache_hit=False)
        b.record_batch(2, "deadline")
        b.record_swap(12.0)
        merged = ServingMetrics.merged([a, b])
        assert merged.events_total == 3
        assert merged.dropped == 1
        assert merged.cache_hits == 1
        assert merged.cache_misses == 1
        assert merged.batches == 2
        assert merged.batched_events == 6
        assert merged.swaps == 1
        assert merged.flush_reasons == {"size": 1, "deadline": 1}
        assert merged.shards == 2
        assert merged.latency_percentile(100) == 3.0

    def test_merge_keeps_every_shard_in_the_latency_percentiles(self):
        """Merging full reservoirs must subsample fairly, not let the
        last-merged shard evict every other shard's samples."""
        a, b = ServingMetrics(), ServingMetrics()
        for _ in range(6000):  # 12k combined overflows the 10k reservoir
            a.record_event(1.0, dropped=False, cache_hit=True)
            b.record_event(100.0, dropped=False, cache_hit=True)
        merged = ServingMetrics.merged([a, b])
        # both populations are represented: the median sits between them
        assert merged.latency_percentile(25) == 1.0
        assert merged.latency_percentile(75) == 100.0

    def test_merge_takes_max_of_elapsed_not_sum(self):
        a, b = ServingMetrics(), ServingMetrics()
        a._accumulated_seconds = 2.0
        b._accumulated_seconds = 3.0
        merged = ServingMetrics.merged([a, b])
        assert merged.elapsed_seconds == pytest.approx(3.0)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_totals_equal_single_shard_on_same_stream(self, stub_service, shards):
        """The regression the satellite demands: an N-shard run's merged
        metrics equal the single-shard run's on a host-disjoint stream."""
        events = _stream()
        _, single = stream_through(stub_service, fast(), events, concurrency=1)
        _, sharded = stream_through(stub_service, fast(shards), events, concurrency=1)
        expected = single.metrics
        merged = sharded.metrics
        for counter in (
            "events_total",
            "dropped",
            "cache_hits",
            "cache_misses",
            "alerts",
            "escalations",
            "unique_scored",
            "session_evictions",
            "scoring_errors",
        ):
            assert getattr(merged, counter) == getattr(expected, counter), counter
        # every submission is batched exactly once on both layouts
        assert merged.batched_events == expected.batched_events

    def test_sharded_metrics_property_is_a_snapshot(self, stub_service):
        server = DetectionServer(stub_service, ServingConfig(shards=ShardConfig(count=2)))
        snap = server.metrics
        assert snap.shards == 2
        assert snap.events_total == 0
        # the snapshot is detached: shard counters keep living elsewhere
        assert snap is not server.metrics


class TestRingRefactorParity:
    """The HashRing extraction must not move a single host.

    Shard routing decides which shard's session table owns each host's
    state; if the refactor onto :class:`repro.serving.ring.HashRing`
    shifted any ring point, every deployed server would silently lose
    its per-host session history on upgrade.  This pins the routing to
    a reimplementation of the original inline algorithm, byte for byte.
    """

    @staticmethod
    def _original_route(host: str, shard_count: int, virtual_nodes: int) -> int:
        """The pre-refactor ShardRouter algorithm, verbatim."""
        import bisect
        from hashlib import blake2b

        def point(key: str) -> int:
            return int.from_bytes(
                blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
            )

        ring = sorted(
            (point(f"shard-{shard}/{replica}"), shard)
            for shard in range(shard_count)
            for replica in range(virtual_nodes)
        )
        points = [p for p, _ in ring]
        index = bisect.bisect_right(points, point(host)) % len(ring)
        return ring[index][1]

    @pytest.mark.parametrize(
        ("shard_count", "virtual_nodes"), [(2, 64), (3, 64), (5, 16), (8, 128)]
    )
    def test_routing_is_byte_identical_to_the_inline_original(
        self, shard_count, virtual_nodes
    ):
        router = ShardRouter(shard_count, virtual_nodes=virtual_nodes)
        hosts = [f"host-{index:04d}" for index in range(1000)]
        hosts += ["", "-", "web-01.prod.internal", "10.1.2.3", "βήτα", "host/with/slash"]
        for host in hosts:
            assert router.route(host) == self._original_route(
                host, shard_count, virtual_nodes
            ), host
