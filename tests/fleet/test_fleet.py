"""Fleet acceptance tests: parity, failover, rolling swap, merged metrics.

These are the contract of the multi-node runtime, each proven against a
real 3-node in-process fleet over real localhost TCP:

- a fleet scores a stream **identically** to a single server (same
  alerts, same escalated hosts) — distribution is an implementation
  detail;
- killing a node mid-stream loses **zero** events: unacknowledged
  batches are replayed to the survivors, and only the dead node's
  hosts are reassigned (~1/N of the key space);
- a rolling fleet swap under live load drops nothing, never mixes
  generations inside a batch, and converges every node to one
  generation;
- ``status()`` merges per-node metrics into exact fleet totals.
"""

import asyncio

import pytest

from repro.errors import FleetError
from repro.fleet import FleetRouter
from repro.serving import CallbackSink, DetectionServer
from repro.serving.events import CommandEvent
from tests.fleet.conftest import FleetHarness, run, start_fleet, stop_fleet
from tests.serving.conftest import StubService


async def wait_until(predicate, timeout: float = 5.0, interval: float = 0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


class TestParity:
    def test_three_node_fleet_matches_single_server(self, stream):
        """Same stream, same verdicts: N nodes are an implementation detail."""
        events = stream(240, hosts=18)

        async def fleet_side():
            harness = await start_fleet(3)
            try:
                async with FleetRouter(harness.config, heartbeats=False) as router:
                    for line, host in events:
                        await router.submit(line, host)
                    await router.drain()
                escalated = set()
                for node in harness.nodes:
                    escalated |= set(node.server.sessions.escalated_hosts())
            finally:
                await stop_fleet(harness)
            return harness.all_alert_keys(), escalated

        async def single_side():
            alerts = []
            server = DetectionServer(
                StubService(), max_latency_ms=5.0, sinks=[CallbackSink(alerts.append)]
            )
            async with server:
                await server.submit_many(
                    CommandEvent(line=line, host=host) for line, host in events
                )
            return (
                {(alert.host, alert.line) for alert in alerts},
                set(server.sessions.escalated_hosts()),
            )

        fleet_alerts, fleet_escalated = run(fleet_side())
        single_alerts, single_escalated = run(single_side())
        assert fleet_alerts == single_alerts
        assert len(fleet_alerts) == len(events)  # every line is an intrusion
        assert fleet_escalated == single_escalated and fleet_escalated

    def test_hosts_partition_cleanly_across_nodes(self, stream):
        """Each host's whole stream lands on exactly one node."""
        events = stream(120, hosts=12)

        async def scenario():
            harness = await start_fleet(3)
            try:
                async with FleetRouter(harness.config, heartbeats=False) as router:
                    for line, host in events:
                        await router.submit(line, host)
                    await router.drain()
            finally:
                await stop_fleet(harness)
            return harness

        harness = run(scenario())
        seen_on = {}
        for address, alerts in harness.alerts.items():
            for alert in alerts:
                seen_on.setdefault(alert.host, set()).add(address)
        assert seen_on and all(len(nodes) == 1 for nodes in seen_on.values())
        # and the fleet actually spread the hosts (3 nodes, 12 hosts)
        assert len({next(iter(n)) for n in seen_on.values()}) > 1


class TestFailover:
    def test_node_kill_mid_stream_loses_zero_events(self, stream):
        events = stream(300, hosts=18)
        first_half, second_half = events[:150], events[150:]

        async def scenario():
            harness = await start_fleet(3)
            victim = harness.nodes[1]
            try:
                async with FleetRouter(harness.config, heartbeats=False) as router:
                    owners_before = {
                        host: router.owner_of(host)
                        for host in {host for _, host in events}
                    }
                    for line, host in first_half:
                        await router.submit(line, host)
                    await victim.kill()  # connections abort; nothing acks
                    for line, host in second_half:
                        await router.submit(line, host)
                    await wait_until(
                        lambda: victim.address not in router.live_nodes
                    )
                    await router.drain()
                    owners_after = {
                        host: router.owner_of(host) for host in owners_before
                    }
                    stats = router.stats()
            finally:
                await stop_fleet(harness)
            return harness, victim, owners_before, owners_after, stats

        harness, victim, owners_before, owners_after, stats = run(scenario())
        # zero loss: every submitted line alerted somewhere in the fleet
        # (at-least-once: replayed batches may alert twice, never zero times)
        submitted = {(host, line) for line, host in events}
        assert submitted <= harness.all_alert_keys()
        assert stats["nodes_evicted"] == 1
        assert stats["orphaned_events"] == 0
        # only the dead node's hosts moved: the ring reassigns ~1/N of
        # the key space, not the whole mapping
        moved = {h for h in owners_before if owners_before[h] != owners_after[h]}
        assert moved == {
            h for h, owner in owners_before.items() if owner == victim.address
        }
        assert moved  # the victim really owned some hosts
        assert all(owner != victim.address for owner in owners_after.values())

    def test_unresponsive_node_evicted_by_heartbeats(self, stream):
        """A node that accepts TCP but never answers is detected and
        drained around — liveness is heartbeat acks, not connectivity."""
        events = stream(80, hosts=12)

        async def scenario():
            harness = await start_fleet(2)

            async def black_hole(reader, writer):
                await asyncio.sleep(3600)

            silent = await asyncio.start_server(black_hole, "127.0.0.1", 0)
            silent_address = "127.0.0.1:%d" % silent.sockets[0].getsockname()[1]
            config = harness.config.from_dict(
                {
                    **harness.config.to_dict(),
                    "nodes": [*harness.config.nodes, silent_address],
                    "heartbeat_interval_seconds": 0.05,
                    "heartbeat_timeout_seconds": 0.25,
                    "suspicion_misses": 2,
                }
            )
            try:
                async with FleetRouter(config) as router:
                    for line, host in events:
                        await router.submit(line, host)
                    await wait_until(
                        lambda: silent_address not in router.live_nodes, timeout=10.0
                    )
                    await router.drain()
                    stats = router.stats()
            finally:
                silent.close()
                await silent.wait_closed()
                await stop_fleet(harness)
            return harness, stats

        harness, stats = run(scenario())
        submitted = {(host, line) for line, host in events}
        assert submitted <= harness.all_alert_keys()
        assert stats["nodes_evicted"] == 1 and stats["orphaned_events"] == 0

    def test_stop_ends_heartbeats_even_if_their_cancel_is_lost(self):
        """Python 3.11's ``wait_for`` can swallow a cancel that arrives as
        a heartbeat answer does; ``stop()`` must still return."""

        async def swallow_cancel(task):
            while True:
                try:
                    return await asyncio.shield(task)
                except asyncio.CancelledError:
                    continue

        async def scenario():
            harness = await start_fleet(1)
            router = FleetRouter(
                harness.config.from_dict(
                    {**harness.config.to_dict(), "heartbeat_interval_seconds": 0.01}
                )
            )
            try:
                await router.start()
                client = next(iter(router._clients.values()))
                client.heartbeat_task = asyncio.ensure_future(
                    swallow_cancel(client.heartbeat_task)
                )
                stopping = asyncio.ensure_future(router.stop())
                done, _ = await asyncio.wait({stopping}, timeout=5.0)
                if not done:  # end the loop the lost cancel should have ended
                    client.alive = False
                    await stopping
            finally:
                await stop_fleet(harness)
            return bool(done)

        assert run(scenario())

    def test_all_nodes_dead_fails_loudly(self, stream):
        async def scenario():
            harness = await start_fleet(1)
            try:
                async with FleetRouter(harness.config, heartbeats=False) as router:
                    await router.submit("evil one", "host-a")
                    await harness.nodes[0].kill()
                    await wait_until(lambda: not router.live_nodes)
                    with pytest.raises(FleetError, match="no live nodes"):
                        for index in range(50):
                            await router.submit(f"evil {index}", "host-b")
                            await asyncio.sleep(0.01)
            finally:
                await stop_fleet(harness)

        run(scenario())


class TestRollingSwap:
    def test_rolling_swap_under_load(self, stream):
        """Swap every node while traffic flows: zero drops, no batch
        mixes generations, the fleet converges on one generation."""
        events = stream(400, hosts=18)

        async def scenario():
            harness = await start_fleet(
                3, swap_resolver=lambda ref: {"service": StubService()}
            )
            try:
                async with FleetRouter(harness.config, heartbeats=False) as router:
                    feed_done = asyncio.Event()

                    async def producer():
                        for line, host in events:
                            await router.submit(line, host)
                            await asyncio.sleep(0.001)
                        feed_done.set()

                    feeder = asyncio.ensure_future(producer())
                    await asyncio.sleep(0.05)  # traffic established
                    reports = await router.swap_fleet("v2")
                    await feed_done.wait()
                    await feeder
                    await router.drain()
                    acks = list(router.acks)
                    stats = router.stats()
                generations = [node.server.generation for node in harness.nodes]
            finally:
                await stop_fleet(harness)
            return harness, reports, acks, stats, generations

        harness, reports, acks, stats, generations = run(scenario())
        # the roll touched every node and converged
        assert [report["generation"] for report in reports] == [1, 1, 1]
        assert generations == [1, 1, 1]
        # no batch ever mixed model generations
        assert acks and all(len(ack["generations"]) == 1 for ack in acks)
        # both generations actually served traffic (the swap was rolling,
        # not a stop-the-world restart)
        served = {ack["generations"][0] for ack in acks}
        assert served == {0, 1}
        # zero drops: every event alerted, nothing nacked into oblivion
        submitted = {(host, line) for line, host in events}
        assert submitted <= harness.all_alert_keys()
        assert stats["orphaned_events"] == 0 and stats["nodes_evicted"] == 0

    def test_divergent_fleet_fails_convergence_check(self):
        """A fleet whose nodes end on different generations is an error.

        Rotating one node behind the router's back makes the roll land
        on {2, 1}: each per-node swap passes its own fence (it is fenced
        on the node's *observed* generation), but the fleet-level
        convergence check must then fail loudly instead of reporting a
        half-new fleet as swapped.
        """

        async def scenario():
            harness = await start_fleet(
                2, swap_resolver=lambda ref: {"service": StubService()}
            )
            try:
                async with FleetRouter(harness.config, heartbeats=False) as router:
                    # rotate node 0 behind the router's back
                    await harness.nodes[0].server.swap_model(service=StubService())
                    with pytest.raises(FleetError, match="did not converge"):
                        await router.swap_fleet("v2")
                    generations = sorted(n.server.generation for n in harness.nodes)
            finally:
                await stop_fleet(harness)
            return generations

        generations = run(scenario())
        assert generations == [1, 2]


class TestControlPlane:
    def test_status_merges_exact_totals(self, stream):
        events = stream(150, hosts=12)

        async def scenario():
            harness = await start_fleet(3)
            try:
                async with FleetRouter(harness.config, heartbeats=False) as router:
                    for line, host in events:
                        await router.submit(line, host)
                    await router.drain()
                    status = await router.status()
                    merged = await router.merged_metrics()
            finally:
                await stop_fleet(harness)
            return harness, status, merged

        harness, status, merged = run(scenario())
        per_node_events = [n["events_ingested"] for n in status["nodes"]]
        assert sum(per_node_events) == len(events)
        # merged metrics are the exact sum of the per-node counters
        assert status["merged"]["events_total"] == len(events)
        assert merged.events_total == len(events)
        assert merged.alerts == sum(
            node.server.metrics.alerts for node in harness.nodes
        )
        assert status["merged"]["shards"] == 3
        # the fleet-wide reservoir holds samples from the whole fleet
        assert merged.latency_percentile(50) > 0
        assert status["membership"]  # detector tracked every node

    def test_drain_node_stops_routing_to_it(self, stream):
        events = stream(120, hosts=12)

        async def scenario():
            harness = await start_fleet(3)
            drained = harness.nodes[0]
            try:
                async with FleetRouter(harness.config, heartbeats=False) as router:
                    await router.drain_node(drained.address)
                    assert drained.address not in [
                        router.owner_of(host) for _, host in events
                    ]
                    for line, host in events:
                        await router.submit(line, host)
                    await router.drain()
            finally:
                await stop_fleet(harness)
            return harness, drained

        harness, drained = run(scenario())
        # the drained node processed nothing; the fleet still lost nothing
        assert drained.events_ingested == 0 and drained.draining
        submitted = {(host, line) for line, host in events}
        assert submitted <= harness.all_alert_keys()

    def test_resize_refused_on_inline_backend_via_router(self):
        async def scenario():
            harness = await start_fleet(1)
            try:
                async with FleetRouter(harness.config, heartbeats=False) as router:
                    with pytest.raises(FleetError, match="refused resize"):
                        await router.resize_node(harness.nodes[0].address, 4)
            finally:
                await stop_fleet(harness)

        run(scenario())


class TestBackpressure:
    def test_inflight_window_is_bounded(self, stream):
        """The router never has more than max_inflight_batches unacked
        frames per node, even under a burst far larger than the window."""
        events = stream(400, hosts=6)

        async def scenario():
            harness = await start_fleet(2)
            peak = 0
            try:
                async with FleetRouter(harness.config, heartbeats=False) as router:
                    clients = list(router._clients.values())

                    async def watch():
                        nonlocal peak
                        while True:
                            peak = max(peak, max(len(c.unacked) for c in clients))
                            await asyncio.sleep(0)

                    watcher = asyncio.ensure_future(watch())
                    for line, host in events:
                        await router.submit(line, host)
                    await router.drain()
                    watcher.cancel()
            finally:
                await stop_fleet(harness)
            return peak

        peak = run(scenario())
        assert 0 < peak <= 4  # the harness config's max_inflight_batches
