"""The router's nack paths: a draining node's ``nack`` and an ``error`` frame.

A node that refuses an ingest batch leaves it untouched, so the router
takes the batch back and routes it again — no event is lost, none is
scored twice:

- a ``nack`` with reason ``draining`` (:meth:`FleetRouter._handle_nack`)
  also tells the router to stop routing to that node, so its hosts move
  to the other node;
- an ``error`` frame (:meth:`FleetRouter._nack_oldest`) hands back the
  node's oldest unacknowledged batch, which the ring routes again.
"""

import dataclasses

from repro.errors import FleetError
from repro.fleet import FleetRouter
from tests.fleet.conftest import run, start_fleet, stop_fleet


def one_batch_per_node(config):
    """Nothing leaves a buffer before ``drain`` flushes it: one ingest
    batch per node, so a refusal is exactly one nacked batch."""
    return dataclasses.replace(config, batch_max_events=1024, batch_max_latency_ms=60_000.0)


def alerted(harness, address) -> list[tuple[str, str]]:
    return [(alert.host, alert.line) for alert in harness.alerts[address]]


def test_draining_node_nack_reroutes_its_hosts(stream):
    events = stream(40, hosts=12)

    async def scenario():
        harness = await start_fleet(2)
        drained, other = harness.nodes
        # the router is not told: it learns of the drain from the nack
        drained.draining = True
        try:
            config = one_batch_per_node(harness.config)
            async with FleetRouter(config, heartbeats=False) as router:
                owners = {host: router.owner_of(host) for _, host in events}
                for line, host in events:
                    await router.submit(line, host)
                stats = await router.drain()
                owners_after = {host: router.owner_of(host) for host in owners}
                acked = sum(ack["events"] for ack in router.acks)
                log = list(router.log)
        finally:
            await stop_fleet(harness)
        return harness, owners, owners_after, stats, acked, log

    harness, owners, owners_after, stats, acked, log = run(scenario())
    drained, other = harness.nodes
    moved = {host for host, owner in owners.items() if owner == drained.address}
    assert moved and len(moved) < len(owners)  # both nodes owned hosts
    assert all(owners_after[host] == other.address for host in owners)
    assert stats["batches_nacked"] == 1
    assert drained.nacks == 1
    assert stats["nodes_evicted"] == 0 and stats["orphaned_events"] == 0
    assert any("draining (nack)" in entry for entry in log)
    # every event acked exactly once, all of them by the other node
    assert acked == len(events)
    assert drained.events_ingested == 0 and other.events_ingested == len(events)
    assert alerted(harness, drained.address) == []
    assert sorted(alerted(harness, other.address)) == sorted((h, line) for line, h in events)


def test_error_frame_nacks_the_oldest_batch(stream, monkeypatch):
    events = stream(40, hosts=12)
    calls = []

    async def scenario():
        harness = await start_fleet(2)
        faulty = harness.nodes[0]
        ingest = faulty._ingest

        async def refuse_once(message):
            if not calls:
                calls.append(message["batch_id"])
                raise FleetError("injected refusal")
            return await ingest(message)

        monkeypatch.setattr(faulty, "_ingest", refuse_once)
        try:
            config = one_batch_per_node(harness.config)
            async with FleetRouter(config, heartbeats=False) as router:
                for line, host in events:
                    await router.submit(line, host)
                stats = await router.drain()
                acked = sum(ack["events"] for ack in router.acks)
                log = list(router.log)
        finally:
            await stop_fleet(harness)
        return harness, stats, acked, log

    harness, stats, acked, log = run(scenario())
    faulty, other = harness.nodes
    assert len(calls) == 1  # the node answered one ingest with an error frame
    assert any("error: injected refusal" in entry for entry in log)
    assert stats["batches_nacked"] == 1
    assert stats["nodes_evicted"] == 0 and stats["orphaned_events"] == 0
    assert len(stats["live_nodes"]) == 2
    # the refused batch went round the ring again, to the same live node
    assert faulty.events_ingested > 0 and other.events_ingested > 0
    assert acked == faulty.events_ingested + other.events_ingested == len(events)
    delivered = alerted(harness, faulty.address) + alerted(harness, other.address)
    assert sorted(delivered) == sorted((h, line) for line, h in events)
