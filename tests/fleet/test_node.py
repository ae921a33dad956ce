"""Single-node tests: TCP ingest, acks, drain nacks, the admin verbs.

Each test boots one real :class:`FleetNode` on an OS-assigned port and
speaks raw protocol frames to it, so the node's dispatch loop — not a
mocked transport — is what is under test.
"""

import asyncio

import pytest

from repro.fleet import FleetNode
from repro.fleet.protocol import (
    FleetChannel,
    admin_message,
    heartbeat_message,
    ingest_message,
    read_frame,
    write_frame,
)
from repro.serving import DetectionServer
from tests.fleet.conftest import FAST_FLUSH
from tests.serving.conftest import StubService


def run(coro):
    return asyncio.run(coro)


async def start_node(**node_kwargs) -> FleetNode:
    server = DetectionServer(StubService(), FAST_FLUSH)
    node = FleetNode(server, port=0, **node_kwargs)
    return await node.start()


async def one_round_trip(node: FleetNode, message: dict) -> dict:
    reader, writer = await asyncio.open_connection(node.host, node.port)
    try:
        await write_frame(writer, message)
        return await read_frame(reader)
    finally:
        writer.close()


class TestIngest:
    def test_batch_is_scored_and_acked(self):
        async def scenario():
            node = await start_node()
            try:
                ack = await one_round_trip(
                    node,
                    ingest_message(
                        41,
                        [
                            ("evil wget exfil", "web-01", None),
                            ("ls -la", "web-01", None),
                            ("broken line '", "db-02", None),  # unparseable → dropped
                        ],
                    ),
                )
            finally:
                await node.stop()
            return ack, node

        ack, node = run(scenario())
        assert ack["type"] == "ack" and ack["batch_id"] == 41
        assert ack["events"] == 3
        assert ack["dropped"] == 1
        assert ack["intrusions"] == 1 and ack["alerts"] == 1
        assert ack["generations"] == [0]
        assert node.batches_ingested == 1 and node.events_ingested == 3

    def test_requests_on_one_connection_answer_in_order(self):
        async def scenario():
            node = await start_node()
            try:
                reader, writer = await asyncio.open_connection(node.host, node.port)
                for batch_id in range(4):
                    await write_frame(
                        writer,
                        ingest_message(batch_id, [(f"cmd {batch_id}", "h", None)]),
                    )
                acks = [await read_frame(reader) for _ in range(4)]
                writer.close()
            finally:
                await node.stop()
            return acks

        acks = run(scenario())
        assert [ack["batch_id"] for ack in acks] == [0, 1, 2, 3]

    def test_draining_node_nacks_without_processing(self):
        async def scenario():
            node = await start_node()
            try:
                await one_round_trip(node, admin_message("drain"))
                nack = await one_round_trip(
                    node, ingest_message(7, [("evil", "h", None)])
                )
                await one_round_trip(node, admin_message("undrain"))
                ack = await one_round_trip(
                    node, ingest_message(8, [("evil", "h", None)])
                )
            finally:
                await node.stop()
            return nack, ack, node

        nack, ack, node = run(scenario())
        assert nack == {"type": "nack", "batch_id": 7, "reason": "draining"}
        assert ack["type"] == "ack"
        # the nacked batch really was untouched: only batch 8 was ingested
        assert node.events_ingested == 1 and node.nacks == 1


class TestHeartbeat:
    def test_heartbeat_carries_vitals(self):
        async def scenario():
            node = await start_node()
            try:
                await one_round_trip(node, ingest_message(1, [("evil", "h", None)]))
                answer = await one_round_trip(node, heartbeat_message(17))
            finally:
                await node.stop()
            return answer, node

        answer, node = run(scenario())
        assert answer["type"] == "heartbeat_ack" and answer["seq"] == 17
        assert answer["node_id"] == node.node_id
        assert answer["generation"] == 0
        assert answer["draining"] is False
        assert answer["events_total"] == 1


class TestAdmin:
    def test_unknown_frames_and_verbs_answer_error(self):
        async def scenario():
            node = await start_node()
            try:
                bad_type = await one_round_trip(node, {"type": "gibberish"})
                bad_verbs = [
                    await one_round_trip(node, admin_message(verb, workers=3))
                    for verb in ("explode", "resize")
                ]
                # and the connection survives a bad frame: ask again
                ping = await one_round_trip(node, admin_message("ping"))
            finally:
                await node.stop()
            return bad_type, bad_verbs, ping

        bad_type, bad_verbs, ping = run(scenario())
        assert bad_type["type"] == "error" and "unknown frame type" in bad_type["error"]
        for bad_verb in bad_verbs:
            assert bad_verb["type"] == "error" and "unknown admin verb" in bad_verb["error"]
            assert "known verbs: ping, status" in bad_verb["error"]
        assert ping["ok"] is True

    def test_status_includes_metrics_snapshot(self):
        async def scenario():
            node = await start_node()
            try:
                await one_round_trip(node, ingest_message(1, [("evil", "h", None)]))
                status = await one_round_trip(node, admin_message("status"))
            finally:
                await node.stop()
            return status

        status = run(scenario())
        assert status["ok"] is True
        assert status["generation"] == 0
        assert status["events_ingested"] == 1
        assert status["metrics"]["events_total"] == 1

    def test_swap_rotates_generation(self):
        swapped_in = StubService()

        async def scenario():
            node = await start_node(swap_resolver=lambda ref: {"service": swapped_in})
            try:
                answer = await one_round_trip(
                    node, admin_message("swap", bundle="new", expect_generation=0)
                )
                heartbeat = await one_round_trip(node, heartbeat_message(1))
            finally:
                await node.stop()
            return answer, heartbeat

        answer, heartbeat = run(scenario())
        assert answer["ok"] is True and answer["generation"] == 1
        assert heartbeat["generation"] == 1

    def test_swap_generation_fence_refuses_stale_caller(self):
        async def scenario():
            node = await start_node(swap_resolver=lambda ref: {"service": StubService()})
            try:
                first = await one_round_trip(
                    node, admin_message("swap", bundle="a", expect_generation=0)
                )
                # a duplicated/retried command still fenced on 0 must be refused
                stale = await one_round_trip(
                    node, admin_message("swap", bundle="a", expect_generation=0)
                )
            finally:
                await node.stop()
            return first, stale, node

        first, stale, node = run(scenario())
        assert first["ok"] is True
        assert stale["ok"] is False and "generation fence" in stale["error"]
        assert node.server.generation == 1  # the retry did not double-rotate


class TestSyncChannel:
    def test_fleet_channel_round_trips_from_a_thread(self):
        """The blocking CLI channel works against a live asyncio node."""

        async def scenario():
            node = await start_node()

            def admin_status():
                with FleetChannel(node.host, node.port) as channel:
                    ping = channel.request(admin_message("ping"))
                    status = channel.request(admin_message("status"))
                return ping, status

            try:
                ping, status = await asyncio.to_thread(admin_status)
            finally:
                await node.stop()
            return ping, status

        ping, status = run(scenario())
        assert ping["ok"] is True and ping["verb"] == "ping"
        assert status["verb"] == "status" and "metrics" in status
