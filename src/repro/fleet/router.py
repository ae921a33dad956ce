"""The fleet's ingest frontend: host-ring routing, windows, failover.

:class:`FleetRouter` is the piece that makes N :class:`FleetNode`
processes act as one detector.  It accepts the same event stream a
single :class:`~repro.serving.server.DetectionServer` would and:

- **routes** every event by ``event.host`` on a node-level
  :class:`~repro.serving.ring.HashRing` — the *same* ring (same blake2b
  points, same virtual-node scheme) the in-process
  :class:`~repro.serving.shard.ShardRouter` uses one level down, so a
  host's whole command stream lands on one node and that node's session
  aggregator sees it in order;
- **batches** per node (fill-or-deadline, the fleet-level twin of the
  server's micro-batch policy) and keeps at most
  ``max_inflight_batches`` unacknowledged frames per node — a full
  window blocks the submitter, which is the fleet's backpressure;
- **detects failure** with periodic heartbeats on a dedicated
  connection per node (so a slow scoring batch never looks like a
  death) driven by the pure
  :class:`~repro.fleet.membership.FailureDetector`, and treats a broken
  ingest connection as immediate death;
- **fails over** by rebuilding the ring without the dead node — the
  ring moves only the dead node's hosts, ~1/N of the key space — and
  replaying every unacknowledged and still-buffered event to the
  surviving owners.  Delivery is therefore *at-least-once*: a node that
  died after scoring but before acking causes a replay, never a silent
  drop.  Per-host ordering is preserved on the steady path and
  best-effort across a failover.
- **rolls swaps** across the fleet one node at a time: take the node
  out of the ring, drain its window, issue a generation-fenced ``swap``
  verb, verify the new generation, put it back.  Traffic keeps flowing
  to the other nodes throughout, and no node ever scores a batch with
  two generations (the per-node swap already guarantees that; the
  rolling order guarantees the fleet converges).

Everything here runs on one asyncio loop; the router is not
thread-safe.  Use it as an async context manager or call
:meth:`start` / :meth:`stop`.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from collections.abc import Iterable

from repro.errors import FleetError
from repro.fleet.config import FleetConfig, parse_address
from repro.fleet.membership import DEAD, FailureDetector
from repro.fleet.protocol import (
    admin_message,
    heartbeat_message,
    ingest_message,
    read_frame,
    write_frame,
)
from repro.serving.events import CommandEvent
from repro.serving.metrics import ServingMetrics
from repro.serving.ring import HashRing

#: One buffered/in-flight event: ``(line, host, timestamp)``.
_Event = tuple[str, str, float | None]


class _NodeClient:
    """Router-side state for one node: connection, buffer, window."""

    def __init__(self, address: str, *, max_inflight: int):
        self.address = address
        self.host, self.port = parse_address(address)
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.reader_task: asyncio.Task | None = None
        self.heartbeat_task: asyncio.Task | None = None
        self.buffer: list[_Event] = []
        self.buffer_since: float | None = None  # perf_counter of oldest buffered
        self.unacked: "OrderedDict[int, list[_Event]]" = OrderedDict()
        self.window = asyncio.Semaphore(max_inflight)
        self.alive = True  # False once evicted; never set back
        self.held = False  # router-side: parked out of the ring (rolling swap)
        self.remote_draining = False  # learned from heartbeats / drain nacks
        self.generation = 0  # best known, from acks and heartbeat vitals
        self.batches_acked = 0
        self.events_acked = 0

    @property
    def routable(self) -> bool:
        return self.alive and not self.held and not self.remote_draining

    @property
    def pending(self) -> int:
        """Events this client still owes: buffered + unacknowledged."""
        return len(self.buffer) + sum(len(events) for events in self.unacked.values())


class FleetRouter:
    """Route an event stream across a fleet of :class:`FleetNode` s.

    Parameters
    ----------
    config:
        The ``[fleet]`` block: node addresses, ring width, batching,
        window size, heartbeat cadence.  ``config.nodes`` must name at
        least one node, and every node must be reachable at
        :meth:`start` (a fleet that begins degraded is a deploy error,
        not a runtime condition).
    heartbeats:
        Disable to drive liveness purely from ingest-connection
        failures — deterministic tests use this; production keeps it on.
    """

    def __init__(self, config: FleetConfig, *, heartbeats: bool = True):
        if not config.nodes:
            raise FleetError("fleet.nodes is empty: a router needs at least one node")
        self.config = config
        self._heartbeats_enabled = heartbeats
        self._clients: dict[str, _NodeClient] = {}
        self._ring: HashRing | None = None
        self._detector = FailureDetector(config.suspicion_misses)
        self._flusher_task: asyncio.Task | None = None
        self._batch_seq = 0
        self._heartbeat_seq = 0
        self._started = False
        self._stopping = False
        # an event becomes an orphan only when every node is gone; kept
        # (not dropped) so a post-mortem can account for it
        self._orphans: list[_Event] = []
        #: recent acks, newest last — tests read ``generations`` off these
        self.acks: deque[dict] = deque(maxlen=65536)
        #: human-readable failover/swap log, newest last
        self.log: deque[str] = deque(maxlen=256)
        self.events_submitted = 0
        self.events_replayed = 0
        self.batches_sent = 0
        self.batches_nacked = 0
        self.nodes_evicted = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "FleetRouter":
        """Connect to every configured node and start routing."""
        if self._started:
            return self
        self._stopping = False
        for address in self.config.nodes:
            client = _NodeClient(
                address, max_inflight=self.config.max_inflight_batches
            )
            try:
                client.reader, client.writer = await asyncio.wait_for(
                    asyncio.open_connection(client.host, client.port),
                    timeout=self.config.connect_timeout_seconds,
                )
            except (OSError, asyncio.TimeoutError) as exc:
                await self._close_clients()
                raise FleetError(f"cannot connect to fleet node {address}: {exc}") from exc
            self._clients[address] = client
            self._detector.add(address)
        for client in self._clients.values():
            client.reader_task = asyncio.ensure_future(self._read_acks(client))
            if self._heartbeats_enabled:
                client.heartbeat_task = asyncio.ensure_future(self._heartbeat(client))
        self._rebuild_ring()
        self._flusher_task = asyncio.ensure_future(self._flush_on_deadline())
        self._started = True
        return self

    async def stop(self) -> None:
        """Drain what can be drained, then tear every connection down."""
        if self._started:
            try:
                await self.drain(timeout=self.config.drain_timeout_seconds)
            except FleetError:
                pass  # stopping a degraded fleet must still stop it
        # Python 3.11's wait_for can swallow a cancel that lands as its
        # inner read completes; the flag ends the heartbeat loop anyway
        self._stopping = True
        tasks = [self._flusher_task]
        for client in self._clients.values():
            tasks.extend((client.reader_task, client.heartbeat_task))
        for task in tasks:
            if task is not None:
                task.cancel()
        for task in tasks:
            if task is not None:
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        await self._close_clients()
        self._started = False

    async def _close_clients(self) -> None:
        for client in self._clients.values():
            if client.writer is not None:
                client.writer.close()
                client.writer = None

    async def __aenter__(self) -> "FleetRouter":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- introspection -----------------------------------------------------

    @property
    def live_nodes(self) -> list[str]:
        """Addresses still in service (evicted nodes excluded)."""
        return [c.address for c in self._clients.values() if c.alive]

    @property
    def ring(self) -> HashRing | None:
        return self._ring

    def owner_of(self, host: str) -> str:
        """Which node currently owns *host* (routing probe for tests)."""
        if self._ring is None:
            raise FleetError("no live nodes left in the fleet")
        return self._ring.route(host)

    def stats(self) -> dict:
        return {
            "events_submitted": self.events_submitted,
            "events_replayed": self.events_replayed,
            "batches_sent": self.batches_sent,
            "batches_nacked": self.batches_nacked,
            "nodes_evicted": self.nodes_evicted,
            "orphaned_events": len(self._orphans),
            "live_nodes": self.live_nodes,
            "pending": {
                c.address: c.pending for c in self._clients.values() if c.alive
            },
        }

    # -- submission --------------------------------------------------------

    async def submit(
        self,
        line: str | CommandEvent,
        host: str = "-",
        timestamp: float | None = None,
    ) -> None:
        """Route one event (buffered; sent on fill or deadline)."""
        if isinstance(line, CommandEvent):
            event = (line.line, line.host, line.timestamp)
        else:
            event = (line, host, timestamp)
        await self._enqueue(event)

    async def submit_many(self, events: Iterable[str | CommandEvent]) -> None:
        """Route a batch of events (strings or :class:`CommandEvent`)."""
        for item in events:
            if isinstance(item, CommandEvent):
                await self._enqueue((item.line, item.host, item.timestamp))
            else:
                await self._enqueue((item, "-", None))

    async def _enqueue(self, event: _Event) -> None:
        if self._ring is None:
            raise FleetError("no live nodes left in the fleet")
        client = self._clients[self._ring.route(event[1])]
        if client.buffer_since is None:
            client.buffer_since = time.perf_counter()
        client.buffer.append(event)
        self.events_submitted += 1
        if len(client.buffer) >= self.config.batch_max_events:
            await self._flush_client(client)

    async def flush(self) -> None:
        """Send every buffered event now, regardless of batch deadlines."""
        for client in list(self._clients.values()):
            if client.alive:
                await self._flush_client(client)

    async def drain(self, timeout: float | None = None) -> dict:
        """Flush, then wait until every sent batch is acknowledged.

        Returns :meth:`stats`.  Raises :class:`FleetError` if the fleet
        cannot settle within *timeout* seconds (default: the config's
        ``drain_timeout_seconds``) or if events were orphaned because
        every node died.
        """
        deadline = time.perf_counter() + (
            self.config.drain_timeout_seconds if timeout is None else timeout
        )
        while True:
            await self.flush()
            if not any(c.pending for c in self._clients.values() if c.alive):
                break
            if time.perf_counter() > deadline:
                pending = {
                    c.address: c.pending
                    for c in self._clients.values()
                    if c.alive and c.pending
                }
                raise FleetError(f"fleet did not drain in time; still pending: {pending}")
            await asyncio.sleep(0.005)
        if self._orphans:
            raise FleetError(
                f"{len(self._orphans)} events orphaned: every fleet node died"
            )
        return self.stats()

    # -- batching / sending ------------------------------------------------

    async def _flush_client(self, client: _NodeClient) -> None:
        while client.buffer and client.alive:
            batch = client.buffer[: self.config.batch_max_events]
            del client.buffer[: len(batch)]
            client.buffer_since = time.perf_counter() if client.buffer else None
            await self._send_batch(client, batch)
        if not client.buffer:
            client.buffer_since = None

    async def _send_batch(self, client: _NodeClient, events: list[_Event]) -> None:
        await client.window.acquire()  # backpressure: bounded in-flight window
        if not client.alive:
            # evicted while we waited — hand the events to the survivors
            self._reroute(events)
            return
        self._batch_seq += 1
        batch_id = self._batch_seq
        client.unacked[batch_id] = events
        assert client.writer is not None
        try:
            await write_frame(client.writer, ingest_message(batch_id, events))
        except (OSError, ConnectionError) as exc:
            await self._evict(client, f"send failed: {exc}")
            return
        self.batches_sent += 1

    def _reroute(self, events: list[_Event]) -> None:
        """Re-bucket *events* by host on the current ring (post-failure)."""
        if self._ring is None:
            self._orphans.extend(events)
            return
        now = time.perf_counter()
        for event in events:
            client = self._clients[self._ring.route(event[1])]
            if client.buffer_since is None:
                client.buffer_since = now
            client.buffer.append(event)

    async def _flush_on_deadline(self) -> None:
        """Background latency flusher: the fill-*or-deadline* half."""
        interval = self.config.batch_max_latency_ms / 1000.0 / 4
        deadline = self.config.batch_max_latency_ms / 1000.0
        while True:
            await asyncio.sleep(interval)
            now = time.perf_counter()
            for client in list(self._clients.values()):
                if (
                    client.alive
                    and client.buffer
                    and client.buffer_since is not None
                    and now - client.buffer_since >= deadline
                ):
                    await self._flush_client(client)

    # -- ack / nack handling -----------------------------------------------

    async def _read_acks(self, client: _NodeClient) -> None:
        """Drain one node's responses for the life of its connection."""
        assert client.reader is not None
        try:
            while True:
                message = await read_frame(client.reader)
                if message is None:
                    if client.alive:
                        await self._evict(client, "connection closed by node")
                    return
                kind = message.get("type")
                if kind == "ack":
                    self._handle_ack(client, message)
                elif kind == "nack":
                    self._handle_nack(client, message)
                elif kind == "error":
                    # the node refused a frame wholesale; treat like a nack
                    # of the oldest in-flight batch so nothing is stranded
                    self.log.append(f"{client.address} error: {message.get('error')}")
                    self._nack_oldest(client)
        except FleetError as exc:
            if client.alive:
                await self._evict(client, f"protocol error: {exc}")
        except asyncio.CancelledError:
            raise

    def _handle_ack(self, client: _NodeClient, message: dict) -> None:
        events = client.unacked.pop(message.get("batch_id"), None)
        if events is None:
            return  # duplicate or post-eviction ack
        client.window.release()
        client.batches_acked += 1
        client.events_acked += len(events)
        generations = message.get("generations") or []
        if generations:
            client.generation = max(client.generation, max(generations))
        self.acks.append(message)

    def _handle_nack(self, client: _NodeClient, message: dict) -> None:
        events = client.unacked.pop(message.get("batch_id"), None)
        if events is None:
            return
        client.window.release()
        self.batches_nacked += 1
        if message.get("reason") == "draining" and not client.remote_draining:
            # the node told us it is draining before a heartbeat could:
            # stop routing to it so the re-routed events cannot bounce back
            client.remote_draining = True
            self._rebuild_ring()
            self.log.append(f"{client.address} draining (nack); rerouting its hosts")
        self._reroute(events)

    def _nack_oldest(self, client: _NodeClient) -> None:
        if not client.unacked:
            return
        batch_id, events = client.unacked.popitem(last=False)
        client.window.release()
        self.batches_nacked += 1
        self._reroute(events)

    # -- failure detection / eviction --------------------------------------

    async def _heartbeat(self, client: _NodeClient) -> None:
        """Probe one node on its own connection until it dies.

        A dedicated connection (opened lazily here, not the ingest one)
        means a node busy scoring a large batch still answers probes
        immediately — its handler coroutines are independent per
        connection — so load never masquerades as death.
        """
        reader: asyncio.StreamReader | None = None
        writer: asyncio.StreamWriter | None = None
        while client.alive and not self._stopping:
            await asyncio.sleep(self.config.heartbeat_interval_seconds)
            if not client.alive or self._stopping:
                break
            self._heartbeat_seq += 1
            try:
                if writer is None:
                    reader, writer = await asyncio.wait_for(
                        asyncio.open_connection(client.host, client.port),
                        timeout=self.config.heartbeat_timeout_seconds,
                    )
                await write_frame(writer, heartbeat_message(self._heartbeat_seq))
                assert reader is not None
                answer = await asyncio.wait_for(
                    read_frame(reader),
                    timeout=self.config.heartbeat_timeout_seconds,
                )
                if answer is None or answer.get("type") != "heartbeat_ack":
                    raise FleetError(f"bad heartbeat answer: {answer!r}")
            except (OSError, ConnectionError, FleetError, asyncio.TimeoutError):
                if writer is not None:
                    writer.close()
                    reader = writer = None
                state = self._detector.record_miss(client.address)
                if state == DEAD and client.alive:
                    await self._evict(client, "heartbeats missed")
                    return
                continue
            self._detector.record_ok(
                client.address,
                now=time.time(),
                vitals={
                    "generation": answer.get("generation"),
                    "draining": answer.get("draining"),
                    "events_total": answer.get("events_total"),
                },
            )
            generation = answer.get("generation")
            if isinstance(generation, int):
                client.generation = max(client.generation, generation)
            draining = bool(answer.get("draining"))
            if draining != client.remote_draining:
                client.remote_draining = draining
                self._rebuild_ring()
                self.log.append(
                    f"{client.address} {'entered' if draining else 'left'} drain"
                )
        if writer is not None:
            writer.close()

    async def _evict(self, client: _NodeClient, reason: str) -> None:
        """Declare a node dead: reassign its hosts, replay its batches."""
        if not client.alive:
            return
        client.alive = False
        self._detector.mark_dead(client.address)
        self.nodes_evicted += 1
        self.log.append(f"evicted {client.address}: {reason}")
        if client.writer is not None:
            client.writer.close()
            client.writer = None
        # wake every sender blocked on the window; they see alive=False
        # and reroute their batch themselves
        for _ in range(self.config.max_inflight_batches):
            client.window.release()
        pending: list[_Event] = []
        while client.unacked:
            _, events = client.unacked.popitem(last=False)
            pending.extend(events)
        pending.extend(client.buffer)
        client.buffer.clear()
        client.buffer_since = None
        self._rebuild_ring()
        self.events_replayed += len(pending)
        self._reroute(pending)  # at-least-once: replay, never drop

    def _rebuild_ring(self) -> None:
        members = [c.address for c in self._clients.values() if c.routable]
        if not members:
            # every node dead or parked: freeze routing; submit()/drain()
            # will surface FleetError rather than silently dropping
            self._ring = None
            return
        self._ring = HashRing(members, virtual_nodes=self.config.virtual_nodes)

    # -- control plane ------------------------------------------------------

    async def _admin_request(
        self, address: str, message: dict, *, timeout: float | None = None
    ) -> dict:
        """One admin round-trip on a fresh connection (not the ingest one)."""
        host, port = parse_address(address)
        timeout = self.config.connect_timeout_seconds if timeout is None else timeout
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout=timeout
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise FleetError(f"cannot reach {address} for admin request: {exc}") from exc
        try:
            await write_frame(writer, message)
            answer = await asyncio.wait_for(read_frame(reader), timeout=timeout)
        except (OSError, ConnectionError, asyncio.TimeoutError) as exc:
            raise FleetError(f"admin request to {address} failed: {exc}") from exc
        finally:
            writer.close()
        if answer is None:
            raise FleetError(f"{address} closed the connection without answering")
        if answer.get("type") == "error":
            raise FleetError(f"{address} rejected admin request: {answer.get('error')}")
        return answer

    async def status(self) -> dict:
        """Fleet-wide status: per-node payloads + merged metrics.

        The merged half is :meth:`ServingMetrics.merged` over every
        node's lossless metrics snapshot, so fleet totals (events,
        alerts, cache hits) are exact sums and fleet latency
        percentiles come from the concatenated reservoirs.
        """
        nodes = []
        snapshots = []
        for address in self.live_nodes:
            answer = await self._admin_request(address, admin_message("status"))
            if not answer.get("ok", False):
                raise FleetError(f"{address} refused status: {answer.get('error')}")
            metrics = answer.pop("metrics", None)
            nodes.append(answer)
            if metrics is not None:
                snapshots.append(ServingMetrics.from_dict(metrics))
        merged = ServingMetrics.merged(snapshots) if snapshots else ServingMetrics()
        return {
            "nodes": nodes,
            "merged": merged.snapshot(),
            "router": self.stats(),
            "membership": self._detector.snapshot(),
        }

    async def merged_metrics(self) -> ServingMetrics:
        """The fleet's metrics as one :class:`ServingMetrics` object."""
        snapshots = []
        for address in self.live_nodes:
            answer = await self._admin_request(address, admin_message("metrics"))
            if not answer.get("ok", False):
                raise FleetError(f"{address} refused metrics: {answer.get('error')}")
            snapshots.append(ServingMetrics.from_dict(answer["metrics"]))
        if not snapshots:
            raise FleetError("no live nodes left in the fleet")
        return ServingMetrics.merged(snapshots)

    async def swap_fleet(
        self, bundle_ref: str, *, drain_timeout: float | None = None
    ) -> list[dict]:
        """Roll a new model across the fleet, one node at a time.

        For each live node, in a stable order: park it out of the ring
        (new traffic flows to the others), flush and drain its window
        (in-flight batches finish on the *old* model — the per-node swap
        barrier means none of them can straddle generations), issue a
        ``swap`` fenced on the node's current generation, verify the
        node landed on ``generation + 1``, and put it back in the ring.
        After the roll, every node must agree on one generation.

        Returns the per-node swap reports.  Raises
        :class:`FleetError` — with the node back in the ring — if any
        node refuses the fence or fails the swap, so a partial roll
        never strands capacity.
        """
        reports: list[dict] = []
        for address in list(self._clients):
            client = self._clients[address]
            if not client.alive:
                continue
            client.held = True
            self._rebuild_ring()
            try:
                await self._drain_client(client, timeout=drain_timeout)
                status = await self._admin_request(address, admin_message("status"))
                expect = status.get("generation")
                answer = await self._admin_request(
                    address,
                    admin_message(
                        "swap", bundle=bundle_ref, expect_generation=expect
                    ),
                )
                if not answer.get("ok", False):
                    raise FleetError(f"{address} refused swap: {answer.get('error')}")
                if answer.get("generation") != expect + 1:
                    raise FleetError(
                        f"{address} swapped to generation {answer.get('generation')}, "
                        f"expected {expect + 1}"
                    )
                client.generation = answer["generation"]
                reports.append(answer)
                self.log.append(
                    f"swapped {address} to generation {answer['generation']}"
                )
            finally:
                client.held = False
                self._rebuild_ring()
        generations = {report["generation"] for report in reports}
        if len(generations) > 1:
            raise FleetError(
                f"fleet did not converge after rolling swap: generations {generations}"
            )
        return reports

    async def _drain_client(
        self, client: _NodeClient, *, timeout: float | None = None
    ) -> None:
        """Wait until one node has nothing buffered or in flight."""
        deadline = time.perf_counter() + (
            self.config.drain_timeout_seconds if timeout is None else timeout
        )
        while client.alive and client.pending:
            await self._flush_client(client)
            if time.perf_counter() > deadline:
                raise FleetError(
                    f"{client.address} did not drain in time "
                    f"({client.pending} events pending)"
                )
            await asyncio.sleep(0.005)

    async def drain_node(self, address: str) -> None:
        """Tell one node to drain and stop routing to it (admin verb)."""
        if address not in self._clients:
            raise FleetError(f"unknown fleet node {address}")
        answer = await self._admin_request(address, admin_message("drain"))
        if not answer.get("ok", False):
            raise FleetError(f"{address} refused drain: {answer.get('error')}")
        client = self._clients[address]
        client.remote_draining = True
        self._rebuild_ring()
        await self._drain_client(client)

    async def resize_node(self, address: str, workers: int) -> dict:
        """Resize one node's scoring backend pool (admin verb)."""
        answer = await self._admin_request(
            address, admin_message("resize", workers=workers)
        )
        if not answer.get("ok", False):
            raise FleetError(f"{address} refused resize: {answer.get('error')}")
        return answer
