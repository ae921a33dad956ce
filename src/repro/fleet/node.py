"""One serving node of the fleet: a TCP face on a :class:`DetectionServer`.

A :class:`FleetNode` owns one
:class:`~repro.serving.server.DetectionServer` and exposes it to the
network through the frame protocol of :mod:`repro.fleet.protocol`:

- ``ingest`` frames feed :meth:`DetectionServer.submit_many`, so the
  whole columnar batch path — one preprocess pass, one cache sweep, one
  deduplicated scoring call per shard — is preserved end to end; the
  ``ack`` carries the batch's counts and the set of model generations
  that scored it (the rolling-swap tests assert that set is always a
  singleton: no batch mixes generations).
- ``heartbeat`` frames answer immediately with the node's vitals
  (generation, draining flag, events served) — they ride their own
  connection, so a large scoring batch never delays a liveness probe.
- ``admin`` frames are the control plane: ``status`` / ``metrics``
  (a lossless :meth:`ServingMetrics.to_dict` snapshot), ``swap``
  (generation-fenced hot model rotation), ``drain`` / ``undrain``
  (refuse new batches while finishing in-flight work).

Each connection is served by one coroutine that reads a frame, awaits
its handler, and writes exactly one response frame — requests on one
connection are processed in order, and connections are independent.
A draining node **nacks** ingest batches instead of processing them;
a nacked batch was untouched, so the router re-routes it with no
duplicate scoring.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable

from repro.errors import FleetError, ReproError
from repro.fleet.protocol import (
    PROTOCOL_VERSION,
    ack_message,
    admin_message,
    decode_events,
    error_message,
    nack_message,
    read_frame,
    write_frame,
)
from repro.serving.events import CommandEvent
from repro.serving.server import DetectionServer

#: ``admin`` verbs a node answers (the control-plane surface).
ADMIN_VERBS = ("ping", "status", "metrics", "swap", "drain", "undrain")


def _default_swap_resolver(ref: str) -> dict:
    """Map a wire-level swap reference to ``swap_model`` keyword args.

    Production swaps name a bundle directory the node can reach; tests
    inject a resolver that returns ``{"service": <stub>}`` instead.
    """
    if not isinstance(ref, str) or not ref:
        raise FleetError(f"swap needs a bundle directory reference (got {ref!r})")
    return {"bundle_dir": ref}


class FleetNode:
    """One node's network runtime: TCP listener + the wrapped server.

    Parameters
    ----------
    server:
        The :class:`DetectionServer` this node serves.  The node owns
        its lifecycle: :meth:`start` starts it, :meth:`stop` drains it.
    host / port:
        Bind address (``port=0`` lets the OS pick; read :attr:`port`
        after :meth:`start`).
    node_id:
        Stable identifier for status output (default: ``host:port``
        once bound).
    swap_resolver:
        Maps the ``swap`` verb's bundle reference to
        :meth:`DetectionServer.swap_model` keyword arguments.
    """

    def __init__(
        self,
        server: DetectionServer,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        node_id: str | None = None,
        swap_resolver: Callable[[str], dict] | None = None,
    ):
        self.server = server
        self.host = host
        self.port = port
        self.node_id = node_id
        self.draining = False
        self._swap_resolver = swap_resolver or _default_swap_resolver
        self._tcp: asyncio.base_events.Server | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._swap_fence = asyncio.Lock()
        # node-level wire accounting (the serving metrics count events;
        # these count the protocol around them)
        self.batches_ingested = 0
        self.events_ingested = 0
        self.nacks = 0
        self.heartbeats = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "FleetNode":
        """Start the wrapped server, then bind and listen."""
        await self.server.start()
        self._tcp = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._tcp.sockets[0].getsockname()[1]
        if self.node_id is None:
            self.node_id = f"{self.host}:{self.port}"
        return self

    @property
    def address(self) -> str:
        """The ``host:port`` ingest address peers dial."""
        return f"{self.host}:{self.port}"

    async def stop(self) -> None:
        """Stop listening, close connections, drain the server."""
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
            self._tcp = None
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()
        await self.server.stop()

    async def kill(self) -> None:
        """Die abruptly: abort every connection without acknowledging.

        The failure-injection path for tests and demos — in-flight
        batches are never acked, exactly like a crashed node, so the
        router must replay them.  The wrapped server is still stopped
        afterwards (the interpreter goes on living even if the "node"
        died).
        """
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
            self._tcp = None
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        self._writers.clear()
        await self.server.stop()

    async def serve_forever(self) -> None:
        """Block serving connections until cancelled (CLI entry point)."""
        if self._tcp is None:
            raise FleetError("node is not started; call start() first")
        await self._tcp.serve_forever()

    async def __aenter__(self) -> "FleetNode":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- connection handling -----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            while True:
                message = await read_frame(reader)
                if message is None:
                    return
                try:
                    response = await self._dispatch(message)
                except FleetError as exc:
                    response = error_message(str(exc))
                except ReproError as exc:
                    response = error_message(f"{type(exc).__name__}: {exc}")
                await write_frame(writer, response)
        except (FleetError, ConnectionError, asyncio.IncompleteReadError):
            return  # corrupt frame or peer vanished: drop the connection
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _dispatch(self, message: dict) -> dict:
        kind = message.get("type")
        if kind == "ingest":
            return await self._ingest(message)
        if kind == "heartbeat":
            return self._heartbeat(message)
        if kind == "admin":
            return await self._admin(message)
        raise FleetError(f"unknown frame type {kind!r}")

    # -- ingest ------------------------------------------------------------

    async def _ingest(self, message: dict) -> dict:
        batch_id = int(message.get("batch_id", -1))
        if self.draining:
            self.nacks += 1
            return nack_message(batch_id, "draining")
        events = decode_events(message)
        results = await self.server.submit_many(
            CommandEvent(line=line, host=host, timestamp=timestamp)
            for line, host, timestamp in events
        )
        self.batches_ingested += 1
        self.events_ingested += len(results)
        return ack_message(
            batch_id,
            events=len(results),
            dropped=sum(result.dropped for result in results),
            intrusions=sum(result.is_intrusion for result in results),
            alerts=sum(result.alert is not None for result in results),
            generations=sorted({result.generation for result in results}),
        )

    # -- heartbeat ---------------------------------------------------------

    def _heartbeat(self, message: dict) -> dict:
        self.heartbeats += 1
        return {
            "type": "heartbeat_ack",
            "seq": message.get("seq"),
            "node_id": self.node_id,
            "generation": self.server.generation,
            "draining": self.draining,
            "events_total": self.events_ingested,
        }

    # -- control plane -----------------------------------------------------

    async def _admin(self, message: dict) -> dict:
        verb = message.get("verb")
        if verb not in ADMIN_VERBS:
            raise FleetError(
                f"unknown admin verb {verb!r} (known verbs: {', '.join(ADMIN_VERBS)})"
            )
        handler = getattr(self, f"_admin_{verb}")
        return await handler(message)

    def _ack(self, verb: str, **fields) -> dict:
        return {"type": "admin_ack", "verb": verb, "ok": True, **fields}

    def _refuse(self, verb: str, error: str) -> dict:
        return {"type": "admin_ack", "verb": verb, "ok": False, "error": error}

    async def _admin_ping(self, message: dict) -> dict:
        return self._ack("ping", node_id=self.node_id, protocol=PROTOCOL_VERSION)

    def _status_payload(self) -> dict:
        return {
            "node_id": self.node_id,
            "address": self.address,
            "generation": self.server.generation,
            "draining": self.draining,
            "batches_ingested": self.batches_ingested,
            "events_ingested": self.events_ingested,
            "nacks": self.nacks,
            "heartbeats": self.heartbeats,
        }

    async def _admin_status(self, message: dict) -> dict:
        return self._ack(
            "status", **self._status_payload(), metrics=self.server.metrics.to_dict()
        )

    async def _admin_metrics(self, message: dict) -> dict:
        return self._ack("metrics", metrics=self.server.metrics.to_dict())

    async def _admin_swap(self, message: dict) -> dict:
        """Generation-fenced hot swap.

        ``expect_generation`` (optional) must match the node's current
        generation or the verb is refused — the fence that stops a
        retried or duplicated swap command from rotating a node twice.
        The fence check and the swap itself hold one lock, so two
        concurrent swap verbs cannot both pass the fence.
        """
        async with self._swap_fence:
            expect = message.get("expect_generation")
            if expect is not None and int(expect) != self.server.generation:
                return self._refuse(
                    "swap",
                    f"generation fence: node is at {self.server.generation}, "
                    f"caller expected {expect}",
                )
            kwargs = self._swap_resolver(message.get("bundle"))
            report = await self.server.swap_model(**kwargs)
        return self._ack(
            "swap",
            node_id=self.node_id,
            generation=report.generation,
            swap_ms=report.swap_ms,
            drain_ms=report.drain_ms,
            cache_invalidated=report.cache_invalidated,
        )

    async def _admin_drain(self, message: dict) -> dict:
        self.draining = True
        return self._ack("drain", node_id=self.node_id, draining=True)

    async def _admin_undrain(self, message: dict) -> dict:
        self.draining = False
        return self._ack("undrain", node_id=self.node_id, draining=False)


def admin_request(verb: str, **fields) -> dict:
    """Convenience constructor mirroring :func:`admin_message` (re-export
    kept here so control-plane callers import one module)."""
    return admin_message(verb, **fields)
