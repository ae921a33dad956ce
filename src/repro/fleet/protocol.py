"""The fleet wire protocol: length-prefixed newline-JSON frames.

Everything the fleet says on the wire — event batches, heartbeats,
admin verbs, metrics snapshots — travels as one framing: an ASCII
decimal byte length, a newline, the UTF-8 JSON payload, a newline::

    142\\n{"type":"ingest","batch_id":7,"events":[...]}\\n

This extends the newline-delimited JSON idiom of
:class:`~repro.serving.sinks.TcpSocketSink` with an explicit length
prefix, so a reader never has to scan an unbounded stream for the
delimiter (command lines may be megabytes of attacker-controlled
bytes), can pre-allocate, and can reject oversized frames before
buffering them.  The trailing newline keeps frames greppable on the
wire and self-checking: a frame whose payload is not followed by
``\\n`` is corrupt, not short.

Message *types* (the ``"type"`` key of every frame):

====================  =====================================================
``ingest``            ``batch_id`` + ``events`` ``[[line, host, ts], ...]``
``ack`` / ``nack``    per-batch outcome (counts + generations, or a reason)
``heartbeat``         liveness probe → ``heartbeat_ack`` with node vitals
``admin``             control verb: ping / status / metrics / swap /
                      drain / undrain → ``admin_ack`` (or ``error``)
``error``             the peer could not process the frame
====================  =====================================================

Async helpers (:func:`read_frame` / :func:`write_frame`) serve the
asyncio node and router; the blocking :class:`FleetChannel` serves the
synchronous ``fleet-admin`` CLI.  Both sides of every exchange are
plain dicts — the protocol stays debuggable with ``nc``.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Any

from repro.errors import FleetError

#: Frames above this many payload bytes are rejected before buffering —
#: large enough for a 10k-event batch of long command lines, small
#: enough that a corrupt or hostile length prefix cannot balloon memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

PROTOCOL_VERSION = 1


def encode_frame(message: dict) -> bytes:
    """One message dict as its on-wire frame."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FleetError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES}); split the batch"
        )
    return b"%d\n%s\n" % (len(payload), payload)


def _decode_header(header: bytes) -> int:
    try:
        length = int(header)
    except ValueError:
        raise FleetError(f"malformed frame header {header!r} (expected a byte length)")
    if length < 0 or length > MAX_FRAME_BYTES:
        raise FleetError(f"frame length {length} outside [0, {MAX_FRAME_BYTES}]")
    return length


def _decode_payload(payload: bytes) -> dict:
    if not payload.endswith(b"\n"):
        raise FleetError("corrupt frame: payload not terminated by newline")
    try:
        message = json.loads(payload[:-1])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FleetError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise FleetError(f"frame payload must be an object with a 'type' (got {message!r})")
    return message


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame from *reader*; ``None`` on a clean EOF.

    A truncated frame (EOF mid-payload) or a malformed header raises
    :class:`~repro.errors.FleetError` — a half-delivered batch must
    fail loudly, never parse as a shorter one.
    """
    try:
        header = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError) as exc:
        raise FleetError(f"connection failed mid-frame: {exc}") from exc
    if not header:
        return None
    length = _decode_header(header)
    try:
        payload = await reader.readexactly(length + 1)  # + trailing newline
    except asyncio.IncompleteReadError as exc:
        raise FleetError(
            f"truncated frame: expected {length + 1} payload bytes, "
            f"got {len(exc.partial)}"
        ) from exc
    return _decode_payload(payload)


async def write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    """Write one message dict as a frame and drain the transport."""
    writer.write(encode_frame(message))
    await writer.drain()


# -- message constructors ----------------------------------------------------
#
# Kept as functions (not classes) so both ends build and pattern-match
# plain dicts; the constructors centralise key names in one place.


def ingest_message(batch_id: int, events: list[tuple[str, str, float | None]]) -> dict:
    """An event batch: ``events`` is ``[(line, host, timestamp), ...]``."""
    return {
        "type": "ingest",
        "batch_id": batch_id,
        "events": [[line, host, timestamp] for line, host, timestamp in events],
    }


def ack_message(
    batch_id: int,
    *,
    events: int,
    dropped: int,
    intrusions: int,
    alerts: int,
    generations: list[int],
) -> dict:
    return {
        "type": "ack",
        "batch_id": batch_id,
        "events": events,
        "dropped": dropped,
        "intrusions": intrusions,
        "alerts": alerts,
        "generations": generations,
    }


def nack_message(batch_id: int, reason: str) -> dict:
    """The node refused the batch (e.g. draining); the router must
    re-route it — a nacked batch was **not** processed."""
    return {"type": "nack", "batch_id": batch_id, "reason": reason}


def heartbeat_message(seq: int) -> dict:
    return {"type": "heartbeat", "seq": seq}


def admin_message(verb: str, **fields: Any) -> dict:
    return {"type": "admin", "verb": verb, **fields}


def error_message(error: str) -> dict:
    return {"type": "error", "error": error}


def decode_events(message: dict) -> list[tuple[str, str, float | None]]:
    """The ``(line, host, timestamp)`` tuples of an ``ingest`` frame."""
    raw = message.get("events")
    if not isinstance(raw, list):
        raise FleetError(f"ingest frame without an events array: {message!r}")
    events = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 3:
            raise FleetError(f"malformed ingest event {entry!r} (want [line, host, ts])")
        line, host, timestamp = entry
        events.append(
            (str(line), str(host), None if timestamp is None else float(timestamp))
        )
    return events


# -- synchronous channel (CLI / scripts) --------------------------------------


class FleetChannel:
    """A blocking request/response channel to one fleet node.

    The synchronous twin of the asyncio helpers, for the
    ``repro-ids fleet-admin`` CLI and smoke scripts: connect, make one
    or more :meth:`request` round-trips, close.  Usable as a context
    manager.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 10.0):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._file = None

    def connect(self) -> "FleetChannel":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._file = self._sock.makefile("rb")
        return self

    def request(self, message: dict) -> dict:
        """Send one frame and block for the response frame."""
        self.connect()
        assert self._sock is not None and self._file is not None
        self._sock.sendall(encode_frame(message))
        header = self._file.readline()
        if not header:
            raise FleetError(
                f"node {self.host}:{self.port} closed the connection mid-request"
            )
        length = _decode_header(header)
        payload = self._file.read(length + 1)
        if payload is None or len(payload) != length + 1:
            raise FleetError(f"truncated response frame from {self.host}:{self.port}")
        return _decode_payload(payload)

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            finally:
                self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "FleetChannel":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()
