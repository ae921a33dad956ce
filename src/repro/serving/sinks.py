"""Pluggable alert sinks: where confirmed detections go.

Sinks speak a batch-first, lifecycle-aware protocol —
:meth:`AlertSink.open` / :meth:`AlertSink.emit_many` /
:meth:`AlertSink.flush` / :meth:`AlertSink.close` — so durable
transports (files, webhooks, sockets) can amortise per-alert overhead
and make their persistence guarantees explicit.  Simple sinks may
implement only per-alert :meth:`AlertSink.emit`: the base class maps
``emit_many`` onto it.

Unlike the v1 protocol, a sink **may raise** from ``emit_many``: the
:class:`~repro.serving.delivery.DeliveryPipeline` that drives sinks in
the serving path turns failures into retries, backpressure, and
dead-letters per its :class:`~repro.serving.config.DeliveryPolicy`.

Sinks are also constructible from URI strings via the
:class:`SinkRegistry` (``ring://1024``, ``jsonl:///var/alerts.jsonl``,
``webhook://siem:8080/alerts``, ``tcp://collector:9000``), which is how
a declarative :class:`~repro.serving.config.ServingConfig` or a
``--sink`` CLI flag names its sinks.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.parse
import urllib.request
from collections import deque
from collections.abc import Callable, Sequence
from pathlib import Path

from repro.errors import ConfigError
from repro.serving.events import DetectionAlert


class AlertSink:
    """Base class: receive alert batches, with an explicit lifecycle.

    Subclasses override *either* :meth:`emit` (simple per-alert sinks;
    the default :meth:`emit_many` loops over it) *or* :meth:`emit_many`
    (batch transports, which should then implement :meth:`emit` as
    ``self.emit_many([alert])``).  ``open``/``flush``/``close`` default
    to no-ops.
    """

    def open(self) -> None:
        """Acquire resources (connections, file handles) up front."""

    def emit(self, alert: DetectionAlert) -> None:
        """Deliver one alert."""
        raise NotImplementedError

    def emit_many(self, alerts: Sequence[DetectionAlert]) -> None:
        """Deliver a batch of alerts (default: one :meth:`emit` each).

        May raise: the delivery pipeline retries/dead-letters the whole
        batch on failure.
        """
        for alert in alerts:
            self.emit(alert)

    def flush(self) -> None:
        """Push buffered alerts to durable storage (default: nothing)."""

    def close(self) -> None:
        """Release any resources (default: nothing to do)."""


class RingBufferSink(AlertSink):
    """Keep the most recent *capacity* alerts in memory."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._ring: deque[DetectionAlert] = deque(maxlen=capacity)
        self.emitted = 0

    def emit(self, alert: DetectionAlert) -> None:
        self._ring.append(alert)
        self.emitted += 1

    @property
    def alerts(self) -> list[DetectionAlert]:
        """Buffered alerts, oldest first."""
        return list(self._ring)


class JsonlSink(AlertSink):
    """Append alerts to a JSON-lines file (one object per alert).

    Every emitted batch is flushed to the OS before returning, so an
    alert acknowledged by this sink survives a crash of the serving
    process (the file handle is opened lazily on first use and in
    append mode, so restarts extend the same log).
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle = None
        self.emitted = 0

    def open(self) -> None:
        self._ensure_handle()

    def _ensure_handle(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        return self._handle

    def emit(self, alert: DetectionAlert) -> None:
        self.emit_many([alert])

    def emit_many(self, alerts: Sequence[DetectionAlert]) -> None:
        if not alerts:
            return
        handle = self._ensure_handle()
        for alert in alerts:
            handle.write(json.dumps(alert.to_json()) + "\n")
        handle.flush()
        self.emitted += len(alerts)

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class CallbackSink(AlertSink):
    """Invoke ``callback(alert)`` for every alert."""

    def __init__(self, callback: Callable[[DetectionAlert], None]):
        self._callback = callback
        self.emitted = 0

    def emit(self, alert: DetectionAlert) -> None:
        self._callback(alert)
        self.emitted += 1


class WebhookSink(AlertSink):
    """POST alert batches as a JSON array to an HTTP endpoint (stdlib only).

    One request per :meth:`emit_many` batch; the body is
    ``[alert.to_json(), ...]``.  Any HTTP error or timeout raises, which
    the delivery pipeline converts into retry-with-backoff and,
    ultimately, a dead-letter.
    """

    def __init__(self, url: str, *, timeout: float = 5.0):
        self.url = url
        self.timeout = timeout
        self.emitted = 0
        self.requests = 0

    def emit(self, alert: DetectionAlert) -> None:
        self.emit_many([alert])

    def emit_many(self, alerts: Sequence[DetectionAlert]) -> None:
        if not alerts:
            return
        body = json.dumps([alert.to_json() for alert in alerts]).encode("utf-8")
        request = urllib.request.Request(
            self.url,
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        self.requests += 1
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            response.read()
        self.emitted += len(alerts)


class TcpSocketSink(AlertSink):
    """Stream newline-delimited alert JSON over a TCP connection.

    The connection is established lazily (or eagerly via :meth:`open`)
    and **re-established with capped exponential backoff** when a send
    hits a broken pipe, a reset, or a refused reconnect — a collector
    that flaps (restarts, briefly refuses) costs retries inside the
    sink, not a failed batch.  Only after ``max_attempts`` consecutive
    failures does the batch raise, handing the still-intact batch to
    the delivery pipeline for *its* retry/dead-letter policy.

    ``reconnects`` counts re-established connections (observability for
    the flap itself, which a successful batch would otherwise hide).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 5.0,
        max_attempts: int = 4,
        backoff_ms: float = 25.0,
        backoff_multiplier: float = 2.0,
        max_backoff_ms: float = 1000.0,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_ms = backoff_ms
        self.backoff_multiplier = backoff_multiplier
        self.max_backoff_ms = max_backoff_ms
        self.emitted = 0
        self.reconnects = 0
        self._sock: socket.socket | None = None

    def open(self) -> None:
        self._connect()

    def _connect(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        return self._sock

    def emit(self, alert: DetectionAlert) -> None:
        self.emit_many([alert])

    def emit_many(self, alerts: Sequence[DetectionAlert]) -> None:
        if not alerts:
            return
        payload = "".join(
            json.dumps(alert.to_json()) + "\n" for alert in alerts
        ).encode("utf-8")
        for attempt in range(self.max_attempts):
            reconnected = self._sock is None and attempt > 0
            try:
                sock = self._connect()
                sock.sendall(payload)
            except OSError:
                self.close()  # drop the broken connection before retrying
                if attempt + 1 >= self.max_attempts:
                    raise
                delay_ms = min(
                    self.backoff_ms * (self.backoff_multiplier**attempt),
                    self.max_backoff_ms,
                )
                time.sleep(delay_ms / 1000.0)
                continue
            if reconnected:
                self.reconnects += 1
            self.emitted += len(alerts)
            return

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None


def ensure_sink(sink) -> AlertSink:
    """*sink*, checked to be an :class:`AlertSink` (``TypeError`` if not)."""
    if isinstance(sink, AlertSink):
        return sink
    raise TypeError(f"not an alert sink: {sink!r} (need an AlertSink subclass)")


# -- URI-addressed construction ----------------------------------------------


class SinkRegistry:
    """Map URI schemes to sink factories so sinks are constructible from
    config/CLI strings.

    A factory receives ``(parts, uri)`` — the
    :func:`urllib.parse.urlsplit` of the URI plus the original string —
    and returns an :class:`AlertSink`.  Factories raise
    :class:`~repro.errors.ConfigError` for malformed URIs.
    """

    def __init__(self):
        self._factories: dict[str, Callable[[urllib.parse.SplitResult, str], AlertSink]] = {}

    def register(
        self, scheme: str, factory: Callable[[urllib.parse.SplitResult, str], AlertSink]
    ) -> None:
        """Register *factory* for ``scheme://...`` URIs (replaces any
        previous registration of the scheme)."""
        if not scheme or not scheme.replace("+", "").replace("-", "").isalnum():
            raise ValueError(f"invalid sink scheme: {scheme!r}")
        self._factories[scheme.lower()] = factory

    def schemes(self) -> list[str]:
        """Registered schemes, sorted."""
        return sorted(self._factories)

    def build(self, uri: str) -> AlertSink:
        """Construct the sink a URI names."""
        parts = urllib.parse.urlsplit(uri)
        if not parts.scheme:
            raise ConfigError(
                f"sink URI {uri!r} has no scheme "
                f"(expected e.g. {', '.join(self.schemes()) or 'ring'}://...)"
            )
        factory = self._factories.get(parts.scheme.lower())
        if factory is None:
            raise ConfigError(
                f"unknown sink scheme '{parts.scheme}' in {uri!r} "
                f"(known schemes: {', '.join(self.schemes())})"
            )
        return factory(parts, uri)


def _uri_path(parts: urllib.parse.SplitResult) -> str:
    """File path from a URI: ``jsonl://rel.jsonl`` and
    ``jsonl:///abs/path.jsonl`` both work."""
    return urllib.parse.unquote(parts.netloc + parts.path)


def _build_ring(parts: urllib.parse.SplitResult, uri: str) -> RingBufferSink:
    text = parts.netloc or parts.path.strip("/")
    if not text:
        return RingBufferSink()
    try:
        capacity = int(text)
        if capacity < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(
            f"ring:// capacity must be a positive integer (got {uri!r})"
        ) from None
    return RingBufferSink(capacity)


def _build_jsonl(parts: urllib.parse.SplitResult, uri: str) -> JsonlSink:
    path = _uri_path(parts)
    if not path:
        raise ConfigError(
            f"jsonl:// needs a file path, e.g. jsonl:///var/alerts.jsonl (got {uri!r})"
        )
    return JsonlSink(path)


def _build_webhook(parts: urllib.parse.SplitResult, uri: str) -> WebhookSink:
    if not parts.netloc:
        raise ConfigError(
            f"webhook:// needs host[:port][/path], e.g. webhook://siem:8080/alerts "
            f"(got {uri!r})"
        )
    protocol = "https" if parts.scheme.lower() == "webhook+https" else "http"
    url = f"{protocol}://{parts.netloc}{parts.path or '/'}"
    if parts.query:
        url += f"?{parts.query}"
    return WebhookSink(url)


def _build_tcp(parts: urllib.parse.SplitResult, uri: str) -> TcpSocketSink:
    try:
        host, port = parts.hostname, parts.port
    except ValueError as exc:  # non-numeric port
        raise ConfigError(f"tcp:// port must be an integer (got {uri!r})") from exc
    if not host or port is None:
        raise ConfigError(
            f"tcp:// needs host:port, e.g. tcp://collector:9000 (got {uri!r})"
        )
    return TcpSocketSink(host, port)


#: Process-wide default registry — what :class:`~repro.serving.config.SinkSpec`
#: validates against and :meth:`DetectionServer.from_config` builds from.
DEFAULT_SINK_REGISTRY = SinkRegistry()
DEFAULT_SINK_REGISTRY.register("ring", _build_ring)
DEFAULT_SINK_REGISTRY.register("jsonl", _build_jsonl)
DEFAULT_SINK_REGISTRY.register("webhook", _build_webhook)
DEFAULT_SINK_REGISTRY.register("webhook+https", _build_webhook)
DEFAULT_SINK_REGISTRY.register("tcp", _build_tcp)


def build_sink(uri: str, registry: SinkRegistry | None = None) -> AlertSink:
    """Construct a sink from its URI (default registry unless given)."""
    return (registry or DEFAULT_SINK_REGISTRY).build(uri)


def register_sink_scheme(
    scheme: str, factory: Callable[[urllib.parse.SplitResult, str], AlertSink]
) -> None:
    """Register a custom ``scheme://`` factory in the default registry."""
    DEFAULT_SINK_REGISTRY.register(scheme, factory)
