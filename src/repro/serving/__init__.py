"""Streaming detection service: the always-on inference path of Figure 1.

Public surface:

- :class:`ServingConfig` and its nodes (:class:`BatchConfig`,
  :class:`CanonicalizeConfig`, :class:`CacheConfig`,
  :class:`BackendConfig`, :class:`SessionConfig`, :class:`ShardConfig`,
  :class:`SinkSpec`, :class:`DeliveryPolicy`) — the typed, declarative
  description of one deployment, loadable from TOML/JSON
  (``--config serve.toml``) with a lossless ``to_dict`` round-trip;
  :func:`load_recorded_config` reads the one a bundle was served with.
- :class:`DetectionServer` — the asyncio server, built one way:
  ``DetectionServer(service, config)``, or
  :meth:`DetectionServer.from_config` from a bundle directory.  Its
  keyword arguments (``backend``, ``sinks``, ``metrics``) take only
  live objects a config cannot describe.  :func:`serve_stream` and
  :func:`tail_stream` drive a server synchronously (read-to-EOF and
  live-tail); ``await server.submit_many(events)`` is the batch-first
  entrance.  The server is a thin router over :class:`ShardRuntime`
  pipelines (:class:`ShardRouter` consistent-hashes hosts across
  them); each shard owns its own batcher, cache, and session table
  while the backend, model, and delivery pipeline stay shared.
  :meth:`DetectionServer.swap_model` hot-rotates the model and returns
  a :class:`SwapReport`.
- :class:`ScoringBackend` and its two strategies —
  :class:`InlineBackend` (on the event loop) and
  :class:`ThreadedBackend` (a thread pool) — deciding where the LM
  forward pass runs.  Serving runs in one process; scale-out across
  processes or machines is the fleet layer (:mod:`repro.fleet`).
- :class:`MicroBatcher` — flush-on-size-or-deadline batching queue.
- :class:`ScoreCache` — LRU normalized-line → score cache with
  model-generation invalidation.
- :class:`SessionAggregator` — per-host rolling windows with
  escalation.
- :class:`AlertSink` (batch-first ``open/emit_many/flush/close``
  protocol) and its implementations — :class:`RingBufferSink`,
  :class:`JsonlSink`, :class:`CallbackSink`, :class:`WebhookSink`,
  :class:`TcpSocketSink` — constructible from URIs via
  :func:`build_sink` / :class:`SinkRegistry`, extended with
  :func:`register_sink_scheme`.
- :class:`DeliveryPipeline` — durable per-sink delivery (bounded
  queues, backpressure, retry with backoff, dead-letter JSONL) with
  per-sink :class:`SinkStats`.
- :class:`ServingMetrics` — throughput / latency / hit-rate counters.
- Event model: :class:`CommandEvent`, :class:`DetectionResult`,
  :class:`DetectionAlert`, :class:`Severity`, :class:`AlertStatus`.
"""

from repro.serving.backends import InlineBackend, ScoringBackend, ThreadedBackend
from repro.serving.cache import ScoreCache
from repro.serving.config import (
    BackendConfig,
    BatchConfig,
    CacheConfig,
    CanonicalizeConfig,
    DeliveryPolicy,
    ServingConfig,
    SessionConfig,
    ShardConfig,
    SinkSpec,
    load_recorded_config,
)
from repro.serving.delivery import DeliveryPipeline, SinkStats
from repro.serving.events import (
    AlertStatus,
    CommandEvent,
    DetectionAlert,
    DetectionResult,
    Severity,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.microbatch import MicroBatcher
from repro.serving.server import DetectionServer, SwapReport, serve_stream, tail_stream
from repro.serving.sessions import SessionAggregator
from repro.serving.shard import ShardRouter, ShardRuntime
from repro.serving.sinks import (
    AlertSink,
    CallbackSink,
    JsonlSink,
    RingBufferSink,
    SinkRegistry,
    TcpSocketSink,
    WebhookSink,
    build_sink,
    register_sink_scheme,
)

__all__ = [
    "AlertSink",
    "AlertStatus",
    "BackendConfig",
    "BatchConfig",
    "CacheConfig",
    "CallbackSink",
    "CanonicalizeConfig",
    "CommandEvent",
    "DeliveryPipeline",
    "DeliveryPolicy",
    "DetectionAlert",
    "DetectionResult",
    "DetectionServer",
    "InlineBackend",
    "JsonlSink",
    "MicroBatcher",
    "RingBufferSink",
    "ScoreCache",
    "ScoringBackend",
    "ServingConfig",
    "ServingMetrics",
    "SessionAggregator",
    "SessionConfig",
    "Severity",
    "ShardConfig",
    "ShardRouter",
    "ShardRuntime",
    "SinkRegistry",
    "SinkSpec",
    "SinkStats",
    "SwapReport",
    "TcpSocketSink",
    "ThreadedBackend",
    "WebhookSink",
    "build_sink",
    "load_recorded_config",
    "register_sink_scheme",
    "serve_stream",
    "tail_stream",
]
