"""Streaming detection service: the always-on inference path of Figure 1.

Public surface:

- :class:`ServingConfig` and its nodes (:class:`BatchConfig`,
  :class:`CacheConfig`, :class:`BackendConfig`, :class:`SessionConfig`,
  :class:`SinkSpec`, :class:`DeliveryPolicy`) — the typed, declarative
  description of one deployment, loadable from TOML/JSON
  (``--config serve.toml``) with a lossless ``to_dict`` round-trip.
- :class:`DetectionServer` (canonical constructor:
  :meth:`DetectionServer.from_config`) / :func:`serve_stream` /
  :func:`tail_stream` — the asyncio server and its synchronous drivers
  (read-to-EOF and live-tail).  The server is a thin router over
  :class:`ShardRuntime` pipelines (:class:`ShardRouter` consistent-
  hashes hosts across them); each shard owns its own batcher, cache,
  and session table while the backend, model, and delivery pipeline
  stay shared.
- :class:`ScoringBackend` and its two strategies —
  :class:`InlineBackend` (on the event loop) and
  :class:`ThreadedBackend` (a thread pool) — deciding where the LM
  forward pass runs; ``DetectionServer.swap_model`` hot-rotates both.
  Serving runs in one process; scale-out across processes or machines
  is the fleet layer (:mod:`repro.fleet`).
- :class:`MicroBatcher` — flush-on-size-or-deadline batching queue.
- :class:`ScoreCache` — LRU normalized-line → score cache with
  model-generation invalidation, optional TTL expiry, and optional
  TinyLFU frequency-aware admission (:class:`FrequencySketch`).
- :class:`SessionAggregator` / :class:`HostSession` — per-host rolling
  windows with escalation.
- :class:`AlertSink` (batch-first ``open/emit_many/flush/close``
  protocol) and its implementations — :class:`RingBufferSink`,
  :class:`JsonlSink`, :class:`CallbackSink`, :class:`WebhookSink`,
  :class:`TcpSocketSink` — constructible from URIs via
  :func:`build_sink` / :class:`SinkRegistry`.
- :class:`DeliveryPipeline` — durable per-sink delivery (bounded
  queues, backpressure, retry with backoff, dead-letter JSONL) with
  per-sink :class:`SinkStats`.
- :class:`ServingMetrics` — throughput / latency / hit-rate counters.
- Event model: :class:`CommandEvent`, :class:`DetectionResult`,
  :class:`DetectionAlert`, :class:`Severity`, :class:`AlertStatus`.
"""

from repro.serving.backends import InlineBackend, ScoringBackend, ThreadedBackend
from repro.serving.cache import ADMISSION_POLICIES, FrequencySketch, ScoreCache
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
from repro.serving.microbatch import BatchAborted, MicroBatcher
from repro.serving.ring import HashRing, ring_point
from repro.serving.server import (
    DetectionServer,
    SwapReport,
    backend_from_config,
    serve_batches,
    serve_stream,
    tail_stream,
)
from repro.serving.sessions import (
    ESCALATION_MODES,
    HostSession,
    SessionAggregator,
    ShardedSessionView,
)
from repro.serving.shard import ShardContext, ShardRouter, ShardRuntime
from repro.serving.sinks import (
    DEFAULT_SINK_REGISTRY,
    AlertSink,
    CallbackSink,
    JsonlSink,
    RingBufferSink,
    SinkFanout,
    SinkRegistry,
    TcpSocketSink,
    WebhookSink,
    build_sink,
    ensure_sink,
    register_sink_scheme,
)

__all__ = [
    "ADMISSION_POLICIES",
    "AlertSink",
    "AlertStatus",
    "BackendConfig",
    "BatchAborted",
    "BatchConfig",
    "CacheConfig",
    "CallbackSink",
    "CanonicalizeConfig",
    "CommandEvent",
    "DEFAULT_SINK_REGISTRY",
    "FrequencySketch",
    "HashRing",
    "DeliveryPipeline",
    "DeliveryPolicy",
    "DetectionAlert",
    "DetectionResult",
    "DetectionServer",
    "ESCALATION_MODES",
    "HostSession",
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
    "ShardContext",
    "ShardRouter",
    "ShardRuntime",
    "ShardedSessionView",
    "SinkFanout",
    "SinkRegistry",
    "SinkSpec",
    "SinkStats",
    "SwapReport",
    "TcpSocketSink",
    "ThreadedBackend",
    "WebhookSink",
    "backend_from_config",
    "build_sink",
    "ensure_sink",
    "load_recorded_config",
    "register_sink_scheme",
    "ring_point",
    "serve_batches",
    "serve_stream",
    "tail_stream",
]
