"""The asyncio streaming detection server (the always-on path of Figure 1).

Per event, the flow is::

    submit(line, host) ──► ShardRouter (consistent hash of host)
                              │
                              ▼  (the owning shard's pipeline)
                           preprocess (normalize + parse-validate)
                              │ dropped? ──► DetectionResult(dropped=True)
                              ▼
                           ScoreCache ── hit ──► score
                              │ miss
                              ▼
                           MicroBatcher ──► ScoringBackend.score(batch)
                              ▼
                           threshold ── intrusion? ──► DetectionAlert
                                                         │
                                    SessionAggregator + DeliveryPipeline

:class:`DetectionServer` is a thin router: the per-event pipeline lives
in :class:`~repro.serving.shard.ShardRuntime`, and the server
consistent-hashes each event's host across N of them.  Every shard owns
its own micro-batcher, score cache, and session table — all of a host's
state is shard-local and lock-free — while the model bundle, scoring
backend, and delivery pipeline stay shared.  Batches from different
shards score concurrently (each shard serializes only its own), which
is what lets throughput scale with cores; with ``shards=1`` the server
is behaviourally identical to the original single-path event loop.

:meth:`DetectionServer.swap_model` rotates the whole stack onto a new
model bundle without dropping an event (the paper's weekly
continual-learning hand-off), draining **every** shard before the
rotation so no batch anywhere mixes generations.  An optional
:class:`~repro.serving.autoscale.Autoscaler` control loop resizes the
scoring-backend pool from observed backlog, batch latency, and the
generation-scoped cache hit rate.  Everything is in-process and
unit-testable without sockets.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TextIO

from repro.errors import ConfigError
from repro.ids.pipeline import IntrusionDetectionService
from repro.serving.autoscale import Autoscaler, AutoscaleObservation
from repro.serving.backends import (
    InlineBackend,
    ProcessPoolBackend,
    ScoringBackend,
    ServiceLoader,
    ThreadedBackend,
    load_bundle,
    load_bundle_compiled,
)
from repro.serving.cache import ScoreCache
from repro.serving.config import (
    AutoscaleConfig,
    BackendConfig,
    CanonicalizeConfig,
    ServingConfig,
    SessionConfig,
)
from repro.serving.delivery import DeliveryPipeline
from repro.serving.events import CommandEvent, DetectionResult
from repro.serving.metrics import ServingMetrics
from repro.serving.microbatch import MicroBatcher
from repro.serving.sessions import ShardedSessionView
from repro.serving.shard import ShardContext, ShardRouter, ShardRuntime
from repro.serving.sinks import DEFAULT_SINK_REGISTRY, AlertSink, SinkRegistry


@dataclass(frozen=True)
class SwapReport:
    """What one :meth:`DetectionServer.swap_model` call did.

    Attributes
    ----------
    generation:
        The server's model generation *after* the swap.
    bundle_dir:
        Bundle directory the new model came from (``None`` when the
        caller handed over a service/loader directly).
    swap_ms:
        End-to-end wall time of the swap, including loading the new
        bundle and draining the in-flight batches.
    drain_ms:
        Portion spent waiting for every shard's in-flight batch to
        finish — the window during which new batches were held back.
    cache_invalidated:
        Entries purged across all shard caches by the generation bump.
    """

    generation: int
    bundle_dir: str | None
    swap_ms: float
    drain_ms: float
    cache_invalidated: int


def backend_from_config(
    config: BackendConfig,
    service: IntrusionDetectionService,
    autoscale: AutoscaleConfig | None = None,
) -> ScoringBackend:
    """Build the :class:`ScoringBackend` a :class:`BackendConfig` describes.

    ``auto`` resolves to ``inline`` for one worker and ``process``
    otherwise — unless *autoscale* is enabled, in which case ``auto``
    resolves to ``threaded`` (the pool must be resizable, and inline
    has exactly one unresizable lane; an explicit ``inline`` with
    autoscaling on is a configuration error).  The process pool needs
    an on-disk bundle for its workers to deserialize, so a service that
    was never saved (``service.source_dir is None``) cannot back a
    process backend — save it first (the CLI does this automatically
    for the demo service).

    With ``config.compiled`` on, in-process backends score through the
    *service* (which the server compiles), and process workers get the
    compiled loader so each worker compiles its own plan from its own
    deserialized model — the worker-side generation check then makes
    stale plans impossible by construction.
    """
    if autoscale is not None and autoscale.enabled:
        if config.kind == "inline":
            raise ConfigError(
                "backend.kind 'inline' cannot autoscale (a single in-loop "
                "scoring lane has no pool to resize); use 'threaded' or "
                "'process', or disable autoscale"
            )
        if config.kind == "auto":
            # an autoscaled "auto" backend is always the threaded pool,
            # started at the autoscaler's floor: resizable at any worker
            # count and with no bundle-directory requirement
            return ThreadedBackend(
                service, workers=max(config.workers, autoscale.min_workers)
            )
    kind = config.resolved_kind
    if kind == "inline":
        return InlineBackend(service)
    if kind == "threaded":
        return ThreadedBackend(service, workers=config.workers)
    bundle_dir = getattr(service, "source_dir", None)
    if bundle_dir is None:
        raise ConfigError(
            "backend.kind 'process' needs a saved bundle directory to fork "
            "workers from, but the service has no source_dir; save the "
            "service (service.save(dir)) or serve it with backend.kind "
            "'inline'/'threaded'"
        )
    loader = None
    if config.compiled:
        loader = partial(load_bundle_compiled, str(bundle_dir), config.precision)
    return ProcessPoolBackend(
        str(bundle_dir),
        loader=loader,
        workers=config.workers,
        transport=config.transport,
    )


def _require_sequence_head(mode: str, service) -> None:
    """Fail fast when an escalation mode needs a head the service lacks."""
    if mode != "count" and not getattr(service, "has_sequence_head", False):
        raise ConfigError(
            f"session.mode {mode!r} needs a service with a multi-line head "
            "(a bundle saved with a 'multiline/' directory); attach one with "
            "IntrusionDetectionService.attach_multiline() or serve with "
            "session.mode 'count'"
        )


def _warn_on_composition_skew(session, service) -> None:
    """Surface train/serve composition drift for the sequence stage.

    The bundle records the composer the multi-line head was trained
    with; serving with a different window or gap silently reshapes the
    head's inputs, so say so up front.
    """
    if session.mode == "count":
        return
    meta = getattr(service, "multiline_composer_meta", None) or {}
    trained_window = meta.get("window")
    trained_gap = meta.get("max_gap_seconds")
    skewed = (trained_window is not None and trained_window != session.context_window) or (
        trained_gap is not None and trained_gap != session.context_max_gap_seconds
    )
    if skewed:
        warnings.warn(
            f"session composition (context_window={session.context_window}, "
            f"context_max_gap_seconds={session.context_max_gap_seconds}) differs "
            f"from the multi-line head's training composer (window="
            f"{trained_window}, max_gap_seconds={trained_gap}); the sequence "
            "stage will score windows shaped unlike its training data",
            stacklevel=3,
        )


class DetectionServer:
    """Sharded streaming front-end over an :class:`IntrusionDetectionService`.

    :meth:`from_config` is the canonical constructor — one typed
    :class:`~repro.serving.config.ServingConfig` describes the whole
    deployment (batching, cache + admission, backend, sessions, shards,
    autoscaling, sinks + delivery policies).  The keyword arguments
    below remain as a thin compatibility layer over the same machinery.

    Parameters
    ----------
    service:
        A fitted detection service (only its ``preprocess``,
        ``score_normalized`` and ``threshold`` surface is used, so tests
        may substitute a lightweight stub).
    backend:
        Scoring execution strategy, shared by every shard (default:
        score inline with *service*).  Pass a
        :class:`~repro.serving.backends.ThreadedBackend` or
        :class:`~repro.serving.backends.ProcessPoolBackend` to shard
        micro-batches across workers — with multiple shards, whole
        batches from different shards also overlap.
    max_batch / max_latency_ms:
        Per-shard micro-batch policy: flush on size or on the oldest
        event's queueing deadline, whichever first.
    cache_size / cache_ttl_seconds / cache_admission:
        Per-shard score-cache policy: LRU capacity (0 disables),
        optional time-to-live expiry, and the admission gate
        (``"lru"`` or ``"tinylfu"`` — see
        :class:`~repro.serving.cache.ScoreCache`).
    sinks:
        Alert sinks to fan confirmed detections out to: an iterable of
        :class:`AlertSink` (each delivered through the durable pipeline
        under the default :class:`~repro.serving.config.DeliveryPolicy`)
        or a pre-assembled
        :class:`~repro.serving.delivery.DeliveryPipeline` — shared by
        all shards.
    session:
        Full per-host escalation policy as a
        :class:`~repro.serving.config.SessionConfig` — including the
        escalation ``mode``; the sequence modes run each flagged event's
        composed per-host command window through the service's
        multi-line head (second stage, flagged events only).
    session_window_seconds / escalation_threshold:
        Compatibility shorthand for the two count-policy fields of
        *session* (ignored when *session* is given).
    metrics:
        Optional externally-owned :class:`ServingMetrics` bundle.  With
        one shard it receives everything; with several it receives the
        control-plane figures (swaps, autoscaling) while each shard
        keeps its own bundle — read :attr:`metrics` for the merged
        fleet view.
    shards / shard_virtual_nodes:
        How many :class:`~repro.serving.shard.ShardRuntime` pipelines
        to consistent-hash hosts across, and the hash-ring points per
        shard.  ``shards=1`` (default) is behaviourally identical to
        the pre-shard single-path server.
    autoscale:
        Optional :class:`~repro.serving.config.AutoscaleConfig`; when
        enabled (and the backend is resizable) the server runs an
        :class:`~repro.serving.autoscale.Autoscaler` loop while started.

    Example
    -------
    >>> async with DetectionServer(service, shards=4) as server:    # doctest: +SKIP
    ...     result = await server.submit("nc -lvnp 4444", host="web-3")
    ...     result.is_intrusion
    True
    """

    def __init__(
        self,
        service: IntrusionDetectionService,
        *,
        backend: ScoringBackend | None = None,
        max_batch: int = 32,
        max_latency_ms: float = 25.0,
        cache_size: int = 4096,
        cache_ttl_seconds: float | None = None,
        cache_admission: str = "lru",
        sinks: Iterable[AlertSink] | DeliveryPipeline = (),
        session: SessionConfig | None = None,
        session_window_seconds: float = 300.0,
        escalation_threshold: int = 5,
        metrics: ServingMetrics | None = None,
        shards: int = 1,
        shard_virtual_nodes: int = 64,
        autoscale: AutoscaleConfig | None = None,
        columnar: bool = True,
        canonicalize: CanonicalizeConfig | None = None,
        compiled: bool = True,
        precision: str = BackendConfig.precision,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        #: Whether in-process scoring should run through a compiled
        #: inference plan (``compiled = false`` is byte-identical to the
        #: pre-compilation pipeline; models the compiler doesn't cover
        #: fall back with a warning).
        self.compiled = bool(compiled)
        self.precision = precision
        if self.compiled and hasattr(service, "compile_inference"):
            service.compile_inference(precision)
        backend = backend or InlineBackend(service)
        if isinstance(sinks, DeliveryPipeline):
            pipeline = sinks
        else:
            pipeline = DeliveryPipeline(sinks)
        #: The declarative config this server was assembled from
        #: (set by :meth:`from_config`; ``None`` for kwargs construction).
        self.config: ServingConfig | None = None
        if session is None:
            session = SessionConfig(
                window_seconds=session_window_seconds,
                escalation_threshold=escalation_threshold,
            )
        _require_sequence_head(session.mode, service)
        _warn_on_composition_skew(session, service)
        #: The resolved per-host escalation policy (shared by all shards).
        self.session_policy = session
        #: Autoscaling policy (disabled by default).
        self.autoscale_policy = autoscale or AutoscaleConfig()
        #: Canonicalization stage policy (disabled by default — off is
        #: byte-identical to the pre-canonicalization pipeline).
        self.canonicalize_policy = canonicalize or CanonicalizeConfig()
        self._ctx = ShardContext(service, backend, pipeline)
        self.router = ShardRouter(shards, virtual_nodes=shard_virtual_nodes)
        if shards == 1:
            # single-path deployment: one metrics bundle sees everything,
            # exactly as before the shard refactor
            shard_metrics = [metrics or ServingMetrics()]
            self._control_metrics = shard_metrics[0]
        else:
            shard_metrics = [ServingMetrics() for _ in range(shards)]
            self._control_metrics = metrics or ServingMetrics()
        #: The per-shard pipelines, indexable by the router's shard id.
        self.shards = [
            ShardRuntime(
                shard_id,
                context=self._ctx,
                max_batch=max_batch,
                max_latency_ms=max_latency_ms,
                cache_size=cache_size,
                cache_ttl_seconds=cache_ttl_seconds,
                cache_admission=cache_admission,
                session=session,
                metrics=shard_metrics[shard_id],
                columnar=columnar,
                canonicalize=self.canonicalize_policy,
            )
            for shard_id in range(shards)
        ]
        described = backend.describe()
        self._control_metrics.backend = described
        self._control_metrics.shards = shards
        for runtime in self.shards:
            runtime.metrics.backend = described
        self.autoscaler: Autoscaler | None = None
        self._autoscale_task: asyncio.Task | None = None
        self._swap_lock: asyncio.Lock | None = None

    # -- shared-state views --------------------------------------------------

    @property
    def service(self) -> IntrusionDetectionService:
        """The live model service (rotated by :meth:`swap_model`)."""
        return self._ctx.service

    @property
    def backend(self) -> ScoringBackend:
        """The scoring backend shared by every shard."""
        return self._ctx.backend

    @property
    def sinks(self) -> DeliveryPipeline:
        """The durable delivery pipeline shared by every shard."""
        return self._ctx.sinks

    @property
    def generation(self) -> int:
        """Current model generation (bumped by every hot swap)."""
        return self._ctx.generation

    @property
    def metrics(self) -> ServingMetrics:
        """Serving metrics: the live bundle (one shard) or a merged
        fleet-wide snapshot (several shards)."""
        if len(self.shards) == 1:
            return self.shards[0].metrics
        merged = ServingMetrics.merged(
            [runtime.metrics for runtime in self.shards] + [self._control_metrics]
        )
        merged.shards = len(self.shards)
        return merged

    @property
    def sessions(self):
        """Per-host session state: the single aggregator (one shard) or
        a read-only :class:`~repro.serving.sessions.ShardedSessionView`."""
        if len(self.shards) == 1:
            return self.shards[0].sessions
        return ShardedSessionView([runtime.sessions for runtime in self.shards])

    @property
    def cache(self) -> ScoreCache:
        """The score cache (single-shard servers only — each shard owns
        one; use ``server.shards[i].cache`` on a sharded server)."""
        if len(self.shards) == 1:
            return self.shards[0].cache
        raise AttributeError(
            "a sharded server has one cache per shard; use server.shards[i].cache"
        )

    @property
    def batcher(self) -> MicroBatcher:
        """The micro-batcher (single-shard servers only — each shard owns
        one; use ``server.shards[i].batcher`` on a sharded server)."""
        if len(self.shards) == 1:
            return self.shards[0].batcher
        raise AttributeError(
            "a sharded server has one batcher per shard; use server.shards[i].batcher"
        )

    # -- declarative construction ------------------------------------------

    @classmethod
    def from_config(
        cls,
        bundle: str | Path | IntrusionDetectionService,
        config: ServingConfig | None = None,
        *,
        metrics: ServingMetrics | None = None,
        registry: SinkRegistry | None = None,
        record: bool = True,
    ) -> "DetectionServer":
        """Assemble a server from a bundle and a declarative config.

        This is the canonical constructor behind ``repro-ids serve
        --config serve.toml``.  *bundle* is a
        :meth:`IntrusionDetectionService.save` directory (or an
        already-constructed service).  *config* resolution order:

        1. the *config* argument,
        2. the config recorded in the bundle's metadata (a bundle
           remembers how it was last served),
        3. ``ServingConfig()`` defaults.

        Sinks are built from the config's URI specs via *registry*
        (default: the process-wide registry) and wrapped in a
        :class:`~repro.serving.delivery.DeliveryPipeline` honouring each
        spec's delivery policy.  When *record* is true and the service
        came from a bundle directory, the resolved config is written
        back into the bundle metadata (best-effort), so the next
        ``from_config(bundle)`` without an explicit config reproduces
        this deployment.  ``from_config(..., shards=1)`` — the default
        — stays behaviourally identical to the pre-shard single-path
        server.
        """
        if isinstance(bundle, (str, Path)):
            service = IntrusionDetectionService.load(bundle)
        else:
            service = bundle  # an already-constructed service (or test stub)
        if config is None:
            config = getattr(service, "serving_config", None) or ServingConfig()
        backend = backend_from_config(config.backend, service, autoscale=config.autoscale)
        pipeline = DeliveryPipeline()
        registry = registry or DEFAULT_SINK_REGISTRY
        for spec in config.sinks:
            pipeline.add(registry.build(spec.uri), policy=spec.policy, name=spec.name)
        server = cls(
            service,
            backend=backend,
            max_batch=config.batch.max_batch,
            max_latency_ms=config.batch.max_latency_ms,
            cache_size=config.cache.size,
            cache_ttl_seconds=config.cache.ttl_seconds,
            cache_admission=config.cache.admission,
            sinks=pipeline,
            session=config.session,
            metrics=metrics,
            shards=config.shards.count,
            shard_virtual_nodes=config.shards.virtual_nodes,
            autoscale=config.autoscale,
            columnar=config.batch.columnar,
            canonicalize=config.canonicalize,
            compiled=config.backend.compiled,
            precision=config.backend.precision,
        )
        server.config = config
        if record:
            recorder = getattr(service, "record_serving_config", None)
            if callable(recorder):
                recorder(config)
        return server

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Start the backend, every shard's pipeline, sinks, and clocks."""
        # locks bind to the running loop; (re)create them here so a
        # stopped server can restart on a new loop
        self._swap_lock = asyncio.Lock()
        self._control_metrics.mark_start()
        self.sinks.start()
        await self._ctx.backend.start()
        # pay one-time scoring costs (worker hydration, plan scratch,
        # lazy tokenizers) before the first real batch can observe them
        await self._ctx.backend.warm_up()
        for runtime in self.shards:
            await runtime.start()
        if self.autoscale_policy.enabled:
            if self._ctx.backend.can_resize:
                self.autoscaler = Autoscaler(
                    self.autoscale_policy,
                    self._observe,
                    self._apply_workers,
                    metrics=self._control_metrics,
                )
                self._autoscale_task = asyncio.get_running_loop().create_task(
                    self.autoscaler.run()
                )
            else:
                warnings.warn(
                    f"autoscale.enabled with a fixed backend "
                    f"({self._ctx.backend.describe()}); the pool cannot be "
                    "resized, so the autoscaler was not started",
                    stacklevel=2,
                )

    async def stop(self) -> None:
        """Drain every shard, stop the backend, close sinks, freeze clocks.

        Closing the delivery pipeline blocks until every queued alert is
        delivered, retried out, or dead-lettered — run it off-loop so
        sink backoff never stalls the event loop.
        """
        autoscale_failure: BaseException | None = None
        if self._autoscale_task is not None:
            self._autoscale_task.cancel()
            try:
                await self._autoscale_task
            except asyncio.CancelledError:
                # distinguish the task's expected cancellation from
                # stop() itself being cancelled (e.g. wait_for timeout):
                # the latter must propagate, not be absorbed here
                current = asyncio.current_task()
                if current is not None and current.cancelling():
                    self._autoscale_task = None
                    raise
            except BaseException as exc:
                # a dead control loop must not abort shutdown: drain the
                # shards and deliver queued alerts first, then surface it
                autoscale_failure = exc
            self._autoscale_task = None
        for runtime in self.shards:
            await runtime.stop()
        await self._ctx.backend.stop()
        await asyncio.to_thread(self.sinks.close)
        self._control_metrics.mark_stop()
        if autoscale_failure is not None:
            raise autoscale_failure

    async def __aenter__(self) -> "DetectionServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- event path --------------------------------------------------------

    async def submit(
        self, line: str, host: str = "-", timestamp: float | None = None
    ) -> DetectionResult:
        """Score one raw command line from *host*; full serving path.

        The host is consistent-hashed onto its owning shard; the
        shard's pipeline does the rest.
        """
        when = time.time() if timestamp is None else float(timestamp)
        runtime = self.shards[self.router.route(host)]
        return await runtime.process(line, host, when)

    async def submit_event(self, event: CommandEvent) -> DetectionResult:
        """Submit a :class:`CommandEvent` (record-style convenience)."""
        return await self.submit(event.line, host=event.host, timestamp=event.timestamp)

    async def submit_many(
        self, events: Iterable[CommandEvent | str]
    ) -> list[DetectionResult]:
        """Score a pre-collected batch of events through the batch-first path.

        Events are routed by host to their owning shards and each shard
        runs its slice through
        :meth:`~repro.serving.shard.ShardRuntime.process_batch` — one
        preprocess pass, one cache sweep, one deduplicated (columnar
        when available) scoring call, one batched second-stage call —
        with shards processing concurrently.  Results come back in
        input order.  Within a shard, events keep their relative input
        order, so per-host session semantics match submitting them one
        at a time.
        """
        materialized = [
            event if isinstance(event, CommandEvent) else CommandEvent(line=event)
            for event in events
        ]
        if not materialized:
            return []
        by_shard: dict[int, list[int]] = {}
        for position, event in enumerate(materialized):
            by_shard.setdefault(self.router.route(event.host), []).append(position)
        results: list[DetectionResult | None] = [None] * len(materialized)

        now = time.time()

        async def run_shard(shard_id: int, positions: list[int]) -> None:
            runtime = self.shards[shard_id]
            batch = [
                (
                    materialized[p].line,
                    materialized[p].host,
                    now if materialized[p].timestamp is None else float(materialized[p].timestamp),
                )
                for p in positions
            ]
            for position, result in zip(positions, await runtime.process_batch(batch)):
                results[position] = result
        await asyncio.gather(
            *(run_shard(shard_id, positions) for shard_id, positions in by_shard.items())
        )
        return [result for result in results if result is not None]

    # -- hot model swap ----------------------------------------------------

    async def swap_model(
        self,
        bundle_dir: str | None = None,
        *,
        service: IntrusionDetectionService | None = None,
        loader: ServiceLoader | None = None,
    ) -> SwapReport:
        """Atomically rotate the server onto a new model bundle.

        The sequence is: load the new bundle (off-loop, while old-model
        scoring continues), wait for **every shard's** in-flight batch
        to drain while holding back new ones, rotate the scoring
        backend, bump the model generation, purge all shard score
        caches, and rebuild every shard's front end (memo and
        canonicalizer) from the incoming service.  Events submitted
        during the swap are never dropped — they queue in their shard's
        micro-batcher and score against the new model; no batch on any
        shard mixes generations because rotation happens while all
        shard score locks are held.

        Callers pass one of:

        - *bundle_dir* — a :meth:`IntrusionDetectionService.save`
          directory (the normal production path, e.g. from
          :meth:`ContinualLearner.export_service`);
        - *service* (plus *loader* when the backend runs worker
          processes) — pre-constructed objects, used by tests.

        Note the calibrated threshold swaps together with the model:
        an event scored by the old model but thresholded after the swap
        uses the new threshold (the race window is one batch wide).
        """
        if bundle_dir is None and service is None and loader is None:
            raise ValueError("swap_model needs a bundle_dir, a service, or a loader")
        if loader is None and bundle_dir is not None:
            # the incoming generation inherits the server's compilation
            # policy — worker processes rebuild their plan from this
            # loader on generation mismatch, so a swap can never leave a
            # stale (old-weights) plan serving traffic
            if self.compiled:
                loader = partial(load_bundle_compiled, str(bundle_dir), self.precision)
            else:
                loader = partial(load_bundle, str(bundle_dir))
        if self._swap_lock is None:
            raise RuntimeError("DetectionServer is not running; call start() first")
        async with self._swap_lock:
            started = time.perf_counter()
            if service is None:
                # deserialize off-loop: scoring with the old model continues
                service = await asyncio.to_thread(loader)
            elif self.compiled and hasattr(service, "compile_inference"):
                # pre-constructed service (test path): compile it here so
                # the in-loop reference never serves the tape while the
                # workers serve a plan
                await asyncio.to_thread(service.compile_inference, self.precision)
            # a sequence-mode server must never rotate onto a bundle that
            # lost its second stage — fail before touching the backend
            _require_sequence_head(self.session_policy.mode, service)
            drain_started = time.perf_counter()
            async with contextlib.AsyncExitStack() as stack:
                # quiesce the fleet: hold every shard's score lock, so no
                # batch anywhere is in flight while the backend rotates
                for runtime in self.shards:
                    await stack.enter_async_context(runtime.score_lock)
                drain_ms = (time.perf_counter() - drain_started) * 1000.0
                await self._ctx.backend.swap(service=service, loader=loader)
                # warm the new generation while scoring is still quiesced:
                # the first post-swap batch must not pay worker rehydration
                # or plan-scratch allocation (no p99 spike across a swap)
                await self._ctx.backend.warm_up()
                self._ctx.service = service
                self._ctx.generation += 1
                invalidated = sum(
                    runtime.cache.bump_generation() for runtime in self.shards
                )
                for runtime in self.shards:
                    runtime.reset_front()
            swap_ms = (time.perf_counter() - started) * 1000.0
            self._control_metrics.record_swap(swap_ms)
            return SwapReport(
                generation=self._ctx.generation,
                bundle_dir=None if bundle_dir is None else str(bundle_dir),
                swap_ms=swap_ms,
                drain_ms=drain_ms,
                cache_invalidated=invalidated,
            )

    async def resize_backend(self, workers: int) -> bool:
        """Resize the scoring-backend pool to *workers* (quiesced).

        The operational twin of the autoscaler's actuator — exposed so a
        control plane (``repro-ids fleet-admin resize``) can size the
        pool explicitly.  Returns whether the pool actually changed;
        raises :class:`~repro.errors.ConfigError` for a backend that
        cannot resize (inline has exactly one lane).
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not self._ctx.backend.can_resize:
            raise ConfigError(
                f"backend {self._ctx.backend.describe()} cannot resize; "
                "serve with backend.kind 'threaded' or 'process'"
            )
        return await self._apply_workers(workers)

    # -- autoscaling internals -----------------------------------------------

    def _observe(self) -> AutoscaleObservation:
        """One sample of the serving plane for the autoscaler."""
        backlog = sum(runtime.pending for runtime in self.shards)
        latency = max(runtime.metrics.batch_score_ewma_ms for runtime in self.shards)
        gen_hits = sum(runtime.cache.generation_hits for runtime in self.shards)
        gen_misses = sum(runtime.cache.generation_misses for runtime in self.shards)
        scored = gen_hits + gen_misses
        return AutoscaleObservation(
            workers=self._ctx.backend.workers,
            backlog=backlog,
            batch_latency_ms=latency,
            hit_rate=gen_hits / scored if scored else 0.0,
            batches=sum(runtime.metrics.batches for runtime in self.shards),
        )

    async def _apply_workers(self, target: int) -> bool:
        """Quiesce scoring fleet-wide and resize the backend pool."""
        async with contextlib.AsyncExitStack() as stack:
            for runtime in self.shards:
                await stack.enter_async_context(runtime.score_lock)
            changed = await self._ctx.backend.resize(target)
            if changed:
                # any freshly spawned worker hydrates + warms before the
                # quiesce lifts, so scale-up never serves a cold lane
                await self._ctx.backend.warm_up()
        if changed:
            described = self._ctx.backend.describe()
            self._control_metrics.backend = described
            for runtime in self.shards:
                runtime.metrics.backend = described
        return changed


def serve_stream(
    service: IntrusionDetectionService,
    events: Iterable[CommandEvent | str],
    *,
    concurrency: int = 8,
    **server_options,
) -> tuple[list[DetectionResult], DetectionServer]:
    """Drive a server over *events* with in-process async producers.

    The synchronous entry point used by ``repro-ids serve`` and the
    benchmarks: materialises *events*, fans them across *concurrency*
    producer tasks (so the micro-batchers actually see concurrent
    traffic), and returns per-event results in input order plus the
    stopped server for metrics/sink inspection.

    ``server_options`` may be an existing ``server=`` (reused as-is,
    e.g. to measure a warm cache — no other options are allowed then),
    or keyword options for a new :class:`DetectionServer`.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    materialized = [
        event if isinstance(event, CommandEvent) else CommandEvent(line=event)
        for event in events
    ]
    server = _resolve_server(service, server_options)

    async def _run() -> list[DetectionResult]:
        results: list[DetectionResult | None] = [None] * len(materialized)
        pending: asyncio.Queue[tuple[int, CommandEvent]] = asyncio.Queue()
        for position, event in enumerate(materialized):
            pending.put_nowait((position, event))

        async def producer() -> None:
            while True:
                try:
                    position, event = pending.get_nowait()
                except asyncio.QueueEmpty:
                    return
                results[position] = await server.submit_event(event)

        async with server:
            await asyncio.gather(*(producer() for _ in range(concurrency)))
        return [result for result in results if result is not None]

    return asyncio.run(_run()), server


def serve_batches(
    service: IntrusionDetectionService,
    events: Iterable[CommandEvent | str],
    *,
    batch_size: int = 1024,
    **server_options,
) -> tuple[list[DetectionResult], DetectionServer]:
    """Drive a server over *events* through the batch-first path.

    The bulk twin of :func:`serve_stream` for replay/backfill workloads
    where the events are already collected: instead of fanning
    single-event producers into per-shard micro-batchers, slices of
    *batch_size* events go straight to
    :meth:`DetectionServer.submit_many`, which runs each shard's slice
    through its columnar pipeline in one pass.  Returns per-event
    results in input order plus the stopped server.

    ``server_options`` follows :func:`serve_stream`: an existing
    ``server=`` (alone), or keyword options for a new
    :class:`DetectionServer`.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    materialized = [
        event if isinstance(event, CommandEvent) else CommandEvent(line=event)
        for event in events
    ]
    server = _resolve_server(service, server_options)

    async def _run() -> list[DetectionResult]:
        results: list[DetectionResult] = []
        async with server:
            for start in range(0, len(materialized), batch_size):
                results.extend(
                    await server.submit_many(materialized[start : start + batch_size])
                )
        return results

    return asyncio.run(_run()), server


def tail_stream(
    service: IntrusionDetectionService,
    stream: TextIO,
    *,
    concurrency: int = 8,
    limit: int | None = None,
    parse: Callable[[str], CommandEvent | None] | None = None,
    on_result: Callable[[DetectionResult], None] | None = None,
    **server_options,
) -> tuple[list[DetectionResult], DetectionServer]:
    """Follow *stream* live, submitting each event as it arrives.

    Unlike :func:`serve_stream`, the input is **not** read to EOF first:
    a reader thread feeds a bounded queue as lines appear on the (possibly
    unbounded) pipe, and *concurrency* producer tasks submit them to the
    server immediately — the ``repro-ids serve --input -`` live-tail
    mode the ROADMAP called for.  Returns when the stream ends (EOF or
    *limit* events), with results in arrival order.

    *parse* maps one raw text line to a :class:`CommandEvent` (``None``
    skips the line; default: the whole line is the command).  *on_result*
    is invoked from the event loop after each event completes — useful
    for progress output while the stream is still open.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    if limit is not None and limit <= 0:
        limit = 0
    parse = parse or _parse_plain_line
    server = _resolve_server(service, server_options)

    async def _run() -> list[DetectionResult]:
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue(maxsize=max(2 * concurrency, 8))
        eof = object()
        sequenced: list[tuple[int, DetectionResult]] = []
        reader_failure: list[BaseException] = []

        def reader() -> None:
            count = 0
            try:
                if limit == 0:
                    return
                for raw in stream:
                    event = parse(raw)
                    if event is None:
                        continue
                    # blocks (backpressure) when producers lag behind
                    asyncio.run_coroutine_threadsafe(queue.put((count, event)), loop).result()
                    count += 1
                    if limit is not None and count >= limit:
                        return
            except BaseException as exc:  # re-raised on the caller's side
                reader_failure.append(exc)
            finally:
                try:
                    asyncio.run_coroutine_threadsafe(queue.put(eof), loop).result()
                except RuntimeError:
                    pass  # loop already closed (producer failure path)

        async def producer() -> None:
            while True:
                item = await queue.get()
                if item is eof:
                    await queue.put(eof)  # wake sibling producers
                    return
                sequence, event = item
                result = await server.submit_event(event)
                sequenced.append((sequence, result))
                if on_result is not None:
                    on_result(result)

        thread = threading.Thread(target=reader, name="tail-reader", daemon=True)
        async with server:
            thread.start()
            await asyncio.gather(*(producer() for _ in range(concurrency)))
        thread.join(timeout=5.0)
        if reader_failure:
            # a broken input stream (decode error, raising parse) must
            # fail loudly, not masquerade as a clean partial run
            raise reader_failure[0]
        return [result for _, result in sorted(sequenced, key=lambda pair: pair[0])]

    return asyncio.run(_run()), server


def _parse_plain_line(text: str) -> CommandEvent | None:
    line = text.rstrip("\n")
    return CommandEvent(line=line) if line.strip() else None


def _resolve_server(
    service: IntrusionDetectionService, server_options: dict
) -> DetectionServer:
    """Shared ``server=`` / option handling for the stream drivers."""
    server = server_options.pop("server", None)
    if server is not None and server_options:
        raise ValueError(
            "server= reuses an existing DetectionServer; these options would be "
            f"silently ignored: {sorted(server_options)}"
        )
    if server is None:
        server = DetectionServer(service, **server_options)
    return server
