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
is what lets throughput scale with cores; with one shard (the default
``shards.count``) the server is behaviourally identical to the original
single-path event loop.

:meth:`DetectionServer.swap_model` rotates the whole stack onto a new
model bundle without dropping an event (the paper's weekly
continual-learning hand-off), draining **every** shard before the
rotation so no batch anywhere mixes generations.  Everything is
in-process and unit-testable without sockets.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

from repro.errors import ConfigError
from repro.ids.pipeline import IntrusionDetectionService
from repro.serving.backends import InlineBackend, ScoringBackend, ThreadedBackend
from repro.serving.cache import ScoreCache
from repro.serving.config import BackendConfig, ServingConfig, SinkSpec
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
        caller handed over a service directly).
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
    config: BackendConfig, service: IntrusionDetectionService
) -> ScoringBackend:
    """Build the :class:`ScoringBackend` a :class:`BackendConfig` describes.

    Both kinds score through *service*, which the server compiles in
    place when ``config.compiled`` is on.
    """
    if config.kind == "threaded":
        return ThreadedBackend(service, workers=config.workers)
    return InlineBackend(service)


def _delivery_from_config(
    specs: Iterable[SinkSpec], registry: SinkRegistry | None = None
) -> DeliveryPipeline:
    """The :class:`DeliveryPipeline` a config's sink specs describe.

    Each spec's URI is built through *registry* (default: the
    process-wide one) and delivered under the spec's policy.
    """
    registry = registry or DEFAULT_SINK_REGISTRY
    pipeline = DeliveryPipeline()
    for spec in specs:
        pipeline.add(registry.build(spec.uri), policy=spec.policy, name=spec.name)
    return pipeline


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

    One typed :class:`~repro.serving.config.ServingConfig` describes the
    whole deployment (batching, cache, backend, sessions, shards, sinks
    + delivery policies); every policy is read from it.
    :meth:`from_config` is the constructor behind ``repro-ids serve``:
    it loads a bundle directory and builds the config's sinks from a
    :class:`~repro.serving.sinks.SinkRegistry`.

    Parameters
    ----------
    service:
        A fitted detection service (only its ``preprocess``,
        ``score_normalized`` and ``threshold`` surface is used, so tests
        may substitute a lightweight stub).
    config:
        The deployment (default: ``ServingConfig()``).

    The keyword arguments are live objects a config cannot describe:

    backend:
        Scoring execution strategy, shared by every shard (default: the
        one ``config.backend`` describes).
    sinks:
        Extra alert sinks, each delivered through the durable pipeline
        under the default :class:`~repro.serving.config.DeliveryPolicy`
        after the ``config.sinks`` ones — or a pre-assembled
        :class:`~repro.serving.delivery.DeliveryPipeline`, which then
        replaces them.  Shared by all shards.
    metrics:
        Optional externally-owned :class:`ServingMetrics` bundle.  With
        one shard it receives everything; with several it receives the
        control-plane figures (swaps) while each shard
        keeps its own bundle — read :attr:`metrics` for the merged
        fleet view.

    Example
    -------
    >>> config = ServingConfig(shards=ShardConfig(count=4))         # doctest: +SKIP
    >>> async with DetectionServer(service, config) as server:      # doctest: +SKIP
    ...     result = await server.submit("nc -lvnp 4444", host="web-3")
    ...     result.is_intrusion
    True
    """

    def __init__(
        self,
        service: IntrusionDetectionService,
        config: ServingConfig | None = None,
        *,
        backend: ScoringBackend | None = None,
        sinks: Iterable[AlertSink] | DeliveryPipeline = (),
        metrics: ServingMetrics | None = None,
    ):
        config = config or ServingConfig()
        #: The deployment this server serves.
        self.config = config
        if config.backend.compiled and hasattr(service, "compile_inference"):
            service.compile_inference()
        backend = backend or backend_from_config(config.backend, service)
        if isinstance(sinks, DeliveryPipeline):
            pipeline = sinks
        else:
            pipeline = _delivery_from_config(config.sinks)
            for sink in sinks:
                pipeline.add(sink)
        _require_sequence_head(config.session.mode, service)
        _warn_on_composition_skew(config.session, service)
        self._ctx = ShardContext(service, backend, pipeline)
        count = config.shards.count
        self.router = ShardRouter(count, virtual_nodes=config.shards.virtual_nodes)
        if count == 1:
            # single-path deployment: one metrics bundle sees everything,
            # exactly as before the shard refactor
            shard_metrics = [metrics or ServingMetrics()]
            self._control_metrics = shard_metrics[0]
        else:
            shard_metrics = [ServingMetrics() for _ in range(count)]
            self._control_metrics = metrics or ServingMetrics()
        #: The per-shard pipelines, indexable by the router's shard id.
        self.shards = [
            ShardRuntime(
                shard_id, context=self._ctx, config=config, metrics=shard_metrics[shard_id]
            )
            for shard_id in range(count)
        ]
        described = backend.describe()
        self._control_metrics.backend = described
        self._control_metrics.shards = count
        for runtime in self.shards:
            runtime.metrics.backend = described
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
        this deployment.
        """
        if isinstance(bundle, (str, Path)):
            service = IntrusionDetectionService.load(bundle)
        else:
            service = bundle  # an already-constructed service (or test stub)
        if config is None:
            config = getattr(service, "serving_config", None) or ServingConfig()
        server = cls(
            service,
            config,
            sinks=_delivery_from_config(config.sinks, registry),
            metrics=metrics,
        )
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
        # pay one-time scoring costs (lazy tokenizers, BLAS start-up)
        # before the first real batch can observe them
        await self._ctx.backend.warm_up()
        for runtime in self.shards:
            await runtime.start()

    async def stop(self) -> None:
        """Drain every shard, stop the backend, close sinks, freeze clocks.

        Closing the delivery pipeline blocks until every queued alert is
        delivered, retried out, or dead-lettered — run it off-loop so
        sink backoff never stalls the event loop.
        """
        for runtime in self.shards:
            await runtime.stop()
        await self._ctx.backend.stop()
        await asyncio.to_thread(self.sinks.close)
        self._control_metrics.mark_stop()

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
        - *service* — a pre-constructed service, used by tests.

        Either way the incoming service is compiled under the server's
        compilation policy before it serves, so a swap never rotates
        onto the tape while the old generation served a plan.

        Note the calibrated threshold swaps together with the model:
        an event scored by the old model but thresholded after the swap
        uses the new threshold (the race window is one batch wide).
        """
        if bundle_dir is None and service is None:
            raise ValueError("swap_model needs a bundle_dir or a service")
        if self._swap_lock is None:
            raise RuntimeError("DetectionServer is not running; call start() first")
        async with self._swap_lock:
            started = time.perf_counter()
            if service is None:
                # deserialize off-loop: scoring with the old model continues
                service = await asyncio.to_thread(IntrusionDetectionService.load, bundle_dir)
            if self.config.backend.compiled and hasattr(service, "compile_inference"):
                await asyncio.to_thread(service.compile_inference)
            # a sequence-mode server must never rotate onto a bundle that
            # lost its second stage — fail before touching the backend
            _require_sequence_head(self.config.session.mode, service)
            drain_started = time.perf_counter()
            async with contextlib.AsyncExitStack() as stack:
                # quiesce the fleet: hold every shard's score lock, so no
                # batch anywhere is in flight while the backend rotates
                for runtime in self.shards:
                    await stack.enter_async_context(runtime.score_lock)
                drain_ms = (time.perf_counter() - drain_started) * 1000.0
                await self._ctx.backend.swap(service)
                # warm the new generation while scoring is still quiesced:
                # the first post-swap batch must not pay the new
                # tokenizer's construction (no p99 spike across a swap)
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


def serve_stream(
    server: DetectionServer,
    events: Iterable[CommandEvent | str],
    *,
    concurrency: int = 8,
) -> list[DetectionResult]:
    """Drive *server* over *events* with in-process async producers.

    The synchronous entry point used by ``repro-ids serve --input FILE``:
    materialises *events*, starts the server, fans the events across
    *concurrency* producer tasks (so the micro-batchers actually see
    concurrent traffic), stops it, and returns per-event results in
    input order.  The stopped server keeps its metrics and sink stats.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    materialized = [
        event if isinstance(event, CommandEvent) else CommandEvent(line=event)
        for event in events
    ]

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

    return asyncio.run(_run())


def tail_stream(
    server: DetectionServer,
    stream: TextIO,
    *,
    concurrency: int = 8,
    limit: int | None = None,
    parse: Callable[[str], CommandEvent | None] | None = None,
    on_result: Callable[[DetectionResult], None] | None = None,
) -> list[DetectionResult]:
    """Follow *stream* live, submitting each event to *server* as it arrives.

    Unlike :func:`serve_stream`, the input is **not** read to EOF first:
    a reader thread feeds a bounded queue as lines appear on the (possibly
    unbounded) pipe, and *concurrency* producer tasks submit them to the
    server immediately — the ``repro-ids serve --input -`` live-tail
    mode.  Starts and stops the server; returns when the stream ends
    (EOF or *limit* events), with results in arrival order.

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

    return asyncio.run(_run())


def _parse_plain_line(text: str) -> CommandEvent | None:
    line = text.rstrip("\n")
    return CommandEvent(line=line) if line.strip() else None
