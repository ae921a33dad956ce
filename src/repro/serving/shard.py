"""The per-shard serving pipeline and the host-hash router over it.

The paper's deployment scores command lines from millions of hosts; a
single event loop with one batcher, one cache, and one session table
makes session bookkeeping and batching contend on one hot path.  This
module partitions the serving plane the way SCADE partitions host
anomaly detection — by host locality:

- :class:`ShardRouter` consistent-hashes ``event.host`` onto one of N
  shards (a hash ring with virtual nodes, so shard counts can change
  without reshuffling every host).
- :class:`ShardRuntime` is the whole per-event flow that used to be
  inlined in ``DetectionServer`` — front end (normalize → validate →
  canonicalize, the last memoized per line) → cache lookup →
  micro-batch → score → session/sequence escalation → alert emit —
  owning its own :class:`~repro.serving.microbatch.MicroBatcher`,
  :class:`~repro.serving.cache.ScoreCache`,
  :class:`~repro.serving.sessions.SessionAggregator` and
  :class:`~repro.serving.metrics.ServingMetrics`.  Everything a host's
  events touch is shard-local and lock-free (shards are asyncio
  partitions of one loop, not threads).
- :class:`ShardContext` is the small mutable bundle all shards share:
  the model service, the scoring backend, the delivery pipeline, the
  model generation, and the global event/alert id sequences.

Two properties fall out of the partitioning.  First, batches from
different shards score **concurrently** — each shard serializes its own
batches under its own score lock, so a multi-worker backend overlaps
whole batches instead of only slicing within one (the single global
score lock was the old throughput ceiling).  Second, a hot model swap
stays atomic fleet-wide: ``DetectionServer.swap_model`` acquires every
shard's score lock before rotating, so no batch anywhere is in flight
during the rotation and no batch ever mixes generations.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from repro.preprocess.canonicalize import CanonicalizeResult, Canonicalizer
from repro.serving.cache import ScoreCache
from repro.serving.config import CanonicalizeConfig, SessionConfig
from repro.serving.events import (
    AlertStatus,
    DetectionAlert,
    DetectionResult,
    Severity,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.microbatch import MicroBatcher
from repro.serving.ring import HashRing
from repro.serving.sessions import SessionAggregator


class ShardRouter:
    """Consistent-hash ring mapping a host to its owning shard.

    A thin integer-index facade over the shared
    :class:`~repro.serving.ring.HashRing` (the same implementation the
    fleet layer routes *nodes* with): shard *i* is the ring member
    ``"shard-i"``, so the ring points are byte-identical to the
    original inlined construction — no host changes shards across the
    refactor, which matters because a host's session state lives on
    its shard.  Changing the shard count moves only ~1/N of hosts.

    Routing is pure and deterministic: the same host always lands on
    the same shard for a given ``(shard_count, virtual_nodes)``.
    """

    def __init__(self, shard_count: int, virtual_nodes: int = 64):
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        self.shard_count = shard_count
        self.virtual_nodes = virtual_nodes
        self._ring = HashRing(
            (f"shard-{shard}" for shard in range(shard_count)),
            virtual_nodes=virtual_nodes,
        )

    def route(self, host: str) -> int:
        """The shard index owning *host*."""
        if self.shard_count == 1:
            return 0
        return int(self._ring.route(host).removeprefix("shard-"))

    def spread(self, hosts) -> dict[int, int]:
        """Hosts per shard for an iterable of host names (diagnostics)."""
        counts: dict[int, int] = {shard: 0 for shard in range(self.shard_count)}
        for host in hosts:
            counts[self.route(host)] += 1
        return counts


class ShardContext:
    """Mutable state shared by every shard of one server.

    The service reference, the scoring backend, the delivery pipeline,
    and the model generation rotate together under
    ``DetectionServer.swap_model`` (which holds every shard's score
    lock while it writes here).  The event/alert id sequences are
    global so ids stay unique and monotone in submission order across
    shards — allocation is synchronous on the event loop, so no lock is
    needed.
    """

    def __init__(self, service, backend, sinks):
        self.service = service
        self.backend = backend
        self.sinks = sinks
        self.generation = 0
        self._event_seq = 0
        self._alert_seq = 0

    def next_event_id(self) -> int:
        self._event_seq += 1
        return self._event_seq

    def next_alert_id(self) -> int:
        self._alert_seq += 1
        return self._alert_seq


class ShardRuntime:
    """One shard's self-contained serving pipeline.

    Owns the per-shard :class:`MicroBatcher`, :class:`ScoreCache`,
    :class:`SessionAggregator`, and :class:`ServingMetrics`; shares the
    model, backend, and delivery pipeline through *context*.  The
    router guarantees every event for a given host reaches the same
    shard, so nothing here is ever touched from two shards.

    With one shard and the same knobs this pipeline is the pre-shard
    ``DetectionServer`` event path, line for line — ``shards = 1``
    must stay bitwise-identical to the single-path server.

    Host telemetry repeats: most lines were seen moments ago.
    :attr:`front_memo` maps a normalized line to its canonicalize
    outcome, so a repeat skips the canonicalizer.  It is an LRU holding
    at most ``cache_size`` entries; its keys are normalized lines, which
    the service normalizer has already cut to ``max_length``, so its
    bytes stay bounded under adversarial input.  :meth:`reset_front`
    empties it when the service rotates.
    """

    def __init__(
        self,
        shard_id: int,
        *,
        context: ShardContext,
        max_batch: int = 32,
        max_latency_ms: float = 25.0,
        cache_size: int = 4096,
        cache_ttl_seconds: float | None = None,
        cache_admission: str = "lru",
        session: SessionConfig | None = None,
        metrics: ServingMetrics | None = None,
        columnar: bool = True,
        canonicalize: CanonicalizeConfig | None = None,
    ):
        self.shard_id = shard_id
        self._ctx = context
        #: Prefer the columnar (``TokenBatch``) scoring path when the
        #: service and backend both support it; ``False`` forces the
        #: per-line string path (the pre-columnar behaviour).
        self.columnar = columnar
        self.metrics = metrics or ServingMetrics()
        self._canonicalize_policy = canonicalize
        #: AST-backed canonicalization between preprocess and the cache
        #: seam; ``None`` (canonicalize disabled or absent) keeps the
        #: pipeline byte-identical to the pre-canonicalization path.
        self.canonicalizer: Canonicalizer | None = None
        #: Normalized line → canonicalize outcome: the cache key itself
        #: (unchanged, not decoded — usually the very same string), or
        #: ``(key, CanonicalizeResult)`` for the rest, whose outcome the
        #: canonicalize counters need on every hit.  Bare keys keep the
        #: common entry as small as the memo's own dict slot.
        self.front_memo: OrderedDict[str, str | tuple[str, CanonicalizeResult]] = OrderedDict()
        self.reset_front()
        self.cache = ScoreCache(
            cache_size, ttl_seconds=cache_ttl_seconds, admission=cache_admission
        )
        session = session or SessionConfig()
        self.sessions = SessionAggregator(
            window_seconds=session.window_seconds,
            escalation_threshold=session.escalation_threshold,
            mode=session.mode,
            sequence_threshold=session.sequence_threshold,
            context_window=session.context_window,
            context_max_gap_seconds=session.context_max_gap_seconds,
            max_hosts=session.max_hosts,
        )
        self.batcher = MicroBatcher(
            self._score_batch,
            max_batch=max_batch,
            max_latency_ms=max_latency_ms,
            on_flush=self.metrics.record_batch,
        )
        self._score_lock: asyncio.Lock | None = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the score lock to the running loop and start the batcher."""
        self._score_lock = asyncio.Lock()
        self.metrics.mark_start()
        await self.batcher.start()

    async def stop(self) -> None:
        """Drain this shard's batcher and freeze its clock."""
        await self.batcher.stop()
        self.metrics.mark_stop()

    @property
    def score_lock(self) -> asyncio.Lock:
        """The lock every batch of this shard scores under.

        ``swap_model`` (and pool resizes) acquire **all** shards' locks
        to quiesce scoring fleet-wide before touching the shared
        backend.
        """
        if self._score_lock is None:
            raise RuntimeError("shard is not running; call start() first")
        return self._score_lock

    @property
    def pending(self) -> int:
        """Events queued in this shard's batcher (autoscaler signal)."""
        return self.batcher.pending

    def reset_front(self) -> None:
        """Rebuild the canonicalizer from the live service; empty the memo.

        The service normalizer's ``max_length`` is where the
        canonicalizer draws the truncated / parse-error line, and every
        memoized outcome carries that split — so after
        ``DetectionServer.swap_model`` rotates the service, nothing the
        previous canonicalizer computed may be served.
        """
        policy = self._canonicalize_policy
        if policy is not None and policy.enabled:
            normalizer = getattr(self._ctx.service, "normalizer", None)
            self.canonicalizer = Canonicalizer(
                decode_base64=policy.decode_base64,
                max_passes=policy.max_passes,
                truncation_length=getattr(normalizer, "max_length", None),
            )
        self.front_memo.clear()

    # -- event path --------------------------------------------------------

    async def process(self, line: str, host: str, when: float) -> DetectionResult:
        """Run one event through the full shard pipeline."""
        started = time.perf_counter()
        ctx = self._ctx
        event_id = ctx.next_event_id()

        normalized = ctx.service.preprocess(line)
        if normalized is None:
            latency = (time.perf_counter() - started) * 1000.0
            self.metrics.record_event(latency, dropped=True, cache_hit=False)
            return DetectionResult(
                event_id=event_id,
                host=host,
                raw_line=line,
                line="",
                score=0.0,
                is_intrusion=False,
                dropped=True,
                cache_hit=False,
                latency_ms=latency,
                generation=ctx.generation,
            )
        if self.canonicalizer is not None:
            normalized = self._canonical(normalized)

        cached = self.cache.lookup(normalized)
        if cached is not None:
            (score, generation), cache_hit = cached, True
        else:
            score, generation = await self.batcher.submit(normalized)
            cache_hit = False

        is_intrusion = score >= ctx.service.threshold
        session, newly_escalated = self.sessions.observe(
            host, when, is_intrusion, line=normalized
        )
        if newly_escalated:
            self.metrics.escalations += 1
        self.metrics.session_evictions = self.sessions.evictions
        self.metrics.sync_cache(self.cache)
        context = None
        sequence_score = None
        if is_intrusion and self.sessions.mode != "count":
            # second stage, flagged events only: compose the host's
            # recent command window (before awaiting, so the window is
            # this event's) and score it with the multi-line head
            # off-loop — the forward pass must not stall the batcher's
            # deadline timer or concurrent submissions
            context = self.sessions.compose_context(host)
            if context is not None:
                scores = await asyncio.to_thread(ctx.service.score_sequence, [context])
                sequence_score = float(scores[0])
                self.metrics.sequence_scored += 1
                if self.sessions.record_sequence_score(host, sequence_score):
                    self.metrics.escalations += 1
                    self.metrics.sequence_escalations += 1
        alert = None
        if is_intrusion:
            alert = self._emit_alert(
                event_id,
                host,
                normalized,
                score,
                when,
                session.escalated,
                context=context,
                sequence_score=sequence_score,
            )

        latency = (time.perf_counter() - started) * 1000.0
        self.metrics.record_event(latency, dropped=False, cache_hit=cache_hit)
        return DetectionResult(
            event_id=event_id,
            host=host,
            raw_line=line,
            line=normalized,
            score=score,
            is_intrusion=is_intrusion,
            dropped=False,
            cache_hit=cache_hit,
            latency_ms=latency,
            alert=alert,
            generation=generation,
            sequence_score=sequence_score,
        )

    # -- internals ---------------------------------------------------------

    def _canonical(self, normalized: str) -> str:
        """Canonicalize one normalized line, accounting the outcome.

        The canonicalizer runs on a memo miss only.  Never raises:
        unparseable input falls back to the normalized text.  The
        counters count events, hit or miss — rewritten lines, decoded
        payloads, failures (``canonicalize_failures``, with truncation-
        attributable ones split out into ``canonicalize_truncated``).
        """
        memo = self.front_memo
        entry = memo.get(normalized)
        if entry is None:
            self.metrics.front_memo_misses += 1
            result = self.canonicalizer.canonicalize(normalized)
            entry = result.text
            if result.changed or result.decoded or not result.ok:
                entry = (entry, result)
            capacity = self.cache.capacity
            if capacity:
                memo[normalized] = entry
                if len(memo) > capacity:
                    memo.popitem(last=False)
        else:
            self.metrics.front_memo_hits += 1
            memo.move_to_end(normalized)
        if entry.__class__ is not tuple:
            return entry
        key, result = entry
        if result.ok:
            if result.changed:
                self.metrics.canonicalized += 1
            if result.decoded:
                self.metrics.canonicalize_decoded += 1
        else:
            self.metrics.canonicalize_failures += 1
            if result.reason == "truncated":
                self.metrics.canonicalize_truncated += 1
        return key

    def _emit_alert(
        self,
        event_id: int,
        host: str,
        line: str,
        score: float,
        when: float,
        escalated: bool,
        *,
        context: str | None = None,
        sequence_score: float | None = None,
    ) -> DetectionAlert:
        ctx = self._ctx
        alert = DetectionAlert(
            alert_id=ctx.next_alert_id(),
            event_id=event_id,
            host=host,
            line=line,
            score=score,
            severity=Severity.from_score(score, ctx.service.threshold),
            status=AlertStatus.ESCALATED if escalated else AlertStatus.OPEN,
            timestamp=when,
            context=context,
            sequence_score=sequence_score,
        )
        ctx.sinks.emit(alert)
        self.metrics.alerts += 1
        return alert

    def _columnar_active(self) -> bool:
        """Whether batches can take the columnar (``TokenBatch``) path."""
        ctx = self._ctx
        return (
            self.columnar
            and ctx.backend.supports_columnar
            and callable(getattr(ctx.service, "encode_batch", None))
        )

    async def _score_unique(self, lines: list[str]) -> tuple[list[float], int]:
        """Score already-deduplicated *lines* under the shard's score lock.

        Returns ``(scores, generation)`` — the generation that actually
        scored the batch.  The lock serializes *this shard's* batches
        against ``swap_model`` (which holds every shard's lock), so a
        batch never mixes model generations — while batches from
        *different* shards overlap freely on a multi-worker backend.
        On the columnar path the batch is tokenized into one
        :class:`~repro.tokenizer.columnar.TokenBatch` **inside** the
        lock (tokenizer and scorer must come from the same generation)
        and handed to ``backend.score_batch`` — no per-line Python loop
        between here and the embedding matmul.
        """
        ctx = self._ctx
        if self._score_lock is None:
            raise RuntimeError("shard is not running; call start() first")
        async with self._score_lock:
            generation = ctx.generation
            score_started = time.perf_counter()
            try:
                if self._columnar_active():
                    batch = ctx.service.encode_batch(lines)
                    model_started = time.perf_counter()
                    scores = await ctx.backend.score_batch(batch)
                    self.metrics.columnar_batches += 1
                else:
                    model_started = time.perf_counter()
                    scores = await ctx.backend.score(lines)
            except Exception:
                self.metrics.scoring_errors += 1
                raise
            finished = time.perf_counter()
            # split the batch wall time into model-forward vs pipeline
            # overhead (tokenization, dedup bookkeeping, event-loop hops)
            self.metrics.record_model_time((finished - model_started) * 1000.0)
            if getattr(ctx.service, "inference_compiled", False):
                self.metrics.compiled_batches += 1
            self.metrics.record_batch_score((finished - score_started) * 1000.0)
        return scores, generation

    async def _score_batch(self, lines: list[str]) -> list[tuple[float, int]]:
        """Micro-batch handler: score distinct lines once, fill the cache.

        Returns ``(score, generation)`` pairs so producers can stamp
        their results with the model that actually scored them.
        """
        unique: dict[str, tuple[float, int]] = dict.fromkeys(lines, (0.0, 0))
        scores, generation = await self._score_unique(list(unique))
        for line, score in zip(unique, scores):
            value = float(score)
            unique[line] = (value, generation)
            self.cache.put(line, value, generation=generation)
        self.metrics.unique_scored += len(unique)
        return [unique[line] for line in lines]

    # -- batch event path --------------------------------------------------

    async def process_batch(
        self, events: Sequence[tuple[str, str, float]]
    ) -> list[DetectionResult]:
        """Run a pre-collected batch of ``(line, host, when)`` events.

        The batch-first twin of :meth:`process`: one preprocess pass,
        one cache sweep, one deduplicated scoring call (columnar when
        available — skipping the micro-batcher entirely, since the
        batch is already composed), one vectorized threshold, and one
        batched second-stage ``score_sequence`` call for every flagged
        event.  Events are observed by the session aggregator strictly
        in input order with contexts composed in-line, so per-host
        escalation counting and context windows match the per-event
        path exactly.

        Scores, verdicts, and escalation bookkeeping are identical to
        submitting the events one at a time.  Three deliberate batch
        semantics differ: every event in the batch reports the batch's
        wall-clock latency; an alert's ``ESCALATED``/``OPEN`` status
        reflects the host's session state at the *end* of the batch
        (alerts are emitted after all events were observed) rather
        than mid-batch; and a line repeated *within* the batch is
        served by the scoring dedup rather than the cache, so it
        counts as a cache miss (the per-event path would count a hit).
        """
        started = time.perf_counter()
        ctx = self._ctx
        n = len(events)
        if n == 0:
            return []
        event_ids = [ctx.next_event_id() for _ in range(n)]
        normalized = [ctx.service.preprocess(line) for line, _, _ in events]
        if self.canonicalizer is not None:
            normalized = [
                line if line is None else self._canonical(line) for line in normalized
            ]

        # one cache sweep; misses collected for a single scoring call
        scores = [0.0] * n
        generations = [ctx.generation] * n
        cache_hits = [False] * n
        miss_indexes: list[int] = []
        for index, line in enumerate(normalized):
            if line is None:
                continue
            cached = self.cache.lookup(line)
            if cached is not None:
                scores[index], generations[index] = cached
                cache_hits[index] = True
            else:
                miss_indexes.append(index)

        if miss_indexes:
            unique = list(dict.fromkeys(normalized[i] for i in miss_indexes))
            unique_scores, generation = await self._score_unique(unique)
            by_line: dict[str, float] = {}
            for line, score in zip(unique, unique_scores):
                value = float(score)
                by_line[line] = value
                self.cache.put(line, value, generation=generation)
            self.metrics.unique_scored += len(unique)
            self.metrics.record_batch(len(miss_indexes), "bulk")
            for index in miss_indexes:
                scores[index] = by_line[normalized[index]]
                generations[index] = generation

        live = np.array([line is not None for line in normalized], dtype=bool)
        flags = live & (np.asarray(scores, dtype=np.float64) >= ctx.service.threshold)

        # observe in strict input order; compose each flagged event's
        # context at its own position so the window is that event's
        sessions: list = [None] * n
        contexts: list[str | None] = [None] * n
        sequence_scores: list[float | None] = [None] * n
        flagged: list[int] = []
        sequence_mode = self.sessions.mode != "count"
        for index, (_, host, when) in enumerate(events):
            if normalized[index] is None:
                continue
            session, newly_escalated = self.sessions.observe(
                host, when, bool(flags[index]), line=normalized[index]
            )
            sessions[index] = session
            if newly_escalated:
                self.metrics.escalations += 1
            if flags[index] and sequence_mode:
                context = self.sessions.compose_context(host)
                if context is not None:
                    contexts[index] = context
                    flagged.append(index)

        if flagged:
            # one second-stage forward pass for the whole batch,
            # off-loop; escalations applied back in event order
            seq_scores = await asyncio.to_thread(
                ctx.service.score_sequence, [contexts[i] for i in flagged]
            )
            for index, value in zip(flagged, seq_scores):
                sequence_scores[index] = float(value)
                self.metrics.sequence_scored += 1
                if self.sessions.record_sequence_score(
                    events[index][1], sequence_scores[index]
                ):
                    self.metrics.escalations += 1
                    self.metrics.sequence_escalations += 1

        alerts: list[DetectionAlert | None] = [None] * n
        for index, (_, host, when) in enumerate(events):
            if flags[index]:
                alerts[index] = self._emit_alert(
                    event_ids[index],
                    host,
                    normalized[index],
                    scores[index],
                    when,
                    sessions[index].escalated,
                    context=contexts[index],
                    sequence_score=sequence_scores[index],
                )

        self.metrics.session_evictions = self.sessions.evictions
        self.metrics.sync_cache(self.cache)
        latency = (time.perf_counter() - started) * 1000.0
        results = []
        for index, (raw, host, _) in enumerate(events):
            dropped = normalized[index] is None
            self.metrics.record_event(
                latency, dropped=dropped, cache_hit=cache_hits[index]
            )
            results.append(
                DetectionResult(
                    event_id=event_ids[index],
                    host=host,
                    raw_line=raw,
                    line=normalized[index] or "",
                    score=scores[index],
                    is_intrusion=bool(flags[index]),
                    dropped=dropped,
                    cache_hit=cache_hits[index],
                    latency_ms=latency,
                    alert=alerts[index],
                    generation=generations[index],
                    sequence_score=sequence_scores[index],
                )
            )
        return results
