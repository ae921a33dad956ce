"""Timing proxies around the calls into each serving layer.

Everything here is installed from ``bench/`` onto the objects a
``DetectionServer`` is handed or exposes (instance attributes shadowing
the bound methods), for the traced pass only, and removed afterwards.
Nothing under ``src/`` knows it is being timed.

Two kinds of proxy:

- **span** — one record per call (``name, layer, start, end, parent,
  batch``): the per-batch and async calls.
- **fold** — per-event synchronous calls (``preprocess``, ``cache.lookup``
  …) are folded into the span they ran under as ``[calls, busy]``, so a
  20 000-event pass costs four counter updates per event, not 80 000
  span objects.

Self time.  The process runs one event loop, so at any instant at most
one span is executing; with several tasks in flight (two fleet nodes, the
paced workload) plain "duration minus children" double-counts whatever
ran while a span was suspended in an ``await``.  :meth:`Tracer.layers`
therefore sweeps the timeline and attributes every instant to the open
span that started last — for nested calls in one task that is exactly
duration minus children, and across tasks it stays a partition, so the
layer rows sum to the covered wall time instead of exceeding it.
"""

from __future__ import annotations

import heapq
import inspect
from collections import Counter, deque
from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter

_current: ContextVar["Span | None"] = ContextVar("bench_span", default=None)
_MISSING = object()


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "batch", "rows", "folded")

    def __init__(self, name, layer, parent, batch):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.batch = batch
        self.rows = 0
        self.folded: dict[str, list] = {}
        self.end = None
        self.start = perf_counter()


class Tracer:
    """Span store plus the install/uninstall bookkeeping of the proxies."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        #: Spans opened in a task that carries no span context (a fleet
        #: node's connection handler) are caused by this one.
        self.default_parent: Span | None = None
        self.waits_ms: list[float] = []
        self.flushes: list[tuple[int, str]] = []
        self._submitted: deque[float] = deque()
        self._undo: list[tuple[object, str, object]] = []
        self._batches = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, layer: str) -> Span:
        parent = _current.get() or self.default_parent
        if parent is None:
            self._batches += 1
            batch = self._batches
        else:
            batch = parent.batch
        span = Span(name, layer, parent, batch)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, layer: str):
        """Open a span from benchmark code (the fleet client's chunk)."""
        span = self._open(name, layer)
        token = _current.set(span)
        try:
            yield span
        finally:
            _current.reset(token)
            span.end = perf_counter()

    def _patch(self, obj, attr: str, proxy) -> None:
        self._undo.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, proxy)

    def uninstall(self) -> None:
        """Remove every proxy, restoring what the attribute held before."""
        while self._undo:
            obj, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)

    def wrap_span(self, obj, attr: str, layer: str, *, before=None, after=None) -> None:
        """Record one span per call of ``obj.attr`` (sync or async).

        ``before(span, args)`` runs as the span opens, ``after(span, args,
        result)`` once the call returned.
        """
        call = getattr(obj, attr)
        name = f"{layer}.{attr}"

        if inspect.iscoroutinefunction(call):

            async def proxy(*args, **kwargs):
                span = self._open(name, layer)
                if before is not None:
                    before(span, args)
                token = _current.set(span)
                try:
                    result = await call(*args, **kwargs)
                finally:
                    _current.reset(token)
                    span.end = perf_counter()
                if after is not None:
                    after(span, args, result)
                return result

        else:

            def proxy(*args, **kwargs):
                span = self._open(name, layer)
                if before is not None:
                    before(span, args)
                token = _current.set(span)
                try:
                    result = call(*args, **kwargs)
                finally:
                    _current.reset(token)
                    span.end = perf_counter()
                if after is not None:
                    after(span, args, result)
                return result

        self._patch(obj, attr, proxy)

    def wrap_fold(self, obj, attr: str, layer: str, after=None) -> None:
        """Fold every (synchronous, per-event) call into the span it ran
        under; a call outside any span is not recorded."""
        call = getattr(obj, attr)

        def proxy(*args, **kwargs):
            started = perf_counter()
            result = call(*args, **kwargs)
            busy = perf_counter() - started
            parent = _current.get()
            if parent is not None:
                slot = parent.folded.get(layer)
                if slot is None:
                    parent.folded[layer] = [1, busy]
                else:
                    slot[0] += 1
                    slot[1] += busy
            if after is not None:
                after(result)
            return result

        self._patch(obj, attr, proxy)

    # -- what to wrap ------------------------------------------------------

    def install_server(self, server) -> None:
        """Wrap one ``DetectionServer`` and everything it exposes."""
        counts = self.counts
        service = server.service

        def dropped(result):
            if result is None:
                counts["preprocess.dropped"] += 1

        def tokenized(span, args, batch):
            span.rows = len(batch)
            counts["tokenizer.cells"] += int(batch.ids.size)
            counts["tokenizer.tokens"] += int(batch.lengths.sum())

        def rows_in(span, args, result):
            span.rows = len(args[0])

        self.wrap_fold(service, "preprocess", "preprocess", dropped)
        self.wrap_span(service, "encode_batch", "tokenizer", after=tokenized)
        self.wrap_span(service, "score_sequence", "sequence", after=rows_in)
        self.wrap_span(service.encoder, "embed_batch", "lm")
        self.wrap_span(service.tuner, "score_embeddings", "ids")
        self.wrap_span(server.backend, "score_batch", "backend", after=rows_in)
        self.wrap_span(server.backend, "score", "backend", after=rows_in)
        self.wrap_fold(server.sinks, "emit", "delivery.emit")
        self.wrap_span(server.sinks, "flush", "delivery")
        for runtime in server.shards:
            self._install_shard(runtime)
        self.wrap_span(server, "submit_many", "server")
        self.wrap_span(server, "submit_event", "server")

    def _install_shard(self, runtime) -> None:
        counts = self.counts

        def looked_up(result):
            if result is not None:
                counts["cache.hits"] += 1

        def observed(result):
            if result[1]:
                counts["sessions.escalations"] += 1

        def sequence_recorded(result):
            if result:
                counts["sessions.escalations"] += 1

        def canonicalized(result):
            if result.changed:
                counts["canonicalize.changed"] += 1
            if not result.ok:
                counts["canonicalize.failures"] += 1

        self.wrap_fold(runtime.cache, "lookup", "cache.lookup", looked_up)
        self.wrap_fold(runtime.cache, "put", "cache.put")
        self.wrap_fold(runtime.sessions, "observe", "sessions", observed)
        self.wrap_fold(runtime.sessions, "compose_context", "sessions")
        self.wrap_fold(runtime.sessions, "record_sequence_score", "sessions", sequence_recorded)
        if runtime.canonicalizer is not None:
            self.wrap_fold(runtime.canonicalizer, "canonicalize", "canonicalize", canonicalized)
        self.wrap_span(runtime, "process", "shard")
        self.wrap_span(runtime, "process_batch", "shard")
        self._install_batcher(runtime.batcher)

    def _install_batcher(self, batcher) -> None:
        """``submit`` entry → start of the flush that served it.

        The batcher's queue is FIFO with one consumer, so the n lines a
        flush hands to the handler are the n oldest unserved submits.
        """
        submitted, waits, flushes = self._submitted, self.waits_ms, self.flushes
        on_flush = batcher.on_flush

        def entered(span, args):
            submitted.append(span.start)

        def flush_started(span, args):
            for _ in range(min(len(args[0]), len(submitted))):
                waits.append((span.start - submitted.popleft()) * 1000.0)

        def on_flush_proxy(size, reason):
            flushes.append((size, reason))
            if on_flush is not None:
                on_flush(size, reason)

        self.wrap_span(batcher, "submit", "microbatch", before=entered)
        self.wrap_span(batcher, "handler", "shard", before=flush_started)
        self._patch(batcher, "on_flush", on_flush_proxy)

    # -- reading -----------------------------------------------------------

    def layers(self) -> tuple[dict[str, dict], float]:
        """Per-layer ``{calls, busy_ms, self_ms, rows}`` and covered seconds.

        ``busy_ms`` is inclusive (sum of span durations); ``self_ms`` is
        the timeline attribution described in the module docstring minus
        the folded per-event calls, which become layers of their own.
        """
        spans = [span for span in self.spans if span.end is not None]
        edges = sorted(
            [(span.start, 1, index) for index, span in enumerate(spans)]
            + [(span.end, 0, index) for index, span in enumerate(spans)]
        )
        attributed = [0.0] * len(spans)
        closed = [False] * len(spans)
        # max-heap on (start, open order): the top is the open span that
        # started last; closed spans are dropped lazily
        heap: list[tuple[float, int]] = []
        previous = 0.0
        for when, opening, index in edges:
            while heap and closed[-heap[0][1]]:
                heapq.heappop(heap)
            if heap:
                attributed[-heap[0][1]] += when - previous
            previous = when
            if opening:
                heapq.heappush(heap, (-spans[index].start, -index))
            else:
                closed[index] = True
        out: dict[str, dict] = {}

        def row(layer):
            return out.setdefault(layer, {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0, "rows": 0})

        for index, span in enumerate(spans):
            folded_busy = 0.0
            for layer, (calls, busy) in span.folded.items():
                target = row(layer)
                target["calls"] += calls
                target["busy_ms"] += busy * 1000.0
                target["self_ms"] += busy * 1000.0
                folded_busy += busy
            target = row(span.layer)
            target["calls"] += 1
            target["rows"] += span.rows
            target["busy_ms"] += (span.end - span.start) * 1000.0
            target["self_ms"] += (attributed[index] - folded_busy) * 1000.0
        return out, sum(attributed)

    def dump(self) -> list[dict]:
        """The spans as JSON-ready records (``--trace-out``)."""
        index = {id(span): number for number, span in enumerate(self.spans)}
        return [
            {
                "id": number,
                "name": span.name,
                "layer": span.layer,
                "start": span.start,
                "end": span.end,
                "parent": None if span.parent is None else index.get(id(span.parent)),
                "batch": span.batch,
                "rows": span.rows,
                "folded": {layer: list(slot) for layer, slot in span.folded.items()},
            }
            for number, span in enumerate(self.spans)
        ]
