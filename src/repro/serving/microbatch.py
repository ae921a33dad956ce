"""Micro-batching queue: many concurrent producers, one batched consumer.

The LM encoder is far more efficient at its native batch width than at
batch size 1, but streaming producers submit one event at a time.  The
:class:`MicroBatcher` bridges the two: submissions are coalesced and
flushed to a batch handler when either ``max_batch`` items have
accumulated or the oldest item has waited ``max_latency_ms`` —
whichever comes first.  This is the standard inference-serving
micro-batch policy (bounded batching delay, full batches under load).

The handler may be a plain synchronous callable (the in-loop LM scoring
path) or return an awaitable (the sharded thread/process scoring
backends).  With an awaitable handler the event loop stays responsive
while a batch is being scored out-of-loop, so new submissions accumulate
into the *next* batch instead of blocking behind the current one.
"""

from __future__ import annotations

import asyncio
import inspect
from collections.abc import Callable, Sequence
from typing import Any

#: Flush cause reported to the ``on_flush`` observer.
FLUSH_SIZE = "size"
FLUSH_DEADLINE = "deadline"
FLUSH_DRAIN = "drain"


class BatchAborted(RuntimeError):
    """The batcher was stopped while this item's batch was in flight.

    Producers blocked in :meth:`MicroBatcher.submit` receive this
    instead of hanging forever when ``stop()`` lands mid-score.
    """


class MicroBatcher:
    """Coalesce single-item submissions into handler-sized batches.

    Parameters
    ----------
    handler:
        ``handler(items) -> results`` with ``len(results) == len(items)``,
        called with at most ``max_batch`` items.  May be synchronous or
        return an awaitable (e.g. an ``async def`` scoring backend).
        ``None`` is allowed only while the batcher is not running.
    max_batch:
        Flush as soon as this many items are pending.
    max_latency_ms:
        Flush when the oldest pending item has waited this long, even if
        the batch is not full — bounds per-event queueing delay under
        light traffic.
    on_flush:
        Optional observer ``on_flush(batch_size, reason)`` invoked after
        every flush (serving metrics hook).

    Example
    -------
    >>> batcher = MicroBatcher(lambda xs: [x * 2 for x in xs])  # doctest: +SKIP
    >>> await batcher.start()                                   # doctest: +SKIP
    >>> await batcher.submit(21)                                # doctest: +SKIP
    42
    """

    def __init__(
        self,
        handler: Callable[[list[Any]], Sequence[Any]] | None,
        max_batch: int = 32,
        max_latency_ms: float = 25.0,
        on_flush: Callable[[int, str], None] | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_latency_ms <= 0:
            raise ValueError("max_latency_ms must be positive")
        self.handler = handler
        self.max_batch = max_batch
        self.max_latency_ms = max_latency_ms
        self.on_flush = on_flush
        self._queue: asyncio.Queue[tuple[Any, asyncio.Future]] = asyncio.Queue()
        self._worker: asyncio.Task | None = None

    @property
    def running(self) -> bool:
        """Whether the consumer task is active.

        A worker whose event loop has been closed is *not* running: the
        task can never be scheduled again, even though it was never
        cancelled and so never reports ``done()``.  Treating it as live
        would make :meth:`start` a no-op on the new loop — submissions
        would then queue forever behind a consumer that cannot run.
        """
        if self._worker is None or self._worker.done():
            return False
        return not self._worker.get_loop().is_closed()

    @property
    def pending(self) -> int:
        """Submissions queued but not yet handed to the handler."""
        return self._queue.qsize()

    async def start(self) -> None:
        """Spawn the consumer task (idempotent; re-startable after stop)."""
        if self.running:
            return
        # an asyncio.Queue binds to the loop it is first used on, so a
        # stopped batcher must rebuild it to restart on a new loop —
        # unconditionally: anything still queued belongs to a previous
        # run whose drain died (its producers may be gone, or waiting on
        # a dead loop), and silently re-binding those items to the new
        # worker would hand their results to nobody.  Fail them loudly.
        stranded = []
        while not self._queue.empty():
            stranded.append(self._queue.get_nowait())
        for _, future in stranded:
            if not future.done():
                try:
                    future.set_exception(
                        BatchAborted(
                            "item was stranded in a stopped micro-batcher's queue; "
                            "resubmit after start()"
                        )
                    )
                    future.exception()  # ownerless futures must not warn at GC
                except RuntimeError:
                    pass  # the producer's event loop is already closed
        self._queue = asyncio.Queue()
        self._worker = asyncio.get_running_loop().create_task(self._consume())

    async def stop(self) -> None:
        """Cancel the consumer, flushing anything still pending.

        If a batch is mid-score when the cancel lands, its producers
        receive :class:`BatchAborted`; items still queued (never handed
        to the handler) are flushed normally in ``max_batch`` chunks.
        """
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            self._worker = None
        leftovers = []
        while not self._queue.empty():
            leftovers.append(self._queue.get_nowait())
        # honour the handler's max_batch contract even on drain
        for start in range(0, len(leftovers), self.max_batch):
            await self._flush(leftovers[start : start + self.max_batch], FLUSH_DRAIN)

    async def submit(self, item: Any) -> Any:
        """Enqueue *item* and wait for its slot of the batch result."""
        if not self.running:
            raise RuntimeError("MicroBatcher is not running; call start() first")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put((item, future))
        return await future

    async def _consume(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            deadline = loop.time() + self.max_latency_ms / 1000.0
            reason = FLUSH_SIZE
            try:
                while len(batch) < self.max_batch:
                    # drain whatever is already queued without awaiting
                    while len(batch) < self.max_batch:
                        try:
                            batch.append(self._queue.get_nowait())
                        except asyncio.QueueEmpty:
                            break
                    if len(batch) >= self.max_batch:
                        break
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        reason = FLUSH_DEADLINE
                        break
                    if not await self._collect_one(batch, remaining):
                        reason = FLUSH_DEADLINE
                        break
            except asyncio.CancelledError:
                # stop() mid-collection: don't strand producers already batched
                await self._flush(batch, FLUSH_DRAIN)
                raise
            await self._flush(batch, reason)

    async def _collect_one(self, batch: list, timeout: float) -> bool:
        """Wait up to *timeout*s for one queue item; append it to *batch*.

        Returns ``True`` when an item was collected, ``False`` on
        timeout.  Replaces ``asyncio.wait_for(queue.get(), timeout)``,
        whose timeout can cancel the wrapped getter *after* it dequeued
        an item — silently losing that producer's event (its future
        never resolves).  Here the getter is a separate task that
        ``asyncio.wait`` never cancels on timeout, and the ``finally``
        block appends an already-dequeued item to *batch* on every exit
        path — including the timeout landing in the same loop iteration
        as the dequeue, and ``stop()``'s cancellation racing it (the
        item then rides the caller's drain flush).
        """
        getter = asyncio.get_running_loop().create_task(self._queue.get())
        try:
            done, _ = await asyncio.wait({getter}, timeout=timeout)
            return bool(done)
        finally:
            if not getter.done():
                getter.cancel()
            try:
                batch.append(await getter)
            except asyncio.CancelledError:
                pass  # getter cancelled before dequeuing: nothing to salvage

    async def _flush(self, batch: list[tuple[Any, asyncio.Future]], reason: str) -> None:
        items = [item for item, _ in batch]
        try:
            results = self.handler(items)
            if inspect.isawaitable(results):
                results = await results
            if len(results) != len(items):
                raise RuntimeError(
                    f"batch handler returned {len(results)} results for {len(items)} items"
                )
        except asyncio.CancelledError:
            # stop() landed while the handler was scoring out-of-loop:
            # fail this batch's producers cleanly instead of hanging them
            self._abort(batch)
            raise
        except Exception as exc:  # propagate to every waiting producer
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_, future), result in zip(batch, results):
            if not future.done():
                future.set_result(result)
        if self.on_flush is not None:
            self.on_flush(len(items), reason)

    def _abort(self, batch: list[tuple[Any, asyncio.Future]]) -> None:
        for _, future in batch:
            if not future.done():
                future.set_exception(
                    BatchAborted("micro-batcher stopped while the batch was in flight")
                )
