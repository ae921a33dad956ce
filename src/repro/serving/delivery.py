"""Durable alert delivery: per-sink bounded queues, retries, dead-letters.

The v1 serving path fanned alerts out *synchronously*: a slow or broken
sink stalled (or silently lost) alerts on the scoring path.  The
:class:`DeliveryPipeline` decouples the two — :meth:`DeliveryPipeline.emit`
only enqueues, and one background worker thread per sink drains its
queue in batches, applying that sink's
:class:`~repro.serving.config.DeliveryPolicy`:

- **bounded queue** — ``queue_size`` caps memory per sink;
- **backpressure** — ``on_full="block"`` makes the emitter wait (no
  loss), ``on_full="drop"`` sheds the alert and counts it;
- **retry with exponential backoff** — a failing ``emit_many`` is
  retried up to ``max_retries`` times
  (``min(backoff_ms * multiplier**attempt, max_backoff_ms)`` between
  attempts);
- **dead-letter file** — a batch that exhausts its retries is appended,
  one JSON object per alert (with the sink name and error), to
  ``dead_letter_path``.

The invariant the tests enforce: **no silent drops**.  Every alert
submitted to a sink is eventually delivered, dead-lettered, or counted
as dropped by an explicit ``on_full="drop"`` policy —
``stats[name].submitted == delivered + dead_lettered + dropped`` once
:meth:`DeliveryPipeline.flush` returns.

Per-sink ordering is preserved (one FIFO queue, one worker per sink);
sinks are independent, so one sink's retries never delay another's
deliveries.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.serving.config import DeliveryPolicy
from repro.serving.events import DetectionAlert
from repro.serving.sinks import AlertSink, ensure_sink

_STOP = object()


@dataclass
class SinkStats:
    """Delivery accounting for one sink (keyed by its unique name, so
    two sinks of the same class never share a counter).

    Attributes
    ----------
    submitted:
        Alerts handed to :meth:`DeliveryPipeline.emit` for this sink.
    delivered:
        Alerts the sink acknowledged (``emit_many`` returned).
    batches:
        Delivered batches (``delivered / batches`` = mean batch size).
    retries:
        Failed delivery attempts that were retried.
    dead_lettered:
        Alerts that exhausted their retries.
    dropped:
        Alerts shed by an ``on_full="drop"`` policy on a full queue.
    """

    name: str
    submitted: int = 0
    delivered: int = 0
    batches: int = 0
    retries: int = 0
    dead_lettered: int = 0
    dropped: int = 0

    def snapshot(self) -> dict:
        """Stable-keyed, JSON-serialisable form."""
        return {
            "submitted": self.submitted,
            "delivered": self.delivered,
            "batches": self.batches,
            "retries": self.retries,
            "dead_lettered": self.dead_lettered,
            "dropped": self.dropped,
        }


class _SinkWorker:
    """One sink's queue + drain thread (an implementation detail of
    :class:`DeliveryPipeline`)."""

    def __init__(
        self, sink: AlertSink, policy: DeliveryPolicy, name: str, max_batch: int = 128
    ):
        self.sink = sink
        self.policy = policy
        self.stats = SinkStats(name)
        self._max_batch = max_batch
        self._queue: queue.Queue = queue.Queue(maxsize=policy.queue_size)
        self._thread: threading.Thread | None = None
        self._dead_letter_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        try:
            self.sink.open()
        except Exception:
            # a sink that cannot open yet (webhook endpoint still
            # starting, say) gets another chance per emit attempt
            pass
        self._thread = threading.Thread(
            target=self._run, name=f"alert-sink-{self.stats.name}", daemon=True
        )
        self._thread.start()

    def submit(self, alert: DetectionAlert) -> bool:
        """Enqueue one alert, honouring the backpressure policy."""
        self.stats.submitted += 1
        if self.policy.on_full == "drop":
            try:
                self._queue.put_nowait(alert)
            except queue.Full:
                self.stats.dropped += 1
                return False
        else:
            self._queue.put(alert)  # blocks: backpressure onto the emitter
        return True

    def flush(self) -> None:
        """Block until every queued alert is delivered or dead-lettered."""
        self._queue.join()
        try:
            self.sink.flush()
        except Exception:
            pass

    def close(self) -> None:
        """Drain the queue, stop the worker, and close the sink."""
        if self._thread is not None and self._thread.is_alive():
            self._queue.put(_STOP)
            self._queue.join()
            self._thread.join(timeout=30.0)
        self._thread = None
        try:
            self.sink.close()
        except Exception:
            pass

    # -- worker loop ---------------------------------------------------------

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                self._queue.task_done()
                return
            batch = [item]
            stop_seen = False
            while len(batch) < self._max_batch:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _STOP:
                    stop_seen = True
                    break
                batch.append(extra)
            try:
                self._deliver(batch)
            except Exception:
                # _deliver handles its own failures; this is a backstop so
                # an unexpected error can never kill the worker thread and
                # strand queued alerts — the batch is counted as lost
                self.stats.dead_lettered += len(batch)
            finally:
                for _ in batch:
                    self._queue.task_done()
                if stop_seen:
                    self._queue.task_done()
            if stop_seen:
                return

    def _deliver(self, batch: list[DetectionAlert]) -> None:
        policy = self.policy
        attempt = 0
        while True:
            try:
                self.sink.emit_many(batch)
            except Exception as exc:
                if attempt >= policy.max_retries:
                    self._dead_letter(batch, exc)
                    return
                self.stats.retries += 1
                delay_ms = min(
                    policy.backoff_ms * (policy.backoff_multiplier**attempt),
                    policy.max_backoff_ms,
                )
                time.sleep(delay_ms / 1000.0)
                attempt += 1
                continue
            self.stats.delivered += len(batch)
            self.stats.batches += 1
            return

    def _dead_letter(self, batch: Sequence[DetectionAlert], exc: Exception) -> None:
        self.stats.dead_lettered += len(batch)
        path = self.policy.dead_letter_path
        if path is None:
            return
        record_base = {"sink": self.stats.name, "error": repr(exc)}
        try:
            target = Path(path)
            target.parent.mkdir(parents=True, exist_ok=True)
            with self._dead_letter_lock, target.open("a", encoding="utf-8") as handle:
                for alert in batch:
                    handle.write(
                        json.dumps({**record_base, "alert": alert.to_json()}) + "\n"
                    )
                handle.flush()
        except Exception:
            pass  # the dead-letter path must never raise into delivery


class DeliveryPipeline:
    """Fan alerts out to sinks through per-sink durable delivery workers.

    Construct empty (or from an iterable of sinks, which get the
    default policy) and :meth:`add` sinks with their
    :class:`~repro.serving.config.DeliveryPolicy`; the
    :class:`~repro.serving.server.DetectionServer` builds one from a
    :class:`~repro.serving.config.ServingConfig`'s sink specs.  The
    pipeline is restartable: after :meth:`close`, a new :meth:`start`
    (or the next :meth:`emit`) spins the workers back up, with
    cumulative stats.
    """

    def __init__(self, sinks: Iterable[AlertSink] = ()):
        self._workers: list[_SinkWorker] = []
        self._started = False
        for sink in sinks:
            self.add(sink)

    # -- assembly ------------------------------------------------------------

    def add(
        self,
        sink,
        policy: DeliveryPolicy | None = None,
        name: str | None = None,
    ) -> str:
        """Register *sink* under *policy*, returning its unique name.

        *sink* must be an :class:`AlertSink`.  *name* defaults
        to ``ClassName[index]``; a duplicate explicit name gets an
        ``#n`` suffix so stats never collide.
        """
        sink = ensure_sink(sink)
        if name is None:
            name = f"{type(sink).__name__}[{len(self._workers)}]"
        taken = {worker.stats.name for worker in self._workers}
        unique, n = name, 1
        while unique in taken:
            n += 1
            unique = f"{name}#{n}"
        worker = _SinkWorker(sink, policy or DeliveryPolicy(), unique)
        self._workers.append(worker)
        if self._started:
            worker.start()
        return unique

    @property
    def sinks(self) -> list[AlertSink]:
        """The registered sinks, in registration order."""
        return [worker.sink for worker in self._workers]

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Open every sink and start its delivery worker (idempotent)."""
        self._started = True
        for worker in self._workers:
            worker.start()

    def flush(self) -> None:
        """Block until every queued alert is delivered or dead-lettered."""
        for worker in self._workers:
            worker.flush()

    def close(self) -> None:
        """Drain all queues, stop all workers, close all sinks."""
        for worker in self._workers:
            worker.close()
        self._started = False

    # -- emission ------------------------------------------------------------

    def emit(self, alert: DetectionAlert) -> None:
        """Enqueue *alert* for every sink (starting workers on first use)."""
        if not self._started:
            self.start()
        for worker in self._workers:
            worker.submit(alert)

    def emit_many(self, alerts: Sequence[DetectionAlert]) -> None:
        """Enqueue a batch of alerts for every sink."""
        for alert in alerts:
            self.emit(alert)

    # -- accounting ----------------------------------------------------------

    def stats(self) -> dict[str, SinkStats]:
        """Per-sink delivery stats, keyed by unique sink name."""
        return {worker.stats.name: worker.stats for worker in self._workers}

    def snapshot(self) -> dict:
        """JSON-serialisable per-sink stats (stable keys)."""
        return {name: stats.snapshot() for name, stats in self.stats().items()}

    @property
    def delivered(self) -> int:
        """Total alerts acknowledged across all sinks."""
        return sum(worker.stats.delivered for worker in self._workers)

    @property
    def dead_lettered(self) -> int:
        """Total alerts that exhausted their retries, across all sinks."""
        return sum(worker.stats.dead_lettered for worker in self._workers)

    @property
    def dropped(self) -> int:
        """Total alerts shed by ``on_full="drop"`` policies."""
        return sum(worker.stats.dropped for worker in self._workers)

    @property
    def failures(self) -> dict[str, int]:
        """Alerts *not* delivered (dead-lettered + dropped), per sink —
        only sinks with failures appear."""
        out: dict[str, int] = {}
        for worker in self._workers:
            lost = worker.stats.dead_lettered + worker.stats.dropped
            if lost:
                out[worker.stats.name] = lost
        return out

    def render(self) -> str:
        """Human-readable delivery report (printed by ``repro-ids serve``)."""
        lines = ["alert delivery", "--------------"]
        if not self._workers:
            lines.append("(no sinks)")
        for name, stats in self.stats().items():
            snap = stats.snapshot()
            detail = " ".join(f"{key}={value}" for key, value in snap.items())
            lines.append(f"{name:>24}: {detail}")
        return "\n".join(lines)
