"""Scoring backends: where a micro-batch's LM forward pass actually runs.

PR 1's server scored every micro-batch inline on the event loop — fine
for a demo, but the paper's deployment scores "tens of millions of user
command lines every week", and a single in-loop forward pass is the
scale ceiling ROADMAP calls out.  This module abstracts the scoring
execution model behind :class:`ScoringBackend` with two strategies:

- :class:`InlineBackend` — the original behaviour: score synchronously
  in the event loop.  Zero overhead, one core.
- :class:`ThreadedBackend` — shard each batch across a thread pool.
  numpy releases the GIL inside BLAS, so large shards overlap.

Both share the hot-swap contract used by
:meth:`DetectionServer.swap_model`: :meth:`ScoringBackend.swap`
rotates scoring onto a new service and bumps the backend's
``generation``.  Every batch snapshots the service reference once, so
no batch mixes generations.
"""

from __future__ import annotations

import asyncio
import threading
from abc import ABC, abstractmethod
from collections import Counter
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor


def _warm_service(service: object) -> None:
    """One tiny forward through each scoring surface *service* exposes.

    Pays the lazy one-time costs — columnar tokenizer construction,
    BLAS initialization, and the calling thread's first inference-plan
    arena — so the first real batch doesn't carry them as a latency
    outlier.  The arena is per thread: warming on an executor thread
    leaves the loop thread's arena to grow on its first batch.  Only
    services holding a compiled plan are warmed: with ``compiled=false``
    the serving pipeline must stay byte-identical to the plain path, so
    no extra forward may run.
    """
    if not getattr(service, "inference_compiled", False):
        return
    lines = ["warm-up"]
    encode = getattr(service, "encode_batch", None)
    score_batch = getattr(service, "score_batch", None)
    if callable(encode) and callable(score_batch):
        score_batch(encode(lines))
    scorer = getattr(service, "score_normalized", None)
    if callable(scorer):
        scorer(lines)


def _split_ranges(count: int, workers: int, min_shard: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` row ranges covering *count* items.

    The partition behind :func:`_split_shards`, reused by the columnar
    path so string shards and :class:`TokenBatch` row blocks split
    identically (at most *workers* ranges, each at least *min_shard*
    items except possibly the last).
    """
    if count == 0:
        return []
    n_shards = min(workers, max(1, count // max(1, min_shard)))
    base, extra = divmod(count, n_shards)
    ranges, start = [], 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def _split_shards(lines: Sequence[str], workers: int, min_shard: int) -> list[list[str]]:
    """Split *lines* into at most *workers* contiguous, order-preserving shards.

    Tiny batches are not worth a cross-worker dispatch: each shard gets
    at least *min_shard* lines (except possibly the last).
    """
    return [
        list(lines[start:stop])
        for start, stop in _split_ranges(len(lines), workers, min_shard)
    ]


class ScoringBackend(ABC):
    """Execution strategy for scoring one deduplicated micro-batch.

    Subclasses implement :meth:`score` (async, order-preserving) and
    :meth:`score_batch`.  The base class holds the ``service``, and
    tracks the model ``generation`` and per-worker accounting that
    :class:`~repro.serving.metrics.ServingMetrics` surfaces.
    """

    name = "abstract"

    def __init__(self, service: object) -> None:
        self.service = service
        self.generation = 0
        self.per_worker_scored: Counter[str] = Counter()
        self.shards_dispatched = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bring up any executors (idempotent)."""

    async def warm_up(self) -> None:
        """Run a best-effort warm-up forward through the scoring path.

        Called by the server on start and after ``swap_model``, so the
        first real batch never pays the lazy tokenizer construction as a
        latency outlier (the plan's arena is per thread; this one-line
        forward sizes only the executor thread's).  Never
        raises — a failed warm-up must not take the server down.
        """
        try:
            await asyncio.to_thread(_warm_service, self.service)
        except Exception:  # noqa: BLE001 — warm-up is strictly best-effort
            pass

    async def stop(self) -> None:
        """Tear down executors; the backend may be restarted afterwards."""

    # -- scoring -------------------------------------------------------------

    @property
    @abstractmethod
    def workers(self) -> int:
        """Parallel scoring lanes this backend fans a batch across."""

    @abstractmethod
    async def score(self, lines: Sequence[str]) -> list[float]:
        """Score *lines*, returning one float per line in input order."""

    @property
    def supports_columnar(self) -> bool:
        """Whether :meth:`score_batch` can score a :class:`TokenBatch`
        (the service it holds exposes ``score_batch``)."""
        return callable(getattr(self.service, "score_batch", None))

    @abstractmethod
    async def score_batch(self, batch) -> list[float]:
        """Score a pre-tokenized columnar batch (one float per row).

        The batch-first twin of :meth:`score`: consumes a
        :class:`~repro.tokenizer.columnar.TokenBatch` so no per-line
        Python objects cross the scoring boundary.  Only valid when
        :attr:`supports_columnar` is true.
        """

    async def swap(self, service: object) -> None:
        """Rotate scoring onto *service* and bump :attr:`generation`."""
        self.service = service
        self.generation += 1

    # -- observability ---------------------------------------------------------

    def describe(self) -> str:
        """Short human-readable identity, e.g. ``threaded(workers=4)``."""
        return f"{self.name}(workers={self.workers})"

    def stats(self) -> dict:
        """Per-worker scoring counters (JSON-serialisable)."""
        return {
            "backend": self.describe(),
            "generation": self.generation,
            "shards_dispatched": self.shards_dispatched,
            "per_worker_scored": dict(self.per_worker_scored),
        }

    def _record_shard(self, worker: str, size: int) -> None:
        self.per_worker_scored[worker] += size
        self.shards_dispatched += 1


class InlineBackend(ScoringBackend):
    """Score synchronously in the event loop (PR 1 behaviour).

    The right choice for small models or single-core hosts: no executor
    hop, no serialization, but the event loop blocks for the duration
    of each forward pass.
    """

    name = "inline"

    @property
    def workers(self) -> int:
        return 1

    async def score(self, lines: Sequence[str]) -> list[float]:
        scores = [float(s) for s in self.service.score_normalized(list(lines))]
        self._record_shard("inline", len(lines))
        return scores

    async def score_batch(self, batch) -> list[float]:
        scores = [float(s) for s in self.service.score_batch(batch)]
        self._record_shard("inline", len(batch))
        return scores


class ThreadedBackend(ScoringBackend):
    """Shard each batch across a thread pool sharing one service.

    numpy's BLAS kernels release the GIL, so shards genuinely overlap
    for encoder-bound workloads while the event loop keeps accepting
    submissions.  The service object is shared (reads only), so swap is
    a plain reference rotation — each ``score`` call snapshots the
    reference once, guaranteeing a batch never mixes generations.
    """

    name = "threaded"

    def __init__(self, service: object, *, workers: int = 2, min_shard: int = 4):
        super().__init__(service)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if min_shard < 1:
            raise ValueError("min_shard must be >= 1")
        self._workers = workers
        self._min_shard = min_shard
        self._executor: ThreadPoolExecutor | None = None

    @property
    def workers(self) -> int:
        return self._workers

    async def start(self) -> None:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="scoring"
            )

    async def stop(self) -> None:
        if self._executor is not None:
            executor, self._executor = self._executor, None
            await asyncio.to_thread(executor.shutdown, True)

    async def score(self, lines: Sequence[str]) -> list[float]:
        await self.start()
        service = self.service  # snapshot: one generation per batch
        loop = asyncio.get_running_loop()
        shards = _split_shards(lines, self._workers, self._min_shard)
        parts = await asyncio.gather(
            *(
                loop.run_in_executor(self._executor, self._score_shard, service, shard)
                for shard in shards
            )
        )
        scores: list[float] = []
        for worker, shard_scores in parts:
            self._record_shard(worker, len(shard_scores))
            scores.extend(shard_scores)
        return scores

    async def score_batch(self, batch) -> list[float]:
        await self.start()
        service = self.service  # snapshot: one generation per batch
        loop = asyncio.get_running_loop()
        ranges = _split_ranges(len(batch), self._workers, self._min_shard)
        parts = await asyncio.gather(
            *(
                loop.run_in_executor(
                    self._executor,
                    self._score_rows,
                    service,
                    batch.rows(slice(start, stop)),
                )
                for start, stop in ranges
            )
        )
        scores: list[float] = []
        for worker, shard_scores in parts:
            self._record_shard(worker, len(shard_scores))
            scores.extend(shard_scores)
        return scores

    @staticmethod
    def _score_shard(service: object, shard: list[str]) -> tuple[str, list[float]]:
        scores = service.score_normalized(shard)
        return threading.current_thread().name, [float(s) for s in scores]

    @staticmethod
    def _score_rows(service: object, rows) -> tuple[str, list[float]]:
        scores = service.score_batch(rows)
        return threading.current_thread().name, [float(s) for s in scores]
