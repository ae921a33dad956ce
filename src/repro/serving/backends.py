"""Scoring backends: where a micro-batch's LM forward pass actually runs.

PR 1's server scored every micro-batch inline on the event loop — fine
for a demo, but the paper's deployment scores "tens of millions of user
command lines every week", and a single in-loop forward pass is the
scale ceiling ROADMAP calls out.  This module abstracts the scoring
execution model behind :class:`ScoringBackend` with three strategies:

- :class:`InlineBackend` — the original behaviour: score synchronously
  in the event loop.  Zero overhead, one core.
- :class:`ThreadedBackend` — shard each batch across a thread pool.
  numpy releases the GIL inside BLAS, so large shards overlap.
- :class:`ProcessPoolBackend` — shard each batch across worker
  *processes*, each holding its own deserialized
  :class:`~repro.ids.pipeline.IntrusionDetectionService`.  Workers are
  (re)hydrated from a saved bundle directory via a small picklable
  loader, so nothing unpicklable ever crosses the fork boundary.

All backends share the hot-swap contract used by
:meth:`DetectionServer.swap_model`: :meth:`ScoringBackend.swap`
atomically rotates scoring onto a new model and bumps the backend's
``generation``.  Process workers check the generation on every task, so
even a worker that missed the rotation can never score with a retired
bundle.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import threading
from abc import ABC, abstractmethod
from collections import Counter
from collections.abc import Callable, Sequence
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from functools import partial

from repro.errors import ReproError
from repro.serving.config import BackendConfig
from repro.serving.frames import FRAME_TRANSPORTS, publish_frame, retire_frame

#: A picklable zero-argument callable producing a fitted service
#: (anything exposing ``score_normalized``).  ``functools.partial`` of a
#: module-level function over a bundle path is the canonical shape.
ServiceLoader = Callable[[], object]


class WorkerCrashError(ReproError):
    """A scoring worker process died while a batch was in flight.

    The batch's producers receive this error and the backend rebuilds
    its pool, so the server itself stays up — resubmitting the events
    is the caller's choice.
    """


def load_bundle(directory: str) -> object:
    """Load an :class:`IntrusionDetectionService` bundle (picklable loader).

    Module-level on purpose: ``functools.partial(load_bundle, path)``
    pickles by reference, so only the *path string* crosses into worker
    processes — the service itself is deserialized on the worker side.
    """
    from repro.ids.pipeline import IntrusionDetectionService

    return IntrusionDetectionService.load(directory)


def load_bundle_compiled(directory: str, precision: str = BackendConfig.precision) -> object:
    """Load a bundle and compile its LM into an inference plan.

    The compiled twin of :func:`load_bundle` — the loader the server
    hands to process backends when ``[backend] compiled`` is on.  Each
    worker process compiles its *own* plan from its own deserialized
    model, so plans can never mix generations: a worker that rehydrates
    after ``swap_model`` rebuilds the plan from the new bundle as part
    of this call.  Models outside the compiler's surface warn and serve
    through the Tensor path (see
    :meth:`IntrusionDetectionService.compile_inference`).
    """
    service = load_bundle(directory)
    service.compile_inference(precision)
    return service


def _warm_service(service: object) -> None:
    """One tiny forward through each scoring surface *service* exposes.

    Pays the lazy one-time costs — columnar tokenizer construction,
    inference-plan scratch allocation, BLAS initialization — so the
    first real batch doesn't carry them as a latency outlier.  Only
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
    :meth:`swap`.  The base class tracks the model ``generation`` and
    per-worker accounting that :class:`~repro.serving.metrics.ServingMetrics`
    surfaces.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.generation = 0
        self.per_worker_scored: Counter[str] = Counter()
        self.shards_dispatched = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bring up any executors (idempotent)."""

    async def warm_up(self) -> None:
        """Run a best-effort warm-up forward through the scoring path.

        Called by the server on start, after ``swap_model``, and after a
        pool resize, so the first real batch never pays one-time costs
        (bundle deserialization in process workers, scratch allocation,
        lazy tokenizer construction) as a latency outlier.  Never
        raises — a failed warm-up must not take the server down.
        """
        service = getattr(self, "service", None)
        if service is None:
            return
        try:
            await asyncio.to_thread(_warm_service, service)
        except Exception:  # noqa: BLE001 — warm-up is strictly best-effort
            pass

    async def stop(self) -> None:
        """Tear down executors; the backend may be restarted afterwards."""

    # -- scoring -------------------------------------------------------------

    @property
    @abstractmethod
    def workers(self) -> int:
        """Parallel scoring lanes this backend fans a batch across."""

    @property
    def can_resize(self) -> bool:
        """Whether :meth:`resize` actually changes this backend's pool."""
        return False

    async def resize(self, workers: int) -> bool:
        """Change the worker-pool size to *workers*; ``True`` if resized.

        The autoscaler's actuator.  The caller (the server) quiesces
        scoring first — no batch may be in flight while the pool is
        rebuilt — so implementations may tear down and recreate their
        executor freely.  The base implementation (and
        :class:`InlineBackend`) cannot resize and returns ``False``.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        return False

    @abstractmethod
    async def score(self, lines: Sequence[str]) -> list[float]:
        """Score *lines*, returning one float per line in input order."""

    @property
    def supports_columnar(self) -> bool:
        """Whether :meth:`score_batch` can score a :class:`TokenBatch`.

        In-process backends delegate to the service they hold; the
        process pool answers for its workers' bundle (see override).
        """
        service = getattr(self, "service", None)
        return callable(getattr(service, "score_batch", None))

    async def score_batch(self, batch) -> list[float]:
        """Score a pre-tokenized columnar batch (one float per row).

        The batch-first twin of :meth:`score`: consumes a
        :class:`~repro.tokenizer.columnar.TokenBatch` so no per-line
        Python objects cross the scoring boundary.  Only valid when
        :attr:`supports_columnar` is true.
        """
        raise NotImplementedError(
            f"{self.describe()} does not implement columnar scoring"
        )

    async def swap(self, service: object | None = None, loader: ServiceLoader | None = None) -> None:
        """Rotate scoring onto a new model and bump :attr:`generation`.

        The server passes both forms of the new model: the *service*
        object it loaded for its own preprocess/threshold path, and the
        picklable *loader* process workers rehydrate from.  The default
        implementation covers in-process backends (replace the shared
        ``service`` reference); :class:`ProcessPoolBackend` overrides
        with its loader-based rotation.
        """
        self.service = await self._resolve_service(service, loader)
        self.generation += 1

    @staticmethod
    async def _resolve_service(service: object | None, loader: ServiceLoader | None) -> object:
        if service is None:
            if loader is None:
                raise ValueError("swap needs a service or a loader")
            service = await asyncio.to_thread(loader)
        return service

    # -- observability ---------------------------------------------------------

    def describe(self) -> str:
        """Short human-readable identity, e.g. ``process(workers=4)``."""
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

    def __init__(self, service: object):
        super().__init__()
        self.service = service

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
        super().__init__()
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if min_shard < 1:
            raise ValueError("min_shard must be >= 1")
        self.service = service
        self._workers = workers
        self._min_shard = min_shard
        self._executor: ThreadPoolExecutor | None = None

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def can_resize(self) -> bool:
        return True

    async def resize(self, workers: int) -> bool:
        """Rebuild the thread pool at *workers* lanes (quiesced by caller)."""
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if workers == self._workers:
            return False
        self._workers = workers
        if self._executor is not None:
            executor, self._executor = self._executor, None
            await asyncio.to_thread(executor.shutdown, True)
        await self.start()
        return True

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


# -- process-pool worker side -------------------------------------------------

#: Worker-process model cache: one deserialized service per process,
#: keyed by the generation that loaded it.  Module-level so it survives
#: across tasks within a worker but never crosses the process boundary.
_WORKER_MODEL: dict = {"key": None, "service": None}


def _worker_score(
    loader: ServiceLoader, key: int, shard: list[str]
) -> tuple[str, int, list[float]]:
    """Score one shard inside a worker process.

    *key* is the backend's generation at dispatch time.  A worker whose
    cached model is from another generation rehydrates from *loader*
    before scoring, which is what makes the hot swap safe even for
    workers that were mid-task while the swap landed.
    """
    if _WORKER_MODEL["key"] != key:
        _WORKER_MODEL["service"] = loader()
        _WORKER_MODEL["key"] = key
    scores = _WORKER_MODEL["service"].score_normalized(shard)
    return f"pid-{os.getpid()}", os.getpid(), [float(s) for s in scores]


def _worker_score_frame(
    loader: ServiceLoader, frame, start: int, stop: int
) -> tuple[str, int, list[float]]:
    """Score rows ``[start, stop)`` of a published columnar frame.

    The frame's **generation stamp** plays the role *key* plays in
    :func:`_worker_score`: a worker whose cached model is from another
    generation rehydrates before scoring, so the swap contract holds on
    the columnar path too.  The row slice is a zero-copy view into the
    attached shared-memory segment; every array reference is dropped
    before the segment is released.
    """
    from repro.serving.frames import open_frame

    if _WORKER_MODEL["key"] != frame.generation:
        _WORKER_MODEL["service"] = loader()
        _WORKER_MODEL["key"] = frame.generation
    batch, release = open_frame(frame)
    try:
        scores = [float(s) for s in _WORKER_MODEL["service"].score_batch(batch.rows(slice(start, stop)))]
    finally:
        del batch
        release()
    return f"pid-{os.getpid()}", os.getpid(), scores


def _worker_preload(loader: ServiceLoader, key: int, warm: bool = False) -> int:
    """Hydrate one worker's model cache (best-effort, used by ``start``).

    With ``warm=True`` also runs a tiny forward so the worker's first
    real shard pays no lazy-initialization latency (the post-spawn /
    post-swap p99 outlier the reservoir used to record).
    """
    if _WORKER_MODEL["key"] != key:
        _WORKER_MODEL["service"] = loader()
        _WORKER_MODEL["key"] = key
    if warm:
        try:
            _warm_service(_WORKER_MODEL["service"])
        except Exception:  # noqa: BLE001 — warm-up is strictly best-effort
            pass
    return os.getpid()


class ProcessPoolBackend(ScoringBackend):
    """Shard each batch across worker processes with private model copies.

    Parameters
    ----------
    bundle_dir:
        Saved :meth:`IntrusionDetectionService.save` directory workers
        deserialize their model from.  Mutually optional with *loader*.
    loader:
        Picklable zero-argument callable returning a fitted service
        (overrides *bundle_dir*; used by tests with stub services).
    workers:
        Worker-process count.
    min_shard:
        Minimum lines per shard — batches smaller than ``2 * min_shard``
        go to a single worker rather than paying two dispatches.
    mp_context:
        ``multiprocessing`` start method (default: the platform's;
        ``fork`` on Linux, which makes pool rebuilds cheap).
    transport:
        How columnar batches cross the worker boundary: ``"shm"``
        publishes one generation-stamped shared-memory frame per batch
        (workers attach and score zero-copy row slices), ``"pickle"``
        ships the arrays inside the task payload, ``"auto"`` (default)
        prefers shared memory when the platform has it.  See
        :mod:`repro.serving.frames`.
    columnar:
        Whether workers can score :class:`TokenBatch` frames (their
        service must expose ``score_batch``).  Default: enabled when
        the backend was built from *bundle_dir* (real bundles always
        can), disabled for bare *loader* backends unless opted in.

    A worker crash mid-batch surfaces as :class:`WorkerCrashError` on
    that batch's producers; the pool is rebuilt transparently so the
    next batch scores normally.
    """

    name = "process"

    def __init__(
        self,
        bundle_dir: str | os.PathLike | None = None,
        *,
        loader: ServiceLoader | None = None,
        workers: int = 2,
        min_shard: int = 4,
        mp_context: str | None = None,
        transport: str = "auto",
        columnar: bool | None = None,
    ):
        super().__init__()
        if bundle_dir is None and loader is None:
            raise ValueError("ProcessPoolBackend needs a bundle_dir or a loader")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if min_shard < 1:
            raise ValueError("min_shard must be >= 1")
        if transport not in FRAME_TRANSPORTS:
            raise ValueError(
                f"transport must be one of {FRAME_TRANSPORTS} (got {transport!r})"
            )
        self.bundle_dir = None if bundle_dir is None else str(bundle_dir)
        self._loader = loader or partial(load_bundle, self.bundle_dir)
        self._workers = workers
        self._min_shard = min_shard
        self._mp_context = multiprocessing.get_context(mp_context)
        self._executor: ProcessPoolExecutor | None = None
        self._rebuild_lock: asyncio.Lock | None = None
        self.transport = transport
        self._columnar = self.bundle_dir is not None if columnar is None else bool(columnar)

    @property
    def supports_columnar(self) -> bool:
        """Whether workers can score frames (see the *columnar* parameter).

        Unlike in-process backends the worker service lives across a
        fork boundary, so this is resolved at construction rather than
        probed: real bundles always expose ``score_batch``; stub-loader
        backends must opt in.
        """
        return self._columnar

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def can_resize(self) -> bool:
        return True

    async def resize(self, workers: int) -> bool:
        """Rebuild the process pool at *workers* (quiesced by caller).

        Worker model caches are per-process, so the fresh pool's
        workers rehydrate lazily from the loader on their first shard —
        the same path a crash rebuild takes.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if workers == self._workers:
            return False
        self._workers = workers
        if self._executor is not None:
            await self._rebuild()
        return True

    # -- lifecycle -----------------------------------------------------------

    async def start(self, *, preload: bool = False) -> None:
        """Create the pool; with ``preload=True`` also warm worker models.

        Preloading is best-effort (the executor decides task placement)
        but with an idle pool each preload task typically lands on a
        distinct worker, hiding bundle deserialization from the first
        real batch.
        """
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._workers, mp_context=self._mp_context
            )
            # fresh lock per bring-up: a restarted backend may be on a
            # new event loop, and a lock must not outlive its loop
            self._rebuild_lock = asyncio.Lock()
        if preload:
            loop = asyncio.get_running_loop()
            tasks = [
                loop.run_in_executor(
                    self._executor, partial(_worker_preload, self._loader, self.generation)
                )
                for _ in range(self._workers)
            ]
            await asyncio.gather(*tasks)

    async def warm_up(self) -> None:
        """Hydrate and warm every worker process (best-effort).

        One ``_worker_preload(warm=True)`` task per worker: with an idle
        pool each lands on a distinct process, so bundle load, plan
        compilation, and the first forward all happen *before* real
        traffic.  Run after ``start``, ``swap``, and ``resize`` — the
        generation key makes it rotate stale caches, never mix them.
        """
        await self.start()
        loop = asyncio.get_running_loop()
        tasks = [
            loop.run_in_executor(
                self._executor,
                partial(_worker_preload, self._loader, self.generation, warm=True),
            )
            for _ in range(self._workers)
        ]
        try:
            await asyncio.gather(*tasks)
        except Exception:  # noqa: BLE001 — warm-up is strictly best-effort
            pass

    async def stop(self) -> None:
        if self._executor is not None:
            executor, self._executor = self._executor, None
            await asyncio.to_thread(executor.shutdown, True, cancel_futures=True)

    async def _rebuild(self) -> None:
        """Replace a broken (or retired) pool with a fresh one."""
        assert self._rebuild_lock is not None, "score() creates the pool first"
        async with self._rebuild_lock:
            if self._executor is not None:
                executor, self._executor = self._executor, None
                await asyncio.to_thread(executor.shutdown, False, cancel_futures=True)
            self._executor = ProcessPoolExecutor(
                max_workers=self._workers, mp_context=self._mp_context
            )

    # -- scoring -------------------------------------------------------------

    async def score(self, lines: Sequence[str]) -> list[float]:
        await self.start()
        loop = asyncio.get_running_loop()
        shards = _split_shards(lines, self._workers, self._min_shard)
        loader, key = self._loader, self.generation
        futures = [
            loop.run_in_executor(self._executor, partial(_worker_score, loader, key, shard))
            for shard in shards
        ]
        try:
            parts = await asyncio.gather(*futures)
        except BrokenExecutor as exc:
            await self._rebuild()
            raise WorkerCrashError(
                f"scoring worker died mid-batch ({len(lines)} lines affected); "
                "the pool was rebuilt and the server is still accepting events"
            ) from exc
        scores: list[float] = []
        for worker, _pid, shard_scores in parts:
            self._record_shard(worker, len(shard_scores))
            scores.extend(shard_scores)
        return scores

    async def score_batch(self, batch) -> list[float]:
        """Score a columnar batch: publish one frame, fan row ranges out.

        The batch's arrays cross the process boundary exactly once —
        as a generation-stamped frame (shared memory under the default
        transport) — and each worker scores a zero-copy row slice of
        it.  Crash handling mirrors :meth:`score`: a dead worker
        surfaces as :class:`WorkerCrashError` and the pool is rebuilt.
        """
        if not self._columnar:
            raise NotImplementedError(
                f"{self.describe()} was built without columnar worker support"
            )
        await self.start()
        loop = asyncio.get_running_loop()
        ranges = _split_ranges(len(batch), self._workers, self._min_shard)
        loader = self._loader
        frame, segment = publish_frame(batch, self.generation, self.transport)
        try:
            futures = [
                loop.run_in_executor(
                    self._executor,
                    partial(_worker_score_frame, loader, frame, start, stop),
                )
                for start, stop in ranges
            ]
            try:
                parts = await asyncio.gather(*futures)
            except BrokenExecutor as exc:
                await self._rebuild()
                raise WorkerCrashError(
                    f"scoring worker died mid-batch ({len(batch)} rows affected); "
                    "the pool was rebuilt and the server is still accepting events"
                ) from exc
        finally:
            retire_frame(segment)
        scores: list[float] = []
        for worker, _pid, shard_scores in parts:
            self._record_shard(worker, len(shard_scores))
            scores.extend(shard_scores)
        return scores

    # -- hot swap --------------------------------------------------------------

    async def swap(self, service: object | None = None, loader: ServiceLoader | None = None) -> None:
        """Rotate every worker to the model produced by *loader*.

        The generation bump alone is sufficient for correctness (each
        task re-checks it), so the swap itself is just two assignments —
        existing worker processes lazily rehydrate on their next shard.
        """
        if loader is None:
            raise ValueError(
                "ProcessPoolBackend.swap needs a picklable loader "
                "(e.g. functools.partial(load_bundle, bundle_dir))"
            )
        self._loader = loader
        self.generation += 1
