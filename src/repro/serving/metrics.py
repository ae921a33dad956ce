"""Serving-side observability: throughput, latency percentiles, cache stats.

The counters here are what the serving benchmark records —
events/sec with the cache cold vs. warm, p50/p95/p99 per-event latency,
batch-size distribution, and the cache hit rate that makes streaming
over repeat-heavy command telemetry tractable at all.

With the sharded runtime each :class:`~repro.serving.shard.ShardRuntime`
owns one ``ServingMetrics`` (its counters are updated lock-free on the
event loop), and the server presents fleet-wide figures by **merging**
the per-shard bundles — :meth:`ServingMetrics.merge` /
:meth:`ServingMetrics.merged` sum every counter while active time is
combined as a maximum (shards serve concurrently, so wall time must not
be double-counted).  The regression contract: an N-shard run's merged
totals equal the single-shard totals on the same per-host stream.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from collections.abc import Iterable

import numpy as np


class ServingMetrics:
    """Mutable counter bundle updated by the :class:`DetectionServer`.

    Parameters
    ----------
    latency_reservoir:
        How many of the most recent per-event latencies to keep for the
        percentile estimates (a bounded deque, so a long-running server
        reports recent behaviour, not its whole history).
    """

    #: Counter attributes summed by :meth:`merge` (all monotone totals).
    _MERGE_SUM = (
        "events_total",
        "dropped",
        "cache_hits",
        "cache_misses",
        "front_memo_hits",
        "front_memo_misses",
        "front_errors",
        "canonicalized",
        "canonicalize_failures",
        "canonicalize_truncated",
        "canonicalize_decoded",
        "alerts",
        "escalations",
        "sequence_scored",
        "sequence_escalations",
        "session_evictions",
        "batches",
        "batched_events",
        "columnar_batches",
        "compiled_batches",
        "model_batches",
        "model_ms_total",
        "unique_scored",
        "scoring_errors",
        "swaps",
        "total_swap_ms",
    )

    def __init__(self, latency_reservoir: int = 10_000):
        if latency_reservoir < 1:
            raise ValueError("latency_reservoir must be >= 1")
        self.events_total = 0
        self.dropped = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: Front-end memo lookups (one per kept event while
        #: canonicalization is on): a hit skips the canonicalizer for a
        #: normalized line seen before.
        self.front_memo_hits = 0
        self.front_memo_misses = 0
        #: Events whose front end (preprocess or canonicalize) raised:
        #: each was scored on its normalized text, or dropped when that
        #: is empty, and its batch went on.
        self.front_errors = 0
        #: Canonicalization stage accounting: lines rewritten to a
        #: different canonical form, parse-failure fallbacks (split into
        #: truncation-attributable vs. genuinely unparseable), and
        #: decode-exec pipelines flattened into their decoded payload.
        self.canonicalized = 0
        self.canonicalize_failures = 0
        self.canonicalize_truncated = 0
        self.canonicalize_decoded = 0
        self.alerts = 0
        self.escalations = 0
        self.sequence_scored = 0
        self.sequence_escalations = 0
        self.session_evictions = 0
        self.batches = 0
        self.batched_events = 0
        #: Miss batches scored through the columnar (``TokenBatch``)
        #: path rather than the per-line string path.
        self.columnar_batches = 0
        #: Miss batches scored while the service held a compiled
        #: :class:`~repro.nn.inference.InferencePlan` (vs. the tape).
        self.compiled_batches = 0
        #: Model-forward time split: how much of the batch wall time was
        #: spent inside the scoring backend call itself.  The remainder
        #: of the batch time is pipeline overhead (tokenization, dedup,
        #: event-loop hops) — the two figures together tell an operator
        #: whether to optimize the model or the plumbing.
        self.model_batches = 0
        self.model_ms_total = 0.0
        self.unique_scored = 0
        self.scoring_errors = 0
        self.swaps = 0
        self.last_swap_ms = 0.0
        self.total_swap_ms = 0.0
        self.backend = "inline(workers=1)"
        self.shards = 1
        self.flush_reasons: Counter[str] = Counter()
        self._latencies_ms: deque[float] = deque(maxlen=latency_reservoir)
        self._started_at: float | None = None
        self._accumulated_seconds = 0.0

    # -- lifecycle ---------------------------------------------------------

    def mark_start(self) -> None:
        """Resume the throughput clock (active time accumulates across
        start/stop cycles, so counters and elapsed time stay consistent
        when a server is reused)."""
        if self._started_at is None:
            self._started_at = time.perf_counter()

    def mark_stop(self) -> None:
        """Pause the throughput clock."""
        if self._started_at is not None:
            self._accumulated_seconds += time.perf_counter() - self._started_at
            self._started_at = None

    @property
    def elapsed_seconds(self) -> float:
        """Total *active* serving time the throughput figures cover."""
        running = (
            time.perf_counter() - self._started_at if self._started_at is not None else 0.0
        )
        return self._accumulated_seconds + running

    # -- recording ---------------------------------------------------------

    def record_event(self, latency_ms: float, *, dropped: bool, cache_hit: bool) -> None:
        """Account one completed submission."""
        self.events_total += 1
        if dropped:
            self.dropped += 1
        elif cache_hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        self._latencies_ms.append(float(latency_ms))

    def record_batch(self, size: int, reason: str) -> None:
        """Account one micro-batch flush (``on_flush`` hook)."""
        self.batches += 1
        self.batched_events += size
        self.flush_reasons[reason] += 1

    def record_model_time(self, duration_ms: float) -> None:
        """Account one batch's model-forward (backend call) wall time."""
        self.model_batches += 1
        self.model_ms_total += float(duration_ms)

    def record_swap(self, duration_ms: float) -> None:
        """Account one completed hot model swap."""
        self.swaps += 1
        self.last_swap_ms = float(duration_ms)
        self.total_swap_ms += float(duration_ms)

    # -- merging (per-shard -> fleet view) ---------------------------------

    def merge(self, other: "ServingMetrics") -> "ServingMetrics":
        """Fold *other*'s figures into this bundle (returns ``self``).

        Counters sum; latency reservoirs combine with an even subsample
        when they overflow this bundle's reservoir, so the merged
        percentiles represent every source proportionally (a plain
        ``extend`` onto the bounded deque would evict earlier shards'
        samples and report only the last shard merged); active time
        combines as a **maximum** — shards run concurrently on one
        loop, so their wall clocks overlap rather than add.
        ``last_swap_ms`` takes the maximum (the most recent swap).
        """
        for attr in self._MERGE_SUM:
            setattr(self, attr, getattr(self, attr) + getattr(other, attr))
        self.last_swap_ms = max(self.last_swap_ms, other.last_swap_ms)
        self.flush_reasons.update(other.flush_reasons)
        maxlen = self._latencies_ms.maxlen or 1
        combined = list(self._latencies_ms) + list(other._latencies_ms)
        if len(combined) > maxlen:
            step = len(combined) / maxlen
            combined = [combined[int(i * step)] for i in range(maxlen)]
        self._latencies_ms = deque(combined, maxlen=maxlen)
        self._accumulated_seconds = max(self._accumulated_seconds, other.elapsed_seconds)
        return self

    @classmethod
    def merged(cls, bundles: Iterable["ServingMetrics"]) -> "ServingMetrics":
        """A fresh bundle holding the fleet-wide view of *bundles*.

        The result is a snapshot: it does not stay live as the source
        bundles keep counting.  ``backend`` is taken from the first
        bundle (shards share one backend) and ``shards`` counts the
        merged sources.
        """
        bundles = list(bundles)
        out = cls()
        if bundles:
            out.backend = bundles[0].backend
        out.shards = max(len(bundles), 1)
        for bundle in bundles:
            out.merge(bundle)
        return out

    # -- wire form (node -> fleet control plane) ----------------------------

    def to_dict(self) -> dict:
        """Lossless, JSON-serialisable wire form of this bundle.

        Unlike :meth:`snapshot` (a rounded, human-oriented report), this
        form carries everything :meth:`merge` reads — every summed
        counter, the swap figures, the flush-reason histogram,
        and the **full latency reservoir** — so a bundle shipped across
        a process boundary merges exactly like the original object:
        ``merge(from_dict(to_dict(a)), b)`` equals ``merge(a, b)``.
        Elapsed time is captured as a snapshot (the clock does not keep
        running on the receiving side).
        """
        return {
            **{attr: getattr(self, attr) for attr in self._MERGE_SUM},
            "last_swap_ms": self.last_swap_ms,
            "backend": self.backend,
            "shards": self.shards,
            "flush_reasons": dict(self.flush_reasons),
            "latency_reservoir": self._latencies_ms.maxlen,
            "latencies_ms": list(self._latencies_ms),
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServingMetrics":
        """Rebuild a bundle from its :meth:`to_dict` wire form.

        Unknown keys are ignored (a newer node may ship counters an
        older control plane does not know), missing ones default to
        zero — so mixed-version fleets still merge.
        """
        if not isinstance(data, dict):
            raise TypeError(f"metrics wire form must be a dict (got {type(data).__name__})")
        reservoir = int(data.get("latency_reservoir") or 10_000)
        out = cls(latency_reservoir=reservoir)
        float_attrs = {"total_swap_ms", "model_ms_total"}
        for attr in cls._MERGE_SUM:
            value = data.get(attr, 0)
            setattr(out, attr, float(value) if attr in float_attrs else int(value))
        out.last_swap_ms = float(data.get("last_swap_ms", 0.0))
        out.backend = str(data.get("backend", out.backend))
        out.shards = int(data.get("shards", 1))
        out.flush_reasons = Counter(
            {str(reason): int(count) for reason, count in (data.get("flush_reasons") or {}).items()}
        )
        out._latencies_ms.extend(float(value) for value in data.get("latencies_ms", ()))
        out._accumulated_seconds = float(data.get("elapsed_seconds", 0.0))
        return out

    # -- derived figures ---------------------------------------------------

    def latency_percentile(self, p: float) -> float:
        """The *p*-th percentile of recent per-event latency (ms)."""
        if not self._latencies_ms:
            return 0.0
        return float(np.percentile(np.asarray(self._latencies_ms), p))

    @property
    def cache_hit_rate(self) -> float:
        """Hit fraction among scored (non-dropped) events."""
        scored = self.cache_hits + self.cache_misses
        return self.cache_hits / scored if scored else 0.0

    @property
    def front_memo_hit_rate(self) -> float:
        """Fraction of front-end memo lookups served from the memo."""
        looked_up = self.front_memo_hits + self.front_memo_misses
        return self.front_memo_hits / looked_up if looked_up else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Average events per micro-batch flush."""
        return self.batched_events / self.batches if self.batches else 0.0

    @property
    def model_ms_avg(self) -> float:
        """Average model-forward time per scored batch (ms)."""
        return self.model_ms_total / self.model_batches if self.model_batches else 0.0

    @property
    def events_per_second(self) -> float:
        """Throughput over :attr:`elapsed_seconds`."""
        elapsed = self.elapsed_seconds
        return self.events_total / elapsed if elapsed > 0 else 0.0

    def snapshot(self) -> dict:
        """All figures as a plain dict (stable keys, JSON-serialisable)."""
        return {
            "backend": self.backend,
            "shards": self.shards,
            "events_total": self.events_total,
            "dropped": self.dropped,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "front_memo_hits": self.front_memo_hits,
            "front_memo_misses": self.front_memo_misses,
            "front_memo_hit_rate": round(self.front_memo_hit_rate, 4),
            "front_errors": self.front_errors,
            "canonicalized": self.canonicalized,
            "canonicalize_failures": self.canonicalize_failures,
            "canonicalize_truncated": self.canonicalize_truncated,
            "canonicalize_decoded": self.canonicalize_decoded,
            "alerts": self.alerts,
            "escalations": self.escalations,
            "sequence_scored": self.sequence_scored,
            "sequence_escalations": self.sequence_escalations,
            "session_evictions": self.session_evictions,
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size, 2),
            "columnar_batches": self.columnar_batches,
            "compiled_batches": self.compiled_batches,
            "model_ms_total": round(self.model_ms_total, 3),
            "model_ms_avg": round(self.model_ms_avg, 3),
            "unique_scored": self.unique_scored,
            "scoring_errors": self.scoring_errors,
            "swaps": self.swaps,
            "last_swap_ms": round(self.last_swap_ms, 3),
            "flush_reasons": dict(self.flush_reasons),
            "latency_p50_ms": round(self.latency_percentile(50), 3),
            "latency_p95_ms": round(self.latency_percentile(95), 3),
            "latency_p99_ms": round(self.latency_percentile(99), 3),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "events_per_second": round(self.events_per_second, 1),
        }

    def render(self) -> str:
        """Human-readable report (printed by ``repro-ids serve``)."""
        snap = self.snapshot()
        lines = ["serving metrics", "---------------"]
        for key, value in snap.items():
            lines.append(f"{key:>28}: {value}")
        return "\n".join(lines)
