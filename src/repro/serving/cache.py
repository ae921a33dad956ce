"""LRU score cache keyed by normalized command line, invalidated by model generation.

Command-line telemetry is dominated by exact repeats (SCADE reports
dedup/caching as the decisive scaling lever for command-stream anomaly
detection): once ``ls -la`` has been scored, every later occurrence can
skip tokenize + forward entirely.  The cache sits between per-event
preprocessing and the micro-batcher, so only *distinct* normalized
lines ever reach the language model.

Because the serving layer supports hot model swaps (the paper's weekly
continual-learning hand-off), every entry is stamped with the **model
generation** that produced it.  :meth:`ScoreCache.bump_generation`
atomically invalidates everything scored by the previous model, and a
late write from a batch that was already in flight when the swap landed
is rejected rather than poisoning the new generation.

Repeats in real telemetry are Zipfian: a small hot set accounts for most
of the traffic while a long tail of one-off lines would, under plain
LRU, continually evict the hot set.  The optional **frequency-aware
admission** policy (``admission="tinylfu"``) gates inserts with a
TinyLFU-style count-min sketch: a candidate only displaces the LRU
victim when the sketch estimates the candidate is accessed *more* often,
so one-hit wonders bounce off while the hot set stays resident.
"""

from __future__ import annotations

import time
import zlib
from collections import OrderedDict
from collections.abc import Callable

import numpy as np

#: Valid admission policies: plain recency (``lru``) or the
#: frequency-gated TinyLFU sketch (``tinylfu``).
ADMISSION_POLICIES = ("lru", "tinylfu")


class FrequencySketch:
    """Count-min sketch of line access frequencies (the TinyLFU filter).

    Four hash rows of saturating 8-bit counters, sized ~4x the cache
    capacity so estimates stay sharp at the occupancy the admission gate
    cares about.  Every *sample_size* recorded accesses all counters are
    halved — the classic TinyLFU aging step that keeps the sketch a
    sliding estimate of *recent* popularity rather than an all-time one.

    Hashing is :func:`zlib.crc32` under four fixed salts: deterministic
    across processes and runs (``PYTHONHASHSEED`` never changes what the
    cache admits), and cheap enough to sit on the per-event hot path.
    """

    DEPTH = 4
    _SALTS = (0x00000000, 0x9E3779B9, 0x85EBCA6B, 0xC2B2AE35)
    _MAX = 255

    def __init__(self, capacity: int, sample_size: int | None = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        width = 1024
        while width < 4 * capacity:
            width *= 2
        self._mask = width - 1
        self._rows = [bytearray(width) for _ in range(self.DEPTH)]
        self._additions = 0
        self.sample_size = sample_size if sample_size is not None else max(16 * capacity, 16_384)
        self.ages = 0

    def _indexes(self, key: str) -> list[int]:
        data = key.encode("utf-8", "surrogatepass")
        return [zlib.crc32(data, salt) & self._mask for salt in self._SALTS]

    def record(self, key: str) -> None:
        """Account one access of *key* (aging the sketch when due)."""
        for row, index in zip(self._rows, self._indexes(key)):
            if row[index] < self._MAX:
                row[index] += 1
        self._additions += 1
        if self._additions >= self.sample_size:
            self._age()

    def estimate(self, key: str) -> int:
        """Estimated recent access count of *key* (an upper bound)."""
        return min(row[index] for row, index in zip(self._rows, self._indexes(key)))

    def _age(self) -> None:
        # halve every counter in-place with one vectorized pass per row
        # (a bytearray exposes a writable buffer) — the per-byte Python
        # loop used to stall the event loop mid-stream on large caches
        for row in self._rows:
            np.frombuffer(row, dtype=np.uint8)[:] >>= 1
        self._additions //= 2
        self.ages += 1


class ScoreCache:
    """Bounded LRU map from normalized command line to intrusion score.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least-recently-used entry is
        evicted when a ``put`` would exceed it.  ``0`` disables caching
        (every ``get`` misses, ``put`` is a no-op) — useful for
        cold-path benchmarking.
    ttl_seconds:
        Optional time-to-live: an entry older than this (measured from
        the ``put`` that wrote it, **not** refreshed by lookups) is
        treated as a miss and dropped.  Time-based expiry bounds how
        long a score can drift from the live model between generation
        bumps; ``None`` (default) keeps entries until eviction or
        invalidation.
    clock:
        Monotonic time source for TTL accounting (injectable for tests).
    admission:
        ``"lru"`` (default) admits every put, evicting the LRU entry
        when full — the original behaviour.  ``"tinylfu"`` gates
        inserts with a :class:`FrequencySketch`: when the cache is
        full, a candidate line is admitted only if its estimated access
        frequency exceeds the LRU victim's, so a Zipf-tail one-off
        cannot displace a hot entry.  Rejections are counted in
        ``admission_rejections``.

    Hit/miss/eviction counters are maintained so serving metrics can
    report the hit rate the paper-scale deployment depends on;
    ``invalidated`` / ``stale_puts`` / ``expirations`` account for the
    generation and TTL machinery that keeps the cache honest across
    model swaps and over time.
    """

    def __init__(
        self,
        capacity: int = 4096,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        admission: str = "lru",
    ):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be > 0 (or None to disable)")
        if admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"admission must be one of {ADMISSION_POLICIES} (got {admission!r})"
            )
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self.admission = admission
        self._clock = clock
        self._entries: OrderedDict[str, tuple[float, int, float]] = OrderedDict()
        self._sketch = (
            FrequencySketch(capacity) if admission == "tinylfu" and capacity > 0 else None
        )
        self.generation = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0
        self.stale_puts = 0
        self.expirations = 0
        self.admission_rejections = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, line: str) -> bool:
        return line in self._entries

    def lookup(self, line: str) -> tuple[float, int] | None:
        """Return ``(score, generation)`` for *line*, or ``None`` on a miss.

        An entry left over from an older model generation is treated as
        a miss and dropped on the spot (defence in depth — a
        :meth:`bump_generation` already purges eagerly), as is an entry
        older than ``ttl_seconds``.  Under TinyLFU admission every
        lookup — hit or miss — also feeds the frequency sketch, which
        is what lets the admission gate recognise a line that keeps
        coming back.
        """
        if self._sketch is not None:
            self._sketch.record(line)
        entry = self._entries.get(line)
        if entry is None:
            self.misses += 1
            return None
        score, generation, stamped_at = entry
        if generation != self.generation:
            del self._entries[line]
            self.invalidated += 1
            self.misses += 1
            return None
        if self.ttl_seconds is not None and self._clock() - stamped_at > self.ttl_seconds:
            del self._entries[line]
            self.expirations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(line)
        self.hits += 1
        return score, generation

    def get(self, line: str) -> float | None:
        """Return the cached score for *line* (marking it recently used)."""
        entry = self.lookup(line)
        return None if entry is None else entry[0]

    def put(self, line: str, score: float, generation: int | None = None) -> None:
        """Insert or refresh *line*, evicting the LRU entry when full.

        *generation* is the model generation the score came from
        (default: the cache's current one).  A write stamped with a
        stale generation — a batch that was scored before a swap but
        completed after it — is rejected and counted in ``stale_puts``.

        Under ``admission="tinylfu"``, a new line arriving at a full
        cache must out-score the LRU victim in the frequency sketch to
        be admitted; otherwise the put is a counted no-op
        (``admission_rejections``) and the victim stays resident.
        """
        if self.capacity == 0:
            return
        generation = self.generation if generation is None else generation
        if generation != self.generation:
            self.stale_puts += 1
            return
        if line in self._entries:
            self._entries.move_to_end(line)
        elif self._sketch is not None and len(self._entries) >= self.capacity:
            victim = next(iter(self._entries))
            if self._sketch.estimate(line) <= self._sketch.estimate(victim):
                self.admission_rejections += 1
                return
        self._entries[line] = (float(score), generation, self._clock())
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def bump_generation(self) -> int:
        """Advance the model generation, purging every existing entry.

        Returns the number of entries invalidated.  Called by
        :meth:`DetectionServer.swap_model` after the scoring backend has
        rotated, so no event is ever served a score from the retired
        model.  The frequency sketch is *kept* — line popularity is a
        property of the traffic, not of the model that scored it.
        """
        self.generation += 1
        purged = len(self._entries)
        self._entries.clear()
        self.invalidated += purged
        return purged

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop all entries (counters and generation are kept)."""
        self._entries.clear()
