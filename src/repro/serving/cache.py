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
"""

from __future__ import annotations

from collections import OrderedDict


class ScoreCache:
    """Bounded LRU map from normalized command line to intrusion score.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least-recently-used entry is
        evicted when a ``put`` would exceed it.  ``0`` disables caching
        (every ``get`` misses, ``put`` is a no-op) — useful for
        cold-path benchmarking.

    Entries live until LRU eviction or a model-generation bump: under
    one generation a line's score never changes, so there is nothing
    for time-based expiry to refresh.  Hit/miss/eviction counters are
    maintained so serving metrics can report the hit rate the
    paper-scale deployment depends on; ``invalidated`` / ``stale_puts``
    account for the generation machinery that keeps the cache honest
    across model swaps.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._entries: OrderedDict[str, tuple[float, int]] = OrderedDict()
        self.generation = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0
        self.stale_puts = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, line: str) -> bool:
        return line in self._entries

    def lookup(self, line: str) -> tuple[float, int] | None:
        """Return ``(score, generation)`` for *line*, or ``None`` on a miss.

        An entry left over from an older model generation is treated as
        a miss and dropped on the spot (defence in depth — a
        :meth:`bump_generation` already purges eagerly).
        """
        entry = self._entries.get(line)
        if entry is None:
            self.misses += 1
            return None
        if entry[1] != self.generation:
            del self._entries[line]
            self.invalidated += 1
            self.misses += 1
            return None
        self._entries.move_to_end(line)
        self.hits += 1
        return entry

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
        """
        if self.capacity == 0:
            return
        generation = self.generation if generation is None else generation
        if generation != self.generation:
            self.stale_puts += 1
            return
        if line in self._entries:
            self._entries.move_to_end(line)
        self._entries[line] = (float(score), generation)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def bump_generation(self) -> int:
        """Advance the model generation, purging every existing entry.

        Returns the number of entries invalidated.  Called by
        :meth:`DetectionServer.swap_model` after the scoring backend has
        rotated, so no event is ever served a score from the retired
        model.
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
