"""Tests for the LRU score cache and its model-generation invalidation."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import ScoreCache


class TestScoreCache:
    def test_miss_then_hit(self):
        cache = ScoreCache(capacity=4)
        assert cache.get("ls -la") is None
        cache.put("ls -la", 0.2)
        assert cache.get("ls -la") == 0.2
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        cache = ScoreCache(capacity=2)
        cache.put("a", 0.1)
        cache.put("b", 0.2)
        cache.get("a")  # refresh a → b is now LRU
        cache.put("c", 0.3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.evictions == 1

    def test_put_refreshes_existing_entry(self):
        cache = ScoreCache(capacity=2)
        cache.put("a", 0.1)
        cache.put("b", 0.2)
        cache.put("a", 0.9)  # refresh, not insert — no eviction
        assert len(cache) == 2
        assert cache.evictions == 0
        assert cache.get("a") == 0.9

    def test_capacity_bound_holds(self):
        cache = ScoreCache(capacity=3)
        for index in range(10):
            cache.put(f"line-{index}", float(index))
        assert len(cache) == 3
        assert cache.evictions == 7

    def test_zero_capacity_disables_caching(self):
        cache = ScoreCache(capacity=0)
        cache.put("a", 0.5)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_hit_rate(self):
        cache = ScoreCache(capacity=4)
        cache.put("a", 0.5)
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_clear_keeps_counters(self):
        cache = ScoreCache(capacity=4)
        cache.put("a", 0.5)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_scan_of_one_off_lines_displaces_the_hot_set(self):
        """Plain LRU has no frequency memory: however often the hot
        lines were looked up, a scan of one-off lines evicts them."""
        cache = ScoreCache(capacity=4)
        hot = [f"hot-{i}" for i in range(4)]
        for line in hot:
            cache.lookup(line)
            cache.put(line, 0.1)
        for line in hot * 5:
            cache.lookup(line)
        for index in range(50):
            line = f"scan-{index}"
            cache.lookup(line)
            cache.put(line, 0.2)
        assert not any(line in cache for line in hot)
        assert cache.evictions == 50

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ScoreCache(capacity=-1)


class TestGenerationInvalidation:
    def test_bump_purges_everything_and_counts(self):
        cache = ScoreCache(capacity=8)
        for index in range(5):
            cache.put(f"line-{index}", float(index))
        purged = cache.bump_generation()
        assert purged == 5
        assert len(cache) == 0
        assert cache.invalidated == 5
        assert cache.generation == 1

    def test_post_bump_lookup_misses(self):
        cache = ScoreCache(capacity=4)
        cache.put("a", 0.3)
        cache.bump_generation()
        assert cache.get("a") is None
        assert cache.misses == 1

    def test_stale_put_rejected(self):
        """A batch scored before a swap must not poison the new generation."""
        cache = ScoreCache(capacity=4)
        cache.bump_generation()
        cache.put("a", 0.3, generation=0)  # scored by the retired model
        assert "a" not in cache
        assert cache.stale_puts == 1
        cache.put("a", 0.4, generation=1)  # current generation: accepted
        assert cache.get("a") == 0.4

    def test_lookup_returns_score_and_generation(self):
        cache = ScoreCache(capacity=4)
        cache.bump_generation()
        cache.put("a", 0.6)
        assert cache.lookup("a") == (0.6, 1)


class _CacheModel:
    """Executable specification of ScoreCache: plain OrderedDict LRU with
    generation stamps.  The property test replays arbitrary op sequences
    against both and demands identical observable state."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()
        self.generation = 0
        self.hits = self.misses = self.evictions = 0
        self.invalidated = self.stale_puts = 0

    def get(self, key):
        if key not in self.entries:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        return self.entries[key][0]

    def put(self, key, score, generation=None):
        if self.capacity == 0:
            return
        generation = self.generation if generation is None else generation
        if generation != self.generation:
            self.stale_puts += 1
            return
        if key in self.entries:
            self.entries.move_to_end(key)
        self.entries[key] = (score, generation)
        if len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1

    def bump(self):
        self.generation += 1
        self.invalidated += len(self.entries)
        self.entries.clear()


_KEYS = st.integers(min_value=0, max_value=7).map(lambda i: f"line-{i}")
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _KEYS, st.floats(0, 1, allow_nan=False)),
        st.tuples(st.just("put_stale"), _KEYS, st.floats(0, 1, allow_nan=False)),
        st.tuples(st.just("get"), _KEYS),
        st.tuples(st.just("swap")),
    ),
    max_size=60,
)


class TestCacheProperties:
    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(min_value=0, max_value=5), ops=_OPS)
    def test_matches_reference_model_under_arbitrary_interleavings(self, capacity, ops):
        cache = ScoreCache(capacity)
        model = _CacheModel(capacity)
        gets = 0
        for op in ops:
            if op[0] == "put":
                cache.put(op[1], op[2])
                model.put(op[1], op[2])
            elif op[0] == "put_stale":
                # a write stamped with the previous generation (in-flight
                # batch that finished after a swap)
                cache.put(op[1], op[2], generation=cache.generation - 1)
                model.put(op[1], op[2], generation=model.generation - 1)
            elif op[0] == "get":
                gets += 1
                assert cache.get(op[1]) == model.get(op[1])
            else:
                assert cache.bump_generation() == len(model.entries)
                model.bump()
            # capacity invariant holds after every single operation
            assert len(cache) <= max(capacity, 0)
            # LRU order (and contents) match the reference exactly
            assert list(cache._entries.items()) == list(model.entries.items())
        # hit/miss/eviction/invalidation accounting matches the model
        assert cache.hits == model.hits
        assert cache.misses == model.misses
        assert cache.evictions == model.evictions
        assert cache.invalidated == model.invalidated
        assert cache.stale_puts == model.stale_puts
        assert cache.hits + cache.misses == gets
        if gets:
            assert cache.hit_rate == pytest.approx(cache.hits / gets)

    @settings(max_examples=100, deadline=None)
    @given(ops=_OPS)
    def test_generation_never_serves_cross_generation_scores(self, ops):
        """Whatever the interleaving, a lookup never returns an entry
        stamped with a generation other than the current one."""
        cache = ScoreCache(capacity=4)
        for op in ops:
            if op[0] == "put":
                cache.put(op[1], op[2])
            elif op[0] == "put_stale":
                cache.put(op[1], op[2], generation=cache.generation - 1)
            elif op[0] == "get":
                entry = cache.lookup(op[1])
                if entry is not None:
                    assert entry[1] == cache.generation
            else:
                cache.bump_generation()
