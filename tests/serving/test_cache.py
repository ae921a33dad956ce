"""Tests for the LRU score cache (and its TinyLFU admission gate)."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import FrequencySketch, ScoreCache


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

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ScoreCache(capacity=-1)


class FakeClock:
    """Deterministic monotonic clock for TTL tests."""

    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


class TestTtlExpiry:
    def test_entry_expires_after_ttl(self):
        clock = FakeClock()
        cache = ScoreCache(capacity=4, ttl_seconds=10.0, clock=clock)
        cache.put("a", 0.7)
        clock.advance(9.9)
        assert cache.get("a") == 0.7
        clock.advance(0.2)  # now 10.1s since the put
        assert cache.get("a") is None
        assert cache.expirations == 1
        assert "a" not in cache  # expired entry was dropped, not kept

    def test_lookup_does_not_refresh_ttl(self):
        """TTL measures staleness since scoring — a popular line must
        still re-score once its score is ttl_seconds old."""
        clock = FakeClock()
        cache = ScoreCache(capacity=4, ttl_seconds=10.0, clock=clock)
        cache.put("a", 0.7)
        for _ in range(5):
            clock.advance(3.0)
            cache.get("a")
        # 15s after the put: expired despite constant lookups
        assert cache.get("a") is None

    def test_put_refreshes_ttl(self):
        clock = FakeClock()
        cache = ScoreCache(capacity=4, ttl_seconds=10.0, clock=clock)
        cache.put("a", 0.7)
        clock.advance(8.0)
        cache.put("a", 0.8)  # re-scored: stamp resets
        clock.advance(8.0)
        assert cache.get("a") == 0.8

    def test_no_ttl_never_expires(self):
        clock = FakeClock()
        cache = ScoreCache(capacity=4, clock=clock)
        cache.put("a", 0.7)
        clock.advance(1e9)
        assert cache.get("a") == 0.7
        assert cache.expirations == 0

    def test_expiry_counts_as_miss(self):
        clock = FakeClock()
        cache = ScoreCache(capacity=4, ttl_seconds=1.0, clock=clock)
        cache.put("a", 0.7)
        clock.advance(2.0)
        cache.get("a")
        assert cache.misses == 1
        assert cache.hits == 0

    @pytest.mark.parametrize("ttl", [0, -1.5])
    def test_non_positive_ttl_rejected(self, ttl):
        with pytest.raises(ValueError, match="ttl_seconds"):
            ScoreCache(capacity=4, ttl_seconds=ttl)


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


class TestFrequencySketch:
    def test_estimate_tracks_recorded_accesses(self):
        sketch = FrequencySketch(capacity=16)
        assert sketch.estimate("ls") == 0
        for _ in range(5):
            sketch.record("ls")
        assert sketch.estimate("ls") >= 5  # count-min over-estimates only
        assert sketch.estimate("never-seen") == 0

    def test_aging_halves_counters(self):
        sketch = FrequencySketch(capacity=16, sample_size=100)
        for _ in range(99):
            sketch.record("hot")
        assert sketch.estimate("hot") == 99
        sketch.record("hot")  # 100th access triggers the aging step
        assert sketch.ages == 1
        assert sketch.estimate("hot") == 50

    def test_deterministic_across_instances(self):
        a, b = FrequencySketch(capacity=16), FrequencySketch(capacity=16)
        for key in ("x", "y", "x"):
            a.record(key)
            b.record(key)
        assert a.estimate("x") == b.estimate("x")
        assert a.estimate("y") == b.estimate("y")

    def test_vectorized_age_matches_per_byte_halving(self):
        # the numpy aging pass must be byte-for-byte the old Python loop
        import random

        sketch = FrequencySketch(capacity=64)
        rng = random.Random(7)
        keys = [f"cmd --flag {rng.randrange(500)}" for _ in range(5_000)]
        estimates_before = {}
        for key in keys:
            sketch.record(key)
        for key in set(keys):
            estimates_before[key] = sketch.estimate(key)
        reference_rows = [bytes(byte // 2 for byte in row) for row in sketch._rows]
        additions_before = sketch._additions
        sketch._age()
        assert [bytes(row) for row in sketch._rows] == reference_rows
        assert sketch._additions == additions_before // 2
        assert sketch.ages == 1
        for key, before in estimates_before.items():
            assert sketch.estimate(key) == before // 2

    def test_saturated_counters_age_like_any_other(self):
        sketch = FrequencySketch(capacity=1, sample_size=10_000)
        for _ in range(300):  # saturates at the 8-bit cap (255)
            sketch.record("hot")
        assert sketch.estimate("hot") == 255
        sketch._age()
        assert sketch.estimate("hot") == 127


class TestTinyLfuAdmission:
    def test_one_hit_wonders_cannot_displace_the_hot_set(self):
        cache = ScoreCache(capacity=4, admission="tinylfu")
        hot = [f"hot-{i}" for i in range(4)]
        for line in hot:  # admit while below capacity
            cache.lookup(line)
            cache.put(line, 0.1)
        for line in hot * 5:  # build up frequency
            cache.lookup(line)
        for index in range(50):  # a scan of one-off lines
            line = f"scan-{index}"
            cache.lookup(line)
            cache.put(line, 0.2)
        assert all(line in cache for line in hot)
        assert cache.admission_rejections == 50
        assert cache.evictions == 0

    def test_plain_lru_is_displaced_by_the_same_scan(self):
        cache = ScoreCache(capacity=4, admission="lru")
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
        assert cache.admission_rejections == 0

    def test_recurring_candidate_eventually_admitted(self):
        cache = ScoreCache(capacity=2, admission="tinylfu")
        for line in ("a", "b"):
            cache.lookup(line)
            cache.put(line, 0.1)
        # "c" keeps coming back: once its sketch frequency beats the LRU
        # victim's, it must displace it
        for _ in range(5):
            cache.lookup("c")
        cache.put("c", 0.3)
        assert "c" in cache

    def test_refresh_of_resident_line_is_never_gated(self):
        cache = ScoreCache(capacity=2, admission="tinylfu")
        for line in ("a", "b"):
            cache.lookup(line)
            cache.put(line, 0.1)
        cache.put("a", 0.9)  # refresh, not insert
        assert cache.get("a") == 0.9
        assert cache.admission_rejections == 0

    def test_admission_survives_generation_bump(self):
        """The sketch tracks traffic, not model output: popularity
        earned before a swap still wins admission after it."""
        cache = ScoreCache(capacity=2, admission="tinylfu")
        for _ in range(10):
            cache.lookup("hot")
        cache.put("hot", 0.5)
        cache.bump_generation()
        cache.put("hot", 0.6)  # readmitted into the empty post-swap cache
        cache.lookup("cold-1")
        cache.put("cold-1", 0.1)
        cache.lookup("cold-2")
        cache.put("cold-2", 0.1)  # full cache; hot is frequency-protected
        assert "hot" in cache

    def test_unknown_admission_policy_rejected(self):
        with pytest.raises(ValueError, match="admission"):
            ScoreCache(capacity=4, admission="arc")

    def test_zipf_trace_hit_rate_not_worse_than_lru(self):
        """On a Zipf-with-noise trace the frequency gate must serve at
        least as many hits as plain LRU (the benchmark asserts the same
        on the full serving path)."""
        import numpy as np

        rng = np.random.default_rng(7)
        zipf = rng.zipf(1.3, size=6000) % 2000
        noise = rng.integers(10_000, 60_000, size=2000)
        trace = [f"cmd-{v}" for v in np.concatenate([zipf, noise])]
        rng.shuffle(trace)

        def run(admission):
            cache = ScoreCache(capacity=128, admission=admission)
            for line in trace:
                if cache.get(line) is None:
                    cache.put(line, 0.5)
            return cache.hit_rate

        assert run("tinylfu") >= run("lru")


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
            # (the cache also stamps each entry with a TTL clock reading,
            # which the untimed reference model doesn't track)
            assert [
                (line, entry[:2]) for line, entry in cache._entries.items()
            ] == list(model.entries.items())
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
