"""Metrics wire-format tests: lossless round-trip, merge equivalence.

The fleet control plane ships :class:`ServingMetrics` across the wire
as ``to_dict()`` JSON and merges the rebuilt bundles into fleet totals,
so the wire form must carry **everything** ``merge`` reads: every
summed counter, the flush-reason histogram, the swap figures, and the
full latency reservoir.  The property under test
is merge equivalence — ``merge(from_dict(to_dict(a)), b)`` must equal
``merge(a, b)`` — which is exactly what makes fleet-wide totals and
percentiles trustworthy.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.metrics import ServingMetrics

COUNTERS = ServingMetrics._MERGE_SUM


def populated_bundle(
    *,
    events: int = 120,
    latencies: list[float] | None = None,
    reservoir: int = 64,
) -> ServingMetrics:
    metrics = ServingMetrics(latency_reservoir=reservoir)
    metrics.mark_start()
    metrics.events_total = events
    metrics.alerts = events // 3
    metrics.cache_hits = events // 2
    metrics.cache_misses = events - events // 2
    metrics.front_memo_hits = events * 7 // 10
    metrics.front_memo_misses = events - events * 7 // 10
    metrics.batches = max(1, events // 8)
    metrics.batched_events = events
    metrics.swaps = 2
    metrics.total_swap_ms = 12.5
    metrics.last_swap_ms = 5.5
    metrics.backend = "threaded(workers=2)"
    metrics.flush_reasons.update({"size": 3, "latency": 7})
    for value in latencies if latencies is not None else [float(i) for i in range(50)]:
        metrics._latencies_ms.append(value)
    metrics.mark_stop()  # frozen clock: elapsed is a snapshot, like a wire form
    return metrics


class TestRoundTrip:
    def test_wire_form_is_json_and_lossless(self):
        source = populated_bundle()
        wire = json.loads(json.dumps(source.to_dict()))
        rebuilt = ServingMetrics.from_dict(wire)
        for attr in COUNTERS:
            assert getattr(rebuilt, attr) == getattr(source, attr), attr
        assert rebuilt.last_swap_ms == source.last_swap_ms
        assert rebuilt.backend == source.backend
        assert rebuilt.flush_reasons == source.flush_reasons
        assert rebuilt.elapsed_seconds == source.elapsed_seconds
        assert rebuilt.latency_percentile(50) == source.latency_percentile(50)
        assert rebuilt.latency_percentile(99) == source.latency_percentile(99)
        assert rebuilt.snapshot() == source.snapshot()

    def test_round_trip_is_stable(self):
        source = populated_bundle()
        once = ServingMetrics.from_dict(source.to_dict())
        twice = ServingMetrics.from_dict(once.to_dict())
        assert once.to_dict() == twice.to_dict()

    def test_unknown_keys_ignored_missing_default_zero(self):
        # mixed-version fleets: a newer node ships counters an older
        # control plane does not know, an older node omits newer ones
        rebuilt = ServingMetrics.from_dict(
            {"events_total": 7, "counter_from_the_future": 99}
        )
        assert rebuilt.events_total == 7
        assert rebuilt.alerts == 0
        assert rebuilt.elapsed_seconds == 0.0

        # a node still on the autoscaler-era (or TinyLFU-era) wire form
        # merges with a current one; the counters only that era had are
        # dropped
        parent_era = {
            **populated_bundle(events=40).to_dict(),
            "cache_gen_hits": 12,
            "cache_gen_misses": 3,
            "cache_admission_rejections": 5,
            "autoscale_checks": 9,
            "autoscale_ups": 1,
            "autoscale_downs": 2,
            "batch_score_ewma_ms": 4.0,
        }
        merged = ServingMetrics.merged(
            [ServingMetrics.from_dict(parent_era), populated_bundle(events=60)]
        )
        assert merged.events_total == 100
        assert merged.swaps == 4
        assert "autoscale_checks" not in merged.to_dict()
        assert "cache_gen_hits" not in merged.snapshot()
        assert "cache_admission_rejections" not in merged.to_dict()
        assert "cache_admission_rejections" not in merged.snapshot()

    def test_reservoir_capacity_travels(self):
        source = populated_bundle(reservoir=16, latencies=[float(i) for i in range(40)])
        rebuilt = ServingMetrics.from_dict(source.to_dict())
        assert rebuilt._latencies_ms.maxlen == 16
        assert list(rebuilt._latencies_ms) == list(source._latencies_ms)


class TestMergeEquivalence:
    def test_merge_after_wire_trip_equals_direct_merge(self):
        a = populated_bundle(events=120, latencies=[1.0, 2.0, 3.0, 50.0])
        b = populated_bundle(events=33, latencies=[10.0, 20.0])
        direct = ServingMetrics.merged([a, b])
        via_wire = ServingMetrics.merged([ServingMetrics.from_dict(a.to_dict()), b])
        assert via_wire.snapshot() == direct.snapshot()
        for p in (50, 95, 99):
            assert via_wire.latency_percentile(p) == direct.latency_percentile(p)

    @settings(max_examples=30, deadline=None)
    @given(
        events_a=st.integers(min_value=0, max_value=10_000),
        events_b=st.integers(min_value=0, max_value=10_000),
        latencies_a=st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False), max_size=80
        ),
        latencies_b=st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False), max_size=80
        ),
        reservoir=st.integers(min_value=4, max_value=64),
    )
    def test_merge_equivalence_property(
        self, events_a, events_b, latencies_a, latencies_b, reservoir
    ):
        """merge(from_dict(to_dict(a)), b) == merge(a, b), including the
        reservoir subsampling path when the merged samples overflow."""
        a = populated_bundle(events=events_a, latencies=latencies_a, reservoir=reservoir)
        b = populated_bundle(events=events_b, latencies=latencies_b, reservoir=reservoir)
        direct = ServingMetrics.merged([a, b])
        via_wire = ServingMetrics.merged(
            [ServingMetrics.from_dict(a.to_dict()), ServingMetrics.from_dict(b.to_dict())]
        )
        assert via_wire.snapshot() == direct.snapshot()
        assert list(via_wire._latencies_ms) == list(direct._latencies_ms)
        assert via_wire.front_memo_hits + via_wire.front_memo_misses == events_a + events_b
        assert via_wire.front_memo_hits == a.front_memo_hits + b.front_memo_hits
