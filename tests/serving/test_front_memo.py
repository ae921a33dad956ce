"""Front-end memo tests: a repeated line skips the canonicalizer.

``ShardRuntime`` maps each normalized line to its canonicalize outcome
(the cache key, plus the outcome when it moves a counter) in a bounded
LRU.  The contract checked here, by call counts rather than timings: a
repeat runs ``service.preprocess`` but not ``Canonicalizer.canonicalize``,
yet returns the same key, the same verdict, and moves the per-event
canonicalize counters exactly as the first sighting did.
"""

import asyncio
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.loggen.evasion import build_evasion_corpus
from repro.preprocess.canonicalize import Canonicalizer
from repro.serving import DetectionServer
from repro.serving.config import (
    BackendConfig,
    BatchConfig,
    CacheConfig,
    CanonicalizeConfig,
    ServingConfig,
)
from repro.serving.demo import DEMO_BENIGN, DEMO_MALICIOUS
from tests.serving.conftest import NormalizingService, StubService

#: The per-event canonicalize counters a memo hit must keep moving.
CANON_COUNTERS = (
    "canonicalized",
    "canonicalize_decoded",
    "canonicalize_failures",
    "canonicalize_truncated",
)

#: Normalizer cap of the :class:`NormalizingService` runs (small, so a
#: line at the cap is cheap to write).
STUB_MAX_LENGTH = 48

CORPUS = build_evasion_corpus(seed=0)


def stream_lines(max_length: int) -> list[str]:
    """Raw lines covering every front-end outcome, each at most *max_length*."""
    lines = [case.variant for case in CORPUS[::4]]
    lines += list(DEMO_BENIGN) + list(DEMO_MALICIOUS)
    lines += [
        "echo 'unterminated",  # dropped by the validator, a failure for the stub
        "   ",  # dropped everywhere
        "ls\u200b -la /tmp",  # Cf character deleted by the normalizer
        "cat /etc/sh\u00adadow\nid",  # soft hyphen + embedded newline
        "ls -l -a",  # flag order rewritten
        "echo '" + "a" * (max_length - 6),  # exactly at the cap, unparseable
    ]
    return [line for line in lines if len(line) <= max_length]


def events_for(lines):
    return [(line, f"host-{index % 3}", 1000.0 + index) for index, line in enumerate(lines)]


class CountingCall:
    def __init__(self, call):
        self.call = call
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.call(*args, **kwargs)


@contextmanager
def counting(obj, attr):
    """Shadow ``obj.attr`` with a call counter for the block's duration."""
    counter = CountingCall(getattr(obj, attr))
    setattr(obj, attr, counter)
    try:
        yield counter
    finally:
        delattr(obj, attr)


def front(runtime, raw):
    """The cache key the shard computes for *raw* (``None``: dropped)."""
    return runtime._front(raw)


def outcome(result):
    return (result.line, result.dropped, result.score, result.is_intrusion)


def canon_counts(metrics):
    return tuple(getattr(metrics, name) for name in CANON_COUNTERS)


@pytest.fixture(params=["demo", "normalizing-stub"])
def service(request, demo_service):
    if request.param == "demo":
        return demo_service
    return NormalizingService(STUB_MAX_LENGTH)


def make_server(service, cache=CacheConfig()):
    # compiled=False: the session-scoped demo service keeps its encoder
    config = ServingConfig(
        batch=BatchConfig(max_latency_ms=1),
        backend=BackendConfig(compiled=False),
        canonicalize=CanonicalizeConfig(enabled=True),
        cache=cache,
    )
    return DetectionServer(service, config)


def drive_twice(service, submit_pass):
    """Run the stream through *submit_pass* twice; count front-end calls."""
    events = events_for(stream_lines(service.normalizer.max_length))

    async def scenario():
        async with make_server(service) as server:
            runtime = server.shards[0]
            passes = []
            for _ in range(2):
                before = canon_counts(server.metrics)
                with counting(service, "preprocess") as pre, counting(
                    runtime.canonicalizer, "canonicalize"
                ) as canon:
                    results = await submit_pass(server, events)
                delta = tuple(
                    after - prior for after, prior in zip(canon_counts(server.metrics), before)
                )
                passes.append(([outcome(r) for r in results], delta, pre.calls, canon.calls))
            return passes, server.metrics

    return events, asyncio.run(scenario())


async def batch_pass(server, events):
    return await server.shards[0].process_batch(events)


async def per_event_pass(server, events):
    return [await server.submit(line, host=host, timestamp=when) for line, host, when in events]


@pytest.mark.parametrize("submit_pass", [batch_pass, per_event_pass], ids=["batch", "process"])
def test_second_pass_skips_the_canonicalizer(service, submit_pass):
    events, (passes, metrics) = drive_twice(service, submit_pass)
    (first, first_delta, first_pre, first_canon), (second, second_delta, pre, canon) = passes
    kept = [line for line in (service.preprocess(raw) for raw, _, _ in events) if line]
    distinct = len(set(kept))
    assert first_pre == pre == len(events)  # preprocess is never skipped
    assert first_canon == distinct and canon == 0
    assert second == first
    assert second_delta == first_delta
    assert metrics.front_memo_misses == distinct
    assert metrics.front_memo_hits == 2 * len(kept) - distinct
    # the stream exercises every outcome the memo stores specially
    assert any(dropped for _, dropped, _, _ in first)
    assert first_delta[0] > 0  # rewritten lines
    if isinstance(service, NormalizingService):
        assert first_delta[2] > 0 and first_delta[3] > 0  # failures, truncated
    else:
        assert first_delta[1] > 0  # decoded payloads


def test_memo_is_a_bounded_lru():
    runtime = make_server(StubService(), CacheConfig(size=4)).shards[0]
    for index in range(6):
        front(runtime, f"cmd {index}")
    assert list(runtime.front_memo) == [f"cmd {index}" for index in range(2, 6)]
    front(runtime, "cmd   2")  # a hit (same normalized line) refreshes recency
    front(runtime, "cmd 6")  # ... so the eviction takes cmd 3
    assert list(runtime.front_memo) == ["cmd 4", "cmd 5", "cmd 2", "cmd 6"]
    assert len(runtime.front_memo) <= runtime.cache.capacity


def test_zero_cache_size_stores_nothing():
    runtime = make_server(StubService(), CacheConfig(size=0)).shards[0]
    assert front(runtime, "ls -la") == front(runtime, "ls -la") == "ls -la"
    assert len(runtime.front_memo) == 0
    assert runtime.metrics.front_memo_misses == 2


def test_no_memo_without_a_canonicalizer():
    async def scenario():
        config = ServingConfig(batch=BatchConfig(max_latency_ms=1))
        async with DetectionServer(StubService(), config) as server:
            for _ in range(2):
                await server.submit_many(["ls -la", "ls  -la"])
            return server.shards[0]

    runtime = asyncio.run(scenario())
    assert runtime.canonicalizer is None and len(runtime.front_memo) == 0
    assert runtime.metrics.front_memo_hits == runtime.metrics.front_memo_misses == 0


def test_memo_keys_are_normalized_lines(demo_service):
    runtime = make_server(demo_service).shards[0]
    cap = demo_service.normalizer.max_length
    at_cap = "ls " + "a" * (cap - 3)
    assert front(runtime, at_cap) == at_cap
    assert front(runtime, at_cap + "a" * cap) == at_cap  # cut to the same key
    assert front(runtime, "ls\u200b -la") == front(runtime, "ls -la") == "ls -la"
    assert runtime.metrics.front_memo_misses == 2
    assert list(runtime.front_memo) == [at_cap, "ls -la"]
    assert max(map(len, runtime.front_memo)) <= cap


def test_compact_entries():
    runtime = make_server(NormalizingService(STUB_MAX_LENGTH)).shards[0]
    front(runtime, "ls -la")
    front(runtime, "   ")
    front(runtime, "ls -l -a")
    assert runtime.front_memo["ls -la"] == "ls -la"
    assert "" not in runtime.front_memo and "   " not in runtime.front_memo  # dropped
    key, result = runtime.front_memo["ls -l -a"]
    assert key == "ls -a -l" and result.changed


def test_hit_rate_is_reported():
    server = make_server(StubService())
    runtime = server.shards[0]
    for line in ("a", "b", "a", "a"):
        front(runtime, line)
    snapshot = server.metrics.snapshot()
    assert snapshot["front_memo_hits"] == 2
    assert snapshot["front_memo_misses"] == 2
    assert snapshot["front_memo_hit_rate"] == 0.5


# -- property: the memoized key is the front end's key -----------------------

printable_lines = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=120)
#: Format characters, control characters and newlines the normalizer removes.
invisible_laden_lines = st.text(
    alphabet=st.sampled_from(list("ls -a/'\"|#\n\r\t") + ["\u200b", "\ufeff", "\u00ad", "\u2060"]),
    max_size=60,
)
#: A redirect or control operator glued to a word that may start with ``#``.
operator_words = st.tuples(
    st.sampled_from(["", "cat ", "ls x ", "echo a"]),
    st.sampled_from(["<", ">", ">>", "2>", ">&", "|", "&&", ";"]),
    st.text(alphabet="#ab/.", max_size=4),
).map("".join)
corpus_lines = st.sampled_from([case.variant for case in CORPUS] + [case.base for case in CORPUS])


@pytest.fixture(scope="module")
def demo_front(demo_service):
    runtime = make_server(demo_service).shards[0]
    reference = Canonicalizer(truncation_length=demo_service.normalizer.max_length)

    def expected(raw):
        line = demo_service.preprocess(raw)
        return None if line is None else reference.canonicalize(line).text

    return runtime, expected


@given(st.one_of(printable_lines, invisible_laden_lines, operator_words, corpus_lines))
@settings(max_examples=300, deadline=None)
@example("ls\u200b -la\n/tmp")
@example("cat <#")
def test_memoized_key_is_the_front_end_key(demo_front, raw):
    runtime, expected = demo_front
    want = expected(raw)
    assert front(runtime, raw) == want
    assert front(runtime, raw) == want
    assert len(runtime.front_memo) <= runtime.cache.capacity
