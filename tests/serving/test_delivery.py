"""Tests for the durable delivery pipeline: per-sink queues, retries,
backpressure, dead-letters, and the zero-silent-drops invariant."""

import http.server
import json
import socketserver
import threading
import time

import pytest

from repro.serving import (
    AlertStatus,
    CallbackSink,
    DeliveryPipeline,
    DeliveryPolicy,
    DetectionAlert,
    RingBufferSink,
    Severity,
    TcpSocketSink,
    WebhookSink,
)
from repro.serving.sinks import AlertSink, ensure_sink


def make_alert(alert_id=1, score=0.9, host="web-1"):
    return DetectionAlert(
        alert_id=alert_id,
        event_id=alert_id,
        host=host,
        line="nc -lvnp 4444",
        score=score,
        severity=Severity.from_score(score, 0.5),
        status=AlertStatus.OPEN,
        timestamp=1000.0,
    )


FAST_RETRY = dict(backoff_ms=1.0, backoff_multiplier=1.0, max_backoff_ms=5.0)


class FlakySink(AlertSink):
    """Fails the first *failures* emit attempts, then succeeds."""

    def __init__(self, failures):
        self.failures = failures
        self.attempts = 0
        self.delivered = []

    def emit_many(self, alerts):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise OSError("sink unavailable")
        self.delivered.extend(alerts)

    def emit(self, alert):
        self.emit_many([alert])


class TestPipelineBasics:
    def test_delivers_to_all_sinks_in_order(self):
        ring_a, ring_b = RingBufferSink(), RingBufferSink()
        pipeline = DeliveryPipeline([ring_a, ring_b])
        for index in range(5):
            pipeline.emit(make_alert(alert_id=index))
        pipeline.close()
        assert [a.alert_id for a in ring_a.alerts] == list(range(5))
        assert [a.alert_id for a in ring_b.alerts] == list(range(5))
        assert pipeline.delivered == 10
        assert pipeline.failures == {}

    def test_stats_keyed_per_instance_not_per_class(self):
        def explode(alert):
            raise OSError("boom")

        pipeline = DeliveryPipeline()
        pipeline.add(CallbackSink(explode), DeliveryPolicy(max_retries=0))
        pipeline.add(CallbackSink(lambda alert: None), DeliveryPolicy(max_retries=0))
        pipeline.emit(make_alert())
        pipeline.close()
        stats = pipeline.stats()
        assert set(stats) == {"CallbackSink[0]", "CallbackSink[1]"}
        assert stats["CallbackSink[0]"].dead_lettered == 1
        assert stats["CallbackSink[1]"].delivered == 1
        assert pipeline.failures == {"CallbackSink[0]": 1}

    def test_duplicate_explicit_names_are_uniquified(self):
        pipeline = DeliveryPipeline()
        assert pipeline.add(RingBufferSink(), name="siem") == "siem"
        assert pipeline.add(RingBufferSink(), name="siem") == "siem#2"

    def test_emit_only_object_is_rejected(self):
        class EmitOnly:  # not an AlertSink subclass at all
            def emit(self, alert):
                pass

        pipeline = DeliveryPipeline()
        with pytest.raises(TypeError, match="not an alert sink"):
            pipeline.add(EmitOnly())
        assert pipeline.sinks == []

    def test_ensure_sink_rejects_non_sinks(self):
        with pytest.raises(TypeError, match="not an alert sink"):
            ensure_sink(object())

    def test_restart_after_close(self):
        ring = RingBufferSink()
        pipeline = DeliveryPipeline([ring])
        pipeline.emit(make_alert(alert_id=1))
        pipeline.close()
        pipeline.emit(make_alert(alert_id=2))  # lazily restarts the worker
        pipeline.close()
        assert [a.alert_id for a in ring.alerts] == [1, 2]
        assert pipeline.delivered == 2


class TestRetryAndDeadLetter:
    def test_transient_failures_are_retried_to_success(self):
        flaky = FlakySink(failures=2)
        pipeline = DeliveryPipeline()
        pipeline.add(flaky, DeliveryPolicy(max_retries=3, **FAST_RETRY), name="flaky")
        pipeline.emit(make_alert())
        pipeline.flush()
        stats = pipeline.stats()["flaky"]
        assert [a.alert_id for a in flaky.delivered] == [1]
        assert stats.delivered == 1
        assert stats.retries == 2
        assert stats.dead_lettered == 0
        pipeline.close()

    def test_exhausted_retries_dead_letter_with_payload(self, tmp_path):
        dead = tmp_path / "letters" / "dead.jsonl"
        flaky = FlakySink(failures=100)
        pipeline = DeliveryPipeline()
        pipeline.add(
            flaky,
            DeliveryPolicy(max_retries=2, dead_letter_path=str(dead), **FAST_RETRY),
            name="doomed",
        )
        pipeline.emit(make_alert(alert_id=7))
        pipeline.close()
        stats = pipeline.stats()["doomed"]
        assert stats.dead_lettered == 1
        assert flaky.attempts == 3  # 1 first try + 2 retries
        records = [json.loads(line) for line in dead.read_text().splitlines()]
        assert records[0]["sink"] == "doomed"
        assert "sink unavailable" in records[0]["error"]
        assert records[0]["alert"]["alert_id"] == 7

    def test_dead_letter_without_path_is_counted_not_silent(self):
        pipeline = DeliveryPipeline()
        pipeline.add(FlakySink(failures=100), DeliveryPolicy(max_retries=0), name="lossy")
        pipeline.emit(make_alert())
        pipeline.close()
        assert pipeline.dead_lettered == 1
        assert pipeline.failures == {"lossy": 1}

    def test_backoff_grows_exponentially_and_caps(self):
        sleeps = []
        flaky = FlakySink(failures=4)
        pipeline = DeliveryPipeline()
        pipeline.add(
            flaky,
            DeliveryPolicy(
                max_retries=4, backoff_ms=10.0, backoff_multiplier=2.0, max_backoff_ms=25.0
            ),
            name="flaky",
        )
        worker = pipeline._workers[0]
        original_sleep = time.sleep
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                "repro.serving.delivery.time.sleep",
                lambda s: (sleeps.append(s), original_sleep(0))[1],
            )
            pipeline.emit(make_alert())
            pipeline.flush()
        pipeline.close()
        assert worker.stats.delivered == 1
        assert sleeps == [
            pytest.approx(0.010),
            pytest.approx(0.020),
            pytest.approx(0.025),  # capped at max_backoff_ms
            pytest.approx(0.025),
        ]


class TestBackpressure:
    def test_block_policy_loses_nothing(self):
        slow_seen = []

        class SlowSink(AlertSink):
            def emit_many(self, alerts):
                time.sleep(0.002)
                slow_seen.extend(alerts)

        pipeline = DeliveryPipeline()
        pipeline.add(SlowSink(), DeliveryPolicy(queue_size=2, on_full="block"), name="slow")
        for index in range(50):
            pipeline.emit(make_alert(alert_id=index))
        pipeline.close()
        assert len(slow_seen) == 50
        assert pipeline.stats()["slow"].dropped == 0

    def test_drop_policy_sheds_and_counts(self):
        release = threading.Event()

        class GatedSink(AlertSink):
            def __init__(self):
                self.seen = []

            def emit_many(self, alerts):
                release.wait(5.0)
                self.seen.append(list(alerts))

        gated = GatedSink()
        pipeline = DeliveryPipeline()
        pipeline.add(gated, DeliveryPolicy(queue_size=1, on_full="drop"), name="gated")
        pipeline.start()
        # worker grabs the first alert and parks on the gate; the queue
        # (capacity 1) then fills and further emits must shed
        pipeline.emit(make_alert(alert_id=0))
        deadline = time.monotonic() + 5.0
        while not pipeline._workers[0]._queue.empty() and time.monotonic() < deadline:
            time.sleep(0.001)
        pipeline.emit(make_alert(alert_id=1))  # fills the queue
        pipeline.emit(make_alert(alert_id=2))  # must drop
        pipeline.emit(make_alert(alert_id=3))  # must drop
        release.set()
        pipeline.close()
        stats = pipeline.stats()["gated"]
        assert stats.dropped == 2
        assert stats.delivered == 2
        # accounting is complete: nothing vanished silently
        assert stats.submitted == stats.delivered + stats.dead_lettered + stats.dropped


class _FlakyWebhookHandler(http.server.BaseHTTPRequestHandler):
    """Fails every other POST with a 500 — the injected 50%-failure SIEM."""

    received = None  # set per-server
    counter = None

    def do_POST(self):  # noqa: N802 (stdlib naming)
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length).decode("utf-8"))
        self.counter.append(1)
        if len(self.counter) % 2 == 1:
            self.send_response(500)
            self.end_headers()
            return
        self.received.extend(body)
        self.send_response(200)
        self.end_headers()

    def log_message(self, *args):  # keep test output clean
        pass


@pytest.fixture
def flaky_webhook():
    received, counter = [], []
    handler = type(
        "Handler", (_FlakyWebhookHandler,), {"received": received, "counter": counter}
    )
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/alerts", received
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)


class TestWebhookDelivery:
    def test_fifty_percent_failure_webhook_loses_nothing(self, flaky_webhook, tmp_path):
        """Acceptance: with 50% injected failures every alert is delivered
        (retries) or dead-lettered — zero silent drops."""
        url, received = flaky_webhook
        dead = tmp_path / "dead.jsonl"
        pipeline = DeliveryPipeline()
        pipeline.add(
            WebhookSink(url, timeout=5.0),
            DeliveryPolicy(
                queue_size=64,
                on_full="block",
                max_retries=3,
                dead_letter_path=str(dead),
                **FAST_RETRY,
            ),
            name="siem",
        )
        total = 40
        for index in range(total):
            pipeline.emit(make_alert(alert_id=index))
        pipeline.close()

        stats = pipeline.stats()["siem"]
        assert stats.submitted == total
        assert stats.retries > 0  # the 50% failures really bit
        delivered_ids = {record["alert_id"] for record in received}
        dead_ids = (
            {json.loads(line)["alert"]["alert_id"] for line in dead.read_text().splitlines()}
            if dead.exists()
            else set()
        )
        # no silent drops: every alert is accounted for exactly once
        assert delivered_ids | dead_ids == set(range(total))
        assert delivered_ids & dead_ids == set()
        assert stats.delivered == len(delivered_ids)
        assert stats.dead_lettered == len(dead_ids)
        assert stats.dropped == 0
        # an alternating 50% failure always succeeds within 3 retries
        assert dead_ids == set()

    def test_webhook_sink_posts_json_array(self, flaky_webhook):
        url, received = flaky_webhook
        sink = WebhookSink(url, timeout=5.0)
        with pytest.raises(Exception):  # first request is injected to fail
            sink.emit_many([make_alert(alert_id=1)])
        sink.emit_many([make_alert(alert_id=1), make_alert(alert_id=2)])
        assert [record["alert_id"] for record in received] == [1, 2]
        assert sink.emitted == 2
        assert sink.requests == 2


class TestTcpDelivery:
    def test_tcp_sink_streams_ndjson(self):
        chunks = []
        done = threading.Event()

        class Collector(socketserver.StreamRequestHandler):
            def handle(self):
                for raw in self.rfile:
                    chunks.append(raw.decode("utf-8"))
                done.set()

        server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Collector)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            sink = TcpSocketSink("127.0.0.1", server.server_address[1], timeout=5.0)
            pipeline = DeliveryPipeline()
            pipeline.add(sink, DeliveryPolicy(max_retries=2, **FAST_RETRY), name="tcp")
            pipeline.emit(make_alert(alert_id=1))
            pipeline.emit(make_alert(alert_id=2))
            pipeline.close()  # closes the socket → collector sees EOF
            assert done.wait(5.0)
            records = [json.loads(chunk) for chunk in chunks]
            assert [record["alert_id"] for record in records] == [1, 2]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

    def test_connection_refused_dead_letters(self, tmp_path):
        # grab a port with nothing listening on it
        import socket as socket_mod

        probe = socket_mod.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        dead = tmp_path / "dead.jsonl"
        pipeline = DeliveryPipeline()
        pipeline.add(
            TcpSocketSink("127.0.0.1", port, timeout=0.2),
            DeliveryPolicy(max_retries=1, dead_letter_path=str(dead), **FAST_RETRY),
            name="refused",
        )
        pipeline.emit(make_alert())
        pipeline.close()
        assert pipeline.stats()["refused"].dead_lettered == 1
        assert dead.exists()
