"""Tests for alert sinks, the URI registry, and the severity bands."""

import json

import pytest

from repro.errors import ConfigError
from repro.serving import (
    AlertStatus,
    CallbackSink,
    DetectionAlert,
    JsonlSink,
    RingBufferSink,
    Severity,
    SinkRegistry,
    TcpSocketSink,
    WebhookSink,
    build_sink,
)


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


class TestSeverity:
    @pytest.mark.parametrize(
        ("score", "expected"),
        [
            (0.50, Severity.LOW),
            (0.60, Severity.LOW),
            (0.65, Severity.MEDIUM),
            (0.80, Severity.HIGH),
            (0.95, Severity.CRITICAL),
            (1.00, Severity.CRITICAL),
        ],
    )
    def test_bands_at_threshold_half(self, score, expected):
        assert Severity.from_score(score, 0.5) is expected

    def test_threshold_one_does_not_divide_by_zero(self):
        assert Severity.from_score(1.0, 1.0) is Severity.CRITICAL


class TestRingBufferSink:
    def test_keeps_most_recent(self):
        sink = RingBufferSink(capacity=2)
        for index in range(5):
            sink.emit(make_alert(alert_id=index))
        assert [a.alert_id for a in sink.alerts] == [3, 4]
        assert sink.emitted == 5


class TestBatchProtocol:
    def test_emit_many_default_loops_over_emit(self):
        ring = RingBufferSink()
        ring.emit_many([make_alert(alert_id=1), make_alert(alert_id=2)])
        assert [a.alert_id for a in ring.alerts] == [1, 2]
        assert ring.emitted == 2

    def test_open_and_flush_default_to_noops(self):
        ring = RingBufferSink()
        ring.open()
        ring.flush()


class TestJsonlSink:
    def test_round_trips_alert_fields(self, tmp_path):
        path = tmp_path / "alerts" / "out.jsonl"
        sink = JsonlSink(path)
        sink.emit(make_alert(score=0.93))
        sink.emit(make_alert(alert_id=2, score=0.55))
        sink.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 2
        assert records[0]["severity"] == "critical"
        assert records[0]["status"] == "open"
        assert records[1]["alert_id"] == 2

    def test_close_without_emit_is_fine(self, tmp_path):
        JsonlSink(tmp_path / "never.jsonl").close()

    def test_each_batch_is_flushed_to_disk_before_close(self, tmp_path):
        """An alert the sink acknowledged must survive a crash: the file
        is readable after every emit batch, without any close()."""
        path = tmp_path / "out.jsonl"
        sink = JsonlSink(path)
        sink.emit(make_alert(alert_id=1))
        assert len(path.read_text().splitlines()) == 1
        sink.emit_many([make_alert(alert_id=2), make_alert(alert_id=3)])
        assert len(path.read_text().splitlines()) == 3
        sink.close()


class TestSinkUriRegistry:
    def test_ring_uri_with_capacity(self):
        sink = build_sink("ring://512")
        assert isinstance(sink, RingBufferSink)
        assert sink._ring.maxlen == 512

    def test_ring_uri_default_capacity(self):
        assert build_sink("ring://")._ring.maxlen == 1024

    @pytest.mark.parametrize("uri", ["ring://zero", "ring://0", "ring://-5"])
    def test_ring_uri_bad_capacity(self, uri):
        with pytest.raises(ConfigError, match="positive integer"):
            build_sink(uri)

    def test_jsonl_uri_absolute_path(self, tmp_path):
        sink = build_sink(f"jsonl://{tmp_path}/alerts/out.jsonl")
        assert isinstance(sink, JsonlSink)
        assert str(sink.path) == f"{tmp_path}/alerts/out.jsonl"

    def test_jsonl_uri_relative_path(self):
        assert str(build_sink("jsonl://alerts.jsonl").path) == "alerts.jsonl"

    def test_jsonl_uri_without_path_rejected(self):
        with pytest.raises(ConfigError, match="file path"):
            build_sink("jsonl://")

    def test_webhook_uri_builds_http_url(self):
        sink = build_sink("webhook://siem.example:8080/hooks/alerts?team=soc")
        assert isinstance(sink, WebhookSink)
        assert sink.url == "http://siem.example:8080/hooks/alerts?team=soc"

    def test_webhook_uri_defaults_root_path(self):
        assert build_sink("webhook://siem:8080").url == "http://siem:8080/"

    def test_webhook_uri_needs_host(self):
        with pytest.raises(ConfigError, match="host"):
            build_sink("webhook:///hooks")

    def test_tcp_uri_builds_socket_sink(self):
        sink = build_sink("tcp://collector.example:9000")
        assert isinstance(sink, TcpSocketSink)
        assert (sink.host, sink.port) == ("collector.example", 9000)

    @pytest.mark.parametrize("uri", ["tcp://collector", "tcp://collector:http"])
    def test_tcp_uri_needs_numeric_port(self, uri):
        with pytest.raises(ConfigError, match="port"):
            build_sink(uri)

    def test_webhook_https_variant(self):
        sink = build_sink("webhook+https://siem.example/alerts")
        assert sink.url == "https://siem.example/alerts"

    def test_unknown_scheme_lists_known_ones(self):
        with pytest.raises(ConfigError) as excinfo:
            build_sink("kafka://broker:9092")
        assert "known schemes: jsonl, ring, tcp, webhook, webhook+https" in str(
            excinfo.value
        )

    def test_scheme_is_case_insensitive(self):
        assert isinstance(build_sink("RING://8"), RingBufferSink)

    def test_custom_scheme_registration(self):
        registry = SinkRegistry()
        registry.register("null", lambda parts, uri: CallbackSink(lambda alert: None))
        assert isinstance(build_sink("null://", registry=registry), CallbackSink)
        with pytest.raises(ConfigError):  # custom registry has only null://
            build_sink("ring://8", registry=registry)


class TestCallbackSink:
    def test_invokes_callback(self):
        seen = []
        sink = CallbackSink(seen.append)
        sink.emit(make_alert())
        assert len(seen) == 1
        assert sink.emitted == 1


class TestTcpSocketSinkReconnect:
    """The flapping-collector contract: a send failure costs retries
    inside the sink (with capped exponential backoff), not the batch."""

    def test_refused_connections_are_retried_with_backoff(self, monkeypatch):
        import socket as socket_module

        server_side, client_side = socket_module.socketpair()
        attempts = []

        def create_connection(address, timeout=None):
            attempts.append(address)
            if len(attempts) < 3:
                raise ConnectionRefusedError("collector restarting")
            return client_side

        sleeps = []
        monkeypatch.setattr(
            "repro.serving.sinks.socket.create_connection", create_connection
        )
        monkeypatch.setattr("repro.serving.sinks.time.sleep", sleeps.append)

        sink = TcpSocketSink(
            "collector", 9000, max_attempts=4, backoff_ms=10.0, max_backoff_ms=15.0
        )
        try:
            sink.emit_many([make_alert(alert_id=1), make_alert(alert_id=2)])
            payload = server_side.recv(65536)
        finally:
            sink.close()
            server_side.close()

        assert len(attempts) == 3  # refused, refused, connected
        assert sink.emitted == 2 and sink.reconnects == 1
        # exponential, then capped: 10ms, then min(20, 15)ms
        assert sleeps == [0.010, 0.015]
        lines = [json.loads(line) for line in payload.decode().splitlines()]
        assert [line["alert_id"] for line in lines] == [1, 2]

    def test_flapping_server_costs_a_reconnect_not_the_batch(self):
        """Against a real socket server that RST-closes after one batch."""
        import socket as socket_module
        import struct
        import threading

        listener = socket_module.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        port = listener.getsockname()[1]
        received = []
        first_conn_closed = threading.Event()

        def serve():
            # connection 1: read one batch, then slam the door with an
            # RST (SO_LINGER 0) — the flap
            conn, _ = listener.accept()
            received.append(conn.recv(65536))
            conn.setsockopt(
                socket_module.SOL_SOCKET,
                socket_module.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
            conn.close()
            first_conn_closed.set()
            # connection 2: the reconnect; read until the client closes
            conn, _ = listener.accept()
            while chunk := conn.recv(65536):
                received.append(chunk)
            conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()

        sink = TcpSocketSink("127.0.0.1", port, backoff_ms=5.0)
        try:
            sink.emit_many([make_alert(alert_id=1)])
            assert first_conn_closed.wait(5.0)
            import time as time_module

            time_module.sleep(0.05)  # let the RST reach our socket
            sink.emit_many([make_alert(alert_id=2)])  # must not raise
        finally:
            sink.close()
            thread.join(timeout=5.0)
            listener.close()

        assert sink.emitted == 2
        assert sink.reconnects == 1  # the flap is visible, the batch was not lost
        lines = [
            json.loads(line)
            for chunk in received
            for line in chunk.decode().splitlines()
        ]
        assert [line["alert_id"] for line in lines] == [1, 2]

    def test_exhausted_attempts_surface_the_error(self, monkeypatch):
        def always_refused(address, timeout=None):
            raise ConnectionRefusedError("collector gone")

        monkeypatch.setattr(
            "repro.serving.sinks.socket.create_connection", always_refused
        )
        monkeypatch.setattr("repro.serving.sinks.time.sleep", lambda delay: None)
        sink = TcpSocketSink("collector", 9000, max_attempts=3, backoff_ms=1.0)
        with pytest.raises(OSError):
            sink.emit_many([make_alert()])
        # the batch was not half-counted: the pipeline retries it intact
        assert sink.emitted == 0
