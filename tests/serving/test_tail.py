"""Live-tail regression tests: events must be served before EOF.

The ROADMAP bug: ``repro-ids serve --input -`` used to read the stream
to EOF before serving, so an unbounded pipe (``tail -f | repro-ids
serve``) never produced a single verdict.  These tests feed the server
through a real ``os.pipe`` and prove events are scored while the write
end is still open.
"""

import os

import pytest
import threading

from repro.serving import BatchConfig, DetectionServer, ServingConfig, tail_stream
from repro.serving.cli import parse_event

#: Flush a micro-batch after 5 ms instead of 25.
FAST = ServingConfig(batch=BatchConfig(max_latency_ms=5))


class TestTailStream:
    def test_events_served_before_eof(self, stub_service):
        """The writer holds the pipe open until the first event's result
        arrives — impossible under read-to-EOF semantics (it would
        deadlock; the wait below would time out instead)."""
        read_fd, write_fd = os.pipe()
        reader = os.fdopen(read_fd, "r")
        writer = os.fdopen(write_fd, "w")
        first_result_seen = threading.Event()
        served_before_eof = []

        def feed():
            writer.write("evil first\n")
            writer.flush()
            served_before_eof.append(first_result_seen.wait(timeout=10.0))
            writer.write("ls -la\n")
            writer.close()

        feeder = threading.Thread(target=feed)
        feeder.start()
        server = DetectionServer(stub_service, FAST)
        results = tail_stream(
            server,
            reader,
            concurrency=2,
            on_result=lambda result: first_result_seen.set(),
        )
        feeder.join(timeout=10.0)

        assert served_before_eof == [True], "first event must be scored before EOF"
        assert [r.raw_line for r in results] == ["evil first", "ls -la"]
        assert results[0].is_intrusion and not results[1].is_intrusion
        assert server.metrics.events_total == 2

    def test_limit_stops_an_unbounded_pipe(self, stub_service):
        """With --limit, the tail returns even though the writer never
        closes its end."""
        read_fd, write_fd = os.pipe()
        reader = os.fdopen(read_fd, "r")
        writer = os.fdopen(write_fd, "w")

        def feed():
            for index in range(50):  # far more than the limit
                writer.write(f"cmd {index}\n")
                writer.flush()

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        try:
            results = tail_stream(
                DetectionServer(stub_service, FAST), reader, concurrency=2, limit=3
            )
        finally:
            try:
                writer.close()
            except BrokenPipeError:
                pass
        assert [r.raw_line for r in results] == ["cmd 0", "cmd 1", "cmd 2"]

    def test_blank_lines_and_json_events_with_cli_parser(self, stub_service):
        read_fd, write_fd = os.pipe()
        reader = os.fdopen(read_fd, "r")
        with os.fdopen(write_fd, "w") as writer:
            writer.write("\n")
            writer.write('{"line": "evil json", "host": "web-7"}\n')
            writer.write("   \n")
            writer.write("plain line\n")
        results = tail_stream(
            DetectionServer(stub_service, FAST), reader, concurrency=2, parse=parse_event
        )
        assert [(r.raw_line, r.host) for r in results] == [
            ("evil json", "web-7"),
            ("plain line", "-"),
        ]

    def test_broken_stream_fails_loudly(self, stub_service):
        """A reader-side failure (decode error, raising parse) must not
        masquerade as a clean partial run."""
        read_fd, write_fd = os.pipe()
        reader = os.fdopen(read_fd, "r")
        with os.fdopen(write_fd, "w") as writer:
            writer.write("fine\nboom\nnever reached\n")

        def explosive_parse(text):
            if "boom" in text:
                raise ValueError("unparseable input record")
            return parse_event(text)

        with pytest.raises(ValueError, match="unparseable"):
            tail_stream(DetectionServer(stub_service, FAST), reader, parse=explosive_parse)

    def test_zero_limit_returns_immediately(self, stub_service):
        read_fd, write_fd = os.pipe()
        reader = os.fdopen(read_fd, "r")
        writer = os.fdopen(write_fd, "w")
        try:
            results = tail_stream(DetectionServer(stub_service, FAST), reader, limit=0)
            assert results == []
        finally:
            writer.close()


class TestServeMainTail:
    def test_stdin_is_tailed_not_buffered(self, demo_service, monkeypatch, capsys, tmp_path):
        """serve_main --input - goes through the tail path and a bounded
        pipe still produces the full report."""
        import sys

        from repro.serving.cli import serve_main

        monkeypatch.setattr("repro.serving.demo.build_demo_service", lambda: demo_service)
        read_fd, write_fd = os.pipe()
        reader = os.fdopen(read_fd, "r")
        with os.fdopen(write_fd, "w") as writer:
            writer.write("nc -lvnp 4444\nls -la /tmp\n")
        monkeypatch.setattr(sys, "stdin", reader)

        code = serve_main(["--input", "-", "--max-latency-ms", "5"])

        assert code == 0
        output = capsys.readouterr().out
        assert "processed 2 events" in output
        assert "serving metrics" in output
