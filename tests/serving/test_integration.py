"""End-to-end serving tests against the real (miniature) trained service."""

import json

from repro.serving import (
    BatchConfig,
    DetectionServer,
    RingBufferSink,
    ServingConfig,
    SessionConfig,
    serve_stream,
)
from repro.serving.cli import parse_event, serve_main
from repro.serving.demo import DEMO_BENIGN, DEMO_MALICIOUS
from tests.serving.conftest import THREADED_WORKERS


class TestStreamingAgainstRealService:
    def test_stream_matches_batch_inspect(self, demo_service):
        lines = DEMO_BENIGN[:4] + DEMO_MALICIOUS[:2]
        server = DetectionServer(demo_service, ServingConfig(batch=BatchConfig(max_latency_ms=10)))
        results = serve_stream(server, lines, concurrency=3)
        batch = demo_service.inspect(lines)
        for streamed, offline in zip(results, batch):
            assert streamed.line == offline.line
            assert abs(streamed.score - offline.score) < 1e-9
            assert streamed.is_intrusion == offline.is_intrusion

    def test_alerts_fan_out_for_malicious_stream(self, demo_service):
        ring = RingBufferSink()
        stream = [line for line in DEMO_MALICIOUS for _ in range(3)]
        config = ServingConfig(
            batch=BatchConfig(max_latency_ms=10),
            session=SessionConfig(window_seconds=1e9, escalation_threshold=4),
        )
        server = DetectionServer(demo_service, config, sinks=[ring])
        serve_stream(server, stream, concurrency=4)
        assert server.metrics.alerts == ring.emitted
        assert server.metrics.alerts >= len(DEMO_MALICIOUS)  # repeats hit the cache but still alert
        assert server.metrics.cache_hits > 0
        assert server.sessions.escalated_hosts() == ["-"]


class TestParseEvent:
    def test_plain_line(self):
        event = parse_event("ls -la /tmp\n")
        assert event.line == "ls -la /tmp"
        assert event.host == "-"
        assert event.timestamp is None

    def test_json_line(self):
        event = parse_event('{"line": "nc -lvnp 4444", "host": "web-3", "timestamp": 17.5}')
        assert event.line == "nc -lvnp 4444"
        assert event.host == "web-3"
        assert event.timestamp == 17.5

    def test_blank_line_skipped(self):
        assert parse_event("   \n") is None

    def test_malformed_json_treated_as_raw_line(self):
        event = parse_event('{"line": broken')
        assert event.line == '{"line": broken'

    def test_non_numeric_timestamp_ignored(self):
        event = parse_event('{"line": "ls", "timestamp": "not-a-number"}')
        assert event.line == "ls"
        assert event.timestamp is None

    def test_wrong_typed_timestamp_ignored(self):
        event = parse_event('{"line": "ls", "timestamp": [1, 2]}')
        assert event.timestamp is None


class TestServeCli:
    def test_serve_end_to_end(self, demo_service, tmp_path, capsys, monkeypatch):
        # skip the in-test training: reuse the session's demo service
        # (undoing the serving-config recording serve_main attaches to it,
        # so the session-scoped fixture doesn't leak this deployment)
        monkeypatch.setattr("repro.serving.demo.build_demo_service", lambda: demo_service)
        monkeypatch.setattr(demo_service, "serving_config", None)
        bundle_free_input = tmp_path / "telemetry.log"
        events = [json.dumps({"line": line, "host": "web-1", "timestamp": float(i)})
                  for i, line in enumerate(DEMO_BENIGN * 2 + DEMO_MALICIOUS * 2)]
        bundle_free_input.write_text("\n".join(events) + "\n")
        alerts_out = tmp_path / "alerts.jsonl"

        code = serve_main(
            [
                "--input", str(bundle_free_input),
                "--alerts-out", str(alerts_out),
                "--max-batch", "8",
                "--max-latency-ms", "10",
            ]
        )

        assert code == 0
        output = capsys.readouterr().out
        assert "serving metrics" in output
        assert "ALERT" in output
        records = [json.loads(line) for line in alerts_out.read_text().splitlines()]
        assert records, "malicious lines must produce JSONL alerts"
        assert all(record["host"] == "web-1" for record in records)

    def test_serve_with_saved_bundle(self, demo_service, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        demo_service.save(bundle)
        stream = tmp_path / "input.log"
        stream.write_text("\n".join(DEMO_MALICIOUS) + "\n")

        code = serve_main(
            ["--input", str(stream), "--bundle", str(bundle), "--quiet", "--max-latency-ms", "10"]
        )

        assert code == 0
        output = capsys.readouterr().out
        assert "training a small demo service" not in output
        assert "serving metrics" in output

    def test_serve_with_threaded_workers(self, demo_bundle, tmp_path, capsys):
        """--backend threaded --workers N shards scoring across threads end to end."""
        stream = tmp_path / "input.log"
        stream.write_text("\n".join((DEMO_BENIGN + DEMO_MALICIOUS) * 2) + "\n")

        code = serve_main(
            [
                "--input", str(stream),
                "--bundle", demo_bundle,
                "--backend", "threaded",
                "--workers", str(THREADED_WORKERS),
                "--quiet",
                "--max-latency-ms", "10",
            ]
        )

        assert code == 0
        output = capsys.readouterr().out
        assert f"threaded(workers={THREADED_WORKERS})" in output
        assert "serving metrics" in output

    def test_serve_rejects_bad_workers(self, capsys):
        code = serve_main(["--workers", "0", "--input", "/dev/null"])
        assert code == 2
        # several workers need the threaded backend: inline has one lane
        code = serve_main(["--workers", "2", "--input", "/dev/null"])
        assert code == 2
        assert "needs backend.kind 'threaded'" in capsys.readouterr().err

    def test_serve_rejects_bad_config_file(self, tmp_path, capsys):
        config = tmp_path / "serve.toml"
        config.write_text("[batch]\nmax_batchh = 4\n")
        code = serve_main(["--config", str(config), "--input", "/dev/null"])
        assert code == 2
        assert "did you mean 'max_batch'" in capsys.readouterr().err


class TestServeCliConfig:
    def test_print_config_round_trips_resolved_config(self, capsys):
        """Acceptance: --print-config output parses back to an equal config."""
        code = serve_main(["--config", "examples/serve.toml", "--print-config"])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert ServingConfig.from_dict(printed) == ServingConfig.from_file(
            "examples/serve.toml"
        )

    def test_flags_override_config_file(self, capsys):
        code = serve_main(
            [
                "--config", "examples/serve.toml",
                "--max-batch", "64",
                "--cache-size", "512",
                "--workers", "3",
                "--backend", "threaded",
                "--sink", "ring://7",
                "--print-config",
            ]
        )
        assert code == 0
        resolved = ServingConfig.from_dict(json.loads(capsys.readouterr().out))
        base = ServingConfig.from_file("examples/serve.toml")
        assert resolved.batch.max_batch == 64
        assert resolved.batch.max_latency_ms == base.batch.max_latency_ms  # kept
        assert resolved.cache.size == 512
        assert resolved.backend.workers == 3
        assert resolved.backend.kind == "threaded"
        assert [spec.uri for spec in resolved.sinks] == [
            *[spec.uri for spec in base.sinks],
            "ring://7",
        ]

    def test_alerts_out_path_survives_uri_special_characters(self, capsys):
        """'#', '?', '%', and spaces in --alerts-out must reach the sink
        verbatim, not be eaten by URI parsing."""
        from repro.serving import build_sink

        tricky = "alerts #1 100%?.jsonl"
        code = serve_main(["--alerts-out", tricky, "--print-config"])
        assert code == 0
        resolved = ServingConfig.from_dict(json.loads(capsys.readouterr().out))
        spec = resolved.sinks[-1]
        assert spec.name == "alerts-out"
        assert str(build_sink(spec.uri).path) == tricky

    def test_print_config_without_file_shows_defaults_plus_overrides(self, capsys):
        code = serve_main(["--escalate-after", "9", "--print-config"])
        assert code == 0
        resolved = ServingConfig.from_dict(json.loads(capsys.readouterr().out))
        assert resolved.session.escalation_threshold == 9
        assert resolved.batch == ServingConfig().batch

    def test_serve_example_config_end_to_end(
        self, demo_service, tmp_path, capsys, monkeypatch
    ):
        """The example deployment boots a real server: events stream, the
        jsonl:// sink lands alerts on disk, delivery stats report."""
        monkeypatch.setattr("repro.serving.demo.build_demo_service", lambda: demo_service)
        monkeypatch.setattr(demo_service, "serving_config", None)  # no fixture leak
        config = str(_repo_root() / "examples" / "serve.toml")
        stream = tmp_path / "input.log"
        stream.write_text("\n".join(DEMO_MALICIOUS * 2) + "\n")
        monkeypatch.chdir(tmp_path)  # serve.toml's jsonl:// path is relative

        code = serve_main(["--config", config, "--input", str(stream), "--quiet"])

        assert code == 0
        output = capsys.readouterr().out
        assert "serving metrics" in output
        assert "alert delivery" in output
        assert "siem-handoff" in output
        records = [
            json.loads(line) for line in (tmp_path / "alerts.jsonl").read_text().splitlines()
        ]
        assert records, "malicious lines must land in the configured jsonl sink"

    def test_session_flags_override_config_file(self, capsys):
        code = serve_main(
            [
                "--session-mode", "sequence",
                "--sequence-threshold", "0.7",
                "--context-window", "5",
                "--context-max-gap", "60",
                "--max-hosts", "1000",
                "--print-config",
            ]
        )
        assert code == 0
        resolved = ServingConfig.from_dict(json.loads(capsys.readouterr().out))
        assert resolved.session.mode == "sequence"
        assert resolved.session.sequence_threshold == 0.7
        assert resolved.session.context_window == 5
        assert resolved.session.context_max_gap_seconds == 60.0
        assert resolved.session.max_hosts == 1000
        assert resolved.session.window_seconds == 300.0  # untouched default

    def test_serve_sequence_mode_with_two_stage_bundle(
        self, two_stage_demo_service, tmp_path, capsys
    ):
        """End to end: a two-stage bundle loads and serves both stages —
        the victim host escalates on its composed command window while a
        benign host stays quiet."""
        bundle = tmp_path / "bundle"
        two_stage_demo_service.save(bundle)
        events = [
            json.dumps({"line": line, "host": "victim", "timestamp": float(i * 20)})
            for i, line in enumerate(DEMO_MALICIOUS)
        ] + [
            json.dumps({"line": line, "host": "dev-1", "timestamp": float(i * 20 + 5)})
            for i, line in enumerate(DEMO_BENIGN)
        ]
        stream = tmp_path / "input.log"
        stream.write_text("\n".join(events) + "\n")

        code = serve_main(
            [
                "--input", str(stream),
                "--bundle", str(bundle),
                "--session-mode", "sequence",
                "--sequence-threshold", "0.7",
                "--escalate-after", "99",  # the count trigger stays out of reach
                "--max-latency-ms", "10",
            ]
        )

        assert code == 0
        output = capsys.readouterr().out
        assert "escalated hosts: victim" in output
        assert "dev-1" not in output.split("escalated hosts:")[1].splitlines()[0]
        assert "seq=" in output  # console alerts carry the sequence score

    def test_serve_sequence_mode_rejects_single_stage_bundle(
        self, demo_service, tmp_path, capsys
    ):
        bundle = tmp_path / "bundle"
        demo_service.save(bundle)
        stream = tmp_path / "input.log"
        stream.write_text("ls -la\n")
        code = serve_main(
            ["--input", str(stream), "--bundle", str(bundle), "--session-mode", "sequence"]
        )
        assert code == 2
        assert "multi-line head" in capsys.readouterr().err

    def test_serve_records_config_into_bundle(self, demo_service, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        demo_service.save(bundle)
        stream = tmp_path / "input.log"
        stream.write_text("ls -la\n")

        code = serve_main(
            ["--input", str(stream), "--bundle", str(bundle), "--quiet",
             "--max-latency-ms", "10", "--escalate-after", "7"]
        )
        assert code == 0
        capsys.readouterr()  # discard the serve run's output

        # the bundle remembers the deployment; a later --print-config
        # with no flags resolves to it
        from repro.serving import load_recorded_config

        recorded = load_recorded_config(bundle)
        assert recorded is not None
        assert recorded.session.escalation_threshold == 7
        code = serve_main(["--bundle", str(bundle), "--print-config"])
        assert code == 0
        assert ServingConfig.from_dict(json.loads(capsys.readouterr().out)) == recorded


def _repo_root():
    from pathlib import Path

    return Path(__file__).resolve().parents[2]
