"""Tests for the declarative serving config: round-trips, validation
errors, bundle recording, and ``DetectionServer.from_config``."""

import asyncio
import dataclasses
import json

import pytest

from repro.errors import ConfigError
from repro.serving import DetectionServer, RingBufferSink, ServingConfig
from repro.serving.cli import build_serve_parser
from repro.serving.config import (
    BackendConfig,
    BatchConfig,
    CacheConfig,
    DeliveryPolicy,
    SessionConfig,
    SinkSpec,
    load_recorded_config,
)

FULL_CONFIG = {
    "batch": {"max_batch": 8, "max_latency_ms": 12.5},
    "cache": {"size": 128},
    "backend": {"kind": "threaded", "workers": 3},
    "session": {
        "window_seconds": 30.0,
        "escalation_threshold": 2,
        "mode": "hybrid",
        "sequence_threshold": 0.7,
        "context_window": 4,
        "context_max_gap_seconds": 120.0,
        "max_hosts": 5000,
    },
    "sinks": [
        {"uri": "ring://64", "name": "dash"},
        {
            "uri": "jsonl://alerts.jsonl",
            "policy": {
                "queue_size": 16,
                "on_full": "drop",
                "max_retries": 7,
                "backoff_ms": 5.0,
                "backoff_multiplier": 3.0,
                "max_backoff_ms": 100.0,
                "dead_letter_path": "dead.jsonl",
            },
        },
    ],
    "concurrency": 4,
}

#: ``ServingConfig().to_dict()`` as bundles recorded it while serving
#: still had a process-pool backend and an autoscaler.
PARENT_ERA_CONFIG = {
    "batch": {"max_batch": 32, "max_latency_ms": 25.0, "columnar": True},
    "canonicalize": {"enabled": False, "decode_base64": True, "max_passes": 4},
    "cache": {"size": 4096, "admission": "lru"},
    "backend": {
        "kind": "auto",
        "workers": 1,
        "transport": "auto",
        "compiled": True,
        "precision": "float32",
    },
    "session": {
        "window_seconds": 300.0,
        "escalation_threshold": 5,
        "mode": "count",
        "sequence_threshold": 0.5,
        "context_window": 3,
        "context_max_gap_seconds": 180.0,
        "max_hosts": 100000,
    },
    "shards": {"count": 1, "virtual_nodes": 64},
    "autoscale": {
        "enabled": False,
        "min_workers": 1,
        "max_workers": 0,
        "interval_seconds": 0.25,
        "backlog_per_worker": 16,
        "latency_high_ms": 200.0,
        "shrink_hit_rate": 0.9,
        "cooldown_intervals": 4,
    },
    "sinks": [],
    "concurrency": 8,
}

#: ``ServingConfig().to_dict()`` as bundles recorded it while the cache
#: still had a TinyLFU admission gate and a TTL.
ADMISSION_ERA_CONFIG = {
    **ServingConfig().to_dict(),
    "cache": {"size": 4096, "admission": "lru"},
}


class TestRoundTrip:
    def test_defaults_round_trip(self):
        config = ServingConfig()
        assert ServingConfig.from_dict(config.to_dict()) == config

    def test_full_config_round_trips_losslessly(self):
        config = ServingConfig.from_dict(FULL_CONFIG)
        assert ServingConfig.from_dict(config.to_dict()) == config
        # and the dict form is JSON-stable
        assert json.loads(json.dumps(config.to_dict())) == config.to_dict()

    def test_missing_sections_get_defaults(self):
        config = ServingConfig.from_dict({"batch": {"max_batch": 4}})
        assert config.batch.max_batch == 4
        assert config.batch.max_latency_ms == 25.0
        assert config.cache == CacheConfig()
        assert config.backend == BackendConfig()
        assert config.sinks == ()

    def test_bare_uri_string_sink_shorthand(self):
        config = ServingConfig.from_dict({"sinks": ["ring://32"]})
        assert config.sinks[0] == SinkSpec(uri="ring://32")

    def test_toml_file_round_trips(self, tmp_path):
        path = tmp_path / "serve.toml"
        path.write_text(
            "concurrency = 2\n"
            "[batch]\nmax_batch = 4\nmax_latency_ms = 7.5\n"
            "[cache]\nsize = 32\n"
            "[[sinks]]\nuri = 'ring://8'\n"
            "[sinks.policy]\nmax_retries = 1\n"
        )
        config = ServingConfig.from_file(path)
        assert config.batch == BatchConfig(max_batch=4, max_latency_ms=7.5)
        assert config.cache == CacheConfig(size=32)
        assert config.sinks[0].policy.max_retries == 1
        assert ServingConfig.from_dict(config.to_dict()) == config

    def test_json_file_round_trips(self, tmp_path):
        path = tmp_path / "serve.json"
        path.write_text(json.dumps(FULL_CONFIG))
        config = ServingConfig.from_file(path)
        assert ServingConfig.from_dict(config.to_dict()) == config

    def test_example_toml_round_trips(self):
        config = ServingConfig.from_file("examples/serve.toml")
        assert ServingConfig.from_dict(config.to_dict()) == config
        assert [spec.uri for spec in config.sinks] == [
            "ring://2048",
            "jsonl://alerts.jsonl",
        ]

    def test_to_json_parses_back_equal(self):
        config = ServingConfig.from_dict(FULL_CONFIG)
        assert ServingConfig.from_dict(json.loads(config.to_json())) == config


class TestValidationErrors:
    @pytest.mark.parametrize(
        ("data", "fragment"),
        [
            ({"batch": {"max_batchh": 4}}, "did you mean 'max_batch'"),
            ({"batches": {}}, "did you mean 'batch'"),
            ({"batch": {"max_batch": 0}}, "batch.max_batch must be >= 1"),
            ({"batch": {"max_batch": "four"}}, "must be an integer"),
            ({"batch": {"max_latency_ms": 0}}, "batch.max_latency_ms must be > 0"),
            ({"cache": {"size": -1}}, "cache.size must be >= 0"),
            ({"cache": {"ttl_seconds": 60.0}},
             "cache: unknown key 'ttl_seconds' (valid keys: size)"),
            ({"backend": {"kind": "gpu"}}, "'inline', 'threaded' (got 'gpu')"),
            ({"backend": {"workers": 0}}, "backend.workers must be >= 1"),
            ({"session": {"escalation_threshold": 0}}, "session.escalation_threshold"),
            ({"session": {"mode": "markov"}}, "'count', 'sequence', 'hybrid'"),
            ({"session": {"sequence_threshold": 1.5}}, "session.sequence_threshold"),
            ({"session": {"context_window": 0}}, "session.context_window must be >= 1"),
            ({"session": {"context_max_gap_seconds": 0}}, "must be > 0"),
            ({"session": {"max_hosts": 0}}, "session.max_hosts must be >= 1"),
            ({"session": {"modes": "count"}}, "did you mean 'mode'"),
            ({"concurrency": 0}, "concurrency must be >= 1"),
            ({"sinks": "ring://8"}, "sinks must be an array"),
            ({"sinks": [{"name": "x"}]}, "needs a 'uri'"),
            ({"sinks": [{"uri": "ring://8", "policy": {"on_full": "explode"}}]},
             "'block', 'drop'"),
            ({"sinks": [{"uri": "ring://8", "policy": {"queue_size": 0}}]},
             "policy.queue_size must be >= 1"),
            ({"batch": 7}, "must be a table"),
            ({"backend": {"kind": "process"}}, "'inline', 'threaded' (got 'process')"),
            ({"backend": {"kind": "auto"}}, "'inline', 'threaded' (got 'auto')"),
            ({"backend": {"transport": "shm"}}, "unknown key 'transport' (valid keys: kind,"),
            ({"autoscale": {"enabled": True}}, "unknown key 'autoscale' (valid keys: batch,"),
            ({"backend": {"kind": "inline", "workers": 2}}, "needs backend.kind 'threaded'"),
            ({"cache": {"admission": "tinylfu"}},
             "cache: unknown key 'admission' (valid keys: size)"),
            ({"cache": {"admission": "lru"}}, "cache: unknown key 'admission' (valid keys: size)"),
        ],
    )
    def test_actionable_messages(self, data, fragment):
        with pytest.raises(ConfigError) as excinfo:
            ServingConfig.from_dict(data)
        assert fragment in str(excinfo.value)

    def test_unknown_sink_scheme_names_known_schemes(self):
        with pytest.raises(ConfigError) as excinfo:
            SinkSpec(uri="kafka://broker:9092/alerts")
        message = str(excinfo.value)
        assert "unknown scheme 'kafka'" in message
        assert "jsonl" in message and "webhook" in message

    def test_uri_without_scheme_rejected(self):
        with pytest.raises(ConfigError, match="scheme"):
            SinkSpec(uri="alerts.jsonl")

    def test_programmatic_construction_validates_too(self):
        with pytest.raises(ConfigError, match="max_batch"):
            BatchConfig(max_batch=0)
        with pytest.raises(ConfigError, match="window_seconds"):
            SessionConfig(window_seconds=0)
        with pytest.raises(ConfigError, match="backoff_multiplier"):
            DeliveryPolicy(backoff_multiplier=0.5)

    def test_dataclasses_replace_revalidates(self):
        with pytest.raises(ConfigError, match="workers"):
            dataclasses.replace(BackendConfig(), workers=-2)

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "serve.yaml"
        path.write_text("batch: {}")
        with pytest.raises(ConfigError, match=r"\.toml or \.json"):
            ServingConfig.from_file(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            ServingConfig.from_file(tmp_path / "nope.toml")

    def test_unparseable_toml_is_config_error(self, tmp_path):
        path = tmp_path / "serve.toml"
        path.write_text("batch = [unclosed")
        with pytest.raises(ConfigError, match="does not parse"):
            ServingConfig.from_file(path)


class TestRemovedOptions:
    """Options whose modes were deleted fail loudly, never silently."""

    @pytest.mark.parametrize(
        "argv", [["--cache-admission", "tinylfu"], ["--cache-ttl", "60"]]
    )
    def test_serve_flag_is_unrecognized(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_serve_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("keyword", "value"),
        [
            ("max_batch", 8),
            ("max_latency_ms", 5.0),
            ("cache_size", 0),
            ("cache_ttl_seconds", 60.0),
            ("cache_admission", "tinylfu"),
            ("shards", 2),
            ("session_window_seconds", 100.0),
            ("canonicalize", None),
            ("compiled", False),
        ],
    )
    def test_server_keyword_is_a_type_error(self, stub_service, keyword, value):
        # policy lives in the config; keywords take live objects only
        with pytest.raises(TypeError, match=keyword):
            DetectionServer(stub_service, **{keyword: value})


class TestFromConfig:
    def test_builds_running_server_with_configured_knobs(self, stub_service):
        config = ServingConfig.from_dict(
            {
                "batch": {"max_batch": 4, "max_latency_ms": 5.0},
                "cache": {"size": 16},
                "session": {"window_seconds": 9.0, "escalation_threshold": 2},
                "sinks": ["ring://8"],
                "concurrency": 2,
            }
        )
        server = DetectionServer.from_config(stub_service, config)
        assert server.config == config
        assert server.batcher.max_batch == 4
        assert server.cache.capacity == 16
        assert server.sessions.window_seconds == 9.0

        async def scenario():
            async with server:
                return await server.submit("evil thing", host="h1")

        result = asyncio.run(scenario())
        assert result.is_intrusion
        ring = server.sinks.sinks[0]
        assert isinstance(ring, RingBufferSink)
        assert ring.emitted == 1

    def test_defaults_when_no_config_given(self, stub_service):
        server = DetectionServer.from_config(stub_service)
        assert server.config == ServingConfig()

    @pytest.mark.parametrize("mode", ["sequence", "hybrid"])
    def test_sequence_mode_without_multiline_head_fails_fast(self, stub_service, mode):
        config = ServingConfig.from_dict({"session": {"mode": mode}})
        with pytest.raises(ConfigError, match="multi-line head"):
            DetectionServer.from_config(stub_service, config)

    def test_session_policy_reaches_the_aggregator(self, stub_service):
        config = ServingConfig.from_dict(
            {
                "session": {
                    "mode": "count",
                    "context_window": 5,
                    "context_max_gap_seconds": 42.0,
                    "max_hosts": 77,
                    "sequence_threshold": 0.9,
                }
            }
        )
        server = DetectionServer.from_config(stub_service, config)
        assert server.sessions.mode == "count"
        assert server.sessions.context_window == 5
        assert server.sessions.context_max_gap_seconds == 42.0
        assert server.sessions.max_hosts == 77
        assert server.sessions.sequence_threshold == 0.9
        assert server.config.session == config.session


class TestBundleRecording:
    def test_save_load_round_trips_serving_config(self, demo_service, tmp_path):
        from repro.ids.pipeline import IntrusionDetectionService

        config = ServingConfig.from_dict(FULL_CONFIG)
        bundle = tmp_path / "bundle"
        demo_service.save(bundle, serving_config=config)
        assert load_recorded_config(bundle) == config
        restored = IntrusionDetectionService.load(bundle)
        assert restored.serving_config == config

    def test_unrecorded_bundle_loads_none(self, demo_bundle):
        assert load_recorded_config("/nonexistent/bundle") is None

    def test_invalid_recorded_config_warns_but_model_still_loads(
        self, demo_service, tmp_path
    ):
        """Deployment metadata must never make the model unloadable (a
        recorded config may use a sink scheme this process never
        registered, or keys from another version)."""
        from repro.ids.pipeline import IntrusionDetectionService

        for name, recorded in (
            ("typo", {"batch": {"max_batchh": 4}}),
            ("admission-era", ADMISSION_ERA_CONFIG),
            ("parent-era", PARENT_ERA_CONFIG),
        ):
            bundle = tmp_path / name
            demo_service.save(bundle)
            meta_path = bundle / "service.json"
            meta = json.loads(meta_path.read_text())
            meta["serving_config"] = recorded
            meta_path.write_text(json.dumps(meta))

            with pytest.warns(UserWarning, match="ignoring invalid serving_config"):
                restored = IntrusionDetectionService.load(bundle)
            assert restored.serving_config is None
            assert restored.threshold == demo_service.threshold

        # the parent-era bundle serves with the defaults
        with pytest.warns(UserWarning, match="ignoring invalid serving_config"):
            server = DetectionServer.from_config(bundle, record=False)
        assert server.config == ServingConfig()

        async def scenario():
            async with server:
                return await server.submit("ls -la", host="h1")

        assert not asyncio.run(scenario()).dropped

    def test_from_config_records_into_bundle(self, demo_service, tmp_path):
        config = ServingConfig.from_dict({"sinks": ["ring://4"]})
        bundle = tmp_path / "bundle"
        demo_service.save(bundle)
        from repro.ids.pipeline import IntrusionDetectionService

        service = IntrusionDetectionService.load(bundle)
        DetectionServer.from_config(service, config)
        # the bundle now remembers this deployment ...
        assert load_recorded_config(bundle) == config
        # ... and a config-less from_config reproduces it
        server = DetectionServer.from_config(bundle)
        assert server.config == config
