"""Compiled-inference serving tests: parity, fencing, warm-up, config.

The contract under test, layer by layer:

- ``compiled=false`` leaves the pipeline byte-identical to the plain
  float64 Tensor path (no extra forwards, no plan on the service);
- ``compiled=true`` serves the float32 plan: the tape's verdicts, and
  scores bitwise-equal to the same plan offline, while the service
  reports ``inference_compiled``;
- the plan has one precision: ``precision`` is no longer a key, a flag
  or a keyword, and each names what is valid instead;
- a hot swap can never serve a stale plan — the incoming service is
  compiled before rotation, whether it arrives as a service or as a
  bundle directory;
- warm-up pays the one-time costs (lazy tokenizers, the warming
  thread's plan arena) inside ``start``/``swap_model``, before the
  first real batch.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serving import DetectionServer, serve_stream
from repro.serving.backends import _warm_service
from repro.serving.cli import build_serve_parser, resolve_config
from repro.serving.config import BackendConfig, BatchConfig, ServingConfig
from repro.serving.demo import DEMO_BENIGN, DEMO_MALICIOUS

STREAM = [*DEMO_MALICIOUS[:4], *DEMO_BENIGN[:8]]

#: Flush a micro-batch after 5 ms instead of 25.
FAST = ServingConfig(batch=BatchConfig(max_latency_ms=5))
#: ``FAST`` serving the bit-exact float64 tape.
FAST_TAPE = ServingConfig(batch=FAST.batch, backend=BackendConfig(compiled=False))


def run(coro):
    return asyncio.run(coro)


def fresh_service(demo_bundle):
    """A private service instance (the session fixtures must not be
    mutated by compilation side effects)."""
    from repro.ids.pipeline import IntrusionDetectionService

    return IntrusionDetectionService.load(demo_bundle)


class TestServiceCompilation:
    def test_compile_routes_scoring_bitwise(self, demo_bundle):
        service = fresh_service(demo_bundle)
        lines = [service.preprocess(line) for line in STREAM]
        assert service.compile_inference() is True
        assert service.inference_compiled
        plan = service.encoder.inference_plan
        compiled = np.asarray(service.score_normalized(lines))
        assert plan.calls >= 1
        # the scores are the head over the plan's own float32 embeddings
        embeddings = service.encoder.embed(lines)
        assert embeddings.dtype == np.float32
        assert np.array_equal(compiled, service.tuner.score_embeddings(embeddings))

    def test_reset_returns_to_tape(self, demo_bundle):
        service = fresh_service(demo_bundle)
        lines = [service.preprocess(line) for line in STREAM]
        tape = np.asarray(service.score_normalized(lines))
        service.compile_inference()
        service.reset_inference()
        assert not service.inference_compiled
        assert service.encoder.inference_plan is None
        assert np.array_equal(np.asarray(service.score_normalized(lines)), tape)

    def test_float32_verdict_parity(self, demo_bundle):
        service = fresh_service(demo_bundle)
        lines = [service.preprocess(line) for line in STREAM]
        baseline = np.asarray(service.score_normalized(lines))
        assert service.compile_inference() is True
        compiled = np.asarray(service.score_normalized(lines))
        np.testing.assert_allclose(compiled, baseline, atol=1e-4)
        assert np.array_equal(
            baseline >= service.threshold, compiled >= service.threshold
        )

    def test_uncompilable_model_falls_back_with_warning(self, demo_bundle):
        service = fresh_service(demo_bundle)
        model = service.encoder.model

        class Tweaked(type(model)):
            pass

        model.__class__ = Tweaked
        with pytest.warns(RuntimeWarning, match="Tensor path"):
            assert service.compile_inference() is False
        assert not service.inference_compiled


class TestServerIntegration:
    def _scores(self, service, *, compiled):
        server = DetectionServer(service, FAST if compiled else FAST_TAPE)
        results = serve_stream(server, STREAM)
        by_line = {r.raw_line: r.score for r in results}
        return np.array([by_line[line] for line in STREAM]), server

    def test_compiled_false_is_byte_identical(self, demo_bundle):
        plain, server = self._scores(fresh_service(demo_bundle), compiled=False)
        baseline, _ = self._scores(fresh_service(demo_bundle), compiled=False)
        assert np.array_equal(plain, baseline)
        assert server.metrics.compiled_batches == 0

    def test_compiled_scores_bitwise_offline(self, demo_bundle):
        offline = fresh_service(demo_bundle)
        lines = [offline.preprocess(line) for line in STREAM]
        tape = np.asarray(offline.score_normalized(lines))
        assert offline.compile_inference() is True
        planned = np.asarray(offline.score_normalized(lines))
        compiled, server = self._scores(fresh_service(demo_bundle), compiled=True)
        # served in micro-batches, scored in one call offline: row invariance
        assert compiled.tobytes() == planned.tobytes()
        assert np.array_equal(
            compiled >= offline.threshold, tape >= offline.threshold
        )
        assert server.metrics.compiled_batches > 0
        assert server.metrics.model_batches > 0
        assert server.metrics.model_ms_total > 0.0

    def test_server_takes_no_precision(self, demo_bundle):
        with pytest.raises(TypeError, match="precision"):
            DetectionServer(fresh_service(demo_bundle), precision="float64")

    def test_stub_without_compile_surface_serves_plainly(self, stub_service):
        server = DetectionServer(stub_service, FAST)
        results = serve_stream(server, ["evil --flag", "ls -la"])
        assert len(results) == 2
        assert server.metrics.compiled_batches == 0

    def test_start_warms_compiled_plan(self, demo_bundle):
        service = fresh_service(demo_bundle)

        async def scenario():
            async with DetectionServer(service, FAST):
                return service.encoder.inference_plan.calls

        # the warm-up forward ran during start(), before any submission
        assert run(scenario()) >= 1


class TestSwapFencing:
    def test_swap_compiles_incoming_service(self, demo_bundle):
        first = fresh_service(demo_bundle)
        second = fresh_service(demo_bundle)

        async def scenario():
            async with DetectionServer(first, FAST) as server:
                before = await server.submit(DEMO_MALICIOUS[0])
                old_plan = first.encoder.inference_plan
                await server.swap_model(service=second)
                after = await server.submit(DEMO_MALICIOUS[0])
                return before, after, old_plan, server

        before, after, old_plan, server = run(scenario())
        # the incoming generation got its own plan — compiled before
        # rotation and warmed inside the drain, never the old snapshot
        assert second.inference_compiled
        assert second.encoder.inference_plan is not old_plan
        assert second.encoder.inference_plan.calls >= 1
        assert after.generation == before.generation + 1
        assert after.score == pytest.approx(before.score)

    def test_swap_bundle_dir_uses_compiled_loader(self, demo_bundle):
        service = fresh_service(demo_bundle)

        async def scenario():
            async with DetectionServer(service, FAST) as server:
                await server.swap_model(demo_bundle)
                return server._ctx.service

        swapped = run(scenario())
        assert swapped is not service
        assert swapped.inference_compiled

    def test_swap_bundle_dir_stays_plain_when_disabled(self, demo_bundle):
        service = fresh_service(demo_bundle)

        async def scenario():
            async with DetectionServer(service, FAST_TAPE) as server:
                await server.swap_model(demo_bundle)
                return server._ctx.service

        swapped = run(scenario())
        assert not service.inference_compiled
        assert not swapped.inference_compiled


class TestWarmUp:
    def test_warm_service_skips_uncompiled(self, demo_bundle):
        service = fresh_service(demo_bundle)
        _warm_service(service)
        assert service.encoder.inference_plan is None

    def test_warm_service_primes_plan_scratch(self, demo_bundle):
        service = fresh_service(demo_bundle)
        service.compile_inference()
        plan = service.encoder.inference_plan
        assert plan.calls == 0
        _warm_service(service)
        assert plan.calls >= 1
        assert plan.scratch_nbytes > 0

    def test_backend_warm_up_never_raises(self, stub_service):
        async def scenario():
            from repro.serving import InlineBackend

            backend = InlineBackend(stub_service)
            await backend.warm_up()  # stub: no-op, must not raise

        run(scenario())


@pytest.fixture(scope="module")
def two_stage_bundle(two_stage_demo_service, tmp_path_factory):
    bundle = tmp_path_factory.mktemp("compiled") / "two-stage"
    two_stage_demo_service.save(bundle)
    return str(bundle)


def _default_oracle_events():
    """The evasion corpus (bases and variants) plus a loggen sample."""
    from datetime import datetime

    from repro.loggen.evasion import build_evasion_corpus
    from repro.loggen.fleet import FleetConfig, FleetSimulator
    from repro.serving.events import CommandEvent

    cases = build_evasion_corpus(seed=0)
    lines = [line for case in cases for line in (case.base, case.variant)]
    data = FleetSimulator(FleetConfig(seed=0)).generate(
        datetime(2022, 6, 1), days=1, target_lines=400
    )
    lines += [record.line for record in data]
    return [CommandEvent(line=line, host=f"h{i % 9}") for i, line in enumerate(lines)]


def _serve(server, events, chunk=256):
    async def scenario():
        async with server:
            results = []
            for start in range(0, len(events), chunk):
                results += await server.submit_many(events[start : start + chunk])
            return results

    return run(scenario())


class TestServedDefault:
    """``ServingConfig()`` serves the float32 plan with the tape's verdicts."""

    def test_default_config_serves_float32_with_tape_verdicts(self, two_stage_bundle):
        from repro.ids.pipeline import IntrusionDetectionService

        events = _default_oracle_events()
        server = DetectionServer.from_config(two_stage_bundle, ServingConfig(), record=False)
        assert server.service.encoder.inference_plan.dtype == np.float32
        results = _serve(server, events)

        tape = IntrusionDetectionService.load(two_stage_bundle)
        assert not tape.inference_compiled
        keys = [tape.preprocess(event.line) for event in events]
        unique = list(dict.fromkeys(key for key in keys if key is not None))
        flagged = dict(zip(unique, tape.score_normalized(unique) >= tape.threshold))
        assert len(unique) > 300
        for result, key in zip(results, keys):
            assert result.dropped == (key is None)
            if key is not None:
                assert result.is_intrusion == flagged[key], key

    def test_float64_backend_still_serves_tape_bitwise(self, two_stage_bundle):
        """``compiled = false`` is the bit-exact float64 backend."""
        from repro.ids.pipeline import IntrusionDetectionService

        events = _default_oracle_events()
        plain = DetectionServer.from_config(
            two_stage_bundle,
            ServingConfig(backend=BackendConfig(compiled=False)),
            record=False,
        )
        assert not plain.service.inference_compiled
        results = _serve(plain, events)

        # the tape's bits follow its chunks, so the offline side scores
        # the batches the server scored: each submit_many chunk's
        # not-yet-cached lines, deduplicated in order, in one call
        tape = IntrusionDetectionService.load(two_stage_bundle)
        keys = [tape.preprocess(event.line) for event in events]
        offline: dict[str, float] = {}
        for start in range(0, len(keys), 256):
            misses = [key for key in keys[start : start + 256] if key is not None]
            misses = [key for key in dict.fromkeys(misses) if key not in offline]
            if misses:
                scores = tape.score_batch(tape.encode_batch(misses))
                offline.update(zip(misses, (float(score) for score in scores)))
        served = np.array(
            [result.score for result, key in zip(results, keys) if key is not None], dtype=float
        )
        wanted = np.array([offline[key] for key in keys if key is not None], dtype=float)
        assert len(offline) > 300
        assert served.tobytes() == wanted.tobytes()


class TestBackendConfig:
    def test_defaults(self):
        config = BackendConfig()
        assert config.compiled is True
        assert config.to_dict() == {"kind": "inline", "workers": 1, "compiled": True}

    def test_round_trip(self):
        config = BackendConfig(compiled=False)
        again = BackendConfig.from_dict(config.to_dict())
        assert again == config

    def test_rejects_unknown_precision(self):
        # the plan has one precision; the key is gone, for every value
        for value in ("float32", "float64"):
            with pytest.raises(ConfigError) as excinfo:
                ServingConfig.from_dict({"backend": {"precision": value}})
            assert (
                "backend: unknown key 'precision' (valid keys: kind, workers, compiled)"
                in str(excinfo.value)
            )
        with pytest.raises(TypeError, match="precision"):
            BackendConfig(precision="float32")

    def test_rejects_non_bool_compiled(self):
        with pytest.raises(ConfigError, match="backend.compiled"):
            BackendConfig(compiled="yes")

    def test_serving_config_json_round_trip(self):
        import json

        config = ServingConfig(backend=BackendConfig(compiled=False))
        again = ServingConfig.from_dict(json.loads(config.to_json()))
        assert again.backend.compiled is False
        assert again == config


class TestCliFlags:
    def _resolve(self, *argv):
        return resolve_config(build_serve_parser().parse_args(list(argv)))

    def test_default_keeps_config_value(self):
        assert self._resolve().backend.compiled is True

    def test_no_compiled_flag(self):
        config = self._resolve("--no-compiled")
        assert config.backend.compiled is False

    def test_precision_flag(self, capsys):
        # removed with the float64 plan: argparse refuses it and its
        # usage line names the flags that exist
        with pytest.raises(SystemExit) as excinfo:
            self._resolve("--precision", "float64")
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --precision float64" in err
        assert "--compiled" in err

    def test_flags_reach_server(self, demo_bundle):
        service = fresh_service(demo_bundle)
        config = self._resolve("--no-compiled")
        server = DetectionServer.from_config(service, config)
        assert server.config.backend.compiled is False
        assert not service.inference_compiled
