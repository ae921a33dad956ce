"""Compiled-inference serving tests: parity, fencing, warm-up, config.

The contract under test, layer by layer:

- ``compiled=false`` leaves the pipeline byte-identical to the plain
  Tensor path (no extra forwards, no plan on the service);
- ``compiled=true`` at float64 produces bitwise-identical scores and
  verdicts while the service reports ``inference_compiled``;
- a hot swap can never serve a stale plan — the in-loop service is
  compiled before rotation and process workers rebuild their plan
  behind the generation key baked into the compiled loader;
- warm-up pays the one-time costs (plan scratch, lazy tokenizers)
  inside ``start``/``swap_model``, before the first real batch.
"""

import asyncio
from functools import partial

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serving import DetectionServer, ProcessPoolBackend, serve_stream
from repro.serving.backends import _warm_service, load_bundle_compiled
from repro.serving.cli import build_serve_parser, resolve_config
from repro.serving.config import BackendConfig, ServingConfig
from repro.serving.demo import DEMO_BENIGN, DEMO_MALICIOUS

STREAM = [*DEMO_MALICIOUS[:4], *DEMO_BENIGN[:8]]


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
        baseline = np.asarray(service.score_normalized(lines))
        assert service.compile_inference() is True
        assert service.inference_compiled
        assert service.inference_precision == "float64"
        compiled = np.asarray(service.score_normalized(lines))
        assert np.array_equal(baseline, compiled)

    def test_reset_returns_to_tape(self, demo_bundle):
        service = fresh_service(demo_bundle)
        service.compile_inference()
        service.reset_inference()
        assert not service.inference_compiled
        assert service.inference_precision is None

    def test_float32_verdict_parity(self, demo_bundle):
        service = fresh_service(demo_bundle)
        lines = [service.preprocess(line) for line in STREAM]
        baseline = np.asarray(service.score_normalized(lines))
        assert service.compile_inference(precision="float32") is True
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
    def _scores(self, service, *, compiled, precision="float64"):
        results, server = serve_stream(
            service,
            STREAM,
            max_latency_ms=5,
            compiled=compiled,
            precision=precision,
        )
        by_line = {r.raw_line: r.score for r in results}
        return np.array([by_line[line] for line in STREAM]), server

    def test_compiled_false_is_byte_identical(self, demo_bundle):
        plain, server = self._scores(fresh_service(demo_bundle), compiled=False)
        baseline, _ = self._scores(fresh_service(demo_bundle), compiled=False)
        assert np.array_equal(plain, baseline)
        assert server.metrics.compiled_batches == 0

    def test_compiled_float64_verdicts_bitwise(self, demo_bundle):
        plain, _ = self._scores(fresh_service(demo_bundle), compiled=False)
        compiled, server = self._scores(fresh_service(demo_bundle), compiled=True)
        assert np.array_equal(plain, compiled)
        assert server.metrics.compiled_batches > 0
        assert server.metrics.model_batches > 0
        assert server.metrics.model_ms_total > 0.0

    def test_stub_without_compile_surface_serves_plainly(self, stub_service):
        results, server = serve_stream(
            stub_service, ["evil --flag", "ls -la"], max_latency_ms=5, compiled=True
        )
        assert len(results) == 2
        assert server.metrics.compiled_batches == 0

    def test_start_warms_compiled_plan(self, demo_bundle):
        service = fresh_service(demo_bundle)

        async def scenario():
            async with DetectionServer(service, max_latency_ms=5):
                return service.encoder.inference_plan.calls

        # the warm-up forward ran during start(), before any submission
        assert run(scenario()) >= 1


class TestSwapFencing:
    def test_swap_compiles_incoming_service(self, demo_bundle):
        first = fresh_service(demo_bundle)
        second = fresh_service(demo_bundle)

        async def scenario():
            async with DetectionServer(first, max_latency_ms=5) as server:
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
            async with DetectionServer(service, max_latency_ms=5) as server:
                await server.swap_model(demo_bundle)
                return server._ctx.service

        swapped = run(scenario())
        assert swapped is not service
        assert swapped.inference_compiled

    def test_swap_bundle_dir_stays_plain_when_disabled(self, demo_bundle):
        service = fresh_service(demo_bundle)

        async def scenario():
            async with DetectionServer(
                service, max_latency_ms=5, compiled=False
            ) as server:
                await server.swap_model(demo_bundle)
                return server._ctx.service

        swapped = run(scenario())
        assert not service.inference_compiled
        assert not swapped.inference_compiled

    def test_process_workers_rebuild_plan_per_generation(self, demo_bundle):
        """Worker processes can never serve a stale plan: the compiled
        loader is keyed by backend generation, so a swap rehydrates and
        recompiles inside each worker."""
        loader = partial(load_bundle_compiled, demo_bundle, "float64")
        service = fresh_service(demo_bundle)
        lines = [service.preprocess(line) for line in STREAM]
        want = np.asarray(service.score_normalized(lines))

        async def scenario():
            backend = ProcessPoolBackend(demo_bundle, loader=loader, workers=1)
            try:
                await backend.start()
                first = await backend.score(lines)
                await backend.swap(loader=loader)
                second = await backend.score(lines)
            finally:
                await backend.stop()
            return np.asarray(first), np.asarray(second)

        first, second = run(scenario())
        # compiled float64 in a worker process scores bitwise like the
        # local tape, before and after the generation bump
        assert np.array_equal(first, want)
        assert np.array_equal(second, want)


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
        assert plan.scratch_buckets >= 1

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
        assert server.service.inference_precision == "float32"
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
        events = _default_oracle_events()
        f64 = DetectionServer.from_config(
            two_stage_bundle,
            ServingConfig(backend=BackendConfig(precision="float64")),
            record=False,
        )
        assert f64.service.inference_precision == "float64"
        plain = DetectionServer.from_config(
            two_stage_bundle,
            ServingConfig(backend=BackendConfig(compiled=False)),
            record=False,
        )
        compiled = np.array([result.score for result in _serve(f64, events)], dtype=float)
        taped = np.array([result.score for result in _serve(plain, events)], dtype=float)
        assert compiled.tobytes() == taped.tobytes()


class TestBackendConfig:
    def test_defaults(self):
        config = BackendConfig()
        assert config.compiled is True
        assert config.precision == "float32"

    def test_round_trip(self):
        config = BackendConfig(compiled=False, precision="float64")
        again = BackendConfig.from_dict(config.to_dict())
        assert again == config

    def test_rejects_unknown_precision(self):
        with pytest.raises(ConfigError, match="backend.precision"):
            BackendConfig(precision="bfloat16")

    def test_rejects_non_bool_compiled(self):
        with pytest.raises(ConfigError, match="backend.compiled"):
            BackendConfig(compiled="yes")

    def test_serving_config_json_round_trip(self):
        import json

        config = ServingConfig(backend=BackendConfig(compiled=False, precision="float32"))
        again = ServingConfig.from_dict(json.loads(config.to_json()))
        assert again.backend.compiled is False
        assert again.backend.precision == "float32"


class TestCliFlags:
    def _resolve(self, *argv):
        return resolve_config(build_serve_parser().parse_args(list(argv)))

    def test_default_keeps_config_value(self):
        assert self._resolve().backend.compiled is True

    def test_no_compiled_flag(self):
        config = self._resolve("--no-compiled")
        assert config.backend.compiled is False

    def test_precision_flag(self):
        config = self._resolve("--precision", "float64")
        assert config.backend.precision == "float64"

    def test_flags_reach_server(self, demo_bundle):
        service = fresh_service(demo_bundle)
        config = self._resolve("--no-compiled")
        server = DetectionServer.from_config(service, config)
        assert server.compiled is False
        assert not service.inference_compiled
