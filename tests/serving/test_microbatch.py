"""Tests for the micro-batching queue: size/deadline flush, errors, drain."""

import asyncio

import pytest

from repro.serving import MicroBatcher
from repro.serving.microbatch import FLUSH_DEADLINE, FLUSH_DRAIN, FLUSH_SIZE


def run(coro):
    return asyncio.run(coro)


class RecordingHandler:
    """Echo handler that records every batch it was flushed."""

    def __init__(self):
        self.batches: list[list] = []

    def __call__(self, items):
        self.batches.append(list(items))
        return [f"scored:{item}" for item in items]


class TestFlushOnSize:
    def test_full_batch_flushes_immediately(self):
        handler = RecordingHandler()
        flushes = []

        async def scenario():
            batcher = MicroBatcher(
                handler, max_batch=4, max_latency_ms=10_000, on_flush=lambda n, r: flushes.append((n, r))
            )
            await batcher.start()
            # max_latency is 10s: only the size trigger can flush this fast
            results = await asyncio.wait_for(
                asyncio.gather(*(batcher.submit(i) for i in range(4))), timeout=2.0
            )
            await batcher.stop()
            return results

        results = run(scenario())
        assert sorted(results) == [f"scored:{i}" for i in range(4)]
        assert len(handler.batches) == 1
        assert len(handler.batches[0]) == 4
        assert flushes == [(4, FLUSH_SIZE)]

    def test_overflow_forms_second_batch(self):
        handler = RecordingHandler()

        async def scenario():
            batcher = MicroBatcher(handler, max_batch=3, max_latency_ms=50)
            await batcher.start()
            await asyncio.gather(*(batcher.submit(i) for i in range(7)))
            await batcher.stop()

        run(scenario())
        assert sum(len(batch) for batch in handler.batches) == 7
        assert all(len(batch) <= 3 for batch in handler.batches)


class TestFlushOnDeadline:
    def test_partial_batch_flushes_at_deadline(self):
        handler = RecordingHandler()
        flushes = []

        async def scenario():
            batcher = MicroBatcher(
                handler, max_batch=100, max_latency_ms=20, on_flush=lambda n, r: flushes.append((n, r))
            )
            await batcher.start()
            # far fewer submissions than max_batch: only the deadline flushes
            results = await asyncio.wait_for(
                asyncio.gather(batcher.submit("a"), batcher.submit("b")), timeout=2.0
            )
            await batcher.stop()
            return results

        results = run(scenario())
        assert results == ["scored:a", "scored:b"]
        assert flushes[0][1] == FLUSH_DEADLINE

    def test_results_map_back_to_submitters(self):
        handler = RecordingHandler()

        async def scenario():
            batcher = MicroBatcher(handler, max_batch=8, max_latency_ms=15)
            await batcher.start()
            results = await asyncio.gather(*(batcher.submit(i) for i in range(5)))
            await batcher.stop()
            return results

        assert run(scenario()) == [f"scored:{i}" for i in range(5)]


class TestErrorsAndLifecycle:
    def test_handler_exception_propagates_to_all_producers(self):
        def broken(items):
            raise RuntimeError("encoder died")

        async def scenario():
            batcher = MicroBatcher(broken, max_batch=2, max_latency_ms=10)
            await batcher.start()
            with pytest.raises(RuntimeError, match="encoder died"):
                await asyncio.gather(batcher.submit("a"), batcher.submit("b"))
            await batcher.stop()

        run(scenario())

    def test_length_mismatch_is_an_error(self):
        async def scenario():
            batcher = MicroBatcher(lambda items: [1, 2, 3], max_batch=1, max_latency_ms=10)
            await batcher.start()
            with pytest.raises(RuntimeError, match="results"):
                await batcher.submit("only-one")
            await batcher.stop()

        run(scenario())

    def test_submit_before_start_raises(self):
        async def scenario():
            batcher = MicroBatcher(lambda items: items)
            with pytest.raises(RuntimeError, match="not running"):
                await batcher.submit("x")

        run(scenario())

    def test_stop_drains_pending_items(self):
        handler = RecordingHandler()
        flushes = []

        async def scenario():
            batcher = MicroBatcher(
                handler, max_batch=10, max_latency_ms=5_000, on_flush=lambda n, r: flushes.append((n, r))
            )
            await batcher.start()
            task = asyncio.ensure_future(batcher.submit("pending"))
            await asyncio.sleep(0.01)  # let the worker pick the item up
            await batcher.stop()
            return await asyncio.wait_for(task, timeout=1.0)

        assert run(scenario()) == "scored:pending"
        assert flushes[-1][1] == FLUSH_DRAIN

    def test_restart_after_stop(self):
        handler = RecordingHandler()

        async def scenario():
            batcher = MicroBatcher(handler, max_batch=1, max_latency_ms=10)
            await batcher.start()
            first = await batcher.submit("one")
            await batcher.stop()
            await batcher.start()
            second = await batcher.submit("two")
            await batcher.stop()
            return first, second

        assert run(scenario()) == ("scored:one", "scored:two")

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda items: items, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda items: items, max_latency_ms=0)


class TestAsyncHandler:
    def test_awaitable_handler_results_map_back(self):
        async def handler(items):
            await asyncio.sleep(0)
            return [item * 2 for item in items]

        async def scenario():
            batcher = MicroBatcher(handler, max_batch=4, max_latency_ms=10)
            await batcher.start()
            results = await asyncio.gather(*(batcher.submit(i) for i in range(4)))
            await batcher.stop()
            return results

        assert run(scenario()) == [0, 2, 4, 6]

    def test_async_handler_exception_propagates(self):
        async def handler(items):
            raise RuntimeError("backend died")

        async def scenario():
            batcher = MicroBatcher(handler, max_batch=1, max_latency_ms=10)
            await batcher.start()
            with pytest.raises(RuntimeError, match="backend died"):
                await batcher.submit("x")
            await batcher.stop()

        run(scenario())

    def test_stop_mid_async_handler_aborts_producers(self):
        from repro.serving.microbatch import BatchAborted

        release = asyncio.Event()

        async def handler(items):
            await release.wait()  # a scoring pass stop() will interrupt
            return items

        async def scenario():
            batcher = MicroBatcher(handler, max_batch=2, max_latency_ms=5)
            await batcher.start()
            producers = [asyncio.ensure_future(batcher.submit(i)) for i in range(2)]
            await asyncio.sleep(0.05)  # batch is now inside the handler
            await batcher.stop()
            return await asyncio.gather(*producers, return_exceptions=True)

        outcomes = run(scenario())
        assert all(isinstance(outcome, BatchAborted) for outcome in outcomes)


class TestDeadlineRaceRegression:
    """The old collector used ``asyncio.wait_for(queue.get(), remaining)``;
    when the timeout landed in the same loop iteration as a dequeue, the
    cancelled getter dropped the item — its producer hung forever."""

    def test_hammering_the_timeout_boundary_never_loses_events(self):
        handler = RecordingHandler()
        producers, per_producer = 8, 25

        async def scenario():
            # max_latency_ms=1 with ~1ms submit gaps keeps every deadline
            # expiry racing an in-flight dequeue
            batcher = MicroBatcher(handler, max_batch=8, max_latency_ms=1)
            await batcher.start()

            async def producer(name: int) -> list[str]:
                results = []
                for i in range(per_producer):
                    results.append(await batcher.submit(f"{name}-{i}"))
                    await asyncio.sleep(0.001)
                return results

            results = await asyncio.wait_for(
                asyncio.gather(*(producer(p) for p in range(producers))),
                timeout=60.0,
            )
            await batcher.stop()
            return results

        results = run(scenario())
        # every submission resolved, with its own result
        flat = [item for chunk in results for item in chunk]
        assert len(flat) == producers * per_producer
        expected = sorted(
            f"scored:{p}-{i}" for p in range(producers) for i in range(per_producer)
        )
        assert sorted(flat) == expected
        # and the handler saw each event exactly once (no loss, no dupes)
        handled = sorted(item for batch in handler.batches for item in batch)
        assert handled == sorted(
            f"{p}-{i}" for p in range(producers) for i in range(per_producer)
        )


class TestRestartWithStrandedQueue:
    """The old ``start()`` kept a non-empty queue — bound to a dead loop,
    holding futures nobody could ever resolve — when restarting."""

    def test_restart_on_new_loop_fails_stranded_items_and_serves_fresh_ones(self):
        calls: list[list] = []
        block_first = {"armed": True}

        async def handler(items):
            calls.append(list(items))
            if block_first["armed"]:
                block_first["armed"] = False
                await asyncio.Event().wait()  # first batch never returns
            return [f"scored:{item}" for item in items]

        batcher = MicroBatcher(handler, max_batch=1, max_latency_ms=5)

        loop = asyncio.new_event_loop()
        try:

            async def first_run():
                await batcher.start()
                in_flight = asyncio.ensure_future(batcher.submit("in-flight"))
                await asyncio.sleep(0.02)  # worker is now stuck in the handler
                stranded = asyncio.ensure_future(batcher.submit("stranded"))
                await asyncio.sleep(0.02)  # "stranded" sits queued behind it
                return in_flight, stranded

            in_flight, stranded = loop.run_until_complete(first_run())
            assert batcher.pending == 1  # "stranded" never reached the handler
        finally:
            # abandon the loop mid-flight: worker task and queue die with it
            loop.close()

        async def second_run():
            await batcher.start()  # must rebuild the queue for this loop
            result = await asyncio.wait_for(batcher.submit("fresh"), timeout=2.0)
            await batcher.stop()
            return result

        assert run(second_run()) == "scored:fresh"
        assert batcher.pending == 0
        # keep the dead-loop futures alive until here so their abort (or
        # cancellation) never warns at GC mid-test
        del in_flight, stranded
