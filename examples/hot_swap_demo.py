"""The weekly continual-learning hand-off against a live server.

The paper's loop: the deployed LM "continuously learn[s] from tens of
millions of user command lines every week".  This demo runs that story
end to end without dropping an event:

1. train the miniature demo service and deploy it behind a
   ``DetectionServer`` (default backend: micro-batches score on the
   event loop);
2. stream telemetry at it from concurrent producers;
3. mid-stream, run one ``ContinualLearner`` weekly update (continued
   MLM pre-training + re-labeling + head re-tune), export the fresh
   model as a bundle, and ``swap_model`` the live server onto it;
4. keep streaming — post-swap events score on the new generation.

Run with::

    PYTHONPATH=src python examples/hot_swap_demo.py
"""

import asyncio
import tempfile
from datetime import datetime
from pathlib import Path

from repro.ids.commercial import CommercialIDS
from repro.lm.continual import ContinualLearner
from repro.loggen.dataset import CommandDataset
from repro.loggen.entities import LogRecord
from repro.serving import BatchConfig, DetectionServer, ServingConfig
from repro.serving.demo import DEMO_BENIGN, DEMO_MALICIOUS, build_demo_service

WEEK_TELEMETRY = DEMO_BENIGN * 4 + DEMO_MALICIOUS * 3
#: Each server flushes micro-batches of 16 events, or after 10 ms.
SERVING = ServingConfig(batch=BatchConfig(max_batch=16, max_latency_ms=10))


async def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="hot-swap-demo-"))

    print("== week 0: train and deploy ==")
    service = build_demo_service()
    bundle_v1 = workdir / "bundle-week0"
    service.save(bundle_v1)
    print(f"deployed bundle {bundle_v1.name} (fingerprint {service.fingerprint()})")

    server = DetectionServer(service, SERVING)

    stream = DEMO_BENIGN + DEMO_MALICIOUS
    results = []
    swap_done = asyncio.Event()
    producers = 4

    async def producer(worker_id: int) -> None:
        # stream continuously while the weekly update trains, then a
        # short tail so the new generation visibly serves traffic
        index = worker_id
        while not swap_done.is_set():
            line = stream[index % len(stream)]
            results.append(await server.submit(line, host=f"host-{worker_id}"))
            index += producers
            await asyncio.sleep(0.01)
        for line in stream[worker_id::producers]:
            results.append(await server.submit(line, host=f"host-{worker_id}"))

    def train_week() -> tuple[ContinualLearner, object]:
        learner = ContinualLearner(
            service.encoder, CommercialIDS(label_noise=0.0), head_epochs=4
        )
        week = CommandDataset(
            LogRecord(line, "u0001", "m000001", datetime(2024, 5, 6))
            for line in WEEK_TELEMETRY
        )
        return learner, learner.update(week)

    async def weekly_update() -> None:
        print("\n== weekly update: continue pre-training + re-tune (off-loop) ==")
        # train in a thread: the live stream keeps scoring on generation 0
        learner, report = await asyncio.to_thread(train_week)
        print(f"week {report.week}: {report.n_lines} lines, "
              f"{report.n_positive_labels} IDS positives, "
              f"{len(results)} events served during training")
        bundle_v2 = workdir / "bundle-week1"
        exported = learner.export_service(bundle_v2, threshold=0.5)
        print(f"exported bundle {bundle_v2.name} (fingerprint {exported.fingerprint()})")
        swap = await server.swap_model(str(bundle_v2))
        print(f"hot swap: generation {swap.generation}, {swap.swap_ms:.1f} ms "
              f"({swap.cache_invalidated} cache entries purged)")
        swap_done.set()

    async with server:
        await asyncio.gather(
            *(producer(worker_id) for worker_id in range(producers)),
            weekly_update(),
        )

    by_generation = {}
    for result in results:
        by_generation.setdefault(result.generation, []).append(result)
    print("\n== outcome ==")
    for generation, scored in sorted(by_generation.items()):
        alerts = sum(r.is_intrusion for r in scored)
        print(f"generation {generation}: {len(scored)} events, {alerts} alerts")
    print(server.metrics.render())


if __name__ == "__main__":
    asyncio.run(main())
