"""A three-node fleet surviving a rolling swap and a node crash.

The paper's deployment serves "tens of millions of user command lines
every week" — more than one process.  This demo runs the whole
multi-node story in a single Python process, over real localhost TCP:

1. train the miniature demo service and start **three**
   :class:`FleetNode` s, each wrapping its own ``DetectionServer``;
2. stream mixed telemetry through a :class:`FleetRouter` that
   consistent-hashes each event's host across the nodes;
3. mid-stream, roll a **fleet-wide model swap** one node at a time —
   traffic keeps flowing, no batch mixes model generations;
4. then **kill a node outright** — its unacknowledged batches are
   replayed to the survivors and only its hosts are reassigned;
5. drain and print the merged fleet metrics: exact totals and
   percentiles from every node's reservoir, dead node included.

Run with::

    PYTHONPATH=src python examples/fleet_demo.py
"""

import asyncio
import tempfile
from pathlib import Path

from repro.fleet import FleetConfig, FleetNode, FleetRouter
from repro.serving import BatchConfig, DetectionServer, ServingConfig
from repro.serving.demo import DEMO_BENIGN, DEMO_MALICIOUS, build_demo_service

TELEMETRY = DEMO_BENIGN * 3 + DEMO_MALICIOUS * 2
#: Each server flushes micro-batches of 16 events, or after 10 ms.
SERVING = ServingConfig(batch=BatchConfig(max_batch=16, max_latency_ms=10))
N_NODES = 3
N_HOSTS = 12


async def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="fleet-demo-"))

    print("== deploy: one bundle, three nodes ==")
    service = build_demo_service()
    bundle_v2 = workdir / "bundle-v2"
    service.save(bundle_v2)

    nodes: list[FleetNode] = []
    for _ in range(N_NODES):
        server = DetectionServer(build_demo_service(), SERVING)
        node = FleetNode(server, port=0)
        await node.start()
        nodes.append(node)
        print(f"node {node.node_id} listening on {node.address}")

    config = FleetConfig(
        nodes=tuple(node.address for node in nodes),
        batch_max_events=16,
        batch_max_latency_ms=10.0,
        heartbeat_interval_seconds=0.1,
        heartbeat_timeout_seconds=0.5,
        suspicion_misses=2,
    )

    events = [
        (line, f"host-{index % N_HOSTS:02d}")
        for index, line in enumerate(TELEMETRY * 3)
    ]
    third = len(events) // 3

    async with FleetRouter(config) as router:
        print(f"\n== stream: {len(events)} events across {N_HOSTS} hosts ==")
        for line, host in events[:third]:
            await router.submit(line, host)

        print("\n== rolling fleet swap (traffic keeps flowing) ==")
        async def keep_streaming():
            for line, host in events[third : 2 * third]:
                await router.submit(line, host)
                await asyncio.sleep(0.001)

        feeder = asyncio.ensure_future(keep_streaming())
        reports = await router.swap_fleet(str(bundle_v2))
        await feeder
        for report in reports:
            print(
                f"  {report['node_id']}: generation {report['generation']} "
                f"(swap {report['swap_ms']:.1f} ms, drain {report['drain_ms']:.1f} ms)"
            )

        victim = nodes[1]
        print(f"\n== kill {victim.node_id} mid-stream ==")
        await victim.kill()
        for line, host in events[2 * third :]:
            await router.submit(line, host)
        await router.drain()
        print(f"survivors: {router.live_nodes}")
        for entry in router.log:
            print(f"  log: {entry}")

        print("\n== merged fleet metrics ==")
        status = await router.status()
        merged = status["merged"]
        print(f"router stats: {status['router']}")
        print(
            f"fleet totals: events={merged['events_total']} "
            f"alerts={merged['alerts']} dropped={merged['dropped']} "
            f"p50={merged['latency_p50_ms']}ms p99={merged['latency_p99_ms']}ms"
        )
        for entry in status["nodes"]:
            print(
                f"  {entry['node_id']}: generation={entry['generation']} "
                f"events={entry['events_ingested']} batches={entry['batches_ingested']}"
            )

    for node in nodes:
        if node is not victim:
            await node.stop()
    print("\nfleet demo complete: zero events lost, fleet at one generation")


if __name__ == "__main__":
    asyncio.run(main())
