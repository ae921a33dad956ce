"""CI smoke for the multi-node fleet against real demo-service nodes.

Boots a two-node fleet over localhost TCP, streams a multi-host event
mix through the router, rolls a generation-fenced fleet swap while the
stream is live, and checks the acceptance path end to end:

1. ``examples/fleet.toml`` parses into both deployment views (the
   ``[fleet]`` table and the per-node serving config);
2. every submitted event is acknowledged — zero drops, zero orphans,
   nothing nacked into oblivion — and the in-flight window stayed
   bounded;
3. the rolling swap converges both nodes on generation 1 and **no
   acknowledged batch ever mixed model generations**;
4. the ``fleet-admin status`` CLI (the blocking channel, not the
   router's asyncio path) reports merged fleet totals equal to the sum
   of the per-node counters.

Run from the repository root:

    PYTHONPATH=src python scripts/fleet_smoke.py
"""

import asyncio
import io
import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fleet import FleetConfig, FleetNode, FleetRouter, load_fleet_file  # noqa: E402
from repro.fleet.cli import fleet_admin_main  # noqa: E402
from repro.serving import BatchConfig, DetectionServer, ServingConfig  # noqa: E402
from repro.serving.demo import DEMO_BENIGN, DEMO_MALICIOUS, build_demo_service  # noqa: E402

N_HOSTS = 10


def check(label: str, condition: bool) -> None:
    print(f"  {'PASS' if condition else 'FAIL'}  {label}")
    if not condition:
        sys.exit(1)


async def run_fleet(workdir: Path) -> None:
    print("== examples/fleet.toml parses into both views ==")
    fleet_view, serving_view = load_fleet_file(REPO_ROOT / "examples" / "fleet.toml")
    check("three nodes in the [fleet] table", len(fleet_view.nodes) == 3)
    check("serving tables survive the split", serving_view.shards.count == 2)

    print("== boot: two demo-service nodes ==")
    bundle_v2 = workdir / "bundle-v2"
    nodes = []
    for _ in range(2):
        server = DetectionServer(
            build_demo_service(),
            ServingConfig(batch=BatchConfig(max_batch=16, max_latency_ms=10)),
        )
        node = FleetNode(server, port=0)
        await node.start()
        nodes.append(node)
    nodes[0].server.service.save(bundle_v2)
    config = FleetConfig(
        nodes=tuple(node.address for node in nodes),
        batch_max_events=16,
        batch_max_latency_ms=10.0,
    )

    events = [
        (line, f"host-{index % N_HOSTS:02d}")
        for index, line in enumerate((DEMO_BENIGN * 3 + DEMO_MALICIOUS * 2) * 2)
    ]

    print(f"== stream {len(events)} events, rolling swap mid-stream ==")
    async with FleetRouter(config, heartbeats=False) as router:
        half = len(events) // 2

        async def producer():
            for line, host in events[half:]:
                await router.submit(line, host)
                await asyncio.sleep(0.001)

        for line, host in events[:half]:
            await router.submit(line, host)
        feeder = asyncio.ensure_future(producer())
        reports = await router.swap_fleet(str(bundle_v2))
        await feeder
        await router.drain()

        acks = list(router.acks)
        stats = router.stats()
        acked = sum(client.events_acked for client in router._clients.values())

        check("every event acknowledged", acked == len(events))
        check("zero orphans, zero evictions", stats["orphaned_events"] == 0
              and stats["nodes_evicted"] == 0)
        check("nothing nacked into oblivion", stats["batches_nacked"] == 0)
        check("swap rolled both nodes to generation 1",
              [r["generation"] for r in reports] == [1, 1])
        check("no acknowledged batch mixed generations",
              bool(acks) and all(len(a["generations"]) == 1 for a in acks))
        check("both generations served live traffic",
              {a["generations"][0] for a in acks} == {0, 1})

        merged = await router.merged_metrics()
        per_node_alerts = sum(node.server.metrics.alerts for node in nodes)
        check("merged events_total equals the stream", merged.events_total == len(events))
        check("merged alerts equal the per-node sum", merged.alerts == per_node_alerts)
        check("fleet latency reservoir is populated", merged.latency_percentile(50) > 0)

    print("== fleet-admin status over the blocking channel ==")
    deployment = workdir / "fleet.toml"
    deployment.write_text(
        "[fleet]\nnodes = [%s]\n" % ", ".join(f'"{n.address}"' for n in nodes)
    )
    buffer = io.StringIO()
    # the CLI channel blocks; the nodes live on *this* loop, so give the
    # CLI its own thread exactly like a real external admin process
    code = await asyncio.to_thread(
        fleet_admin_main, ["--config", str(deployment), "status"], buffer
    )
    check("fleet-admin status exits 0", code == 0)
    status = json.loads(buffer.getvalue())
    check("status lists both nodes", len(status["nodes"]) == 2)
    check(
        "CLI merged totals equal the node sum",
        status["merged"]["events_total"]
        == sum(n["events_ingested"] for n in status["nodes"])
        == len(events),
    )
    check("fleet converged on one generation",
          {n["generation"] for n in status["nodes"]} == {1})

    for node in nodes:
        await node.stop()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="fleet-smoke-") as workdir:
        asyncio.run(run_fleet(Path(workdir)))
    print("\nfleet smoke: all checks passed")


if __name__ == "__main__":
    main()
