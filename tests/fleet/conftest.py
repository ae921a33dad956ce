"""Shared helpers for the fleet suite.

Every test runs a *real* fleet — N :class:`FleetNode` s listening on
OS-assigned localhost ports, speaking the real frame protocol over real
TCP — but in one process and one event loop, with the deterministic
:class:`StubService` standing in for the language model, so the suite
is fast, hermetic, and inspectable (each node's server and sinks are
reachable as Python objects).
"""

import asyncio

import pytest

from repro.fleet import FleetConfig, FleetNode, FleetRouter
from repro.serving import BatchConfig, CallbackSink, DetectionServer, ServingConfig
from tests.serving.conftest import StubService


#: Node servers flush a micro-batch after 5 ms instead of 25.
FAST_FLUSH = ServingConfig(batch=BatchConfig(max_latency_ms=5.0))


def run(coro):
    return asyncio.run(coro)


class FleetHarness:
    """N in-process nodes + the config that names them."""

    def __init__(self, nodes: list[FleetNode], config: FleetConfig):
        self.nodes = nodes
        self.config = config
        self.alerts: dict[str, list] = {node.address: [] for node in nodes}

    def node_at(self, address: str) -> FleetNode:
        return next(node for node in self.nodes if node.address == address)

    def all_alert_keys(self) -> set[tuple[str, str]]:
        """Every (host, line) alerted anywhere in the fleet."""
        return {
            (alert.host, alert.line)
            for alerts in self.alerts.values()
            for alert in alerts
        }


async def start_fleet(
    n_nodes: int,
    *,
    make_service=StubService,
    fleet_overrides: dict | None = None,
    swap_resolver=None,
) -> FleetHarness:
    """Start *n_nodes* stub-backed nodes on OS-assigned ports."""
    nodes = []
    for _ in range(n_nodes):
        server = DetectionServer(make_service(), FAST_FLUSH)
        node = FleetNode(server, port=0, swap_resolver=swap_resolver)
        await node.start()
        nodes.append(node)
    config = FleetConfig(
        nodes=tuple(node.address for node in nodes),
        batch_max_events=8,
        batch_max_latency_ms=5.0,
        max_inflight_batches=4,
        drain_timeout_seconds=10.0,
        **(fleet_overrides or {}),
    )
    harness = FleetHarness(nodes, config)
    for node in nodes:
        sink_alerts = harness.alerts[node.address]
        node.server.sinks.add(CallbackSink(sink_alerts.append), name="test-capture")
    return harness


async def stop_fleet(harness: FleetHarness) -> None:
    for node in harness.nodes:
        try:
            await node.stop()
        except Exception:
            pass


@pytest.fixture
def stream():
    """A deterministic multi-host event stream factory.

    ``stream(n, hosts)`` yields ``(line, host)`` pairs: unique lines,
    every one an intrusion for :class:`StubService` (contains 'evil'),
    hosts cycling so each host's stream is non-trivial.
    """

    def make(n: int, hosts: int = 12):
        return [
            (f"evil payload number {index}", f"host-{index % hosts:02d}")
            for index in range(n)
        ]

    return make
