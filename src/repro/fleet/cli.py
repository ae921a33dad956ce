"""``repro-ids fleet-node`` / ``fleet-route`` / ``fleet-admin``.

Three entry points that together run a fleet from shells:

``fleet-node``
    One serving node: load a bundle (or train the demo service), build
    a :class:`~repro.serving.server.DetectionServer` from the
    deployment file's serving tables, and listen on ``--bind``.

``fleet-route``
    The ingest frontend: connect to every node in the deployment
    file's ``[fleet]`` table, stream a file or stdin through the
    fleet, drain, and print the merged fleet metrics.

``fleet-admin``
    Control plane, one verb per invocation::

        repro-ids fleet-admin --config fleet.toml status
        repro-ids fleet-admin --config fleet.toml swap ./new-bundle
        repro-ids fleet-admin --node 127.0.0.1:9101 drain

    ``status`` merges every node's metrics snapshot into fleet totals;
    ``swap`` rolls the fleet one node at a time, draining each node
    (it nacks ingest while draining, so a live router re-routes around
    it) and fencing each swap on the node's observed generation.

All three speak the frame protocol of :mod:`repro.fleet.protocol`;
``fleet-admin`` uses the blocking :class:`FleetChannel` so it needs no
event loop.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from collections.abc import Iterable
from typing import TextIO

from repro.errors import ConfigError, FleetError, ReproError
from repro.fleet.config import FleetConfig, load_fleet_file, parse_address
from repro.fleet.node import FleetNode
from repro.fleet.protocol import FleetChannel, admin_message
from repro.fleet.router import FleetRouter
from repro.serving.config import ServingConfig
from repro.serving.metrics import ServingMetrics
from repro.serving.server import DetectionServer


def _build_service(bundle: str | None, out: TextIO):
    if bundle is not None:
        from repro.ids.pipeline import IntrusionDetectionService

        return IntrusionDetectionService.load(bundle)
    from repro.serving.demo import build_demo_service

    print("no --bundle given; training a small demo service ...", file=out)
    return build_demo_service()


# -- fleet-node ---------------------------------------------------------------


def build_node_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ids fleet-node",
        description="Run one fleet serving node: a TCP face on a detection server.",
    )
    parser.add_argument(
        "--bind",
        required=True,
        metavar="HOST:PORT",
        help="ingest address to listen on (port 0 = OS-assigned, printed at start)",
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="deployment file (.toml/.json); this node uses its serving tables",
    )
    parser.add_argument(
        "--bundle",
        default=None,
        help="saved service bundle to serve (default: train a small demo service)",
    )
    parser.add_argument(
        "--node-id", default=None, help="stable node id for status output (default: bind)"
    )
    return parser


async def _run_node(args: argparse.Namespace, out: TextIO) -> int:
    host, port = parse_address(args.bind, path="--bind")
    if args.config is not None:
        _, serving = load_fleet_file(args.config)
    else:
        serving = ServingConfig()
    service = _build_service(args.bundle, out)
    server = DetectionServer.from_config(service, serving)
    node = FleetNode(server, host=host, port=port, node_id=args.node_id)
    await node.start()
    print(f"fleet node {node.node_id} listening on {node.address}", file=out, flush=True)
    try:
        await node.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await node.stop()
    return 0


def fleet_node_main(argv: Iterable[str] | None = None, stdout: TextIO | None = None) -> int:
    out = stdout or sys.stdout
    args = build_node_parser().parse_args(list(argv) if argv is not None else None)
    try:
        return asyncio.run(_run_node(args, out))
    except KeyboardInterrupt:
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# -- fleet-route --------------------------------------------------------------


def build_route_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ids fleet-route",
        description="Stream events through a fleet of serving nodes.",
    )
    parser.add_argument(
        "--config",
        required=True,
        metavar="FILE",
        help="deployment file with a [fleet] table naming the nodes",
    )
    parser.add_argument(
        "--input",
        default="-",
        help="event file, one event per line ('-' = stdin; default)",
    )
    parser.add_argument(
        "--limit", type=int, default=None, help="stop after this many input events"
    )
    parser.add_argument(
        "--no-heartbeats",
        action="store_true",
        help="disable heartbeat probing (liveness from connection failures only)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the merged metrics report"
    )
    return parser


async def _run_route(args: argparse.Namespace, out: TextIO) -> int:
    from repro.serving.cli import read_events

    fleet, _ = load_fleet_file(args.config)
    if args.input == "-":
        events = list(read_events(sys.stdin, args.limit))
    else:
        with open(args.input, encoding="utf-8") as handle:
            events = list(read_events(handle, args.limit))
    router = FleetRouter(fleet, heartbeats=not args.no_heartbeats)
    async with router:
        await router.submit_many(events)
        await router.drain()
        status = await router.status()
    merged = status["merged"]
    print(
        f"routed {router.events_submitted} events across "
        f"{len(status['nodes'])} nodes "
        f"({router.events_replayed} replayed, {router.nodes_evicted} evicted)",
        file=out,
    )
    if not args.quiet:
        print(json.dumps(status["router"], indent=2, default=str), file=out)
        print(json.dumps(merged, indent=2, default=str), file=out)
    return 0


def fleet_route_main(argv: Iterable[str] | None = None, stdout: TextIO | None = None) -> int:
    out = stdout or sys.stdout
    args = build_route_parser().parse_args(list(argv) if argv is not None else None)
    try:
        return asyncio.run(_run_route(args, out))
    except KeyboardInterrupt:
        return 130
    except OSError as exc:
        print(f"error: cannot read --input {args.input}: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# -- fleet-admin --------------------------------------------------------------


def build_admin_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ids fleet-admin",
        description="Control-plane verbs against a fleet or a single node.",
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--config",
        metavar="FILE",
        help="deployment file; the verb addresses every node in its [fleet] table",
    )
    target.add_argument(
        "--node", metavar="HOST:PORT", help="address a single node instead"
    )
    parser.add_argument(
        "--timeout", type=float, default=10.0, help="per-request timeout in seconds"
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    sub.add_parser("status", help="per-node status + merged fleet metrics")
    swap = sub.add_parser("swap", help="rolling generation-fenced model swap")
    swap.add_argument("bundle", help="bundle directory the nodes can reach")
    sub.add_parser("drain", help="node nacks new batches until undrained")
    sub.add_parser("undrain", help="resume accepting batches")
    return parser


def _admin_targets(args: argparse.Namespace) -> list[str]:
    if args.node is not None:
        parse_address(args.node, path="--node")
        return [args.node]
    fleet = FleetConfig.from_file(args.config)
    if not fleet.nodes:
        raise FleetError(f"{args.config} has no fleet.nodes to address")
    return list(fleet.nodes)


def _request(address: str, message: dict, timeout: float) -> dict:
    host, port = parse_address(address)
    try:
        with FleetChannel(host, port, timeout=timeout) as channel:
            answer = channel.request(message)
    except OSError as exc:
        raise FleetError(f"cannot reach node {address}: {exc}") from exc
    if answer.get("type") == "error":
        raise FleetError(f"{address} rejected the request: {answer.get('error')}")
    if answer.get("type") == "admin_ack" and not answer.get("ok", False):
        raise FleetError(f"{address} refused {message.get('verb')}: {answer.get('error')}")
    return answer


def _admin_status(targets: list[str], timeout: float, out: TextIO) -> int:
    nodes = []
    snapshots = []
    for address in targets:
        answer = _request(address, admin_message("status"), timeout)
        metrics = answer.pop("metrics", None)
        nodes.append(answer)
        if metrics is not None:
            snapshots.append(ServingMetrics.from_dict(metrics))
    merged = ServingMetrics.merged(snapshots) if snapshots else ServingMetrics()
    print(
        json.dumps({"nodes": nodes, "merged": merged.snapshot()}, indent=2, default=str),
        file=out,
    )
    return 0


def _admin_swap(targets: list[str], bundle: str, timeout: float, out: TextIO) -> int:
    """Roll *bundle* across the nodes, one at a time.

    Each node is drained first (it nacks ingest, so a live router
    re-routes around it), swapped behind a generation fence, then
    undrained — the standalone twin of
    :meth:`FleetRouter.swap_fleet` for fleets driven by an external
    router process.
    """
    generations = []
    for address in targets:
        _request(address, admin_message("drain"), timeout)
        try:
            status = _request(address, admin_message("status"), timeout)
            answer = _request(
                address,
                admin_message(
                    "swap", bundle=bundle, expect_generation=status.get("generation")
                ),
                timeout,
            )
        finally:
            _request(address, admin_message("undrain"), timeout)
        generations.append(answer.get("generation"))
        print(
            f"{address}: generation {answer.get('generation')} "
            f"(swap {answer.get('swap_ms', 0):.1f} ms)",
            file=out,
        )
    if len(set(generations)) > 1:
        raise FleetError(f"fleet did not converge: generations {generations}")
    print(f"fleet at generation {generations[0]}" if generations else "no nodes", file=out)
    return 0


def fleet_admin_main(argv: Iterable[str] | None = None, stdout: TextIO | None = None) -> int:
    out = stdout or sys.stdout
    args = build_admin_parser().parse_args(list(argv) if argv is not None else None)
    try:
        targets = _admin_targets(args)
        if args.verb == "status":
            return _admin_status(targets, args.timeout, out)
        if args.verb == "swap":
            return _admin_swap(targets, args.bundle, args.timeout, out)
        for address in targets:  # drain / undrain
            answer = _request(address, admin_message(args.verb), args.timeout)
            print(f"{address}: draining={answer.get('draining')}", file=out)
        return 0
    except (ConfigError, FleetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
