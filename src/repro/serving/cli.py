"""``repro-ids serve`` — stream a file or stdin through the detection server.

The deployment is described by a declarative config
(:class:`~repro.serving.config.ServingConfig`), resolved in layers:

1. ``--config serve.toml`` (TOML or JSON file), else the config
   recorded in the ``--bundle`` metadata, else built-in defaults;
2. individual flags (``--max-batch``, ``--workers``, ``--cache-size``,
   ...) override the corresponding config fields;
3. ``--sink URI`` appends sinks (``ring://4096``,
   ``jsonl:///var/alerts.jsonl``, ``webhook://siem:8080/alerts``,
   ``tcp://collector:9000``); ``--alerts-out FILE`` is shorthand for a
   ``jsonl://`` sink.

``--print-config`` emits the fully-resolved config as JSON and exits —
the output parses back to an equal config (CI smoke-tests this), so a
resolved deployment can be frozen into a file.

Input is one event per line: either a bare command line, or a JSON
object ``{"line": ..., "host": ..., "timestamp": ...}`` (``host`` and
``timestamp`` optional).  A file input is read to EOF and then streamed
through the server by concurrent producers; ``--input -`` **follows**
stdin live, submitting each event as it arrives.  Alerts print to
stdout as they are confirmed and metrics + per-sink delivery stats
print at the end.

.. code-block:: console

   $ repro-ids serve --config examples/serve.toml --bundle ./bundle
   $ repro-ids serve --input telemetry.log --sink webhook://siem:8080/alerts
   $ repro-ids serve --config serve.toml --backend threaded --workers 4 --print-config
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import urllib.parse
from collections.abc import Iterable, Iterator
from typing import TextIO

from repro.errors import ConfigError, ReproError
from repro.serving.config import (
    BACKEND_KINDS,
    SESSION_MODES,
    ServingConfig,
    SinkSpec,
    load_recorded_config,
)
from repro.serving.events import CommandEvent
from repro.serving.server import DetectionServer, serve_stream, tail_stream
from repro.serving.sinks import CallbackSink


def build_serve_parser() -> argparse.ArgumentParser:
    """Argument definition for the ``serve`` subcommand.

    Tunable flags default to ``None`` so the resolver can tell "not
    given" (keep the config file's value) from an explicit override.
    """
    parser = argparse.ArgumentParser(
        prog="repro-ids serve",
        description="Stream command-line events through the detection server.",
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="deployment config file (.toml or .json); individual flags "
        "override its values",
    )
    parser.add_argument(
        "--print-config",
        action="store_true",
        help="print the fully-resolved config as JSON and exit",
    )
    parser.add_argument(
        "--input",
        default="-",
        help="event file, one event per line ('-' = follow stdin live; default). "
        "Files are read to EOF before serving; stdin is tailed, submitting "
        "events as they arrive from an unbounded pipe",
    )
    parser.add_argument(
        "--bundle",
        default=None,
        help="saved IntrusionDetectionService bundle to serve "
        "(default: train a small demo service first)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="scoring threads each micro-batch is sharded across; more than "
        "1 needs --backend threaded (default 1)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKEND_KINDS,
        default=None,
        help="where the LM forward pass runs: inline (on the event loop; "
        "default) or threaded (a thread pool of --workers)",
    )
    parser.add_argument(
        "--compiled",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="compile the model into a graph-free float32 inference plan for "
        "the scoring hot path (scores within ~1e-6 of the Tensor path, same "
        "verdicts); falls back to the Tensor path automatically when the "
        "model cannot be compiled (default on).  --no-compiled serves the "
        "bit-exact float64 Tensor path",
    )
    parser.add_argument(
        "--max-batch", type=int, default=None, help="micro-batch flush size (default 32)"
    )
    parser.add_argument(
        "--max-latency-ms",
        type=float,
        default=None,
        help="micro-batch flush deadline (default 25)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=None, help="LRU score-cache capacity (default 4096)"
    )
    parser.add_argument(
        "--canonicalize",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="rewrite each normalized line to canonical shell form "
        "(dequote, $IFS tricks, env/command/eval wrappers, base64 "
        "decode-exec pipelines) before the score cache, so evasion "
        "variants of one command share a cache entry (default off)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard runtimes to consistent-hash hosts across; each owns its "
        "own batcher, cache, and session table (default 1)",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=None,
        help="in-process producer tasks feeding the server (default 8)",
    )
    parser.add_argument(
        "--sink",
        action="append",
        default=None,
        metavar="URI",
        help="add an alert sink by URI (ring://N, jsonl://PATH, "
        "webhook://HOST:PORT/PATH, tcp://HOST:PORT); repeatable",
    )
    parser.add_argument(
        "--alerts-out",
        default=None,
        metavar="FILE",
        help="also append alerts to this JSONL file (shorthand for a jsonl:// sink)",
    )
    parser.add_argument(
        "--window-seconds",
        type=float,
        default=None,
        help="per-host escalation window (default 300)",
    )
    parser.add_argument(
        "--escalate-after",
        type=int,
        default=None,
        help="alerts in window that escalate a host (default 5)",
    )
    parser.add_argument(
        "--session-mode",
        choices=SESSION_MODES,
        default=None,
        help="escalation policy: count (alert rate), sequence (score the "
        "host's composed command window with the bundle's multi-line head), "
        "or hybrid (either trigger; default count)",
    )
    parser.add_argument(
        "--sequence-threshold",
        type=float,
        default=None,
        help="sequence score at which a host escalates (default 0.5)",
    )
    parser.add_argument(
        "--context-window",
        type=int,
        default=None,
        help="lines per composed per-host context window (default 3)",
    )
    parser.add_argument(
        "--context-max-gap",
        type=float,
        default=None,
        metavar="SECONDS",
        help="maximum age of a context line relative to the flagged line "
        "(default 180)",
    )
    parser.add_argument(
        "--max-hosts",
        type=int,
        default=None,
        help="tracked-host bound; least recently seen hosts are evicted "
        "beyond it (default 100000)",
    )
    parser.add_argument(
        "--limit", type=int, default=None, help="stop after this many input events"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-alert output (metrics only)"
    )
    return parser


def resolve_config(args: argparse.Namespace) -> ServingConfig:
    """Layer the resolved :class:`ServingConfig` for this invocation.

    Base: ``--config`` file if given, else the config recorded in the
    ``--bundle`` metadata, else defaults.  Explicitly-passed flags
    override individual fields; ``--sink``/``--alerts-out`` append sink
    specs.  Raises :class:`~repro.errors.ConfigError` with an
    actionable message for anything invalid.
    """
    if args.config is not None:
        base = ServingConfig.from_file(args.config)
    elif args.bundle is not None:
        base = load_recorded_config(args.bundle) or ServingConfig()
    else:
        base = ServingConfig()

    def override(node, **candidates):
        changes = {key: value for key, value in candidates.items() if value is not None}
        return dataclasses.replace(node, **changes) if changes else node

    sinks = list(base.sinks)
    for uri in args.sink or []:
        sinks.append(SinkSpec(uri=uri))
    if args.alerts_out is not None:
        # percent-quote so path characters special to URIs ('#', '?',
        # '%', spaces) survive the round-trip into jsonl://
        quoted = urllib.parse.quote(args.alerts_out)
        sinks.append(SinkSpec(uri=f"jsonl://{quoted}", name="alerts-out"))

    return dataclasses.replace(
        base,
        batch=override(
            base.batch, max_batch=args.max_batch, max_latency_ms=args.max_latency_ms
        ),
        cache=override(base.cache, size=args.cache_size),
        backend=override(
            base.backend,
            kind=args.backend,
            workers=args.workers,
            compiled=args.compiled,
        ),
        canonicalize=override(base.canonicalize, enabled=args.canonicalize),
        shards=override(base.shards, count=args.shards),
        session=override(
            base.session,
            window_seconds=args.window_seconds,
            escalation_threshold=args.escalate_after,
            mode=args.session_mode,
            sequence_threshold=args.sequence_threshold,
            context_window=args.context_window,
            context_max_gap_seconds=args.context_max_gap,
            max_hosts=args.max_hosts,
        ),
        sinks=tuple(sinks),
        concurrency=args.concurrency if args.concurrency is not None else base.concurrency,
    )


def parse_event(text: str) -> CommandEvent | None:
    """One input line → event (``None`` for blank lines).

    JSON-object lines carry explicit host/timestamp; anything else is a
    bare command line from an anonymous host.
    """
    text = text.rstrip("\n")
    if not text.strip():
        return None
    if text.lstrip().startswith("{"):
        try:
            record = json.loads(text)
        except json.JSONDecodeError:
            record = None
        if isinstance(record, dict) and "line" in record:
            try:
                timestamp = float(record["timestamp"])
            except (KeyError, TypeError, ValueError):
                timestamp = None
            return CommandEvent(
                line=str(record["line"]),
                host=str(record.get("host", "-")),
                timestamp=timestamp,
            )
    return CommandEvent(line=text)


def read_events(stream: TextIO, limit: int | None = None) -> Iterator[CommandEvent]:
    """Parse events from *stream*, skipping blanks, up to *limit*."""
    if limit is not None and limit <= 0:
        return
    count = 0
    for raw in stream:
        event = parse_event(raw)
        if event is None:
            continue
        yield event
        count += 1
        if limit is not None and count >= limit:
            return


def serve_main(argv: Iterable[str] | None = None, stdout: TextIO | None = None) -> int:
    """Entry point for ``repro-ids serve``; returns a process exit code."""
    out = stdout or sys.stdout
    args = build_serve_parser().parse_args(list(argv) if argv is not None else None)

    # resolve the deployment before anything slow: config mistakes must
    # fail fast with the offending key, not after a model load
    try:
        config = resolve_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.print_config:
        print(config.to_json(), file=out)
        return 0

    # read file input before building the (possibly slow-to-train)
    # service, so input mistakes fail fast and cleanly; stdin is tailed
    # live later instead
    events: list[CommandEvent] | None = None
    if args.input != "-":
        try:
            with open(args.input, encoding="utf-8") as handle:
                events = list(read_events(handle, args.limit))
        except OSError as exc:
            print(f"error: cannot read --input {args.input}: {exc}", file=sys.stderr)
            return 2

    if args.bundle is not None:
        from repro.ids.pipeline import IntrusionDetectionService

        try:
            service = IntrusionDetectionService.load(args.bundle)
        except ReproError as exc:
            print(f"error: cannot load --bundle {args.bundle}: {exc}", file=sys.stderr)
            return 2
    else:
        from repro.serving.demo import build_demo_service

        print("no --bundle given; training a small demo service ...", file=out)
        try:
            service = build_demo_service()
        except ReproError as exc:
            print(f"error: demo service training failed: {exc}", file=sys.stderr)
            return 2

    try:
        server = DetectionServer.from_config(service, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # CLI convenience on top of the configured sinks: per-alert console
    # output unless --quiet
    if not args.quiet:

        def print_alert(alert):
            sequence = (
                f" seq={alert.sequence_score:.3f}" if alert.sequence_score is not None else ""
            )
            print(
                f"ALERT {alert.severity.value:>8} {alert.status.value:>9} "
                f"host={alert.host} score={alert.score:.3f}{sequence} {alert.line}",
                file=out,
            )

        server.sinks.add(CallbackSink(print_alert), name="cli-console")

    if events is None:
        results = tail_stream(
            server,
            sys.stdin,
            concurrency=config.concurrency,
            limit=args.limit,
            parse=parse_event,
        )
    else:
        results = serve_stream(server, events, concurrency=config.concurrency)

    escalated = server.sessions.escalated_hosts()
    if escalated:
        print(f"escalated hosts: {', '.join(sorted(escalated))}", file=out)
    print(f"\nprocessed {len(results)} events", file=out)
    print(server.metrics.render(), file=out)
    print(server.sinks.render(), file=out)
    return 0
