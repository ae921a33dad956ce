"""Seeded event streams for the five workloads, and the offline reference.

``--seed`` seeds only what is generated here (``FleetSimulator``,
``build_evasion_corpus``, the interleaving RNG); the system under test
is fixed.  The same seed gives byte-identical event lists — each stream
carries a sha256 digest so two runs can prove they measured the same
input.

Why these workloads (the ``why`` lines of ``BENCHMARK.json`` in full):

``unique_batch``
    Lines distinct *after* canonicalization, cold cache: the
    de-duplicated-day case.  Cache and sessions do almost nothing, the
    tokenizer and the LM forward are the wall.  Kernel, precision and
    padding work must show here.
``warm_batch``
    A natural repeat-heavy fleet stream replayed against a cache that
    already holds every line: the long-running-node case.  The model
    does nothing, the wall is preprocess + canonicalize fast path +
    cache + sessions + shard/server self time.  Model optimisations
    must show *no change* here; plumbing work shows here.
``paced_events``
    Open loop, one event at a time through ``submit_event`` on a fixed
    schedule: the only workload that enters the shard through
    ``process`` + ``MicroBatcher`` instead of ``process_batch``, so a
    batch-path gain that costs the per-event twin shows here.
``campaign_hybrid``
    Attack-heavy loggen traffic with the evasion corpus interleaved,
    hybrid escalation and a JSONL sink: the incident case, where the
    canonicalizer's AST slow path, the sequence head and alert delivery
    do real work.
``fleet_wire``
    The ``warm_batch`` stream through ``FleetRouter`` and two loopback
    ``FleetNode`` s: with the model out of the way, the difference to
    ``warm_batch`` prices the wire.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from repro.loggen.evasion import build_evasion_corpus
from repro.loggen.fleet import FleetConfig, FleetSimulator
from repro.preprocess.canonicalize import Canonicalizer
from repro.serving.events import CommandEvent

#: Events per ``submit_many`` call on the closed-loop workloads.
CHUNK = 256
#: ``cache.size`` of every workload's serving config.
CACHE_SIZE = 8192
#: Fixed open-loop schedule of ``paced_events``.
PACED_RATE = 300.0
#: Events per timing segment of the paced schedule (0.5 s).
PACED_SLICE = 150
#: Share of the timed paced events whose line the server has not seen
#: yet.  A miss costs ~50 hits, and the natural share (28 ± 3% after the
#: warm prefix) varies enough by seed to move CPU per event by 15%; a
#: fixed share keeps that figure about the program, not the seed.
PACED_NEW_SHARE = 0.25

#: Users of the simulated fleet.  Loggen draws each user's role and a
#: heavy-tailed activity per seed; with its default 60 users a few heavy
#: users decide the line mix and streams of different seeds differ by 4%
#: in bytes however long they are.  480 users on the same 150 machines
#: bring that to ~1.5% and put ~135 hosts in a stream.
FLEET_USERS = 480

_EPOCH = datetime(1970, 1, 1)
_START = datetime(2022, 6, 1)


@dataclass(frozen=True)
class Sizes:
    """Stream lengths and repeats; ``quick`` shrinks them for the smoke.

    ``paced_lead_in`` is the untimed paced stretch that warms the
    per-event code path; ``campaign`` counts the loggen events, a tenth
    as many evasion variants are spliced in (the whole ~270-case corpus
    at full size).
    """

    unique: int = 1024
    warm: int = 8000
    paced_prefix: int = 3000
    paced_lead_in: int = 150
    campaign: int = 2700
    setup_reps: int = 5

    @classmethod
    def quick(cls) -> "Sizes":
        return cls(
            unique=200, warm=200, paced_prefix=100, paced_lead_in=30, campaign=150, setup_reps=2
        )


def _events(records) -> list[CommandEvent]:
    return [
        CommandEvent(
            line=record.line,
            host=record.machine,
            timestamp=(record.timestamp - _EPOCH).total_seconds(),
        )
        for record in records
    ]


def natural_stream(seed: int, count: int, attack_session_rate: float | None = None):
    """Exactly *count* time-ordered loggen events for *seed*."""
    simulator = FleetSimulator(FleetConfig(seed=seed, n_users=FLEET_USERS))
    data = simulator.generate(
        _START, days=1, target_lines=count, attack_session_rate=attack_session_rate
    )
    return _events(list(data)[:count])


def digest(events) -> str:
    """sha256 over the exact bytes of an event list."""
    sha = hashlib.sha256()
    for event in events:
        sha.update(f"{event.host}\x1f{event.timestamp!r}\x1f{event.line}\x1e".encode())
    return sha.hexdigest()


class Reference:
    """The offline oracle: ``preprocess → canonicalize → score_normalized
    ≥ threshold`` over a service instance no server ever touches."""

    def __init__(self, service):
        self.service = service
        self.canonicalizer = Canonicalizer(
            truncation_length=getattr(service.normalizer, "max_length", None)
        )
        self._canonical: dict[str, str | None] = {}

    def canonical(self, line: str) -> str | None:
        """Cache-key form of *line*; ``None`` when preprocess drops it.

        Memoized: streams repeat lines, and the generators ask before
        :meth:`verdicts` does.
        """
        if line not in self._canonical:
            normalized = self.service.preprocess(line)
            if normalized is not None:
                normalized = self.canonicalizer.canonicalize(normalized).text
            self._canonical[line] = normalized
        return self._canonical[line]

    def verdicts(self, events) -> list[bool | None]:
        """Per event: ``None`` (dropped) or the expected ``is_intrusion``."""
        keys = [self.canonical(event.line) for event in events]
        unique = list(dict.fromkeys(key for key in keys if key is not None))
        scores = self.service.score_normalized(unique)
        flagged = dict(zip(unique, (scores >= self.service.threshold).tolist()))
        return [None if key is None else flagged[key] for key in keys]


def unique_stream(seed: int, count: int, reference: Reference):
    """*count* events whose canonical forms are pairwise distinct."""
    simulator = FleetSimulator(FleetConfig(seed=seed, n_users=FLEET_USERS))
    seen: set[str] = set()
    events: list[CommandEvent] = []
    day = 0
    while len(events) < count:
        data = simulator.generate(_START + timedelta(days=day), days=1, target_lines=4 * count)
        day += 1
        for event in _events(data):
            key = reference.canonical(event.line)
            if key is None or key in seen:
                continue
            seen.add(key)
            events.append(event)
            if len(events) == count:
                break
    if len({reference.canonical(event.line) for event in events}) != count:
        raise RuntimeError("unique_batch stream is not distinct after canonicalization")
    return events


def campaign_stream(seed: int, count: int):
    """Attack-heavy loggen traffic with every evasion variant spliced in.

    Variants take the host and timestamp of the natural event they are
    inserted after, so they land inside live per-host sessions.
    """
    base = natural_stream(seed, count, attack_session_rate=0.25)
    rng = np.random.default_rng(seed)
    cases = build_evasion_corpus(seed)[: count // 10]
    slots = np.sort(rng.integers(0, len(base), size=len(cases)))
    events: list[CommandEvent] = []
    cursor = 0
    for position, anchor in enumerate(base):
        events.append(anchor)
        while cursor < len(cases) and slots[cursor] == position:
            events.append(
                CommandEvent(
                    line=cases[cursor].variant, host=anchor.host, timestamp=anchor.timestamp
                )
            )
            cursor += 1
    return events


def paced_stream(seed: int, head: int, timed: int, reference: Reference):
    """*head* events (warm prefix + lead-in) as generated, then *timed*
    events in generated order of which exactly ``PACED_NEW_SHARE`` are
    first-seen lines (events beyond either quota are skipped)."""
    candidates = natural_stream(seed, head + 4 * timed + 400)
    events = candidates[:head]
    seen = {reference.canonical(event.line) for event in events}
    fresh = round(timed * PACED_NEW_SHARE)
    quota = {True: fresh, False: timed - fresh}
    for event in candidates[head:]:
        key = reference.canonical(event.line)
        is_new = key is not None and key not in seen
        if quota[is_new]:
            quota[is_new] -= 1
            seen.add(key)
            events.append(event)
    if len(events) != head + timed:
        raise RuntimeError(f"paced stream came up short of its quotas: {quota}")
    return events


def build_stream(workload: str, seed: int, sizes: Sizes, reference: Reference, seconds: float):
    """The event list of *workload* for *seed* (see module docstring)."""
    if workload == "unique_batch":
        return unique_stream(seed, sizes.unique, reference)
    if workload in ("warm_batch", "fleet_wire"):
        events = natural_stream(seed, sizes.warm)
        working_set = len({reference.canonical(event.line) for event in events})
        if working_set > CACHE_SIZE:
            raise RuntimeError(f"warm working set {working_set} exceeds the cache ({CACHE_SIZE})")
        return events
    if workload == "paced_events":
        head = sizes.paced_prefix + sizes.paced_lead_in
        return paced_stream(seed, head, int(PACED_RATE * seconds), reference)
    if workload == "campaign_hybrid":
        return campaign_stream(seed, sizes.campaign)
    raise ValueError(f"unknown workload {workload!r}")
