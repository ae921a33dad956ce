"""Loggen-driven scenario replay for the serving path.

The serving suite's unit tests drive :class:`DetectionServer` with
hand-picked lines; this module replays *labelled multi-host streams*
synthesized from the telemetry generator (:mod:`repro.loggen`) —
realistic attack sessions from :class:`AttackSampler`, role-driven
benign traffic from :class:`BenignSessionGenerator`, ground truth from
:class:`GroundTruthOracle` — end to end through the server, so tests can
assert *who escalates, when, and with which status* under each
escalation policy.

Stage-1 verdicts come from :class:`OracleService`, a deterministic
stand-in whose per-line scores follow the scenario's ground truth and
whose sequence scores follow the composed window's malicious content
(high only when the context corroborates — at least two malicious
segments).  That isolates exactly what these tests prove: the
escalation *policy* layer, not the model's accuracy.

Build a scenario with :class:`ScenarioBuilder`, replay it with
:func:`replay`::

    builder = ScenarioBuilder(seed=7)
    builder.low_and_slow_attacker("h-slow", user="mallory")
    scenario = builder.build("low-and-slow")
    report = replay(scenario, mode="sequence")
    assert report.escalated == {"h-slow"}
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from repro.loggen import (
    AttackSampler,
    BenignSessionGenerator,
    Campaign,
    CommandDataset,
    EvasionMutator,
    FleetConfig,
    FleetSimulator,
    GroundTruthOracle,
    LogRecord,
    Variant,
)
from repro.serving import (
    BatchConfig,
    CanonicalizeConfig,
    CommandEvent,
    DetectionServer,
    ServingConfig,
    SessionConfig,
    ShardConfig,
    serve_stream,
)
from repro.tuning.multiline import SEPARATOR

#: Scenario clock zero (the paper's test window).
EPOCH = datetime(2022, 5, 29)

#: Heavy-tail "abnormal yet benign" lines the oracle scores just above
#: threshold — the false alarms a count policy can be stampeded by.
NOISY_BENIGN_TEMPLATES = (
    "mv /data/archive-{i:04d}.tar /mnt/backup/archive-{i:04d}.tar",
    "tar -czf /tmp/rotate-{i:04d}.tgz /var/log/app-{i:04d}",
    "find / -name 'core.{i:04d}' -size +1G -delete",
)


def normalize(raw: str) -> str:
    """The oracle's preprocessing: whitespace collapse (never drops)."""
    return " ".join(raw.split())


@dataclass(frozen=True)
class Scenario:
    """A labelled multi-host event stream plus its ground truth."""

    name: str
    dataset: CommandDataset
    events: tuple[CommandEvent, ...]
    malicious_lines: frozenset[str]
    noisy_lines: frozenset[str]
    hosts: frozenset[str]


class ScenarioBuilder:
    """Compose attack/benign traffic into one time-sorted scenario.

    All ``at`` offsets are seconds from :data:`EPOCH`; every builder
    method returns the list of raw lines it injected so tests can anchor
    assertions to specific commands.
    """

    def __init__(self, seed: int = 0, start: datetime = EPOCH):
        rng = np.random.default_rng(seed)
        self._attacks = AttackSampler(np.random.default_rng(int(rng.integers(2**31))))
        self._benign = BenignSessionGenerator(np.random.default_rng(int(rng.integers(2**31))))
        self._mutator = EvasionMutator(rng=np.random.default_rng(int(rng.integers(2**31))))
        self._records: list[LogRecord] = []
        self._noisy: set[str] = set()
        #: Canonical signature forms the detector "knows" (added to the
        #: malicious set even though no event carries them verbatim).
        self._signatures: set[str] = set()
        #: Normalized evasion-variant spellings (removed from the
        #: malicious set — the raw detector must *not* know them).
        self._evaded: set[str] = set()
        self._noise_counter = 0
        self.start = start

    # -- primitives --------------------------------------------------------

    def _add(
        self,
        line: str,
        host: str,
        user: str,
        at: float,
        *,
        malicious: bool,
        scenario: str,
        variant: Variant,
    ) -> None:
        self._records.append(
            LogRecord(
                line=line,
                user=user,
                machine=host,
                timestamp=self.start + timedelta(seconds=at),
                scenario=scenario,
                is_malicious=malicious,
                variant=variant,
            )
        )

    def _attack_lines(self, n: int, inbox: bool) -> list[tuple[str, str]]:
        """At least *n* instantiated attack lines as (family, line)."""
        out: list[tuple[str, str]] = []
        while len(out) < n:
            family, session = self._attacks.sample_any(inbox=inbox)
            out.extend((family, line) for line in session)
        return out[:n]

    def _benign_lines(self, role: str, user: str, n: int) -> list[tuple[str, str]]:
        """At least *n* benign lines as (scenario, line)."""
        out: list[tuple[str, str]] = []
        while len(out) < n:
            plan = self._benign.generate(role, user)
            out.extend((plan.scenario, line) for line in plan.lines)
        return out[:n]

    # -- scenario shapes ---------------------------------------------------

    def attack_burst(
        self,
        host: str,
        user: str = "mallory",
        at: float = 0.0,
        n: int = 6,
        spacing: float = 10.0,
        inbox: bool = True,
    ) -> list[str]:
        """A classic smash-and-grab: *n* attack lines *spacing* apart."""
        lines = []
        for index, (family, line) in enumerate(self._attack_lines(n, inbox)):
            self._add(
                line,
                host,
                user,
                at + index * spacing,
                malicious=True,
                scenario=f"attack.{family}",
                variant=Variant.INBOX if inbox else Variant.OUTBOX,
            )
            lines.append(line)
        return lines

    def low_and_slow_attacker(
        self,
        host: str,
        user: str = "mallory",
        at: float = 0.0,
        n: int = 4,
        spacing: float = 150.0,
        camouflage_role: str | None = "devops",
        inbox: bool = False,
    ) -> list[str]:
        """An attacker pacing alerts *under* the count threshold.

        Attack lines land every *spacing* seconds — sparse enough that a
        rolling count window never fills — with one benign camouflage
        line between each pair (as a patient intruder interleaves normal
        activity).  The attack lines stay temporally contiguous enough
        that a composed context window still reads as a sequence.
        """
        lines = []
        attack = self._attack_lines(n, inbox)
        camouflage = (
            self._benign_lines(camouflage_role, user, max(n - 1, 0))
            if camouflage_role
            else []
        )
        for index, (family, line) in enumerate(attack):
            self._add(
                line,
                host,
                user,
                at + index * spacing,
                malicious=True,
                scenario=f"attack.{family}",
                variant=Variant.INBOX if inbox else Variant.OUTBOX,
            )
            lines.append(line)
            if index < len(camouflage):
                scenario, benign_line = camouflage[index]
                self._add(
                    benign_line,
                    host,
                    user,
                    at + index * spacing + spacing / 2,
                    malicious=False,
                    scenario=scenario,
                    variant=Variant.BENIGN,
                )
        return lines

    def evasion_burst(
        self,
        host: str,
        user: str = "mallory",
        at: float = 0.0,
        n: int = 6,
        spacing: float = 10.0,
        technique: str | None = None,
        inbox: bool = True,
    ) -> list[str]:
        """An attack burst respelled through :class:`EvasionMutator`.

        The *events* carry evasion variants (quote fragments, ``$IFS``,
        base64 pipelines, …) while the detector's known-malicious set is
        seeded with the **canonical** form of each base line only — so
        the raw pipeline misses every variant and a canonicalizing
        pipeline resolves all of them.  Returns the variant lines.
        """
        lines: list[str] = []
        while len(lines) < n:
            family, session = self._attacks.sample_any(inbox=inbox)
            for base in session:
                mutated = self._mutator.mutate(base, technique)
                if mutated is None:
                    continue
                used, variant = mutated
                canonical = self._mutator.canonical(base)
                self._add(
                    variant,
                    host,
                    user,
                    at + len(lines) * spacing,
                    malicious=True,
                    scenario=f"evasion.{family}.{used}",
                    variant=Variant.INBOX if inbox else Variant.OUTBOX,
                )
                self._signatures.add(canonical)
                self._evaded.add(normalize(variant))
                lines.append(variant)
                if len(lines) >= n:
                    break
        return lines

    def campaign(
        self,
        campaign: Campaign,
        user: str = "mallory",
        at: float = 0.0,
        spacing: float = 20.0,
    ) -> list[str]:
        """Place a staged :class:`Campaign` on its own host.

        Each step's emitted line becomes a malicious event; the
        detector's signature set learns the step's canonical form (and
        the base spelling, so un-evaded steps stay catchable raw) while
        evaded spellings are excluded from it.
        """
        for index, step in enumerate(campaign.steps):
            self._add(
                step.line,
                campaign.host,
                user,
                at + index * spacing,
                malicious=True,
                scenario=f"campaign.{campaign.name}.{step.stage}",
                variant=Variant.INBOX,
            )
            self._signatures.add(step.canonical)
            self._signatures.add(normalize(step.base))
            if step.technique is not None:
                self._evaded.add(normalize(step.line))
        return campaign.lines

    def benign_power_user(
        self,
        host: str,
        user: str = "alice",
        role: str = "developer",
        at: float = 0.0,
        sessions: int = 6,
        session_gap: float = 120.0,
        spacing: float = 5.0,
    ) -> list[str]:
        """A heavy but honest user: back-to-back benign sessions."""
        lines = []
        cursor = at
        for _ in range(sessions):
            plan = self._benign.generate(role, user)
            for line in plan.lines:
                self._add(
                    line,
                    host,
                    user,
                    cursor,
                    malicious=False,
                    scenario=plan.scenario,
                    variant=Variant.BENIGN,
                )
                lines.append(line)
                cursor += spacing
            cursor += session_gap
        return lines

    def noisy_benign_burst(
        self,
        host: str,
        user: str = "bob",
        at: float = 0.0,
        n: int = 6,
        spacing: float = 10.0,
    ) -> list[str]:
        """Abnormal-yet-benign lines the oracle flags as borderline.

        These produce genuine stage-1 alerts (false positives) in a
        tight burst — enough to stampede a count policy — while the
        ground truth, and therefore the sequence stage, stays benign.
        """
        lines = []
        for index in range(n):
            template = NOISY_BENIGN_TEMPLATES[self._noise_counter % len(NOISY_BENIGN_TEMPLATES)]
            line = template.format(i=self._noise_counter)
            self._noise_counter += 1
            self._add(
                line,
                host,
                user,
                at + index * spacing,
                malicious=False,
                scenario="benign.abnormal",
                variant=Variant.BENIGN,
            )
            self._noisy.add(normalize(line))
            lines.append(line)
        return lines

    def lateral_movement(
        self,
        hosts: list[str],
        user: str = "mallory",
        at: float = 0.0,
        per_host: int = 2,
        spacing: float = 60.0,
        hop_gap: float = 90.0,
        inbox: bool = False,
    ) -> dict[str, list[str]]:
        """An attacker hopping across *hosts*, a few commands on each.

        Per host the alert count stays far below any sane count
        threshold; only the per-host composed windows betray the
        pattern.
        """
        placed: dict[str, list[str]] = {}
        cursor = at
        for host in hosts:
            placed[host] = []
            for family, line in self._attack_lines(per_host, inbox):
                self._add(
                    line,
                    host,
                    user,
                    cursor,
                    malicious=True,
                    scenario=f"attack.{family}",
                    variant=Variant.INBOX if inbox else Variant.OUTBOX,
                )
                placed[host].append(line)
                cursor += spacing
            cursor += hop_gap
        return placed

    def background_fleet(
        self,
        n_lines: int = 200,
        days: int = 1,
        n_users: int = 10,
        n_machines: int = 20,
        seed: int = 0,
    ) -> CommandDataset:
        """Ambient benign fleet traffic from the full simulator.

        A :class:`FleetSimulator` run with the attack rate forced to
        zero: role-driven sessions, typos, heavy-tail noise — the
        background a real deployment escalates *against*.  Its machines
        (``m000000``-style hosts) are disjoint from hand-placed scenario
        hosts, so expectations about who escalates stay exact.
        """
        config = FleetConfig(
            n_users=n_users,
            n_machines=n_machines,
            attack_session_rate=0.0,
            seed=seed,
        )
        data = FleetSimulator(config).generate(self.start, days=days, target_lines=n_lines)
        self._records.extend(data.records)
        return data

    # -- assembly ----------------------------------------------------------

    def build(self, name: str) -> Scenario:
        """Time-sort everything into a replayable labelled scenario.

        The detector's known-malicious set starts from ground truth,
        then *forgets* evasion-variant spellings and *learns* canonical
        signature forms — so what the oracle recognizes is the
        signature library, not a transcript of the attack.
        """
        dataset = CommandDataset(self._records).sorted_by_time()
        labels = GroundTruthOracle(dataset).labels()
        malicious = frozenset(
            {
                normalize(record.line)
                for record, label in zip(dataset, labels)
                if label == 1
            }
            - self._evaded
            | self._signatures
        )
        events = tuple(
            CommandEvent(
                line=record.line,
                host=record.machine,
                timestamp=record.timestamp.timestamp(),
            )
            for record in dataset
        )
        hosts = frozenset(record.machine for record in dataset)
        return Scenario(
            name=name,
            dataset=dataset,
            events=events,
            malicious_lines=malicious,
            noisy_lines=frozenset(self._noisy),
            hosts=hosts,
        )


class OracleService:
    """Deterministic two-stage service backed by scenario ground truth.

    Stage 1 scores 0.9 for truly-malicious lines, 0.6 for designated
    noisy-benign lines (false alarms), 0.1 otherwise.  Stage 2 scores a
    composed window 0.9 when at least two of its ``;``-separated
    segments are truly malicious (the context corroborates), else 0.2.
    """

    threshold = 0.5
    has_sequence_head = True

    def __init__(
        self, malicious_lines: frozenset[str], noisy_lines: frozenset[str] = frozenset()
    ):
        self.malicious = malicious_lines
        self.noisy = noisy_lines
        self.scored_batches: list[list[str]] = []
        #: Every composed text the second stage was asked to score.
        self.sequence_calls: list[str] = []

    @classmethod
    def for_scenario(cls, scenario: Scenario) -> "OracleService":
        return cls(scenario.malicious_lines, scenario.noisy_lines)

    def preprocess(self, raw: str, *, with_ast: bool = False):
        line = normalize(raw) or None
        return (line, None) if with_ast and line else line

    def score_normalized(self, lines):
        self.scored_batches.append(list(lines))
        return np.array(
            [
                0.9 if line in self.malicious else (0.6 if line in self.noisy else 0.1)
                for line in lines
            ]
        )

    def score_sequence(self, texts):
        scores = []
        for text in texts:
            self.sequence_calls.append(text)
            segments = [segment.strip() for segment in text.split(SEPARATOR)]
            hits = sum(segment in self.malicious for segment in segments)
            scores.append(0.9 if hits >= 2 else 0.2)
        return np.array(scores)


@dataclass(frozen=True)
class CampaignOutcome:
    """Detection quality for one staged campaign within a replay."""

    name: str
    host: str
    steps: int
    caught: int
    precision: float
    recall: float


@dataclass
class ReplayReport:
    """Everything a scenario assertion needs from one replay."""

    scenario: Scenario
    mode: str
    results: list
    server: DetectionServer
    service: OracleService

    @property
    def escalated(self) -> set[str]:
        return set(self.server.sessions.escalated_hosts())

    def session(self, host: str):
        return self.server.sessions.session(host)

    def alerts_for(self, host: str) -> list:
        return [r.alert for r in self.results if r.alert is not None and r.host == host]

    def _labelled(self):
        """(record, result) pairs — replay order equals dataset order."""
        assert len(self.results) == len(self.scenario.dataset)
        return zip(self.scenario.dataset, self.results)

    @property
    def recall(self) -> float:
        """Fraction of truly-malicious events that raised an alert."""
        truth = caught = 0
        for record, result in self._labelled():
            if record.is_malicious:
                truth += 1
                caught += result.alert is not None
        return caught / truth if truth else 1.0

    @property
    def precision(self) -> float:
        """Fraction of raised alerts that were truly malicious."""
        alerts = true_positives = 0
        for record, result in self._labelled():
            if result.alert is not None:
                alerts += 1
                true_positives += record.is_malicious
        return true_positives / alerts if alerts else 1.0

    def campaign_outcome(self, campaign: Campaign) -> CampaignOutcome:
        """Per-campaign precision/recall, scoped to the campaign's host."""
        steps = caught = alerts = true_positives = 0
        for record, result in self._labelled():
            if result.host != campaign.host:
                continue
            if record.is_malicious:
                steps += 1
                caught += result.alert is not None
            if result.alert is not None:
                alerts += 1
                true_positives += record.is_malicious
        return CampaignOutcome(
            name=campaign.name,
            host=campaign.host,
            steps=steps,
            caught=caught,
            precision=true_positives / alerts if alerts else 1.0,
            recall=caught / steps if steps else 1.0,
        )


def replay(
    scenario: Scenario,
    mode: str = "count",
    *,
    window_seconds: float = 300.0,
    escalation_threshold: int = 5,
    sequence_threshold: float = 0.5,
    context_window: int = 3,
    context_max_gap_seconds: float = 180.0,
    max_hosts: int = 100_000,
    shards: int = 1,
    canonicalize: bool = False,
    service: OracleService | None = None,
) -> ReplayReport:
    """Replay *scenario* through a real :class:`DetectionServer`.

    Events run through the full serving path (preprocess → cache →
    micro-batch → threshold → sessions → sinks) under the given
    escalation policy.  ``concurrency=1`` keeps submission order equal
    to the stream's time order, so context composition — and therefore
    who escalates when — is fully deterministic.  *shards* routes hosts
    across that many shard runtimes — escalation verdicts must not
    depend on it (the sharded-parity tests assert exactly that).
    ``canonicalize=True`` switches on the AST canonicalization stage
    between preprocess and the cache seam.
    """
    service = service or OracleService.for_scenario(scenario)
    session = SessionConfig(
        window_seconds=window_seconds,
        escalation_threshold=escalation_threshold,
        mode=mode,
        sequence_threshold=sequence_threshold,
        context_window=context_window,
        context_max_gap_seconds=context_max_gap_seconds,
        max_hosts=max_hosts,
    )
    config = ServingConfig(
        batch=BatchConfig(max_latency_ms=5),
        session=session,
        shards=ShardConfig(count=shards),
        canonicalize=CanonicalizeConfig(enabled=canonicalize),
    )
    server = DetectionServer(service, config)
    results = serve_stream(server, list(scenario.events), concurrency=1)
    return ReplayReport(
        scenario=scenario, mode=mode, results=results, server=server, service=service
    )
