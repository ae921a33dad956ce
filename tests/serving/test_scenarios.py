"""Scenario-replay tests: escalation policies against labelled fleets.

Each test synthesizes a labelled multi-host stream with the loggen-based
:class:`~tests.serving.scenarios.ScenarioBuilder` and replays it through
a real :class:`DetectionServer`, asserting who escalates, when, and with
which status under the ``count`` / ``sequence`` / ``hybrid`` policies.
The flagship case is the low-and-slow attacker: invisible to the alert
*rate* policy, caught by the sequence stage.
"""

from repro.loggen import CampaignBuilder
from repro.serving import (
    BatchConfig,
    CanonicalizeConfig,
    DetectionServer,
    ServingConfig,
    SessionConfig,
    serve_stream,
)
from repro.serving.events import AlertStatus
from repro.tuning.multiline import SEPARATOR

from tests.serving.scenarios import EPOCH, OracleService, ScenarioBuilder, replay

BASE = EPOCH.timestamp()


def low_and_slow_scenario(seed=7):
    builder = ScenarioBuilder(seed=seed)
    builder.low_and_slow_attacker("h-slow", user="mallory", n=4, spacing=150.0)
    return builder.build("low-and-slow")


def burst_scenario(seed=11):
    builder = ScenarioBuilder(seed=seed)
    builder.attack_burst("h-burst", user="mallory", n=6, spacing=10.0)
    return builder.build("burst")


class TestLowAndSlow:
    """The flagship: an attacker pacing alerts under the count threshold."""

    def test_count_mode_misses_the_attack(self):
        report = replay(low_and_slow_scenario(), mode="count")
        # 4 alerts spread at 150 s never put 5 inside a 300 s window
        assert report.escalated == set()
        assert report.server.metrics.alerts == 4
        # stage 2 never runs under the count policy
        assert report.service.sequence_calls == []
        assert report.server.metrics.sequence_scored == 0

    def test_sequence_mode_catches_the_attack(self):
        report = replay(low_and_slow_scenario(), mode="sequence")
        assert report.escalated == {"h-slow"}
        session = report.session("h-slow")
        assert session.escalated_by == "sequence"
        # escalated on the second attack line, when the composed window
        # first corroborates (the first attack line is still in context)
        assert session.escalated_at == BASE + 150.0
        assert session.sequence_score == 0.9
        assert report.server.metrics.escalations == 1
        assert report.server.metrics.sequence_escalations == 1

    def test_escalating_alert_explains_itself(self):
        report = replay(low_and_slow_scenario(), mode="sequence")
        alerts = report.alerts_for("h-slow")
        assert [a.status for a in alerts] == [
            AlertStatus.OPEN,
            AlertStatus.ESCALATED,
            AlertStatus.ESCALATED,
            AlertStatus.ESCALATED,
        ]
        escalating = alerts[1]
        # the alert payload carries the composed context and its score,
        # so a sink can explain *why* the host escalated
        assert escalating.sequence_score == 0.9
        assert escalating.context is not None and SEPARATOR in escalating.context
        assert escalating.context.endswith(escalating.line)
        assert escalating.to_json()["sequence_score"] == 0.9
        assert escalating.to_json()["context"] == escalating.context

    def test_second_stage_runs_only_on_flagged_events(self):
        report = replay(low_and_slow_scenario(), mode="sequence")
        flagged = [r for r in report.results if r.is_intrusion]
        assert len(report.service.sequence_calls) == len(flagged) == 4
        assert report.server.metrics.sequence_scored == 4
        # benign camouflage lines were observed as context but never
        # pushed through the sequence head
        assert all(r.sequence_score is None for r in report.results if not r.is_intrusion)


class TestBurstAttacker:
    def test_both_policies_catch_a_burst(self):
        for mode in ("count", "sequence", "hybrid"):
            report = replay(burst_scenario(), mode=mode)
            assert report.escalated == {"h-burst"}, mode

    def test_sequence_escalates_earlier_than_count(self):
        count_at = replay(burst_scenario(), mode="count").session("h-burst").escalated_at
        seq_at = replay(burst_scenario(), mode="sequence").session("h-burst").escalated_at
        assert count_at == BASE + 40.0  # fifth alert fills the window
        assert seq_at == BASE + 10.0  # second alert corroborates the context
        assert seq_at < count_at

    def test_hybrid_takes_whichever_trigger_fires_first(self):
        by_sequence = replay(burst_scenario(), mode="hybrid").session("h-burst")
        assert by_sequence.escalated_by == "sequence"
        # with the sequence trigger effectively disabled, hybrid still
        # escalates through the count path
        by_count = replay(
            burst_scenario(), mode="hybrid", sequence_threshold=1.0
        ).session("h-burst")
        assert by_count.escalated_by == "count"
        assert by_count.escalated_at == BASE + 40.0


class TestBenignTraffic:
    def test_power_user_escalates_under_no_policy(self):
        builder = ScenarioBuilder(seed=3)
        builder.benign_power_user("h-dev", user="alice", role="developer", sessions=8)
        scenario = builder.build("power-user")
        for mode in ("count", "sequence", "hybrid"):
            report = replay(scenario, mode=mode)
            assert report.escalated == set(), mode
            assert report.server.metrics.alerts == 0

    def test_sequence_mode_ignores_false_alarm_bursts(self):
        """A burst of abnormal-yet-benign lines stampedes the count
        policy but not the sequence stage: the composed windows carry no
        malicious context."""
        builder = ScenarioBuilder(seed=5)
        builder.noisy_benign_burst("h-noisy", user="bob", n=6, spacing=10.0)
        scenario = builder.build("noisy-benign")

        count_report = replay(scenario, mode="count")
        assert count_report.escalated == {"h-noisy"}  # the false escalation

        seq_report = replay(scenario, mode="sequence")
        assert seq_report.escalated == set()
        # every false alarm *was* double-checked by the sequence stage
        assert len(seq_report.service.sequence_calls) == 6
        assert seq_report.session("h-noisy").sequence_score == 0.2


class TestLateralMovement:
    def test_per_host_counts_hide_the_hops_sequence_does_not(self):
        hosts = ["web-1", "web-2", "db-1"]
        builder = ScenarioBuilder(seed=13)
        builder.lateral_movement(hosts, user="mallory", per_host=2, spacing=60.0)
        scenario = builder.build("lateral")

        assert replay(scenario, mode="count").escalated == set()
        report = replay(scenario, mode="sequence")
        assert report.escalated == set(hosts)
        for host in hosts:
            assert report.session(host).escalated_by == "sequence"


class TestShardedReplayParity:
    """The shard-refactor acceptance: routing hosts across 4 shard
    runtimes must not change a single escalation verdict on the fleet
    scenarios — sharding is a throughput decomposition, not policy."""

    @staticmethod
    def _assert_parity(scenario, mode, **kwargs):
        single = replay(scenario, mode=mode, **kwargs)
        sharded = replay(scenario, mode=mode, shards=4, **kwargs)
        assert sharded.escalated == single.escalated
        # per-event verdicts agree event for event
        assert len(sharded.results) == len(single.results)
        for a, b in zip(single.results, sharded.results):
            assert (a.host, a.line, a.is_intrusion) == (b.host, b.line, b.is_intrusion)
        # every alert was delivered (zero silent drops across shards)
        flagged = sum(r.is_intrusion for r in sharded.results)
        stats = sharded.server.sinks.stats()
        assert all(s.dead_lettered == s.dropped == 0 for s in stats.values())
        assert sharded.server.metrics.alerts == flagged
        # and whoever escalated did so for the same reason
        for host in sharded.escalated:
            assert (
                sharded.session(host).escalated_by == single.session(host).escalated_by
            )

    def test_low_and_slow_parity(self):
        for mode in ("count", "sequence"):
            self._assert_parity(low_and_slow_scenario(), mode)

    def test_lateral_movement_parity(self):
        hosts = ["web-1", "web-2", "db-1"]
        builder = ScenarioBuilder(seed=13)
        builder.lateral_movement(hosts, user="mallory", per_host=2, spacing=60.0)
        scenario = builder.build("lateral")
        self._assert_parity(scenario, "sequence")

    def test_mixed_fleet_parity(self):
        builder = ScenarioBuilder(seed=21)
        builder.attack_burst("h-burst", user="eve", at=30.0)
        builder.low_and_slow_attacker("h-slow", user="mallory", at=0.0)
        builder.benign_power_user("h-dev", user="alice", at=0.0, sessions=6)
        builder.lateral_movement(["web-1", "web-2"], user="trudy", at=200.0, per_host=2)
        builder.background_fleet(n_lines=300)
        scenario = builder.build("mixed-fleet")
        for mode in ("count", "sequence", "hybrid"):
            self._assert_parity(scenario, mode)

    def test_sharded_replay_spreads_hosts(self):
        """The parity above is meaningful only if the fleet actually
        lands on several shards."""
        builder = ScenarioBuilder(seed=21)
        builder.background_fleet(n_lines=200)
        scenario = builder.build("fleet")
        report = replay(scenario, mode="count", shards=4)
        populated = [
            shard for shard in report.server.shards if shard.sessions.sessions()
        ]
        assert len(populated) >= 3


def evasion_scenario(seed=17, n=8):
    builder = ScenarioBuilder(seed=seed)
    builder.evasion_burst("h-evade", user="mallory", n=n, spacing=10.0)
    builder.benign_power_user("h-dev", user="alice", sessions=4)
    return builder.build("evasion")


def campaign_fixture(seed=19, count=3):
    campaigns = CampaignBuilder(seed=seed).build(count)
    builder = ScenarioBuilder(seed=seed)
    for index, campaign in enumerate(campaigns):
        builder.campaign(campaign, at=index * 500.0, spacing=20.0)
    builder.benign_power_user("h-dev", user="alice", sessions=4)
    return campaigns, builder.build("campaigns")


class TestEvasionCorpus:
    """The canonicalization acceptance: evasion variants that slip past
    the raw detector are caught once the canonicalization stage maps
    them back onto their signatured form."""

    def test_canonicalized_recall_strictly_beats_raw(self):
        scenario = evasion_scenario()
        raw = replay(scenario, mode="count")
        canonical = replay(scenario, mode="count", canonicalize=True)
        # the headline gap the whole stage exists for
        assert canonical.recall > raw.recall
        assert canonical.recall == 1.0
        assert raw.recall == 0.0
        # resolving variants must not cost precision
        assert canonical.precision == 1.0

    def test_raw_pipeline_misses_every_variant(self):
        report = replay(evasion_scenario(), mode="count")
        assert report.server.metrics.alerts == 0
        assert report.escalated == set()

    def test_canonicalized_pipeline_escalates_the_evader(self):
        report = replay(evasion_scenario(), mode="count", canonicalize=True)
        assert report.escalated == {"h-evade"}
        assert report.server.metrics.alerts == 8

    def test_canonicalize_metrics_account_the_rewrites(self):
        report = replay(evasion_scenario(), mode="count", canonicalize=True)
        snapshot = report.server.metrics.snapshot()
        assert snapshot["canonicalized"] >= 8
        assert snapshot["canonicalize_failures"] == 0
        assert snapshot["canonicalize_truncated"] == 0
        raw_snapshot = replay(evasion_scenario(), mode="count").server.metrics.snapshot()
        assert raw_snapshot["canonicalized"] == 0

    def test_sharded_canonicalized_replay_agrees(self):
        scenario = evasion_scenario()
        single = replay(scenario, mode="count", canonicalize=True)
        sharded = replay(scenario, mode="count", canonicalize=True, shards=4)
        assert sharded.escalated == single.escalated
        assert sharded.recall == single.recall

    def test_canonicalize_off_is_byte_identical_to_absent(self):
        """``enabled=false`` must reproduce today's pipeline exactly —
        same normalized lines, same scores, same verdicts."""
        scenario = evasion_scenario()
        reports = []
        base = ServingConfig(
            batch=BatchConfig(max_latency_ms=5), session=SessionConfig(mode="count")
        )
        explicit = ServingConfig(
            batch=base.batch, session=base.session, canonicalize=CanonicalizeConfig(enabled=False)
        )
        for config in (base, explicit):
            service = OracleService.for_scenario(scenario)
            server = DetectionServer(service, config)
            results = serve_stream(server, list(scenario.events), concurrency=1)
            reports.append((results, service))
        (absent_results, absent_service), (off_results, off_service) = reports
        assert off_service.scored_batches == absent_service.scored_batches
        assert len(off_results) == len(absent_results)
        for a, b in zip(absent_results, off_results):
            assert (a.line, a.score, a.is_intrusion, a.cache_hit) == (
                b.line,
                b.score,
                b.is_intrusion,
                b.cache_hit,
            )


class TestCampaignReplay:
    def test_per_campaign_recall_flips_with_canonicalization(self):
        campaigns, scenario = campaign_fixture()
        raw = replay(scenario, mode="count")
        canonical = replay(scenario, mode="count", canonicalize=True)
        for campaign in campaigns:
            raw_outcome = raw.campaign_outcome(campaign)
            canon_outcome = canonical.campaign_outcome(campaign)
            assert raw_outcome.steps == len(campaign.steps)
            assert canon_outcome.recall == 1.0, campaign.name
            assert canon_outcome.precision == 1.0, campaign.name
            assert canon_outcome.recall > raw_outcome.recall, campaign.name

    def test_campaign_stages_all_alert_canonicalized(self):
        campaigns, scenario = campaign_fixture()
        report = replay(scenario, mode="count", canonicalize=True)
        for campaign in campaigns:
            outcome = report.campaign_outcome(campaign)
            assert outcome.caught == outcome.steps == len(campaign.steps)

    def test_benign_host_stays_quiet_under_canonicalization(self):
        _, scenario = campaign_fixture()
        report = replay(scenario, mode="count", canonicalize=True)
        assert report.alerts_for("h-dev") == []
        assert "h-dev" not in report.escalated


class TestMixedFleet:
    def test_interleaved_fleet_escalates_exactly_the_guilty_hosts(self):
        builder = ScenarioBuilder(seed=21)
        builder.attack_burst("h-burst", user="eve", at=30.0)
        builder.low_and_slow_attacker("h-slow", user="mallory", at=0.0)
        builder.benign_power_user("h-dev", user="alice", at=0.0, sessions=6)
        builder.lateral_movement(["web-1", "web-2"], user="trudy", at=200.0, per_host=2)
        # ambient simulator traffic: hundreds of benign lines across a
        # simulated fleet, interleaved with the attacks by timestamp
        builder.background_fleet(n_lines=300)
        scenario = builder.build("mixed-fleet")
        assert len(scenario.hosts) > 10  # the fleet really is in the stream
        guilty = {"h-burst", "h-slow", "web-1", "web-2"}

        count_report = replay(scenario, mode="count")
        assert count_report.escalated == {"h-burst"}

        seq_report = replay(scenario, mode="sequence")
        assert seq_report.escalated == guilty
        assert "h-dev" not in seq_report.escalated
        # ground truth sanity: the generator really labelled the stream
        assert scenario.dataset.n_malicious() == len(
            [r for r in seq_report.results if r.is_intrusion]
        )
