"""CI smoke for sequence-aware escalation against a real two-stage bundle.

Trains the tiny demo service *plus* a multi-line head, saves the
two-stage bundle, then checks the acceptance path end to end:

1. a bundle saved with a multi-line head loads with
   ``has_sequence_head`` and answers with the same fingerprint;
2. ``DetectionServer.from_config`` with ``session.mode = "sequence"``
   serves both stages: a burst host escalates on its composed command
   window (the escalating alert carries ``context`` and
   ``sequence_score``) while a benign host stays quiet;
3. the second stage ran only on flagged events;
4. the resolved config — new session fields included — round-trips
   losslessly through ``--print-config``;
5. a 2-shard server on a 2-thread backend boots from the same bundle,
   serves a multi-host stream across both shards, and drains cleanly —
   every submitted event answered, zero drops, every alert delivered;
6. an evaded multi-stage campaign (every step respelled by a verified
   :class:`EvasionMutator` technique) replayed through a 2-shard server
   is invisible to the raw pipeline but fully recalled once
   canonicalization is switched on — per-campaign recall strictly above
   the raw baseline.

Run from the repository root:

    PYTHONPATH=src python scripts/scenario_smoke.py
"""

import io
import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.ids.pipeline import IntrusionDetectionService  # noqa: E402
from repro.loggen import CampaignBuilder  # noqa: E402
from repro.serving import (  # noqa: E402
    BatchConfig,
    CanonicalizeConfig,
    CommandEvent,
    DetectionServer,
    ServingConfig,
    ShardConfig,
    serve_stream,
)
from repro.serving.cli import serve_main  # noqa: E402
from repro.serving.demo import (  # noqa: E402
    DEMO_BENIGN,
    DEMO_MALICIOUS,
    build_two_stage_demo_service,
)

SEQUENCE_CONFIG = {
    "batch": {"max_batch": 8, "max_latency_ms": 10.0},
    "session": {
        "mode": "sequence",
        "sequence_threshold": 0.7,
        "escalation_threshold": 99,  # the count trigger stays out of reach
    },
}


def main() -> int:
    print("training the tiny two-stage demo service ...", flush=True)
    service = build_two_stage_demo_service()
    fingerprint = service.fingerprint()

    with tempfile.TemporaryDirectory(prefix="scenario-smoke-") as workdir:
        bundle = Path(workdir) / "bundle"
        service.save(bundle)
        assert (bundle / "multiline" / "head.npz").exists(), "bundle must ship stage 2"

        # 1. the two-stage bundle restores both stages
        restored = IntrusionDetectionService.load(bundle)
        assert restored.has_sequence_head, "loaded bundle lost its multi-line head"
        assert restored.fingerprint() == fingerprint, "two-stage fingerprint drifted"
        print("two-stage bundle round-trips (multiline/ head restored)")

        # 2. sequence-mode serving: burst host escalates, benign host doesn't
        config = ServingConfig.from_dict(SEQUENCE_CONFIG)
        server = DetectionServer.from_config(restored, config, record=False)
        events = [
            CommandEvent(line, host="victim", timestamp=float(i * 20))
            for i, line in enumerate(DEMO_MALICIOUS)
        ] + [
            CommandEvent(line, host="dev-1", timestamp=float(i * 20 + 5))
            for i, line in enumerate(DEMO_BENIGN)
        ]
        events.sort(key=lambda e: e.timestamp)
        results = serve_stream(server, events, concurrency=1)
        assert len(results) == len(events)
        assert server.sessions.escalated_hosts() == ["victim"], (
            "exactly the burst host must escalate: "
            f"{server.sessions.escalated_hosts()}"
        )
        victim = server.sessions.session("victim")
        assert victim.escalated_by == "sequence"
        escalating = [
            r.alert
            for r in results
            if r.alert is not None and r.alert.sequence_score is not None
        ]
        assert escalating, "flagged events must carry sequence scores"
        explained = [a for a in escalating if a.context and " ; " in a.context]
        assert explained, "the escalating alert must carry its composed context"

        # 3. second stage ran exactly once per flagged event
        flagged = sum(r.is_intrusion for r in results)
        assert server.metrics.sequence_scored == flagged > 0
        assert server.metrics.sequence_escalations == 1
        print(
            f"sequence mode: {flagged} flagged events, "
            f"{server.metrics.sequence_scored} second-stage passes, "
            f"escalated host explains itself via composed context"
        )

        # 4. --print-config round-trips the session fields losslessly
        config_file = Path(workdir) / "serve.json"
        config_file.write_text(json.dumps(SEQUENCE_CONFIG))
        captured = io.StringIO()
        code = serve_main(
            ["--config", str(config_file), "--bundle", str(bundle), "--print-config"],
            stdout=captured,
        )
        assert code == 0, f"--print-config exited {code}"
        resolved = ServingConfig.from_dict(json.loads(captured.getvalue()))
        assert resolved == ServingConfig.from_file(config_file), (
            "resolved sequence config does not round-trip"
        )
        assert resolved.session.mode == "sequence"
        print("sequence session config round-trips through --print-config")

        # 5. sharded threaded deployment: clean boot, spread, drain
        sharded_config = ServingConfig.from_dict(
            {
                "batch": {"max_batch": 8, "max_latency_ms": 10.0},
                "cache": {"size": 1024},
                "shards": {"count": 2},
                "backend": {"kind": "threaded", "workers": 2},
                "sinks": ["ring://4096"],
            }
        )
        sharded = DetectionServer.from_config(restored, sharded_config, record=False)
        fleet_events = [
            CommandEvent(line, host=f"node-{i % 8}", timestamp=float(i))
            for i, line in enumerate((DEMO_BENIGN + DEMO_MALICIOUS) * 4)
        ]
        results = serve_stream(sharded, fleet_events, concurrency=8)
        assert len(results) == len(fleet_events), (
            f"sharded server answered {len(results)}/{len(fleet_events)} events"
        )
        assert not any(r.dropped for r in results), "sharded drain dropped events"
        populated = [rt for rt in sharded.shards if rt.metrics.events_total > 0]
        assert len(populated) == 2, "both shards must carry traffic"
        flagged = sum(r.is_intrusion for r in results)
        stats = sharded.sinks.stats()
        delivered = sum(s.delivered for s in stats.values())
        lost = sum(s.dead_lettered + s.dropped for s in stats.values())
        assert delivered == flagged > 0 and lost == 0, (
            f"alert delivery across shards: {delivered}/{flagged} delivered, {lost} lost"
        )
        merged = sharded.metrics
        assert merged.events_total == len(fleet_events)
        print(
            f"2-shard threaded server: {len(fleet_events)} events across "
            f"{len(populated)} shards, {delivered} alerts delivered, 0 dropped, "
            f"clean drain"
        )

        # 6. canonicalization closes the evasion gap on a staged campaign
        campaign = CampaignBuilder(seed=5).build_one("smoke-campaign", "victim-evade")
        assert any(step.technique is not None for step in campaign.steps), (
            "the campaign must actually evade"
        )

        class SignatureService:
            """Stage-1 oracle knowing only *canonical* attack spellings."""

            threshold = 0.5
            has_sequence_head = False

            def __init__(self, known):
                self.known = known

            def preprocess(self, raw, *, with_ast=False):
                line = " ".join(raw.split()) or None
                return (line, None) if with_ast and line else line

            def score_normalized(self, lines):
                return np.array([0.9 if line in self.known else 0.1 for line in lines])

        signature_service = SignatureService({step.canonical for step in campaign.steps})
        campaign_events = [
            CommandEvent(line, host=campaign.host, timestamp=float(i * 10))
            for i, line in enumerate(campaign.lines)
        ] + [
            CommandEvent(line, host=f"dev-{i % 3}", timestamp=float(i * 10 + 5))
            for i, line in enumerate(DEMO_BENIGN)
        ]
        campaign_events.sort(key=lambda e: e.timestamp)
        recalls = {}
        for label, canonicalize in (("raw", False), ("canonical", True)):
            config = ServingConfig(
                batch=BatchConfig(max_latency_ms=5),
                shards=ShardConfig(count=2),
                canonicalize=CanonicalizeConfig(enabled=canonicalize),
            )
            server = DetectionServer(signature_service, config)
            results = serve_stream(server, campaign_events, concurrency=1)
            caught = sum(
                r.alert is not None for r in results if r.host == campaign.host
            )
            false_alarms = sum(
                r.alert is not None for r in results if r.host != campaign.host
            )
            assert false_alarms == 0, f"{label}: benign hosts must stay quiet"
            recalls[label] = caught / len(campaign.steps)
            if canonicalize:
                assert server.metrics.canonicalized > 0
                assert server.metrics.canonicalize_failures == 0
        assert recalls["canonical"] > recalls["raw"], (
            f"canonicalization must beat the raw baseline: {recalls}"
        )
        assert recalls["canonical"] == 1.0, (
            f"every evaded campaign step must be recalled: {recalls}"
        )
        print(
            f"evaded campaign ({len(campaign.steps)} steps, 2 shards): "
            f"raw recall {recalls['raw']:.2f} -> canonicalized recall "
            f"{recalls['canonical']:.2f}, zero false alarms"
        )

    print("scenario smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
