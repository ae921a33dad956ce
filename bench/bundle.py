"""The fixed system under test: one trained two-stage bundle on disk.

Training is this benchmark's build step.  The bundle is trained once
per checkout into ``.bench_build/`` (git-ignored) and every later run
serves the ``IntrusionDetectionService.load()``-ed copy, so ``--seed``
never touches the model and a run's set-up is what a deployed node
pays: load, compile, warm up.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.experiments.common import WorldConfig, build_world
from repro.experiments.methods import HEAD_EPOCHS, HEAD_LR, training_subset
from repro.ids import IntrusionDetectionService
from repro.serving.demo import build_two_stage_demo_service
from repro.tuning import ClassificationTuner
from repro.tuning.multiline import MultiLineClassificationTuner

#: Small loggen-trained world: ~12 s to train on 2 cores, a few percent
#: alert rate on loggen traffic (the 15-line demo service flags ~60% and
#: would turn every workload into a sink test).
WORLD = WorldConfig(
    train_lines=3000,
    test_lines=3000,
    vocab_size=600,
    pretrain_epochs=1,
    tuning_subsample=1500,
    seed=1,
)


def _train_real() -> IntrusionDetectionService:
    world = build_world(WORLD, use_cache=False)
    subset = training_subset(world, seed=0)
    head = {"lr": HEAD_LR, "epochs": HEAD_EPOCHS, "pooling": "mean", "seed": 0}
    tuner = ClassificationTuner(world.encoder, **head)
    tuner.fit(subset.lines, subset.labels)
    service = IntrusionDetectionService.from_tuner(tuner, threshold=0.5)
    multiline = MultiLineClassificationTuner(world.encoder, **head)
    ordered = world.train.sorted_by_time()
    multiline.fit_dataset(ordered, world.ids.label(ordered.lines()))
    return service.attach_multiline(multiline)


def ensure_bundle(build_dir: Path, *, quick: bool) -> Path:
    """Path of the trained bundle, training it on first use.

    Written to a sibling directory and renamed into place, so an
    interrupted build never leaves a half bundle that later runs load.
    """
    target = build_dir / ("bundle-quick" if quick else "bundle")
    if (target / "service.json").exists():
        return target
    service = build_two_stage_demo_service() if quick else _train_real()
    staging = build_dir / f"{target.name}.partial"
    shutil.rmtree(staging, ignore_errors=True)
    service.save(staging)
    shutil.rmtree(target, ignore_errors=True)
    staging.rename(target)
    return target
