"""Tests for the MLM pre-training loop and the encoder API."""

import numpy as np
import pytest

from repro.lm import CommandEncoder, CommandLineLM, LMConfig, MLMCollator, Pretrainer
from repro.lm.encoder_api import forward_chunks
from repro.tokenizer import BPETokenizer

CORPUS = [
    "ls -la /tmp",
    "ls /home/user",
    "docker ps -a",
    "docker run -it ubuntu bash",
    "grep error /var/log/app.log",
    "python main.py --verbose",
    "cat /etc/passwd",
    "ps aux | grep nginx",
] * 12


@pytest.fixture(scope="module")
def tokenizer():
    return BPETokenizer(vocab_size=300).train(CORPUS)


@pytest.fixture(scope="module")
def trained(tokenizer):
    config = LMConfig.tiny(vocab_size=len(tokenizer.vocab))
    model = CommandLineLM(config)
    collator = MLMCollator(tokenizer, mask_prob=0.15, max_length=config.max_position, seed=0)
    trainer = Pretrainer(model, collator, lr=3e-3, batch_size=16, seed=0)
    report = trainer.train(CORPUS, epochs=3)
    return model, report


class TestPretrainer:
    def test_loss_decreases(self, trained):
        _, report = trained
        first = np.mean(report.losses[:5])
        last = report.smoothed_loss(10)
        assert last < first * 0.9

    def test_report_counts_steps(self, trained):
        _, report = trained
        expected = ((len(CORPUS) + 15) // 16) * 3
        assert report.steps == expected

    def test_masked_accuracy_improves(self, trained):
        _, report = trained
        assert np.mean(report.masked_accuracies[-10:]) > np.mean(report.masked_accuracies[:5])

    def test_model_left_in_eval_mode(self, trained):
        model, _ = trained
        assert model.training is False

    def test_max_steps_cap(self, tokenizer):
        config = LMConfig.tiny(vocab_size=len(tokenizer.vocab))
        model = CommandLineLM(config)
        collator = MLMCollator(tokenizer, max_length=config.max_position, seed=0)
        report = Pretrainer(model, collator, batch_size=8, seed=0).train(
            CORPUS, epochs=10, max_steps=4
        )
        assert report.steps == 4

    def test_progress_callback(self, tokenizer):
        config = LMConfig.tiny(vocab_size=len(tokenizer.vocab))
        model = CommandLineLM(config)
        collator = MLMCollator(tokenizer, max_length=config.max_position, seed=0)
        seen = []
        Pretrainer(model, collator, batch_size=8, seed=0).train(
            CORPUS[:16], epochs=1, progress=lambda step, loss: seen.append(step)
        )
        assert seen == list(range(1, len(seen) + 1))

    def test_empty_corpus_raises(self, tokenizer):
        config = LMConfig.tiny(vocab_size=len(tokenizer.vocab))
        model = CommandLineLM(config)
        collator = MLMCollator(tokenizer, max_length=config.max_position)
        with pytest.raises(ValueError):
            Pretrainer(model, collator).train([], epochs=1)

    def test_invalid_batch_size(self, tokenizer):
        config = LMConfig.tiny(vocab_size=len(tokenizer.vocab))
        model = CommandLineLM(config)
        collator = MLMCollator(tokenizer, max_length=config.max_position)
        with pytest.raises(ValueError):
            Pretrainer(model, collator, batch_size=0)

    def test_final_loss_property(self, trained):
        _, report = trained
        assert report.final_loss == report.losses[-1]


class TestCommandEncoder:
    def test_embed_shape(self, trained, tokenizer):
        model, _ = trained
        encoder = CommandEncoder(model, tokenizer)
        vectors = encoder.embed(["ls -la /tmp", "docker ps -a"])
        assert vectors.shape == (2, model.config.hidden_size)

    def test_embed_empty(self, trained, tokenizer):
        model, _ = trained
        encoder = CommandEncoder(model, tokenizer)
        assert encoder.embed([]).shape == (0, model.config.hidden_size)

    def test_order_preserved_under_bucketing(self, trained, tokenizer):
        model, _ = trained
        encoder = CommandEncoder(model, tokenizer)
        # lengths interleaved so the length sort moves rows across chunks
        lines = [
            f"{command} {'x' * (index % 7)}"
            for index, command in enumerate(
                ["ls", "docker run -it ubuntu bash", "pwd", "grep error /var/log/app.log"] * 40
            )
        ]
        lengths = sorted(len(encoding) for encoding in encoder._encode(lines))
        assert len(forward_chunks(lengths)) >= 3
        batched = encoder.embed(lines)
        individual = np.vstack([encoder.embed([line]) for line in lines])
        np.testing.assert_allclose(batched, individual, atol=1e-8)

    def test_pooling_strategies_differ(self, trained, tokenizer):
        model, _ = trained
        encoder = CommandEncoder(model, tokenizer)
        mean_vec = encoder.embed(["docker ps -a"], pooling="mean")
        cls_vec = encoder.embed(["docker ps -a"], pooling="cls")
        assert not np.allclose(mean_vec, cls_vec)

    def test_similar_commands_closer_than_dissimilar(self, trained, tokenizer):
        model, _ = trained
        encoder = CommandEncoder(model, tokenizer)
        vectors = encoder.embed(["ls -la /tmp", "ls /home/user", "docker run -it ubuntu bash"])
        def cosine(a, b):
            return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cosine(vectors[0], vectors[1]) > cosine(vectors[0], vectors[2])

    def test_embed_tokens(self, trained, tokenizer):
        model, _ = trained
        encoder = CommandEncoder(model, tokenizer)
        tokens = encoder.embed_tokens("ls -la /tmp")
        expected = len(tokenizer.encode("ls -la /tmp").ids)
        assert tokens.shape == (expected, model.config.hidden_size)

    def test_invalid_pooling_rejected(self, trained, tokenizer):
        model, _ = trained
        with pytest.raises(ValueError):
            CommandEncoder(model, tokenizer, pooling="sum")
        encoder = CommandEncoder(model, tokenizer)
        with pytest.raises(ValueError):
            encoder.embed(["ls"], pooling="sum")

    def test_no_grad_during_embedding(self, trained, tokenizer):
        model, _ = trained
        encoder = CommandEncoder(model, tokenizer)
        encoder.embed(["ls -la"])
        assert all(p.requires_grad for p in model.parameters())  # restored after

    def test_long_line_truncated_not_rejected(self, trained, tokenizer):
        model, _ = trained
        encoder = CommandEncoder(model, tokenizer)
        vectors = encoder.embed(["echo " + "x " * 500])
        assert vectors.shape == (1, model.config.hidden_size)
