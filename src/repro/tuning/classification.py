"""Classification-based tuning (Section IV-B): probing the frozen LM.

A shallow classification head — "a two-layer perceptron initialized by
Kaiming's method ... tuned with a learning rate of 5e-5 for 5 epochs
using AdamW, with the language model being frozen" — is placed on top of
the ``[CLS]`` embedding and trained to match the noisy labels (Eq. 3).

Because the backbone stays frozen, the head can be trained on
*precomputed* embeddings; this class caches them internally.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.lm.encoder_api import CommandEncoder
from repro.nn import functional as F
from repro.nn.layers import MLP
from repro.nn.optim import AdamW
from repro.nn.serialization import load_module
from repro.nn.tensor import Tensor
from repro.tuning.base import IntrusionScorer


class ClassificationTuner(IntrusionScorer):
    """Probing classifier over frozen ``[CLS]`` embeddings.

    Parameters
    ----------
    encoder:
        The frozen pre-trained command-line LM wrapped in a
        :class:`CommandEncoder`.
    hidden_size:
        Width of the MLP's hidden layer (defaults to the embedding
        width).
    lr / epochs / weight_decay:
        AdamW recipe; paper defaults are ``lr=5e-5`` and ``epochs=5``
        (tuned for BERT-base — scaled-down models typically pass a
        larger ``lr``).
    batch_size:
        Head-training batch size.
    class_balance:
        When true (default), positives are oversampled to parity in each
        epoch — necessary because intrusions are ~1% of supervision.
    seed:
        Head init / shuffling seed.

    Example
    -------
    >>> tuner = ClassificationTuner(encoder, lr=1e-2)     # doctest: +SKIP
    >>> tuner.fit(train_lines, noisy_labels)              # doctest: +SKIP
    >>> scores = tuner.score(test_lines)                  # doctest: +SKIP
    """

    method_name = "classification"

    def __init__(
        self,
        encoder: CommandEncoder,
        hidden_size: int | None = None,
        lr: float = 5e-5,
        epochs: int = 5,
        weight_decay: float = 0.01,
        batch_size: int = 32,
        class_balance: bool = True,
        pooling: str = "cls",
        seed: int = 0,
    ):
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        self.encoder = encoder
        self.hidden_size = hidden_size or encoder.embedding_dim
        self.lr = lr
        self.epochs = epochs
        self.weight_decay = weight_decay
        self.batch_size = batch_size
        self.class_balance = class_balance
        self.pooling = pooling
        self.seed = seed
        self.head: MLP | None = None
        self.history: list[float] = []

    # ------------------------------------------------------------------

    def _embed(self, lines: Sequence[str]) -> np.ndarray:
        return self.encoder.embed(list(lines), pooling=self.pooling)

    def fit(self, lines: Sequence[str], labels: np.ndarray) -> "ClassificationTuner":
        embeddings = self._embed(lines)
        return self.fit_embeddings(embeddings, labels)

    def fit_embeddings(self, embeddings: np.ndarray, labels: np.ndarray) -> "ClassificationTuner":
        """Train the head on precomputed ``[CLS]`` embeddings."""
        labels = np.asarray(labels, dtype=np.int64)
        if embeddings.shape[0] != labels.shape[0]:
            raise ValueError("embeddings and labels must align")
        if labels.sum() == 0:
            raise ValueError("classification-based tuning needs at least one positive label")
        rng = np.random.default_rng(self.seed)
        self.head = MLP(
            embeddings.shape[1], self.hidden_size, 2, rng, activation="relu", init_scheme="kaiming"
        )
        optimizer = AdamW(self.head.parameters(), lr=self.lr, weight_decay=self.weight_decay)
        self.history = []
        positives = np.nonzero(labels == 1)[0]
        negatives = np.nonzero(labels == 0)[0]
        for _ in range(self.epochs):
            order = self._epoch_indices(rng, positives, negatives, len(labels))
            epoch_losses = []
            for start in range(0, len(order), self.batch_size):
                batch = order[start : start + self.batch_size]
                optimizer.zero_grad()
                logits = self.head(Tensor(embeddings[batch]))
                loss = F.cross_entropy(logits, labels[batch])
                loss.backward()
                optimizer.step()
                epoch_losses.append(loss.item())
            self.history.append(float(np.mean(epoch_losses)))
        self._fitted = True
        return self

    def _epoch_indices(
        self,
        rng: np.random.Generator,
        positives: np.ndarray,
        negatives: np.ndarray,
        n: int,
    ) -> np.ndarray:
        if not self.class_balance or positives.size == 0 or negatives.size == 0:
            return rng.permutation(n)
        oversampled = rng.choice(positives, size=negatives.size, replace=True)
        combined = np.concatenate([negatives, oversampled])
        return rng.permutation(combined)

    def restore_head(self, path: str | Path) -> "ClassificationTuner":
        """Rebuild the head with this tuner's geometry and load saved weights.

        The checkpoint must have been written by
        :func:`repro.nn.serialization.save_module` for a head of the same
        ``(embedding_dim, hidden_size)`` geometry; after this call the
        tuner scores exactly as the one that was saved.

        Raises
        ------
        CheckpointError
            If the checkpoint is missing, unreadable, or its geometry
            does not match this tuner's configuration.
        """
        head = MLP(
            self.encoder.embedding_dim,
            self.hidden_size,
            2,
            np.random.default_rng(self.seed),
            activation="relu",
            init_scheme="kaiming",
        )
        load_module(head, path)
        self.head = head
        self._fitted = True
        return self

    # ------------------------------------------------------------------

    def score(self, lines: Sequence[str]) -> np.ndarray:
        self._check_fitted()
        return self.score_embeddings(self._embed(lines))

    def score_embeddings(self, embeddings: np.ndarray) -> np.ndarray:
        """Intrusion probability from precomputed embeddings."""
        self._check_fitted()
        head = self.head
        assert head is not None and head.activation == "relu"
        # the tape's forward (Linear -> relu -> Linear) as the same numpy
        # calls on float64, without building Tensors: bit-identical scores
        hidden = np.asarray(embeddings, dtype=np.float64) @ head.fc1.weight.data
        hidden = np.maximum(hidden + head.fc1.bias.data, 0.0)
        logits = hidden @ head.fc2.weight.data + head.fc2.bias.data
        shifted = logits - logits.max(axis=1, keepdims=True)
        probabilities = np.exp(shifted)
        probabilities /= probabilities.sum(axis=1, keepdims=True)
        return probabilities[:, 1]

    def predict(self, lines: Sequence[str], threshold: float = 0.5) -> np.ndarray:
        """Hard decisions at *threshold* on the intrusion probability."""
        return (self.score(lines) >= threshold).astype(np.int64)
