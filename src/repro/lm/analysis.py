"""Qualitative analysis utilities for the pre-trained LM.

Section II-B motivates MLM pre-training with an inspection example:
given ``[MASK] http://*/*.sh | bash``, "those familiar with the
command-line interface should know that the masked token is likely to
be curl or wget."  :class:`MaskedPredictor` lets you run exactly that
query against a trained model; :class:`EmbeddingExplorer` answers
nearest-neighbour questions in embedding space; :func:`pseudo_perplexity`
quantifies how well the model fits held-out command lines.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.lm.encoder_api import CommandEncoder
from repro.nn.module import no_grad

#: The placeholder users write in query strings, swapped for the real
#: mask token at encode time.
MASK_PLACEHOLDER = "[MASK]"

#: Lines per MLM batch in :func:`pseudo_perplexity`.
PERPLEXITY_BATCH = 32


@dataclass(frozen=True)
class MaskPrediction:
    """One candidate filling for a masked position."""

    token: str
    probability: float


class MaskedPredictor:
    """Fill-in-the-blank queries against the MLM head.

    Example
    -------
    >>> predictor = MaskedPredictor(encoder)                   # doctest: +SKIP
    >>> predictor.predict("[MASK] http://x/a.sh | bash")[0].token  # doctest: +SKIP
    '▁curl'
    """

    def __init__(self, encoder: CommandEncoder):
        self.encoder = encoder

    def predict(self, line: str, top_k: int = 5) -> list[MaskPrediction]:
        """Top-*k* vocabulary fillings for the first ``[MASK]`` in *line*.

        The placeholder must appear as a whitespace-separated word.

        Raises
        ------
        ValueError
            If *line* contains no ``[MASK]`` placeholder.
        """
        if MASK_PLACEHOLDER not in line.split():
            raise ValueError(f"line must contain a standalone {MASK_PLACEHOLDER} word")
        tokenizer = self.encoder.tokenizer
        vocab = tokenizer.vocab
        assert vocab is not None
        ids: list[int] = [vocab.cls_id]
        mask_position = None
        for word in line.split():
            if word == MASK_PLACEHOLDER and mask_position is None:
                mask_position = len(ids)
                ids.append(vocab.mask_id)
            else:
                for token in tokenizer.segment_word("▁" + word):
                    ids.append(vocab.id_of(token))
        ids.append(vocab.sep_id)
        ids = ids[: self.encoder.model.config.max_position]
        assert mask_position is not None and mask_position < len(ids)
        batch = np.array([ids])
        mask = np.ones_like(batch, dtype=bool)
        with no_grad(self.encoder.model):
            logits = self.encoder.model.mlm_logits(batch, mask).data[0, mask_position]
        shifted = logits - logits.max()
        probabilities = np.exp(shifted)
        probabilities /= probabilities.sum()
        top = np.argsort(-probabilities)[:top_k]
        return [MaskPrediction(vocab.token_of(int(i)), float(probabilities[i])) for i in top]

    def paper_example(self, top_k: int = 5) -> list[MaskPrediction]:
        """The Section II-B query: ``[MASK] http://*/*.sh | bash``."""
        return self.predict("[MASK] http://203.0.113.7/install.sh | bash", top_k=top_k)


class EmbeddingExplorer:
    """Nearest-neighbour queries over a corpus of command-line embeddings."""

    def __init__(self, encoder: CommandEncoder, corpus: Sequence[str]):
        self.encoder = encoder
        self.corpus = list(corpus)
        matrix = encoder.embed(self.corpus)
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        self._normalized = matrix / norms

    def neighbours(self, line: str, k: int = 5) -> list[tuple[str, float]]:
        """The *k* most similar corpus lines to *line* (cosine)."""
        query = self.encoder.embed([line])[0]
        norm = np.linalg.norm(query) or 1.0
        similarity = self._normalized @ (query / norm)
        order = np.argsort(-similarity)[:k]
        return [(self.corpus[int(i)], float(similarity[i])) for i in order]

    def similarity(self, left: str, right: str) -> float:
        """Cosine similarity between two command lines."""
        vectors = self.encoder.embed([left, right])
        denominator = np.linalg.norm(vectors[0]) * np.linalg.norm(vectors[1])
        if denominator == 0.0:
            return 0.0
        return float(vectors[0] @ vectors[1] / denominator)


def pseudo_perplexity(encoder: CommandEncoder, lines: Sequence[str], seed: int = 0, mask_prob: float = 0.15) -> float:
    """Monte-Carlo pseudo-perplexity of *lines* under the MLM.

    Each line is masked once (dynamically, with probability
    *mask_prob*) and the exponentiated mean cross-entropy over masked
    positions is returned — a cheap proxy for model fit used by the
    continual-learning and analysis examples.
    """
    from repro.lm.masking import IGNORE_INDEX, MLMCollator
    from repro.nn import functional as F

    collator = MLMCollator(encoder.tokenizer, mask_prob=mask_prob,
                           max_length=encoder.model.config.max_position, seed=seed)
    total_loss = 0.0
    total_predictions = 0
    with no_grad(encoder.model):
        for start in range(0, len(lines), PERPLEXITY_BATCH):
            chunk = list(lines[start : start + PERPLEXITY_BATCH])
            if not chunk:
                continue
            batch = collator.collate(chunk)
            if batch.n_predictions == 0:
                continue
            logits = encoder.model.mlm_logits(batch.input_ids, batch.attention_mask)
            loss = F.cross_entropy(logits, batch.labels, ignore_index=IGNORE_INDEX)
            total_loss += loss.item() * batch.n_predictions
            total_predictions += batch.n_predictions
    if total_predictions == 0:
        return float("inf")
    return float(np.exp(total_loss / total_predictions))
