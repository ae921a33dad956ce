"""Reconstruction-based tuning (Section IV-A): Eq. 2 alternating optimisation.

The method alternates between (a) fitting the PCA projection ``W`` on the
current embeddings via SVD, and (b) tuning the encoder ``f(·)`` so that
intrusion-labeled lines dominate the total reconstruction error:

.. math:: L_{Recons} = -\\log \\frac{\\sum_i L_{PCA}(t_i)\\, y_i}
                                     {\\sum_i L_{PCA}(t_i)}

with ``W`` held fixed during (b).  Five alternation rounds suffice per
the paper.  Scoring uses the final ``W`` and tuned encoder (Eq. 1).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.anomaly.pca import PCAReconstructionDetector
from repro.lm.encoder_api import CommandEncoder
from repro.lm.model import CommandLineLM
from repro.nn.optim import AdamW, clip_grad_norm
from repro.nn.tensor import Tensor
from repro.tuning.base import IntrusionScorer


class ReconstructionTuner(IntrusionScorer):
    """Tune the encoder so intrusions reconstruct poorly under PCA.

    Parameters
    ----------
    encoder:
        The pre-trained LM wrapped in a :class:`CommandEncoder`; its
        backbone parameters ARE updated by this method (unlike probing).
    variance_kept:
        PCA energy retained when fitting ``W`` ("we let 95% of
        components to be kept", Section V).
    n_rounds:
        Alternating rounds ("repeating the process five times suffices").
    steps_per_round / batch_size / lr:
        Inner-loop optimisation settings for tuning ``f(·)``.
    positives_per_batch:
        Stratification: every batch carries this many positive samples
        so the Eq. 2 ratio is defined (a batch without intrusions has a
        degenerate loss).
    clone_backbone:
        When true (default) the encoder's model is deep-copied before
        tuning, so other methods sharing the pre-trained backbone are
        unaffected.  Set to false only when this tuner owns the model.
    seed:
        Sampling seed.
    """

    method_name = "reconstruction"

    def __init__(
        self,
        encoder: CommandEncoder,
        variance_kept: float = 0.95,
        n_rounds: int = 5,
        steps_per_round: int = 60,
        batch_size: int = 24,
        positives_per_batch: int = 8,
        lr: float = 1e-3,
        max_grad_norm: float = 1.0,
        clone_backbone: bool = True,
        seed: int = 0,
    ):
        if n_rounds < 1 or steps_per_round < 1:
            raise ValueError("n_rounds and steps_per_round must be >= 1")
        if positives_per_batch >= batch_size:
            raise ValueError("positives_per_batch must be smaller than batch_size")
        if clone_backbone:
            # Private copy of the backbone: Eq. 2 tuning updates f(·)
            # in place and must not leak into other methods.
            model = CommandLineLM(encoder.model.config)
            model.load_state_dict(encoder.model.state_dict())
            encoder = CommandEncoder(model, encoder.tokenizer, pooling=encoder.pooling)
        self.encoder = encoder
        self.variance_kept = variance_kept
        self.n_rounds = n_rounds
        self.steps_per_round = steps_per_round
        self.batch_size = batch_size
        self.positives_per_batch = positives_per_batch
        self.lr = lr
        self.max_grad_norm = max_grad_norm
        self.seed = seed
        self.detector: PCAReconstructionDetector | None = None
        self.history: list[float] = []

    # ------------------------------------------------------------------

    def fit(self, lines: Sequence[str], labels: np.ndarray) -> "ReconstructionTuner":
        labels = np.asarray(labels, dtype=np.int64)
        lines = list(lines)
        if len(lines) != len(labels):
            raise ValueError("lines and labels must align")
        positives = np.nonzero(labels == 1)[0]
        negatives = np.nonzero(labels == 0)[0]
        if positives.size == 0:
            raise ValueError("reconstruction-based tuning needs positive labels")
        rng = np.random.default_rng(self.seed)
        model = self.encoder.model
        optimizer = AdamW(model.parameters(), lr=self.lr, weight_decay=0.0)
        self.history = []
        benign_lines = [lines[i] for i in negatives]
        for _ in range(self.n_rounds):
            # (a) refit W by SVD.  W models the dominant (benign) corpus
            # distribution — the paper computes it from command-line
            # embeddings at large, where intrusions are a vanishing
            # fraction; fitting on the benign-labeled subset prevents the
            # subspace from rotating toward the embeddings the tuning
            # step just pushed away.
            embeddings = self.encoder.embed(benign_lines, pooling=self.encoder.pooling)
            detector = PCAReconstructionDetector(variance_kept=self.variance_kept)
            detector.fit(embeddings)
            self.detector = detector
            w = detector.components_
            mu = detector.mean_
            assert w is not None and mu is not None
            # (b) tune f(·) with W fixed
            model.train()
            for _ in range(self.steps_per_round):
                batch = self._stratified_batch(rng, positives, negatives)
                loss = self._recons_loss([lines[i] for i in batch], labels[batch], w, mu)
                optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(model.parameters(), self.max_grad_norm)
                optimizer.step()
                self.history.append(loss.item())
            model.eval()
        # final W on the tuned (benign-distribution) embeddings
        embeddings = self.encoder.embed(benign_lines, pooling=self.encoder.pooling)
        final = PCAReconstructionDetector(variance_kept=self.variance_kept)
        final.fit(embeddings)
        self.detector = final
        self._fitted = True
        return self

    def _stratified_batch(
        self, rng: np.random.Generator, positives: np.ndarray, negatives: np.ndarray
    ) -> np.ndarray:
        n_positive = min(self.positives_per_batch, positives.size)
        n_negative = min(self.batch_size - n_positive, negatives.size)
        chosen_positive = rng.choice(positives, size=n_positive, replace=positives.size < n_positive * 2)
        chosen_negative = rng.choice(negatives, size=n_negative, replace=False)
        return np.concatenate([chosen_positive, chosen_negative])

    def _recons_loss(
        self, lines: list[str], labels: np.ndarray, w: np.ndarray, mu: np.ndarray
    ) -> Tensor:
        """Differentiable Eq. 2 over one batch (graph through the encoder)."""
        model = self.encoder.model
        ids, mask = self.encoder._encode_batch(lines)
        hidden = model(ids, mask)
        from repro.lm.pooling import pool  # local import avoids a cycle

        embedded = pool(hidden, mask, self.encoder.pooling)  # (B, D)
        centered = embedded - Tensor(mu)
        reconstructed = centered @ Tensor(w.T) @ Tensor(w)
        residual = centered - reconstructed
        per_sample = (residual**2).sum(axis=1)  # L_PCA per line
        weighted = (per_sample * Tensor(labels.astype(np.float64))).sum()
        total = per_sample.sum()
        # small epsilon guards against an all-benign degenerate batch
        ratio = (weighted + 1e-12) / (total + 1e-12)
        return -ratio.log()

    # ------------------------------------------------------------------

    def score(self, lines: Sequence[str]) -> np.ndarray:
        """Eq. 1 reconstruction error with the tuned encoder and final W."""
        self._check_fitted()
        assert self.detector is not None
        embeddings = self.encoder.embed(list(lines), pooling=self.encoder.pooling)
        return self.detector.score(embeddings)
