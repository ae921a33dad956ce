"""High-level embedding API: command line text → fixed-size vector.

The pre-trained model "can be regarded as a powerful encoder"
(Section III); :class:`CommandEncoder` wraps tokenizer + model and
exposes batched embedding extraction with mean or CLS pooling.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.lm.model import CommandLineLM
from repro.lm.pooling import POOLERS, pool
from repro.nn.inference import InferencePlan
from repro.nn.module import no_grad
from repro.tokenizer.bpe import BPETokenizer, Encoding


class CommandEncoder:
    """Embed command lines with a (pre-)trained language model.

    Parameters
    ----------
    model:
        A :class:`CommandLineLM` (put into eval mode on construction).
    tokenizer:
        The matching trained :class:`BPETokenizer`.
    pooling:
        ``"mean"`` (Section III default) or ``"cls"``.
    batch_size:
        Lines embedded per forward pass.

    After :meth:`compile_inference`, the embed paths run through a
    graph-free :class:`~repro.nn.inference.InferencePlan` instead of the
    autograd tape; in float64 mode the embeddings are bitwise-identical
    either way (chunk composition, padding, and pooling are replicated
    exactly).  Further training of ``model`` requires recompiling — the
    plan snapshots the weights.

    Example
    -------
    >>> encoder = CommandEncoder(model, tokenizer)     # doctest: +SKIP
    >>> vectors = encoder.embed(["ls -la", "nc -lvnp 4444"])  # doctest: +SKIP
    >>> vectors.shape                                   # doctest: +SKIP
    (2, 64)
    """

    def __init__(
        self,
        model: CommandLineLM,
        tokenizer: BPETokenizer,
        pooling: str = "mean",
        batch_size: int = 32,
    ):
        if pooling not in POOLERS:
            raise ValueError(f"unknown pooling {pooling!r}; choose from {POOLERS}")
        if tokenizer.vocab is None:
            raise ValueError("tokenizer must be trained")
        if len(tokenizer.vocab) > model.config.vocab_size:
            raise ValueError(
                f"tokenizer vocab ({len(tokenizer.vocab)}) exceeds model vocab "
                f"({model.config.vocab_size})"
            )
        self.model = model
        self.tokenizer = tokenizer
        self.pooling = pooling
        self.batch_size = batch_size
        self.model.eval()
        self._plan: InferencePlan | None = None

    @property
    def embedding_dim(self) -> int:
        """Width of produced embeddings."""
        return self.model.config.hidden_size

    @property
    def inference_plan(self) -> InferencePlan | None:
        """The compiled plan serving the embed paths, if any."""
        return self._plan

    def compile_inference(self, precision: str = "float64") -> InferencePlan:
        """Compile the model into an :class:`InferencePlan` and route
        :meth:`embed`/:meth:`embed_batch`/:meth:`embed_tokens` through it.

        Raises :class:`~repro.nn.inference.InferenceCompileError` when
        the model is outside the compiler's surface; the encoder is left
        on the Tensor path in that case.
        """
        plan = InferencePlan.compile(self.model, precision)
        self._plan = plan
        return plan

    def reset_inference(self) -> None:
        """Drop the compiled plan and return to the Tensor-tape path."""
        self._plan = None

    def embed(self, lines: Sequence[str], pooling: str | None = None) -> np.ndarray:
        """Embed *lines* into an ``(N, hidden_size)`` float array."""
        strategy = pooling or self.pooling
        if strategy not in POOLERS:
            raise ValueError(f"unknown pooling {strategy!r}; choose from {POOLERS}")
        if not lines:
            return np.zeros((0, self.embedding_dim))
        encodings = self._encode(lines)
        # Token-length-bucketed batching: each chunk pads only to its own
        # longest row, not to the corpus-wide maximum.
        order = sorted(range(len(lines)), key=lambda i: len(encodings[i]))
        plan = self._plan
        result = np.empty(
            (len(lines), self.embedding_dim),
            dtype=plan.dtype if plan is not None else np.float64,
        )
        if plan is not None:
            for start in range(0, len(order), self.batch_size):
                chunk_indices = order[start : start + self.batch_size]
                ids, mask = self._pad([encodings[i] for i in chunk_indices])
                # assignment copies the scratch view before the next chunk
                result[chunk_indices] = plan.pooled(ids, mask, strategy)
            return result
        with no_grad(self.model):
            for start in range(0, len(order), self.batch_size):
                chunk_indices = order[start : start + self.batch_size]
                ids, mask = self._pad([encodings[i] for i in chunk_indices])
                hidden = self.model(ids, mask)
                result[chunk_indices] = pool(hidden, mask, strategy).data
        return result

    def embed_batch(self, batch, pooling: str | None = None) -> np.ndarray:
        """Embed a pre-tokenized :class:`~repro.tokenizer.columnar.TokenBatch`.

        The columnar twin of :meth:`embed`: consumes the padded id
        matrix directly instead of re-tokenizing per line.  Chunking
        replicates :meth:`embed` exactly — a stable sort on the rows'
        token lengths, ``batch_size`` rows per forward pass, each chunk
        padded to its own max token width — so for the same lines the
        two paths produce **bitwise-identical** embeddings (chunk
        composition changes the blocked-summation grouping inside BLAS,
        so replicating it is part of the contract, not an optimization).
        """
        strategy = pooling or self.pooling
        if strategy not in POOLERS:
            raise ValueError(f"unknown pooling {strategy!r}; choose from {POOLERS}")
        n = len(batch)
        if n == 0:
            return np.zeros((0, self.embedding_dim))
        order = np.argsort(batch.lengths, kind="stable")
        plan = self._plan
        result = np.empty(
            (n, self.embedding_dim),
            dtype=plan.dtype if plan is not None else np.float64,
        )
        if plan is not None:
            for start in range(0, n, self.batch_size):
                rows = order[start : start + self.batch_size]
                lengths = batch.lengths[rows]
                width = int(lengths.max())
                ids = batch.ids[rows][:, :width]
                mask = np.arange(width) < lengths[:, None]
                result[rows] = plan.pooled(ids, mask, strategy)
            return result
        with no_grad(self.model):
            for start in range(0, n, self.batch_size):
                rows = order[start : start + self.batch_size]
                lengths = batch.lengths[rows]
                width = int(lengths.max())
                ids = batch.ids[rows][:, :width]
                mask = np.arange(width) < lengths[:, None]
                hidden = self.model(ids, mask)
                result[rows] = pool(hidden, mask, strategy).data
        return result

    def embed_tokens(self, line: str) -> np.ndarray:
        """Per-token embeddings ``(T, hidden_size)`` for a single line."""
        ids, mask = self._encode_batch([line])
        if self._plan is not None:
            # fancy indexing copies out of the plan's scratch
            return self._plan.forward(ids, mask)[0, mask[0]]
        with no_grad(self.model):
            hidden = self.model(ids, mask)
        return hidden.data[0, mask[0]]

    def _encode_batch(self, lines: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        return self._pad(self._encode(lines))

    def _encode(self, lines: Sequence[str]) -> list[Encoding]:
        max_len = self.model.config.max_position
        return [
            self.tokenizer.encode(line, add_special_tokens=True, max_length=max_len) for line in lines
        ]

    def _pad(self, encodings: Sequence[Encoding]) -> tuple[np.ndarray, np.ndarray]:
        width = max(len(e) for e in encodings)
        vocab = self.tokenizer.vocab
        assert vocab is not None
        ids = np.full((len(encodings), width), vocab.pad_id, dtype=np.int64)
        mask = np.zeros((len(encodings), width), dtype=bool)
        for row, encoding in enumerate(encodings):
            ids[row, : len(encoding)] = encoding.ids
            mask[row, : len(encoding)] = True
        return ids, mask
