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

#: Cell budget of one forward chunk: rows × padded token width.  Rows
#: are taken in stable token-length order, and a chunk grows while its
#: cells stay within the budget (a single longer row forms its own
#: chunk).  At 384 cells the FFN working set of a chunk (~2 × 384 × the
#: intermediate width, in the plan's dtype) stays well inside L2: on a
#: 2 MB-L2 Xeon, float32 ``score_batch`` over 4 × 256 ``unique_batch``
#: bench lines took 46 ms at 384 cells, 53 ms at 1,024 and 78 ms at
#: 4,096 (best of 6 rounds).  It is a property of the kernels, not a knob.
CHUNK_CELLS = 384


def forward_chunks(sorted_lengths: Sequence[int]) -> list[slice]:
    """Cut rows, ascending by token length, into forward chunks.

    A chunk is padded to its last (longest) row, so it holds ``rows ×
    sorted_lengths[stop - 1]`` cells; it grows while that stays within
    :data:`CHUNK_CELLS`.  Returns slices into the sorted order that
    cover every row exactly once.
    """
    chunks = []
    start, n = 0, len(sorted_lengths)
    while start < n:
        stop = start + 1
        while stop < n and (stop + 1 - start) * sorted_lengths[stop] <= CHUNK_CELLS:
            stop += 1
        chunks.append(slice(start, stop))
        start = stop
    return chunks


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

    Every embed path cuts its forward chunks by :func:`forward_chunks`
    (at most :data:`CHUNK_CELLS` rows × padded width).  After
    :meth:`compile_inference`, the embed paths run through a graph-free
    float32 :class:`~repro.nn.inference.InferencePlan` instead of the
    autograd tape, within float32 tolerance of the tape's embeddings.
    Further training of ``model`` requires recompiling — the
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

    def compile_inference(self) -> InferencePlan:
        """Compile the model into an :class:`InferencePlan` and route
        :meth:`embed`/:meth:`embed_batch`/:meth:`embed_tokens` through it.

        Raises :class:`~repro.nn.inference.InferenceCompileError` when
        the model is outside the compiler's surface; the encoder is left
        on the Tensor path in that case.
        """
        plan = InferencePlan.compile(self.model)
        self._plan = plan
        return plan

    def reset_inference(self) -> None:
        """Drop the compiled plan and return to the Tensor-tape path."""
        self._plan = None

    def embed(self, lines: Sequence[str], pooling: str | None = None) -> np.ndarray:
        """Embed *lines* into an ``(N, hidden_size)`` float array.

        Rows are sorted by token length (stable) and cut by
        :func:`forward_chunks`: a chunk holds at most
        :data:`CHUNK_CELLS` rows × padded width, and each chunk pads
        only to its own longest row, not to the corpus-wide maximum.
        """
        strategy = pooling or self.pooling
        if strategy not in POOLERS:
            raise ValueError(f"unknown pooling {strategy!r}; choose from {POOLERS}")
        if not lines:
            return np.zeros((0, self.embedding_dim))
        encodings = self._encode(lines)
        order = sorted(range(len(lines)), key=lambda i: len(encodings[i]))
        chunks = forward_chunks([len(encodings[i]) for i in order])
        plan = self._plan
        result = np.empty(
            (len(lines), self.embedding_dim),
            dtype=plan.dtype if plan is not None else np.float64,
        )
        if plan is not None:
            for chunk in chunks:
                chunk_indices = order[chunk]
                ids, mask = self._pad([encodings[i] for i in chunk_indices])
                # assignment copies the scratch view before the next chunk
                result[chunk_indices] = plan.pooled(ids, mask, strategy)
            return result
        with no_grad(self.model):
            for chunk in chunks:
                chunk_indices = order[chunk]
                ids, mask = self._pad([encodings[i] for i in chunk_indices])
                hidden = self.model(ids, mask)
                result[chunk_indices] = pool(hidden, mask, strategy).data
        return result

    def embed_batch(self, batch, pooling: str | None = None) -> np.ndarray:
        """Embed a pre-tokenized :class:`~repro.tokenizer.columnar.TokenBatch`.

        The columnar twin of :meth:`embed`: consumes the padded id
        matrix directly instead of re-tokenizing per line.  Chunking
        replicates :meth:`embed` exactly — a stable sort on the rows'
        token lengths, cut by :func:`forward_chunks` into chunks of at
        most :data:`CHUNK_CELLS` rows × padded width, each chunk padded
        to its own max token width — so for the same lines the two paths
        produce **bitwise-identical** embeddings (on the tape, chunk
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
        sorted_lengths = batch.lengths[order]
        chunks = forward_chunks(sorted_lengths.tolist())
        plan = self._plan
        result = np.empty(
            (n, self.embedding_dim),
            dtype=plan.dtype if plan is not None else np.float64,
        )
        if plan is not None:
            for chunk in chunks:
                rows, lengths = order[chunk], sorted_lengths[chunk]
                width = int(lengths[-1])
                ids = batch.ids[rows, :width]
                mask = np.arange(width) < lengths[:, None]
                result[rows] = plan.pooled(ids, mask, strategy)
            return result
        with no_grad(self.model):
            for chunk in chunks:
                rows, lengths = order[chunk], sorted_lengths[chunk]
                width = int(lengths[-1])
                ids = batch.ids[rows, :width]
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
