"""Batch-first columnar tokenization: lines → padded id matrix in one pass.

The serving hot path used to move one Python object per line through
tokenize → embed — a list of :class:`~repro.tokenizer.bpe.Encoding`
objects, each a list of ints, rebuilt into numpy arrays per encoder
chunk.  :class:`ColumnarTokenizer` precompiles the per-word BPE
segmentation into id *arrays* and emits a whole micro-batch as one
:class:`TokenBatch` — a padded ``(N, W)`` int64 id matrix plus per-row
lengths — so everything downstream (embedding, classification,
shared-memory transport to worker processes) operates on contiguous
buffers without per-line Python loops.

Correctness contract: for every line, the row of
:meth:`ColumnarTokenizer.encode` is **identical** to
``BPETokenizer.encode(line, add_special_tokens=True, max_length=...)``
— same segmentation (the same cache-backed greedy merge), same
truncation, same ``[CLS]``/``[SEP]`` framing, same ``[UNK]`` fallback.
The row lengths are also the key :meth:`CommandEncoder.embed` buckets
by, so a columnar consumer replicates the exact chunk composition of
the per-line path and produces bitwise-equal embeddings.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.tokenizer.bpe import BPETokenizer

#: Bound on the precompiled word → id-array cache (same budget as the
#: segmentation cache inside :class:`BPETokenizer`).
_WORD_CACHE_LIMIT = 1_000_000


@dataclass(frozen=True)
class TokenBatch:
    """A micro-batch of tokenized lines as columnar numpy arrays.

    Attributes
    ----------
    ids:
        ``(N, W)`` int64 token ids; row *i* holds ``lengths[i]`` valid
        ids followed by ``pad_id`` filler.
    lengths:
        ``(N,)`` int64 valid-token count per row (specials included).
    pad_id:
        The id filling the tail of every row.
    """

    ids: np.ndarray
    lengths: np.ndarray
    pad_id: int

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @property
    def width(self) -> int:
        """Padded token width ``W`` of the id matrix."""
        return int(self.ids.shape[1])

    def rows(self, selector) -> "TokenBatch":
        """A row-subset batch (*selector*: slice or integer array).

        Slices are views into the parent arrays (zero-copy — the shape
        worker processes score shared-memory frames through); fancy
        indexing copies, as numpy always does.
        """
        return TokenBatch(
            ids=self.ids[selector],
            lengths=self.lengths[selector],
            pad_id=self.pad_id,
        )

    @classmethod
    def from_arrays(
        cls,
        token_ids: np.ndarray,
        lengths: np.ndarray,
        *,
        pad_id: int = 0,
    ) -> "TokenBatch":
        """Wrap raw ``(token_ids, lengths)`` arrays as a batch."""
        ids = np.ascontiguousarray(token_ids, dtype=np.int64)
        if ids.ndim != 2:
            raise ValueError(f"token_ids must be 2-D (got shape {ids.shape})")
        lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        if lengths.shape != (ids.shape[0],):
            raise ValueError(
                f"lengths shape {lengths.shape} does not match {ids.shape[0]} rows"
            )
        if len(lengths) and (lengths.min() < 0 or lengths.max() > ids.shape[1]):
            raise ValueError("lengths must lie in [0, token width]")
        return cls(ids=ids, lengths=lengths, pad_id=int(pad_id))


class ColumnarTokenizer:
    """Precompiled batch tokenizer over a trained :class:`BPETokenizer`.

    Per distinct pre-token (word), the greedy BPE segmentation and the
    token → id lookup run once and are cached as an int64 array; a
    batch encode is then array concatenation + one padded fill, with no
    per-token Python work on the hot path.

    Parameters
    ----------
    tokenizer:
        The trained tokenizer whose ``encode`` semantics this must
        reproduce exactly.
    max_length:
        Token budget per line including specials (the model's
        ``max_position``) — rows are truncated exactly as
        ``BPETokenizer.encode(..., max_length=max_length)`` truncates.
    """

    def __init__(self, tokenizer: BPETokenizer, max_length: int):
        vocab = tokenizer.vocab
        if vocab is None:
            raise ValueError("tokenizer must be trained")
        if max_length < 2:
            raise ValueError("max_length must be >= 2 (room for [CLS] and [SEP])")
        self.tokenizer = tokenizer
        self.max_length = int(max_length)
        self.pad_id = vocab.pad_id
        self._cls_id = vocab.id_of(tokenizer.special.cls)
        self._sep_id = vocab.id_of(tokenizer.special.sep)
        self._word_ids: dict[str, np.ndarray] = {}

    def _ids_of_word(self, word: str) -> np.ndarray:
        ids = self._word_ids.get(word)
        if ids is None:
            vocab = self.tokenizer.vocab
            assert vocab is not None
            ids = np.array(
                [vocab.id_of(token) for token in self.tokenizer.segment_word(word)],
                dtype=np.int64,
            )
            ids.setflags(write=False)
            if len(self._word_ids) < _WORD_CACHE_LIMIT:
                self._word_ids[word] = ids
        return ids

    def encode(self, lines: Sequence[str]) -> TokenBatch:
        """Tokenize *lines* into one padded columnar batch."""
        n = len(lines)
        budget = self.max_length - 2
        bodies: list[np.ndarray | None] = [None] * n
        lengths = np.full(n, 2, dtype=np.int64)  # every row carries [CLS]+[SEP]
        pretokenize = self.tokenizer._pretokenize
        for index, line in enumerate(lines):
            words = pretokenize(line)
            if not words:
                continue
            if len(words) == 1:
                body = self._ids_of_word(words[0])
            else:
                body = np.concatenate([self._ids_of_word(word) for word in words])
            if body.shape[0] > budget:
                body = body[:budget]
            bodies[index] = body
            lengths[index] += body.shape[0]
        width = int(lengths.max()) if n else 0
        ids = np.full((n, width), self.pad_id, dtype=np.int64)
        for index, body in enumerate(bodies):
            ids[index, 0] = self._cls_id
            if body is not None:
                ids[index, 1 : 1 + body.shape[0]] = body
            ids[index, lengths[index] - 1] = self._sep_id
        return TokenBatch(ids=ids, lengths=lengths, pad_id=self.pad_id)
