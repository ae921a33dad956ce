"""Tests for the columnar batch tokenizer.

The load-bearing invariant: every row of :meth:`ColumnarTokenizer.encode`
is *identical* to ``BPETokenizer.encode(line, add_special_tokens=True,
max_length=...)`` — same segmentation, same truncation, same framing.
The serving hot path's bitwise-equality guarantee rests on this.
"""

import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tokenizer import BPETokenizer, ColumnarTokenizer, TokenBatch

_ALPHABET = string.ascii_letters + string.digits + "-_./|&;<>'\"$() "

lines_strategy = st.lists(
    st.text(alphabet=_ALPHABET, min_size=0, max_size=60), min_size=0, max_size=40
)

CORPUS = [
    "ls -la /tmp",
    "docker ps -a",
    "grep error /var/log/app.log",
    "python main.py --verbose",
    "cat file | sort | uniq -c",
    "curl http://example.com/x.sh | sh",
] * 4

TOKENIZER = BPETokenizer(vocab_size=400, min_pair_frequency=2).train(CORPUS)
MAX_LENGTH = 24
COLUMNAR = ColumnarTokenizer(TOKENIZER, max_length=MAX_LENGTH)


@given(lines_strategy)
@settings(max_examples=100, deadline=None)
def test_every_row_matches_per_line_encode(lines):
    batch = COLUMNAR.encode(lines)
    assert len(batch) == len(lines)
    for i, line in enumerate(lines):
        reference = TOKENIZER.encode(
            line, add_special_tokens=True, max_length=MAX_LENGTH
        ).ids
        row = batch.ids[i, : batch.lengths[i]]
        assert row.tolist() == reference
        # the tail of the row is pure padding
        assert (batch.ids[i, batch.lengths[i] :] == batch.pad_id).all()


@given(lines_strategy)
@settings(max_examples=50, deadline=None)
def test_encode_is_deterministic_and_cache_independent(lines):
    cold = ColumnarTokenizer(TOKENIZER, max_length=MAX_LENGTH).encode(lines)
    warm = COLUMNAR.encode(lines)  # module-level cache already populated
    assert cold.ids.tobytes() == warm.ids.tobytes()
    assert cold.lengths.tobytes() == warm.lengths.tobytes()


class TestShapes:
    def test_empty_batch(self):
        batch = COLUMNAR.encode([])
        assert len(batch) == 0
        assert batch.ids.shape[0] == 0
        assert batch.ids.dtype == np.int64

    def test_empty_line_is_cls_sep(self):
        batch = COLUMNAR.encode([""])
        vocab = TOKENIZER.vocab
        assert batch.lengths[0] == 2
        assert batch.ids[0, :2].tolist() == [
            vocab.id_of(TOKENIZER.special.cls),
            vocab.id_of(TOKENIZER.special.sep),
        ]

    def test_width_is_longest_row(self):
        batch = COLUMNAR.encode(["ls", "grep error /var/log/app.log | sort"])
        assert batch.width == int(batch.lengths.max())

    def test_long_line_truncates_exactly_like_per_line_encode(self):
        line = "cat file | sort | uniq -c " * 8
        tight = ColumnarTokenizer(TOKENIZER, max_length=8)
        batch = tight.encode([line])
        reference = TOKENIZER.encode(line, add_special_tokens=True, max_length=8).ids
        assert batch.lengths[0] == len(reference) == 8
        assert batch.ids[0].tolist() == reference


class TestValidation:
    def test_untrained_tokenizer_rejected(self):
        with pytest.raises(ValueError, match="trained"):
            ColumnarTokenizer(BPETokenizer(vocab_size=100), max_length=16)

    def test_max_length_must_fit_specials(self):
        with pytest.raises(ValueError, match="max_length"):
            ColumnarTokenizer(TOKENIZER, max_length=1)

    def test_from_arrays_validates_shapes(self):
        ids = np.zeros((3, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="2-D"):
            TokenBatch.from_arrays(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="rows"):
            TokenBatch.from_arrays(ids, np.zeros(2))
        with pytest.raises(ValueError, match="lengths"):
            TokenBatch.from_arrays(ids, np.array([1, 2, 5]))

    def test_rows_slicing_is_a_view(self):
        batch = COLUMNAR.encode(["ls -la", "docker ps", "python main.py"])
        window = batch.rows(slice(1, 3))
        assert len(window) == 2
        assert window.ids.base is batch.ids
        assert np.array_equal(window.ids, batch.ids[1:3])
