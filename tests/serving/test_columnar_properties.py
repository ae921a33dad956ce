"""Property-based tests: columnar scoring is bitwise-identical per-line.

These run against the real demo service (trained BPE + LM encoder +
fitted head), not a stub: the guarantee under test —
``score_batch(encode_batch(lines))`` returns the *same float64 bytes*
as ``score_normalized(lines)`` — depends on the encoder replicating its
length-bucketed chunk composition, which only the real pipeline
exercises.
"""

import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# commands plus the awkward cases: empty lines, runs of whitespace,
# quotes, and non-ASCII bytes the BPE maps to [UNK]
_ALPHABET = string.ascii_letters + string.digits + "-_./|&;<>'\"$() \t" + "é¥λ"

# up to 70 lines overflow one 384-cell forward chunk, so larger batches
# span several embed chunks, and min_size=0 covers the empty batch
lines_strategy = st.lists(
    st.text(alphabet=_ALPHABET, min_size=0, max_size=48), min_size=0, max_size=70
)


@given(lines_strategy)
@settings(max_examples=25, deadline=None)
def test_columnar_scores_are_bitwise_equal_to_per_line(demo_service, lines):
    columnar = demo_service.score_batch(demo_service.encode_batch(lines))
    reference = demo_service.score_normalized(lines)
    assert columnar.shape == reference.shape
    assert columnar.tobytes() == reference.tobytes()


@given(lines_strategy)
@settings(max_examples=15, deadline=None)
def test_raw_array_form_matches_token_batch_form(demo_service, lines):
    batch = demo_service.encode_batch(lines)
    from repro.tokenizer.columnar import TokenBatch

    rebuilt = TokenBatch.from_arrays(
        batch.ids.copy(), batch.lengths.copy(), pad_id=batch.pad_id
    )
    assert (
        demo_service.score_batch(rebuilt).tobytes()
        == demo_service.score_batch(batch).tobytes()
    )


@pytest.mark.parametrize("lengths", [[0, 3], [0, 0]])
def test_raw_arrays_with_an_empty_row_are_rejected(demo_service, lengths):
    ids = np.zeros((2, 3), dtype=np.int64)
    with pytest.raises(ValueError, match=r"lengths\[0\] is 0"):
        demo_service.score_batch(ids, np.array(lengths))


def test_empty_batch_scores_empty(demo_service):
    batch = demo_service.encode_batch([])
    scores = demo_service.score_batch(batch)
    assert scores.shape == (0,)
    assert scores.tobytes() == demo_service.score_normalized([]).tobytes()
