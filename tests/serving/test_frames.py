"""Tests for generation-stamped columnar batch frames (shm + pickle)."""

import pickle

import numpy as np
import pytest

from repro.serving.frames import (
    FRAME_TRANSPORTS,
    BatchFrame,
    open_frame,
    publish_frame,
    retire_frame,
    shm_available,
)
from repro.tokenizer.columnar import TokenBatch


def make_batch(rows=5, width=7, pad_id=0, seed=3):
    rng = np.random.default_rng(seed)
    ids = rng.integers(4, 200, size=(rows, width)).astype(np.int64)
    lengths = rng.integers(2, width + 1, size=rows).astype(np.int64)
    return TokenBatch(ids=ids, lengths=lengths, pad_id=pad_id)


class TestRoundTrip:
    @pytest.mark.parametrize("transport", FRAME_TRANSPORTS)
    def test_arrays_survive_exactly(self, transport):
        if transport == "shm" and not shm_available():
            pytest.skip("no shared memory on this platform")
        batch = make_batch()
        frame, segment = publish_frame(batch, generation=3, transport=transport)
        try:
            out, release = open_frame(frame)
            assert np.array_equal(out.ids, batch.ids)
            assert np.array_equal(out.lengths, batch.lengths)
            assert out.pad_id == batch.pad_id
            # consumers score row slices — views must see the same data
            rows = out.rows(slice(1, 4))
            assert np.array_equal(rows.ids, batch.ids[1:4])
            del out, rows
            release()
        finally:
            retire_frame(segment)

    def test_frame_is_picklable_and_carries_generation(self):
        batch = make_batch()
        frame, segment = publish_frame(batch, generation=17)
        try:
            clone = pickle.loads(pickle.dumps(frame))
            assert clone.generation == 17
            assert (clone.rows, clone.width) == batch.ids.shape
            assert clone.items == frame.items
        finally:
            retire_frame(segment)

    def test_empty_batch_uses_payload_even_on_shm_transport(self):
        empty = TokenBatch(
            ids=np.zeros((0, 0), dtype=np.int64),
            lengths=np.zeros(0, dtype=np.int64),
            pad_id=0,
        )
        frame, segment = publish_frame(empty, generation=1, transport="auto")
        assert segment is None  # nothing to share: zero-row frames pickle
        out, release = open_frame(frame)
        assert len(out) == 0
        release()
        retire_frame(segment)

    def test_pickle_transport_never_creates_a_segment(self):
        frame, segment = publish_frame(make_batch(), generation=1, transport="pickle")
        assert segment is None
        assert frame.shm_name is None and frame.payload is not None


class TestLifecycle:
    def test_shm_segment_is_unlinked_by_retire(self):
        if not shm_available():
            pytest.skip("no shared memory on this platform")
        from multiprocessing import shared_memory

        batch = make_batch()
        frame, segment = publish_frame(batch, generation=1, transport="shm")
        name = frame.shm_name
        retire_frame(segment)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_retire_is_idempotent_for_none(self):
        retire_frame(None)  # the pickle path hands back no segment

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            publish_frame(make_batch(), generation=0, transport="carrier-pigeon")

    def test_frame_without_segment_or_payload_rejected(self):
        bad = BatchFrame(rows=1, width=1, pad_id=0, generation=0)
        with pytest.raises(ValueError, match="neither"):
            open_frame(bad)
