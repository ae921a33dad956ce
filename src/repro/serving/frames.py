"""Generation-stamped shared-memory frames for columnar score batches.

``ProcessPoolBackend`` used to pickle a list of strings per shard per
batch — every worker dispatch re-serialized the batch's text and every
worker re-tokenized it.  With the columnar hot path the batch is already
two contiguous int64 arrays (ids, lengths), so the cheapest transport
is to publish them **once** into a
:class:`multiprocessing.shared_memory.SharedMemory` segment and send
workers only a tiny picklable :class:`BatchFrame` descriptor (segment
name, shapes, row range).  Workers attach, score their row slice through
zero-copy views, and detach; the publishing side unlinks the segment
when every shard's scores are back.

The frame carries the backend **generation** that published it — the
same stamp process workers key their model-cache rehydration on — so
the hot-swap contract survives the new transport: a worker that missed
a rotation sees a frame stamped with the new generation and reloads
before scoring, and a frame can never be scored by a model other than
the one it was published under.

``transport="pickle"`` (or platforms without POSIX shared memory) falls
back to shipping the same arrays inside the frame itself — still one
buffer-level pickle of numpy arrays per batch, never a per-line list of
strings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tokenizer.columnar import TokenBatch

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover
    _shm = None

#: Valid frame transports: ``auto`` picks shared memory when available.
FRAME_TRANSPORTS = ("auto", "pickle", "shm")


def shm_available() -> bool:
    """Whether POSIX shared memory can back frames on this platform."""
    return _shm is not None


@dataclass(frozen=True)
class BatchFrame:
    """Picklable descriptor of one published columnar batch.

    ``shm_name`` names the shared-memory segment holding the arrays
    (``None`` for the pickle transport, where ``payload`` carries the
    raw bytes instead).  The segment layout is two back-to-back int64
    regions: ``ids`` (``rows * width``) and ``lengths`` (``rows``).
    """

    rows: int
    width: int
    pad_id: int
    generation: int
    shm_name: str | None = None
    payload: bytes | None = None

    @property
    def items(self) -> int:
        """Total int64 slots the frame's buffer holds."""
        return self.rows * self.width + self.rows


def publish_frame(batch: TokenBatch, generation: int, transport: str = "auto"):
    """Publish *batch* for worker processes; returns ``(frame, segment)``.

    *segment* is the owned :class:`SharedMemory` handle the caller must
    :func:`retire_frame` after all workers finished (``None`` for the
    pickle transport).  The arrays are copied into the segment here —
    the only copy the batch makes on its way to N workers.
    """
    if transport not in FRAME_TRANSPORTS:
        raise ValueError(f"unknown frame transport {transport!r}; choose from {FRAME_TRANSPORTS}")
    rows, width = batch.ids.shape
    use_shm = transport == "shm" or (transport == "auto" and shm_available())
    if transport == "shm" and not shm_available():
        raise RuntimeError("shared-memory frames are unavailable on this platform")
    if not use_shm or rows == 0:
        payload = b"".join(
            (
                np.ascontiguousarray(batch.ids, dtype=np.int64).tobytes(),
                np.ascontiguousarray(batch.lengths, dtype=np.int64).tobytes(),
            )
        )
        frame = BatchFrame(
            rows=rows, width=width, pad_id=batch.pad_id,
            generation=generation, payload=payload,
        )
        return frame, None
    items = rows * width + rows
    segment = _shm.SharedMemory(create=True, size=items * 8)
    buffer = np.frombuffer(segment.buf, dtype=np.int64, count=items)
    buffer[: rows * width] = batch.ids.reshape(-1)
    buffer[rows * width :] = batch.lengths
    del buffer  # drop the exported-buffer reference before handing off
    frame = BatchFrame(
        rows=rows, width=width, pad_id=batch.pad_id,
        generation=generation, shm_name=segment.name,
    )
    return frame, segment


def open_frame(frame: BatchFrame):
    """Materialize a :class:`TokenBatch` from *frame*; returns ``(batch, release)``.

    Worker side of the transport.  For shared-memory frames the batch's
    arrays are zero-copy views into the attached segment; *release*
    **must** be called after scoring (and after dropping every array
    referencing the batch) to detach the segment.  For pickle frames
    *release* is a no-op.
    """
    if frame.shm_name is None:
        if frame.payload is None:
            raise ValueError("frame carries neither a shm segment nor a payload")
        buffer = np.frombuffer(frame.payload, dtype=np.int64, count=frame.items)
        segment = None
    else:
        if _shm is None:
            raise RuntimeError("shared-memory frames are unavailable on this platform")
        # attaching registers with the resource tracker on Python < 3.13
        # (bpo-39959); under fork-based pools the workers share the
        # publisher's tracker, so a later attach-side unregister would
        # also erase the publisher's registration and make the unlink
        # complain.  Suppress the attach-side registration instead —
        # only the publisher owns the segment's lifetime.
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register

        def _skip_shm(name, rtype):  # pragma: no cover - trivial shim
            if rtype != "shared_memory":
                original_register(name, rtype)

        resource_tracker.register = _skip_shm
        try:
            segment = _shm.SharedMemory(name=frame.shm_name)
        finally:
            resource_tracker.register = original_register
        buffer = np.frombuffer(segment.buf, dtype=np.int64, count=frame.items)
    split = frame.rows * frame.width
    batch = TokenBatch(
        ids=buffer[:split].reshape(frame.rows, frame.width),
        lengths=buffer[split:],
        pad_id=frame.pad_id,
    )

    def release() -> None:
        if segment is not None:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - a view is still alive
                pass  # process exit unmaps it; never crash the worker

    return batch, release


def retire_frame(segment) -> None:
    """Tear down a published segment after every consumer detached."""
    if segment is None:
        return
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass
