"""Forward chunks are cut in token-length order, identically on both embed paths.

Counts-based: a recording wrapper around :meth:`InferencePlan.pooled`
captures the ``(rows, width)`` of every forward chunk, so the test pins
how much padding the encoder computes without timing anything.
"""

import numpy as np
import pytest

from repro.nn.inference import InferencePlan
from repro.serving.demo import DEMO_BENIGN, DEMO_MALICIOUS, build_demo_service

BATCH = 32


def _mixed_lines(count: int = 100, seed: int = 7) -> list[str]:
    # whole demo commands (a few tokens over many characters) mixed with
    # short operator runs (about one token per character), so ordering
    # by characters and ordering by tokens disagree
    rng = np.random.default_rng(seed)
    corpus = [*DEMO_BENIGN, *DEMO_MALICIOUS]
    lines = []
    for _ in range(count):
        if rng.random() < 0.5:
            lines.append(corpus[rng.integers(len(corpus))])
        else:
            lines.append("".join(rng.choice(list("|;&<>(){}$"), size=rng.integers(2, 24))))
    return lines


LINES = _mixed_lines()


def _padded_cells(keys, lengths) -> int:
    """Σ rows·width of ``BATCH``-row chunks cut in stable *keys* order."""
    order = np.argsort(keys, kind="stable")
    chunks = [order[start : start + BATCH] for start in range(0, len(order), BATCH)]
    return sum(len(chunk) * int(lengths[chunk].max()) for chunk in chunks)


def _chunk_shapes(monkeypatch, embed) -> list[tuple[int, int]]:
    shapes: list[tuple[int, int]] = []
    original = InferencePlan.pooled

    def recording(plan, ids, attention_mask, strategy="mean"):
        shapes.append(ids.shape)
        return original(plan, ids, attention_mask, strategy)

    with monkeypatch.context() as patch:
        patch.setattr(InferencePlan, "pooled", recording)
        embed()
    return shapes


@pytest.fixture(scope="module")
def service():
    service = build_demo_service()
    assert service.compile_inference("float32")
    return service


def test_embed_paths_issue_the_same_token_sorted_chunks(service, monkeypatch):
    encoder = service.encoder
    assert encoder.batch_size == BATCH
    lengths = service.encode_batch(LINES).lengths
    chars = np.array([len(line) for line in LINES])
    # precondition: chunking by characters would pad more on this batch
    assert _padded_cells(chars, lengths) > _padded_cells(lengths, lengths)

    per_line = _chunk_shapes(monkeypatch, lambda: encoder.embed(LINES))
    columnar = _chunk_shapes(
        monkeypatch, lambda: encoder.embed_batch(service.encode_batch(LINES))
    )

    assert per_line == columnar
    assert sum(rows for rows, _ in per_line) == len(LINES)
    assert sum(rows * width for rows, width in per_line) == _padded_cells(lengths, lengths)
