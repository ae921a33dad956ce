"""Forward chunks follow one cell rule, identically on every embed path.

Counts-based: a recording wrapper around :meth:`InferencePlan.pooled`
(and around the tape model's forward) captures the ``(rows, width)`` of
every forward chunk, so the tests pin how much padding the encoder
computes without timing anything.
"""

import numpy as np
import pytest

from repro.lm.encoder_api import CHUNK_CELLS, CommandEncoder, forward_chunks
from repro.lm.model import CommandLineLM
from repro.nn.inference import InferencePlan
from repro.serving.demo import DEMO_BENIGN, DEMO_MALICIOUS, build_demo_service

#: The fixed row count every chunk used to hold, before the cell rule.
OLD_BATCH = 32


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


def _fixed_row_cells(lengths) -> int:
    """Σ rows·width of ``OLD_BATCH``-row chunks cut in stable length order."""
    order = np.argsort(lengths, kind="stable")
    chunks = [order[start : start + OLD_BATCH] for start in range(0, len(order), OLD_BATCH)]
    return sum(len(chunk) * int(lengths[chunk].max()) for chunk in chunks)


def _chunk_shapes(monkeypatch, embed, target, method) -> list[tuple[int, int]]:
    shapes: list[tuple[int, int]] = []
    original = getattr(target, method)

    def recording(self, ids, *args, **kwargs):
        shapes.append(tuple(np.shape(ids)))
        return original(self, ids, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(target, method, recording)
        embed()
    return shapes


@pytest.fixture(scope="module")
def service():
    service = build_demo_service()
    assert service.compile_inference()
    return service


@pytest.fixture(scope="module")
def chunks(service):
    """The chunk shapes of all four embed loops over ``LINES``."""
    compiled = service.encoder
    tape = CommandEncoder(compiled.model, compiled.tokenizer, pooling=compiled.pooling)
    batch = service.encode_batch(LINES)
    patch = pytest.MonkeyPatch()
    try:
        return {
            "plan/embed": _chunk_shapes(
                patch, lambda: compiled.embed(LINES), InferencePlan, "pooled"
            ),
            "plan/embed_batch": _chunk_shapes(
                patch, lambda: compiled.embed_batch(batch), InferencePlan, "pooled"
            ),
            "tape/embed": _chunk_shapes(
                patch, lambda: tape.embed(LINES), CommandLineLM, "forward"
            ),
            "tape/embed_batch": _chunk_shapes(
                patch, lambda: tape.embed_batch(batch), CommandLineLM, "forward"
            ),
        }
    finally:
        patch.undo()


def test_embed_paths_issue_the_same_token_sorted_chunks(chunks):
    shapes = list(chunks.values())
    assert shapes[0]
    assert all(other == shapes[0] for other in shapes[1:])


def test_chunks_obey_the_cell_budget(chunks):
    shapes = chunks["plan/embed_batch"]
    assert len(shapes) > 1
    assert all(rows * width <= CHUNK_CELLS or rows == 1 for rows, width in shapes)


def test_chunks_cover_every_row(service, chunks):
    lengths = service.encode_batch(LINES).lengths
    shapes = chunks["plan/embed_batch"]
    assert sum(rows for rows, _ in shapes) == len(LINES)
    # each chunk is padded to its own longest row, in token-length order
    sorted_lengths = np.sort(lengths, kind="stable")
    stops = np.cumsum([rows for rows, _ in shapes])
    assert [width for _, width in shapes] == [int(sorted_lengths[stop - 1]) for stop in stops]


def test_cells_do_not_exceed_the_fixed_row_rule(service, chunks):
    lengths = service.encode_batch(LINES).lengths
    chars = np.array([len(line) for line in LINES])
    # precondition: chunking by characters would pad more on this batch
    assert _fixed_row_cells(chars) > _fixed_row_cells(lengths)
    cells = sum(rows * width for rows, width in chunks["plan/embed_batch"])
    assert cells >= int(lengths.sum())
    assert cells <= _fixed_row_cells(lengths)


@pytest.mark.parametrize(
    "lengths",
    [
        [],
        [2],
        [2] * 500,
        [48] * 20,
        [2, 3, 5, 8, 13, 21, 34, 48],
        sorted(np.random.default_rng(0).integers(2, 49, size=300).tolist()),
        [500, 600],  # rows wider than the whole budget stand alone
    ],
)
def test_forward_chunks_rule(lengths):
    cuts = forward_chunks(lengths)
    covered = [index for cut in cuts for index in range(cut.start, cut.stop)]
    assert covered == list(range(len(lengths)))
    for cut in cuts:
        rows, width = cut.stop - cut.start, lengths[cut.stop - 1]
        assert rows * width <= CHUNK_CELLS or rows == 1
        if cut.stop < len(lengths):  # greedy: the next row would not fit
            assert (rows + 1) * lengths[cut.stop] > CHUNK_CELLS
