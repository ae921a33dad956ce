"""Property tests for the compiled float32 inference plan.

:class:`InferencePlan` has two contracts, both checked across model
geometries, sequence lengths and padding masks that hypothesis draws:

- **tolerance** — its forward and pooled outputs stay within a float32
  error bound of the float64 Tensor-tape path under ``no_grad`` (the
  tape is the bit-exact reference);
- **bitwise stability** — a row pools to the same bits in any chunk,
  and a result does not depend on what the scratch arena served before
  (``tobytes``/``np.array_equal``, no tolerance).
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lm.config import LMConfig
from repro.lm.encoder_api import CHUNK_CELLS
from repro.lm.model import CommandLineLM
from repro.lm.pooling import pool
from repro.nn import Dropout, Tensor
from repro.nn.inference import InferenceCompileError, InferencePlan
from repro.nn.layers import Linear
from repro.nn.module import no_grad
from repro.nn.tensor import Tensor as _Tensor


def build_model(
    *, n_heads=2, head_dim=8, n_layers=2, vocab=50, max_position=16, seed=0
) -> CommandLineLM:
    config = LMConfig(
        vocab_size=vocab,
        hidden_size=n_heads * head_dim,
        n_layers=n_layers,
        n_heads=n_heads,
        intermediate_size=4 * n_heads * head_dim,
        max_position=max_position,
        seed=seed,
    )
    model = CommandLineLM(config)
    model.eval()
    return model


def random_batch(model, batch, seq, rng, *, pad=True):
    """ids plus a mask with at least one valid position per row."""
    ids = rng.integers(0, model.config.vocab_size, size=(batch, seq), dtype=np.int64)
    if not pad:
        return ids, np.ones((batch, seq), dtype=bool)
    lengths = rng.integers(1, seq + 1, size=batch)
    mask = np.arange(seq) < lengths[:, None]
    return ids, mask


geometry = st.tuples(
    st.integers(min_value=1, max_value=3),  # heads
    st.sampled_from([4, 8]),  # head_dim
    st.integers(min_value=1, max_value=2),  # layers
    st.integers(min_value=1, max_value=4),  # batch
    st.integers(min_value=1, max_value=10),  # seq
    st.integers(min_value=0, max_value=2**31 - 1),  # weight/id seed
)


def fresh_forward(model, ids, mask):
    """The forward of a plan whose arena has served nothing else."""
    return InferencePlan.compile(model).forward(ids, mask).copy()


class TestFloat32Tolerance:
    @given(geometry, st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_forward_within_tolerance(self, geom, use_mask):
        heads, head_dim, layers, batch, seq, seed = geom
        model = build_model(
            n_heads=heads, head_dim=head_dim, n_layers=layers, seed=seed % 1000
        )
        rng = np.random.default_rng(seed)
        ids, mask = random_batch(model, batch, seq, rng)
        plan = InferencePlan.compile(model)
        got = plan.forward(ids, mask if use_mask else None)
        with no_grad(model):
            want = model(ids, mask if use_mask else None).data
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, atol=1e-4, rtol=1e-3)

    @given(geometry)
    @settings(max_examples=15, deadline=None)
    def test_pooled_within_tolerance(self, geom):
        heads, head_dim, layers, batch, seq, seed = geom
        model = build_model(
            n_heads=heads, head_dim=head_dim, n_layers=layers, seed=seed % 1000
        )
        rng = np.random.default_rng(seed)
        ids, mask = random_batch(model, batch, seq, rng)
        plan = InferencePlan.compile(model)
        got = plan.pooled(ids, mask).copy()
        assert got.dtype == np.float32
        with no_grad(model):
            want = pool(model(ids, mask), mask, "mean").data
        # post-LayerNorm activations are O(1); 1e-4 absolute is ~1000 ulp
        # of float32 headroom across two blocks of accumulated rounding
        np.testing.assert_allclose(got, want, atol=1e-4, rtol=1e-3)


class TestFloat32RowInvariance:
    """A float32 row pools to the same bits in any chunk the encoder cuts.

    Served and offline scores of one line are compared bitwise
    (``test_stream_matches_batch_inspect``), though the two paths embed
    it in different chunks.  That holds only while no kernel lets one
    row's arithmetic depend on the other rows or on the padded width:
    every row sum and GEMM reduction runs in an order fixed by the
    model's shape alone, and a padded position adds exact zeros.  Chunks
    obey the encoder's cell rule, and rows carry at least the two
    special tokens.
    """

    @given(
        st.tuples(
            st.integers(min_value=1, max_value=4),  # heads
            st.sampled_from([4, 8, 16]),  # head_dim
            st.integers(min_value=1, max_value=2),  # layers
            st.integers(min_value=0, max_value=2**31 - 1),  # weight/id seed
        ),
        st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_pooled_row_is_bitwise_stable_across_chunks(self, geom, data):
        heads, head_dim, layers, seed = geom
        max_position = 48
        model = build_model(
            n_heads=heads,
            head_dim=head_dim,
            n_layers=layers,
            max_position=max_position,
            seed=seed % 1000,
        )
        plan = InferencePlan.compile(model)
        rng = np.random.default_rng(seed)
        length = data.draw(st.integers(min_value=2, max_value=max_position), "length")
        row = rng.integers(0, model.config.vocab_size, size=length)

        def chunk_with_row(width, rows, at):
            # *rows* random rows padded to *width*, ours at index *at*
            ids = rng.integers(0, model.config.vocab_size, size=(rows, width))
            lengths = rng.integers(2, width + 1, size=rows)
            ids[at, :length], lengths[at] = row, length
            mask = np.arange(width) < lengths[:, None]
            return plan.pooled(ids, mask)[at].copy()

        alone = chunk_with_row(length, 1, 0)
        for _ in range(3):
            width = data.draw(st.integers(min_value=length, max_value=max_position), "width")
            rows = data.draw(st.integers(min_value=1, max_value=CHUNK_CELLS // width), "rows")
            at = data.draw(st.integers(min_value=0, max_value=rows - 1), "at")
            assert chunk_with_row(width, rows, at).tobytes() == alone.tobytes()


class TestCompileSurface:
    def test_rejects_subclassed_model(self):
        class Tweaked(CommandLineLM):
            pass

        model = Tweaked(LMConfig.tiny(vocab_size=50))
        with pytest.raises(InferenceCompileError, match="outside the compiled"):
            InferencePlan.compile(model)

    def test_rejects_subclassed_block_module(self):
        model = build_model()

        class NoisyDropout(Dropout):
            pass

        model.encoder.blocks[0].dropout1 = NoisyDropout(0.0)
        with pytest.raises(InferenceCompileError):
            InferencePlan.compile(model)

    def test_rejects_bias_free_projection(self):
        model = build_model()
        block = model.encoder.blocks[0]
        rng = np.random.default_rng(0)
        d = model.config.hidden_size
        block.attention.query = Linear(d, d, rng, bias=False)
        with pytest.raises(InferenceCompileError, match="no bias"):
            InferencePlan.compile(model)

    def test_rejects_unknown_precision(self):
        # one compiled precision: the tape is the float64 path
        for precision in ("float64", "float32"):
            with pytest.raises(TypeError, match="precision"):
                InferencePlan.compile(build_model(), precision=precision)

    def test_forward_validates_shape_and_ids(self):
        plan = InferencePlan.compile(build_model(max_position=8))
        with pytest.raises(ValueError, match="batch, seq"):
            plan.forward(np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError, match="max_position"):
            plan.forward(np.zeros((1, 9), dtype=np.int64))
        with pytest.raises(IndexError, match="out of range"):
            plan.forward(np.full((1, 4), 10_000, dtype=np.int64))

    def test_describe_names_precision_and_geometry(self):
        plan = InferencePlan.compile(build_model())
        assert "float32" in plan.describe()
        assert "2x16d" in plan.describe()


class TestScratchArena:
    """One grow-only arena per thread, bounded in bytes by the largest shape."""

    def test_arena_is_bounded_by_twice_the_largest_shape(self):
        model = build_model(max_position=12)
        largest = InferencePlan.compile(model)
        largest.pooled(np.zeros((8, 12), dtype=np.int64), np.ones((8, 12), dtype=bool))
        need = largest.scratch_nbytes
        plan = InferencePlan.compile(model)
        assert plan.scratch_nbytes == 0
        shapes = [(b, t) for b in range(1, 9) for t in range(1, 13)]
        np.random.default_rng(0).shuffle(shapes)
        for b, t in shapes:
            plan.pooled(np.zeros((b, t), dtype=np.int64), np.ones((b, t), dtype=bool))
        grown = plan.scratch_nbytes
        assert need <= grown <= 2 * need
        for b, t in shapes:
            plan.pooled(np.zeros((b, t), dtype=np.int64), np.ones((b, t), dtype=bool))
        assert plan.scratch_nbytes == grown

    def test_repeat_calls_reuse_scratch_and_stay_bitwise(self):
        model = build_model()
        plan = InferencePlan.compile(model)
        rng = np.random.default_rng(7)
        sizes = []
        for _ in range(3):
            ids, mask = random_batch(model, 3, 9, rng)
            got = plan.forward(ids, mask).copy()
            sizes.append(plan.scratch_nbytes)
            assert np.array_equal(got, fresh_forward(model, ids, mask))
        assert sizes[0] > 0 and sizes == [sizes[0]] * 3  # one arena, reused
        assert plan.calls == 3

    def test_views_stay_bitwise_across_regrows(self):
        model = build_model(max_position=16)
        plan = InferencePlan.compile(model)
        rng = np.random.default_rng(3)
        held = []
        for batch, seq in [(1, 2), (2, 3), (4, 16), (1, 5), (3, 9), (4, 16), (1, 1)]:
            ids, mask = random_batch(model, batch, seq, rng)
            got = plan.forward(ids, mask)
            want = fresh_forward(model, ids, mask)
            assert np.array_equal(got, want)
            held.append((got, want))
        # a view taken before a regrow still reads its own result
        first, want = held[0]
        assert np.array_equal(first, want)

    def test_worker_thread_leaves_the_callers_view_alone(self):
        model = build_model(max_position=16)
        plan = InferencePlan.compile(model)
        rng = np.random.default_rng(5)
        ids, mask = random_batch(model, 2, 6, rng)
        mine = plan.forward(ids, mask)
        before = mine.copy()
        sizes = []

        def worker():
            other_ids, other_mask = random_batch(model, 4, 16, np.random.default_rng(6))
            plan.forward(other_ids, other_mask)
            sizes.append(plan.scratch_nbytes)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert np.array_equal(mine, before)
        assert sizes[0] > plan.scratch_nbytes  # each thread has its own arena


class TestEvalFastPath:
    """Satellite: dropout must vanish in eval mode, not sample-and-scale."""

    def test_eval_dropout_returns_input_object(self):
        layer = Dropout(0.5, np.random.default_rng(0))
        layer.eval()
        x = Tensor(np.ones((3, 3)))
        assert layer(x) is x  # identity, not a new node on the tape

    def test_zero_p_dropout_returns_input_object_even_training(self):
        layer = Dropout(0.0, np.random.default_rng(0))
        layer.train()
        x = Tensor(np.ones((3, 3)))
        assert layer(x) is x

    def test_training_dropout_still_masks(self):
        layer = Dropout(0.5, np.random.default_rng(0))
        layer.train()
        x = Tensor(np.ones((64, 64)))
        out = layer(x)
        assert out is not x
        assert (out.data == 0.0).any()

    def test_eval_attention_never_draws_from_dropout_rng(self):
        model = build_model()
        rng_states_before = [
            block.attention.attn_dropout._rng.bit_generator.state
            for block in model.encoder.blocks
        ]
        ids = np.zeros((2, 5), dtype=np.int64)
        with no_grad(model):
            model(ids, np.ones((2, 5), dtype=bool))
        rng_states_after = [
            block.attention.attn_dropout._rng.bit_generator.state
            for block in model.encoder.blocks
        ]
        assert rng_states_before == rng_states_after

    def test_eval_forward_unchanged_by_fast_path(self):
        # the fast path must be an optimization, not a numerics change:
        # eval dropout used to multiply by a mask of ones — same bits
        model = build_model()
        ids = np.arange(10, dtype=np.int64).reshape(2, 5)
        mask = np.ones((2, 5), dtype=bool)
        with no_grad(model):
            first = model(ids, mask).data.copy()
            second = model(ids, mask).data.copy()
        assert np.array_equal(first, second)


class TestPlanIsGraphFree:
    def test_forward_builds_no_tape(self):
        model = build_model()
        plan = InferencePlan.compile(model)
        ids = np.zeros((1, 4), dtype=np.int64)
        out = plan.forward(ids, np.ones((1, 4), dtype=bool))
        assert isinstance(out, np.ndarray)
        assert not isinstance(out, _Tensor)

    def test_weights_are_snapshots(self):
        model = build_model()
        plan = InferencePlan.compile(model)
        ids = np.zeros((1, 4), dtype=np.int64)
        mask = np.ones((1, 4), dtype=bool)
        before = plan.forward(ids, mask).copy()
        model.token_embedding.weight.data += 1.0  # "training" after compile
        after = plan.forward(ids, mask).copy()
        assert np.array_equal(before, after)  # the plan kept its snapshot
