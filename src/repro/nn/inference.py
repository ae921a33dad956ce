"""Compiled inference: graph-free, buffer-reusing float32 forward kernels.

Every serving-time forward pass used to execute through the float64
reverse-mode autograd tape in :mod:`repro.nn.tensor` — per-op ``Tensor``
wrappers, per-op output allocation, eval-mode ``Dropout`` calls, and one
tiny stacked BLAS call per batch row for every linear layer.  Under
``no_grad`` none of that buys anything: the graph is never built, the
dropout masks are never drawn, and the per-op overhead *is* the cost.

:class:`InferencePlan` compiles a trained
:class:`~repro.lm.model.CommandLineLM` once into straight-line float32
numpy:

- **weights as raw contiguous float32 arrays** — the query/key/value
  projections of every layer are prepacked into one fused ``(D, 3D)``
  matrix, so a layer's QKV projection is a single GEMM over the
  flattened ``(B*T, D)`` activations;
- **one scratch arena per thread** — every intermediate (hidden
  states, attention scores, FFN activations) is a view into one flat,
  grow-only array per intermediate, shared by every ``(batch, seq)``
  shape, so the steady-state forward allocates nothing per op and the
  scratch is bounded in bytes by the largest shape served (at most
  twice what it needs, see :attr:`InferencePlan.scratch_nbytes`);
- **eval-mode structure folded out at compile time** — dropout layers
  vanish entirely, layer norms run as in-place ufuncs, and the scale →
  mask → softmax of attention runs as one fused in-place kernel per
  layer.

The kernel is cheaper per token than a dtype swap alone:

- the attention scale is folded into the query weights, and GELU's 0.5
  into the FFN output weights; GELU runs as seven passes without ``pow``;
- attention scores are stored keys-outermost, ``(keys, B, H,
  queries)``, so the softmax's max and sum reduce over axis 0 of a
  contiguous 2-D view, and the context GEMM writes straight into the
  head-merge layout (see :meth:`InferencePlan._attention`);
- a chunk whose rows are all full length skips the additive mask;
- layer-norm row sums come from ``np.einsum``, and mean pooling is a
  weighted sum in position order.

The plan scores within float32 tolerance of the tape (~1e-6 on a
score), with the tape's verdicts; the tape itself stays the bit-exact
float64 path (``compiled = false`` when serving).  The plan keeps one
guarantee of its own: **row invariance**.  A row's pooled output is
bitwise the same alone, inside any chunk the encoder cuts
(:func:`repro.lm.encoder_api.forward_chunks`), or padded to a wider
width, because every reduction runs in an order fixed by the model's
shape and a padded position adds exact zeros.  Served and offline
scores of one line are compared bitwise on that basis.  Row sums
therefore avoid BLAS: ``x @ ones`` is faster, but its summation order
follows the call's row count, and it moved pooled rows by up to ~4e-7
between chunkings.  The GEMMs keep each row's order for the shapes the
encoder issues — at least two token rows (a one-row product becomes a
gemv) and at most :data:`~repro.lm.encoder_api.CHUNK_CELLS` cells
(far larger calls may switch BLAS kernels).  Both properties are
tested in ``tests/nn/test_inference_plan.py``.

Models the compiler does not cover (subclassed modules, bias-free
linears, non-standard block wiring) raise
:class:`InferenceCompileError` at compile time — callers treat that as
"serve through the Tensor path", never as a hard failure.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.nn import functional as F
from repro.nn.attention import NEG_INF, MultiHeadSelfAttention
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear
from repro.nn.transformer import TransformerBlock, TransformerEncoder

#: Shapes whose scratch views one thread caches (~3 KB of view objects
#: each, no array data); past this the cache of views is emptied.
_MAX_VIEW_SHAPES = 256

#: GELU's folded constant ``sqrt(2/pi) * 0.044715``.
_GELU_CA = F._SQRT_2_OVER_PI * 0.044715


class InferenceCompileError(ReproError):
    """The model's structure is outside what the compiler covers.

    Raised by :meth:`InferencePlan.compile` when a module is subclassed,
    rewired, or configured in a way whose numerics the straight-line
    kernels would not replicate.  Serving layers catch this and fall
    back to the Tensor-tape path.
    """


def _exact(module, cls, where: str):
    """Require *module* to be exactly *cls* (subclasses may override
    ``forward`` with different math, which the compiled kernels would
    silently misrepresent)."""
    if type(module) is not cls:
        raise InferenceCompileError(
            f"{where} must be {cls.__name__} (got {type(module).__name__}); "
            "this model is outside the compiled-inference surface"
        )
    return module


def _packed(array: np.ndarray) -> np.ndarray:
    """A contiguous float32 snapshot of *array*.

    Always a copy — the plan must be immune to post-compile weight
    updates (continued training), so it never aliases model storage.
    """
    return np.array(array, dtype=np.float32, order="C", copy=True)


@dataclass(frozen=True)
class _LayerKernel:
    """One transformer block's weights, prepacked for the fused kernels."""

    wqkv: np.ndarray  # (D, 3D) — fused query|key|value, query scaled by 1/sqrt(d_h)
    bqkv: np.ndarray  # (3D,), query part scaled likewise
    wo: np.ndarray  # (D, D) attention output projection
    bo: np.ndarray  # (D,)
    attn_gamma: np.ndarray
    attn_beta: np.ndarray
    attn_eps: float
    w_in: np.ndarray  # (D, I)
    b_in: np.ndarray  # (I,)
    w_out: np.ndarray  # (I, D), scaled by GELU's 0.5
    b_out: np.ndarray  # (D,)
    ffn_gamma: np.ndarray
    ffn_beta: np.ndarray
    ffn_eps: float


class InferencePlan:
    """A trained :class:`CommandLineLM` compiled to straight-line numpy.

    Build one with :meth:`compile`; the plan snapshots the model's
    weights (raw contiguous float32 arrays, QKV fused per layer), so weight
    updates after compilation require recompiling.  The plan is the
    serving hot path behind
    :meth:`repro.lm.encoder_api.CommandEncoder.compile_inference`.

    Scratch: each thread owns one arena — a flat, grow-only array per
    intermediate — and every ``(batch, seq)`` shape runs on views of
    its leading elements.  A larger shape regrows the arena to at least
    double, so it holds at most twice what the largest shape served
    needs (:attr:`scratch_nbytes`), however many shapes come by.

    Thread-safety: the arena is **thread-local** — the threaded scoring
    backend runs one ``score_batch`` per pool thread, and sequence
    scoring hops to executor threads, against a shared service, so
    forwards never race (the packed weights themselves are read-only)
    and every thread that runs a forward keeps its own arena.  The
    ``calls`` counter is a plain int and therefore approximate under
    threads; it is observability, not accounting.

    Returned arrays are **views into the calling thread's arena**,
    valid until that thread's next ``forward``/``pooled`` call — copy
    (or assign into a result array) immediately.  An arena that
    regrows leaves the old array to the views that still hold it, so a
    returned result is never overwritten by a larger shape.
    """

    #: The plan's compute and result dtype.
    dtype = np.float32

    def __init__(
        self,
        *,
        token_weight: np.ndarray,
        position_weight: np.ndarray,
        embed_gamma: np.ndarray,
        embed_beta: np.ndarray,
        embed_eps: float,
        layers: list[_LayerKernel],
        n_heads: int,
        head_dim: int,
        max_position: int,
    ):
        self.token_weight = token_weight
        self.position_weight = position_weight
        self.embed_gamma = embed_gamma
        self.embed_beta = embed_beta
        self.embed_eps = embed_eps
        self.layers = layers
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.hidden_size = n_heads * head_dim
        self.intermediate_size = layers[0].w_in.shape[1] if layers else 0
        self.max_position = max_position
        self.vocab_size = token_weight.shape[0]
        #: Forward passes served since compilation (observability).
        self.calls = 0
        self._local = threading.local()

    # -- compilation -------------------------------------------------------

    @classmethod
    def compile(cls, model) -> "InferencePlan":
        """Extract and prepack *model*'s weights into a plan.

        Raises :class:`InferenceCompileError` for any model whose
        structure the straight-line kernels do not cover.
        """
        # deferred import: repro.lm imports this module's host package
        from repro.lm.model import CommandLineLM

        _exact(model, CommandLineLM, "model")
        token = _exact(model.token_embedding, Embedding, "model.token_embedding")
        position = _exact(model.position_embedding, Embedding, "model.position_embedding")
        norm = _exact(model.embedding_norm, LayerNorm, "model.embedding_norm")
        _exact(model.embedding_dropout, Dropout, "model.embedding_dropout")
        encoder = _exact(model.encoder, TransformerEncoder, "model.encoder")
        layers = [
            cls._compile_block(block, index)
            for index, block in enumerate(encoder.blocks)
        ]
        config = model.config
        return cls(
            token_weight=_packed(token.weight.data),
            position_weight=_packed(position.weight.data),
            embed_gamma=_packed(norm.gamma.data),
            embed_beta=_packed(norm.beta.data),
            embed_eps=float(norm.eps),
            layers=layers,
            n_heads=config.n_heads,
            head_dim=config.hidden_size // config.n_heads,
            max_position=config.max_position,
        )

    @staticmethod
    def _compile_block(block, index: int) -> _LayerKernel:
        where = f"model.encoder.blocks[{index}]"
        _exact(block, TransformerBlock, where)
        attention = _exact(block.attention, MultiHeadSelfAttention, f"{where}.attention")
        _exact(attention.attn_dropout, Dropout, f"{where}.attention.attn_dropout")
        _exact(block.dropout1, Dropout, f"{where}.dropout1")
        _exact(block.dropout2, Dropout, f"{where}.dropout2")
        projections = []
        for name in ("query", "key", "value", "output"):
            linear = _exact(getattr(attention, name), Linear, f"{where}.attention.{name}")
            if linear.bias is None:
                raise InferenceCompileError(
                    f"{where}.attention.{name} has no bias; the fused QKV kernel "
                    "assumes biased projections"
                )
            projections.append(linear)
        query, key, value, output = projections
        attn_norm = _exact(block.attention_norm, LayerNorm, f"{where}.attention_norm")
        ffn_norm = _exact(block.ffn_norm, LayerNorm, f"{where}.ffn_norm")
        ffn_in = _exact(block.ffn_in, Linear, f"{where}.ffn_in")
        ffn_out = _exact(block.ffn_out, Linear, f"{where}.ffn_out")
        if ffn_in.bias is None or ffn_out.bias is None:
            raise InferenceCompileError(f"{where} FFN linears must carry biases")
        assert query.bias is not None and key.bias is not None
        assert value.bias is not None and output.bias is not None
        # the attention scale, folded into the query columns
        scale = 1.0 / math.sqrt(attention.head_dim)
        return _LayerKernel(
            # prepacked QKV: one (D, 3D) GEMM replaces three matmuls
            wqkv=_packed(
                np.concatenate(
                    [query.weight.data * scale, key.weight.data, value.weight.data], axis=1
                )
            ),
            bqkv=_packed(
                np.concatenate([query.bias.data * scale, key.bias.data, value.bias.data])
            ),
            wo=_packed(output.weight.data),
            bo=_packed(output.bias.data),
            attn_gamma=_packed(attn_norm.gamma.data),
            attn_beta=_packed(attn_norm.beta.data),
            attn_eps=float(attn_norm.eps),
            w_in=_packed(ffn_in.weight.data),
            b_in=_packed(ffn_in.bias.data),
            # GELU's 0.5 folded into w_out (exact: a power of two)
            w_out=_packed(ffn_out.weight.data * 0.5),
            b_out=_packed(ffn_out.bias.data),
            ffn_gamma=_packed(ffn_norm.gamma.data),
            ffn_beta=_packed(ffn_norm.beta.data),
            ffn_eps=float(ffn_norm.eps),
        )

    # -- scratch arena -----------------------------------------------------

    def _buffers(self, batch: int, seq: int) -> dict[str, np.ndarray]:
        """Scratch views for one ``(batch, seq)`` forward.

        Each intermediate has one flat, grow-only array per thread (the
        arena); a shape's buffers are reshaped views of its leading
        elements, so every shape shares the same memory.  A shape that
        needs more room regrows the short arrays to at least double their
        size — a pass of ascending widths regrows O(log) times — and
        drops the cached views, which hold no array data of their own.
        An old array stays alive through any view a caller still holds.
        """
        local = self._local
        views = getattr(local, "views", None)
        if views is None:
            views = local.views = {}
            local.arena = {}
        key = (batch, seq)
        buf = views.get(key)
        if buf is not None:
            return buf
        d, h, dh, i = self.hidden_size, self.n_heads, self.head_dim, self.intermediate_size
        rows = batch * seq
        shapes = {
            "x": (batch, seq, d),
            "res": (batch, seq, d),
            "mu": (batch, seq, 1),
            "var": (batch, seq, 1),
            "merge": (batch, seq, h, dh),
            "attn": (rows, d),
            "ffh": (rows, i),
            "gtmp": (rows, i),
            "ff2": (rows, d),
            "pooled": (batch, 1, d),
            "weights": (batch, seq, 1),
            # the fused (B*T, D) @ (D, 3D) projection; the keys-outer
            # softmax keeps its scores as (keys, B, H, queries), one
            # statistic per (batch, head, query) and its mask per key
            "qkv": (rows, 3 * d),
            "scores": (seq, batch, h, seq),
            "stat": (batch * h * seq,),
            "additive": (seq, batch, 1, 1),
        }
        arena = local.arena
        for name, shape in shapes.items():
            flat = arena.get(name)
            need = math.prod(shape)
            if flat is None or flat.size < need:
                grown = max(need, 2 * flat.size) if flat is not None else need
                arena[name] = np.empty(grown, dtype=self.dtype)
                views.clear()
        if len(views) >= _MAX_VIEW_SHAPES:
            views.clear()
        buf = views[key] = {
            name: arena[name][: math.prod(shape)].reshape(shape)
            for name, shape in shapes.items()
        }
        return buf

    @property
    def scratch_nbytes(self) -> int:
        """Bytes the calling thread's scratch arena holds."""
        return sum(flat.nbytes for flat in getattr(self._local, "arena", {}).values())

    # -- kernels -----------------------------------------------------------

    def _layer_norm(self, src, gamma, beta, eps, out, buf) -> None:
        """Post-norm layer norm, in place over *src*, result into *out*.

        The steps of :func:`repro.nn.functional.layer_norm` (mean,
        centered, mean square, ``1.0 / sqrt(var+eps)``, scale, shift).
        The two row sums come from ``np.einsum`` — the sum of squares
        without a squared copy, and less per-call work than
        ``add.reduce`` over a short last axis — and each is divided by
        an ``intp`` count as ``np.mean`` does.  Each row is summed in an
        order fixed by ``D`` alone, so a row normalizes to the same bits
        in any chunk.  A BLAS ``x @ ones`` row sum is faster still but
        not row-invariant (see the module docstring).  *src* is
        clobbered; *out* may alias *src*.
        """
        mu, var = buf["mu"], buf["var"]
        count = np.intp(src.shape[-1])
        np.einsum("...d->...", src, out=mu[..., 0])
        np.true_divide(mu, count, out=mu, casting="unsafe")
        np.subtract(src, mu, out=src)
        np.einsum("...d,...d->...", src, src, out=var[..., 0])
        np.true_divide(var, count, out=var, casting="unsafe")
        np.add(var, eps, out=var)
        np.sqrt(var, out=var)
        np.divide(1.0, var, out=var)
        np.multiply(src, var, out=src)
        np.multiply(src, gamma, out=src)
        np.add(src, beta, out=out)

    def _attention(self, layer: _LayerKernel, buf, batch: int, seq: int, additive):
        """Fused self-attention: QKV projection, one in-place masked
        softmax kernel, one context GEMM, one output GEMM.

        The projection is one ``(B*T, D) @ (D, 3D)`` GEMM, and the kernel
        stores its scores keys-outermost, ``(keys, B, H, queries)``:
        the score GEMM writes there through a transposed ``out=`` view,
        so the softmax's max and sum reduce over axis 0 of a contiguous
        2-D view — one vector pass per key, instead of a reduction
        along a short strided axis.  The context GEMM reads the scores
        transposed and writes straight into the head-merge layout
        ``(B, T, H, dh)``, so no copy merges the heads.  Each sum over
        keys runs in key order, and a padded key adds an exact zero, so
        a row's result does not depend on its chunk.
        """
        d, h, dh = self.hidden_size, self.n_heads, self.head_dim
        merge = buf["merge"]
        qkv = buf["qkv"]
        np.matmul(buf["x"].reshape(batch * seq, d), layer.wqkv, out=qkv)
        np.add(qkv, layer.bqkv, out=qkv)
        # head split: strided views into the fused projection, no copies
        heads = qkv.reshape(batch, seq, 3, h, dh).transpose(2, 0, 3, 1, 4)
        q, k, v = heads[0], heads[1], heads[2]
        # scores[j, b, h, i] = k[b, h, j] · q[b, h, i] (Q carries the
        # 1/sqrt(d_h) scale since compile)
        scores, stat = buf["scores"], buf["stat"]
        np.matmul(k, q.transpose(0, 1, 3, 2), out=scores.transpose(1, 2, 0, 3))
        if additive is not None:
            np.add(scores, additive, out=scores)
        flat = scores.reshape(seq, -1)
        np.maximum.reduce(flat, axis=0, out=stat)
        np.subtract(flat, stat, out=flat)
        np.exp(flat, out=flat)
        np.add.reduce(flat, axis=0, out=stat)
        np.divide(flat, stat, out=flat)
        np.matmul(scores.transpose(1, 2, 3, 0), v, out=merge.transpose(0, 2, 1, 3))
        attn = buf["attn"]
        np.matmul(merge.reshape(batch * seq, d), layer.wo, out=attn)
        np.add(attn, layer.bo, out=attn)
        return attn.reshape(batch, seq, d)

    def forward(self, ids, attention_mask=None) -> np.ndarray:
        """Hidden states ``(B, T, D)`` — ``CommandLineLM.forward`` without
        the tape.  The result is a view into plan scratch; copy before
        the next call."""
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ValueError(f"ids must be (batch, seq), got shape {ids.shape}")
        batch, seq = ids.shape
        if seq > self.max_position:
            raise ValueError(
                f"sequence length {seq} exceeds max_position {self.max_position}"
            )
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise IndexError(
                f"embedding ids out of range [0, {self.vocab_size}): "
                f"min={ids.min()}, max={ids.max()}"
            )
        buf = self._buffers(batch, seq)
        x = buf["x"]
        np.take(self.token_weight, ids, axis=0, out=x)
        np.add(x, self.position_weight[:seq], out=x)
        self._layer_norm(x, self.embed_gamma, self.embed_beta, self.embed_eps, x, buf)
        additive = None
        if attention_mask is not None:
            mask = np.asarray(attention_mask, dtype=bool)
            if not mask.all():
                # keys-outer, one value per (key, batch row); a chunk of
                # full-length rows skips the add altogether
                additive = buf["additive"]
                np.copyto(additive, np.where(mask.T, 0.0, NEG_INF).reshape(additive.shape))
        res = buf["res"]
        for layer in self.layers:
            attended = self._attention(layer, buf, batch, seq, additive)
            np.add(x, attended, out=res)
            self._layer_norm(res, layer.attn_gamma, layer.attn_beta, layer.attn_eps, x, buf)
            ffh, gtmp, ff2 = buf["ffh"], buf["gtmp"], buf["ff2"]
            np.matmul(x.reshape(batch * seq, self.hidden_size), layer.w_in, out=ffh)
            np.add(ffh, layer.b_in, out=ffh)
            # the tape's tanh GELU, 0.5 * x * (1 + tanh(c * (x + a*x^3))),
            # factored as x * (1 + tanh(x * (c + c*a*x^2))) with its 0.5
            # folded into w_out at compile: seven passes over the
            # activations in place of nine, and no scalar pow
            np.multiply(ffh, ffh, out=gtmp)
            np.multiply(gtmp, _GELU_CA, out=gtmp)
            np.add(gtmp, F._SQRT_2_OVER_PI, out=gtmp)
            np.multiply(gtmp, ffh, out=gtmp)
            np.tanh(gtmp, out=gtmp)
            np.add(gtmp, 1.0, out=gtmp)
            np.multiply(ffh, gtmp, out=ffh)
            np.matmul(ffh, layer.w_out, out=ff2)
            np.add(ff2, layer.b_out, out=ff2)
            np.add(x, ff2.reshape(batch, seq, self.hidden_size), out=res)
            self._layer_norm(res, layer.ffn_gamma, layer.ffn_beta, layer.ffn_eps, x, buf)
        self.calls += 1
        return x

    def pooled(self, ids, attention_mask, strategy: str = "mean") -> np.ndarray:
        """Pooled embeddings ``(B, D)`` — forward + the tape's pooling.

        Mean pooling sums the weighted positions in order, which keeps a
        row's result independent of its chunk.  The result is a view
        into plan scratch; copy before the next call.
        """
        hidden = self.forward(ids, attention_mask)
        if strategy == "cls":
            return hidden[:, 0, :]
        if strategy != "mean":
            raise ValueError(f"unknown pooling strategy {strategy!r}")
        batch, seq, d = hidden.shape
        buf = self._buffers(batch, seq)
        mask = np.asarray(attention_mask, dtype=np.float64)
        counts = mask.sum(axis=1, keepdims=True)
        if (counts == 0).any():
            raise ValueError("attention_mask has rows with no valid positions")
        weights, pooled = buf["weights"], buf["pooled"]
        # a weighted sum in position order: a padded position adds an
        # exact zero, so a row pools to the same bits at any width (a
        # batched gemv's grouping follows the width)
        np.divide(mask, counts, out=weights[..., 0], casting="same_kind")
        terms = buf["res"]
        np.multiply(hidden, weights, out=terms)
        np.add.reduce(terms, axis=1, keepdims=True, out=pooled)
        return pooled.reshape(batch, d)

    # -- observability -----------------------------------------------------

    def describe(self) -> str:
        """Short human-readable identity, e.g. ``plan(float32, 2x32d, heads=4)``."""
        return (
            f"plan({np.dtype(self.dtype).name}, {len(self.layers)}x{self.hidden_size}d, "
            f"heads={self.n_heads})"
        )
