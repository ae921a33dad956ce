"""The deployable end-to-end IDS of Figure 1.

:class:`IntrusionDetectionService` packages everything inference needs —
normalizer, parser filter, tokenizer, language model, tuned
classification head, calibrated threshold — behind a single
``inspect()`` API, with save/load so a trained system can be shipped.

This is the "inference path" of Figure 1: logging → pre-processing →
tokenization → inference → intrusion yes/no.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import CheckpointError, NotFittedError
from repro.lm.checkpoint import load_pretrained, save_pretrained
from repro.lm.encoder_api import CommandEncoder
from repro.nn.serialization import save_module
from repro.preprocess.normalizer import Normalizer
from repro.shell.ast_nodes import CommandList
from repro.shell.validate import CommandLineValidator
from repro.tuning.classification import ClassificationTuner

_META_FILE = "service.json"
_HEAD_FILE = "head.npz"
_MULTILINE_DIR = "multiline"
_MULTILINE_META = "multiline.json"


@dataclass(frozen=True)
class Verdict:
    """The service's decision for one command line.

    Attributes
    ----------
    line:
        The normalized command line that was scored (empty when the
        line was dropped by pre-processing).
    score:
        Intrusion probability from the tuned head (0 when dropped).
    is_intrusion:
        Final yes/no decision at the calibrated threshold.
    dropped:
        True when pre-processing discarded the line (un-parseable noise
        cannot be executed and is not scored — Section II-A).
    index:
        Position of the line in the batch handed to :meth:`inspect`
        (``-1`` when the verdict was produced outside a batch); used as
        the deterministic tie-break when ranking alerts.
    """

    line: str
    score: float
    is_intrusion: bool
    dropped: bool = False
    index: int = -1


class IntrusionDetectionService:
    """Inference-path bundle: preprocess → embed → classify → threshold.

    Build one with :meth:`from_tuner` after training, or restore a
    shipped bundle with :meth:`load`.

    Example
    -------
    >>> service = IntrusionDetectionService.from_tuner(tuner, 0.5)  # doctest: +SKIP
    >>> service.inspect(["nc -ulp 31337"])[0].is_intrusion          # doctest: +SKIP
    True
    """

    def __init__(
        self,
        encoder: CommandEncoder,
        tuner: ClassificationTuner,
        threshold: float,
        normalizer: Normalizer | None = None,
    ):
        if tuner.head is None:
            raise NotFittedError("classification tuner must be fitted before serving")
        self.encoder = encoder
        self.tuner = tuner
        self.threshold = float(threshold)
        self.normalizer = normalizer or Normalizer()
        self._validator = CommandLineValidator()
        #: Bundle directory this service was restored from (set by
        #: :meth:`load`); ``None`` for freshly-trained services.
        self.source_dir: Path | None = None
        #: The :class:`~repro.serving.config.ServingConfig` recorded in
        #: the bundle metadata (how this service was last deployed);
        #: ``None`` when the bundle carries no serving config.
        self.serving_config = None
        #: Optional second-stage head scoring *composed* multi-line
        #: inputs (Section IV-C) — attach with :meth:`attach_multiline`;
        #: ships in the bundle's ``multiline/`` directory.
        self.multiline_tuner: ClassificationTuner | None = None
        #: Composer semantics the multi-line head was trained with
        #: (``{"window": ..., "max_gap_seconds": ...}``), when recorded.
        self.multiline_composer_meta: dict | None = None
        # lazily-built columnar tokenizer backing encode_batch()
        self._columnar = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_tuner(cls, tuner: ClassificationTuner, threshold: float) -> "IntrusionDetectionService":
        """Wrap a fitted tuner (reuses its encoder)."""
        return cls(encoder=tuner.encoder, tuner=tuner, threshold=threshold)

    def attach_multiline(self, tuner: ClassificationTuner) -> "IntrusionDetectionService":
        """Attach a fitted multi-line head as the second-stage sequence scorer.

        *tuner* scores **composed** inputs — recent same-host command
        lines joined with the ``;`` separator (see
        :mod:`repro.tuning.multiline`).  It shares this service's frozen
        LM; only the probing head differs.  Once attached, the head
        travels with the bundle (:meth:`save` writes a ``multiline/``
        directory) and the streaming server's ``sequence`` / ``hybrid``
        escalation modes can use it.
        """
        if tuner.head is None:
            raise NotFittedError("multi-line tuner must be fitted before attaching")
        self.multiline_tuner = tuner
        composer = getattr(tuner, "composer", None)
        if composer is not None:
            self.multiline_composer_meta = {
                "window": composer.window,
                "max_gap_seconds": composer.max_gap.total_seconds(),
            }
        return self

    @property
    def has_sequence_head(self) -> bool:
        """Whether a second-stage multi-line head is attached."""
        return self.multiline_tuner is not None

    def fingerprint(self) -> str:
        """Short stable hash of the deployed weights and threshold.

        Two services answer identically on every input iff their
        fingerprints match (head weights, LM weights, and threshold all
        participate), which is how the serving layer verifies that a
        hot swap really rotated to the new bundle.
        """
        digest = hashlib.sha256()
        digest.update(f"threshold={self.threshold!r}".encode())
        assert self.tuner.head is not None
        modules = [self.tuner.head, self.encoder.model]
        if self.multiline_tuner is not None:
            assert self.multiline_tuner.head is not None
            modules.append(self.multiline_tuner.head)
        for module in modules:
            for parameter in module.parameters():
                digest.update(parameter.data.tobytes())
        return digest.hexdigest()[:16]

    def compile_inference(self) -> bool:
        """Compile the encoder's LM into a graph-free float32 serving plan.

        Routes :meth:`score_normalized`/:meth:`score_batch` (and, when a
        multi-line head shares the LM, :meth:`score_sequence`) through a
        :class:`~repro.nn.inference.InferencePlan`, whose scores stay
        within ~1e-6 of the Tensor path with its verdicts.  The Tensor
        path (:meth:`reset_inference`) is the bit-exact float64 one.

        Returns ``True`` on success.  A model outside the compiler's
        surface warns and returns ``False`` — the service keeps serving
        through the Tensor path (auto-fallback, never a hard failure).
        """
        from repro.nn.inference import InferenceCompileError

        encoders = [self.encoder]
        if self.multiline_tuner is not None and self.multiline_tuner.encoder is not self.encoder:
            encoders.append(self.multiline_tuner.encoder)
        try:
            for encoder in encoders:
                encoder.compile_inference()
        except InferenceCompileError as exc:
            for encoder in encoders:
                encoder.reset_inference()
            warnings.warn(
                f"compiled inference unavailable for this model ({exc}); "
                "serving through the Tensor path",
                RuntimeWarning,
                stacklevel=2,
            )
            return False
        return True

    def reset_inference(self) -> None:
        """Drop any compiled plans; subsequent scoring uses the tape."""
        self.encoder.reset_inference()
        if self.multiline_tuner is not None:
            self.multiline_tuner.encoder.reset_inference()

    @property
    def inference_compiled(self) -> bool:
        """Whether scoring currently runs through a compiled plan."""
        return self.encoder.inference_plan is not None

    # -- inference -----------------------------------------------------------

    def preprocess(
        self, raw: str, *, with_ast: bool = False
    ) -> str | tuple[str, CommandList] | None:
        """Normalize and validate one raw log line.

        Returns the normalized command line, or ``None`` when the line
        is dropped (empty after normalization or un-parseable —
        Section II-A).  This is the per-event entry point the streaming
        server (:mod:`repro.serving`) calls before consulting its cache.
        With ``with_ast=True`` a kept line comes back as ``(line, ast)``:
        the :class:`~repro.shell.ast_nodes.CommandList` the validity
        check parsed, which the server's canonicalizer rewrites instead
        of parsing the line again.
        """
        line = self.normalizer(raw)
        if not line:
            return None
        ast = self._validator.parse_or_none(line)
        if ast is None:
            return None
        return (line, ast) if with_ast else line

    def score_normalized(self, lines: Sequence[str]) -> np.ndarray:
        """Score lines that already passed :meth:`preprocess`.

        Fast path for callers that do their own per-event preprocessing
        (the micro-batching server): skips normalization/validation and
        runs tokenize → embed → head directly at the encoder's batch
        width.
        """
        if not lines:
            return np.zeros(0)
        return self.tuner.score(list(lines))

    def encode_batch(self, lines: Sequence[str]):
        """Tokenize already-normalized *lines* into one columnar batch.

        The batch-first seam between :meth:`preprocess` and
        :meth:`score_batch`: one pass over the micro-batch produces the
        padded ``(N, W)`` id matrix + lengths a
        :class:`~repro.tokenizer.columnar.TokenBatch` carries, ready for
        zero-copy row slicing by the scoring backend.
        """
        from repro.tokenizer.columnar import ColumnarTokenizer

        if self._columnar is None:
            self._columnar = ColumnarTokenizer(
                self.encoder.tokenizer, max_length=self.encoder.model.config.max_position
            )
        return self._columnar.encode(list(lines))

    def score_batch(self, token_ids, lengths=None) -> np.ndarray:
        """Columnar twin of :meth:`score_normalized`: score a pre-tokenized batch.

        Accepts either a :class:`~repro.tokenizer.columnar.TokenBatch`
        (the :meth:`encode_batch` output) or raw ``(token_ids, lengths)``
        arrays.  The embed → classify pipeline runs entirely on the
        columnar arrays — no per-line Python loop — and, for a batch
        built by :meth:`encode_batch`, returns **bitwise-identical**
        scores to ``score_normalized`` on the same lines (the encoder
        replicates its per-line chunk composition; see
        :meth:`CommandEncoder.embed_batch`).
        """
        from repro.tokenizer.columnar import TokenBatch

        if isinstance(token_ids, TokenBatch):
            if lengths is not None:
                raise ValueError("lengths must be omitted when passing a TokenBatch")
            batch = token_ids
        else:
            if lengths is None:
                raise ValueError("raw token_ids need an explicit lengths array")
            pad_id = self.encoder.tokenizer.vocab.pad_id if self.encoder.tokenizer.vocab else 0
            batch = TokenBatch.from_arrays(token_ids, lengths, pad_id=pad_id)
        if len(batch) == 0:
            return np.zeros(0)
        embeddings = self.encoder.embed_batch(batch, pooling=self.tuner.pooling)
        return self.tuner.score_embeddings(embeddings)

    def score_sequence(self, texts: Sequence[str]) -> np.ndarray:
        """Second-stage scores for *composed* multi-line inputs.

        Each text is a host's recent command window joined with the
        ``;`` separator (the streaming server composes them via
        :meth:`SessionAggregator.compose_context`); the attached
        multi-line head returns the probability the *sequence* is an
        intrusion.  Raises :class:`~repro.errors.NotFittedError` when no
        multi-line head is attached — check :attr:`has_sequence_head`.
        """
        if self.multiline_tuner is None:
            raise NotFittedError(
                "no multi-line head attached; attach_multiline() one or load a "
                "bundle saved with a multiline/ directory"
            )
        if not texts:
            return np.zeros(0)
        return self.multiline_tuner.score(list(texts))

    def inspect(self, lines: Sequence[str]) -> list[Verdict]:
        """Run the full inference path over raw log lines."""
        normalized: list[str] = []
        keep: list[int] = []
        verdicts: list[Verdict | None] = [None] * len(lines)
        for index, raw in enumerate(lines):
            line = self.preprocess(raw)
            if line is None:
                verdicts[index] = Verdict(
                    line="", score=0.0, is_intrusion=False, dropped=True, index=index
                )
                continue
            keep.append(index)
            normalized.append(line)
        if normalized:
            scores = self.score_normalized(normalized)
            for position, index in enumerate(keep):
                score = float(scores[position])
                verdicts[index] = Verdict(
                    line=normalized[position],
                    score=score,
                    is_intrusion=score >= self.threshold,
                    dropped=False,
                    index=index,
                )
        return [v for v in verdicts if v is not None]

    def inspect_one(self, line: str) -> Verdict:
        """Convenience wrapper for a single command line."""
        return self.inspect([line])[0]

    def alerts(self, lines: Sequence[str]) -> list[Verdict]:
        """Only the intrusion verdicts, highest score first.

        Equal scores break ties on input position so the ordering is
        fully deterministic across runs.
        """
        flagged = [v for v in self.inspect(lines) if v.is_intrusion]
        return sorted(flagged, key=lambda v: (-v.score, v.index))

    # -- persistence ------------------------------------------------------------

    def save(self, directory: str | Path, *, serving_config=None) -> None:
        """Write the full service bundle (LM + tokenizer + head + meta).

        *serving_config* (a :class:`~repro.serving.config.ServingConfig`;
        default: the one already attached to this service, if any) is
        recorded in the bundle metadata so the deployment that serves
        this model travels with it — ``DetectionServer.from_config``
        picks it up when no explicit config is given.

        When a multi-line head is attached (:meth:`attach_multiline`),
        it is written under ``multiline/`` so one bundle ships both
        stages — the per-line classifier and the sequence scorer.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_pretrained(directory, self.encoder.model, self.encoder.tokenizer)
        assert self.tuner.head is not None
        save_module(self.tuner.head, directory / _HEAD_FILE)
        if serving_config is None:
            serving_config = self.serving_config
        meta = {
            "threshold": self.threshold,
            "pooling": self.tuner.pooling,
            "head_hidden": self.tuner.hidden_size,
            "encoder_pooling": self.encoder.pooling,
        }
        if serving_config is not None:
            meta["serving_config"] = serving_config.to_dict()
        (directory / _META_FILE).write_text(json.dumps(meta, indent=2))
        if self.multiline_tuner is not None:
            assert self.multiline_tuner.head is not None
            multiline_dir = directory / _MULTILINE_DIR
            multiline_dir.mkdir(exist_ok=True)
            save_module(self.multiline_tuner.head, multiline_dir / _HEAD_FILE)
            multiline_meta = {
                "pooling": self.multiline_tuner.pooling,
                "head_hidden": self.multiline_tuner.hidden_size,
            }
            if self.multiline_composer_meta is not None:
                multiline_meta["composer"] = self.multiline_composer_meta
            (multiline_dir / _MULTILINE_META).write_text(
                json.dumps(multiline_meta, indent=2)
            )

    def record_serving_config(self, serving_config) -> bool:
        """Attach *serving_config* to this service and persist it into the
        source bundle's metadata (best-effort).

        Returns ``True`` when the bundle's ``service.json`` was updated;
        ``False`` when the service has no bundle on disk (fresh, never
        saved) or the metadata could not be rewritten.  Either way the
        config is attached in memory, so a later :meth:`save` records it.
        """
        self.serving_config = serving_config
        if self.source_dir is None:
            return False
        meta_path = self.source_dir / _META_FILE
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, json.JSONDecodeError):
            return False
        meta["serving_config"] = serving_config.to_dict()
        try:
            meta_path.write_text(json.dumps(meta, indent=2))
        except OSError:
            return False
        return True

    @classmethod
    def load(cls, directory: str | Path) -> "IntrusionDetectionService":
        """Restore a bundle written by :meth:`save`."""
        directory = Path(directory)
        meta_path = directory / _META_FILE
        if not meta_path.exists():
            raise CheckpointError(f"missing {_META_FILE} in {directory}")
        try:
            meta = json.loads(meta_path.read_text())
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"corrupt {_META_FILE}: {exc}") from exc
        model, tokenizer = load_pretrained(directory)
        encoder = CommandEncoder(model, tokenizer, pooling=meta["encoder_pooling"])
        tuner = ClassificationTuner(
            encoder, hidden_size=meta["head_hidden"], pooling=meta["pooling"]
        )
        tuner.restore_head(directory / _HEAD_FILE)
        service = cls(encoder=encoder, tuner=tuner, threshold=meta["threshold"])
        service.source_dir = directory
        multiline_dir = directory / _MULTILINE_DIR
        if (multiline_dir / _HEAD_FILE).exists():
            meta_path_ml = multiline_dir / _MULTILINE_META
            try:
                multiline_meta = json.loads(meta_path_ml.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise CheckpointError(f"corrupt {_MULTILINE_META}: {exc}") from exc
            multiline_tuner = ClassificationTuner(
                encoder,
                hidden_size=multiline_meta["head_hidden"],
                pooling=multiline_meta["pooling"],
            )
            multiline_tuner.restore_head(multiline_dir / _HEAD_FILE)
            service.multiline_tuner = multiline_tuner
            service.multiline_composer_meta = multiline_meta.get("composer")
        if meta.get("serving_config") is not None:
            # deferred import: repro.serving depends on this module
            from repro.errors import ConfigError
            from repro.serving.config import ServingConfig

            try:
                service.serving_config = ServingConfig.from_dict(
                    meta["serving_config"], path=f"{meta_path}:serving_config"
                )
            except ConfigError as exc:
                # deployment metadata must never make the model bundle
                # unloadable (e.g. a custom sink scheme this process
                # hasn't registered) — degrade to "no recorded config"
                warnings.warn(
                    f"ignoring invalid serving_config recorded in {directory}: {exc}",
                    stacklevel=2,
                )
        return service
