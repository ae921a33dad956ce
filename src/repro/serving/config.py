"""Typed, declarative configuration for the serving subsystem.

A deployment of the streaming detector used to be scattered across
``DetectionServer.__init__`` keyword arguments, a dozen CLI flags, and
hand-built sink lists.  This module makes the deployment a single
artifact: a frozen :class:`ServingConfig` tree that can be

- written as a TOML or JSON file and loaded with
  :meth:`ServingConfig.from_file` (``repro-ids serve --config serve.toml``),
- built programmatically (every node validates itself on construction,
  so an invalid config fails *before* the model bundle is loaded),
- round-tripped losslessly through :meth:`ServingConfig.to_dict` /
  :meth:`ServingConfig.from_dict` (``--print-config`` emits exactly
  this form), and
- recorded into a service bundle's metadata
  (:meth:`repro.ids.pipeline.IntrusionDetectionService.save`), so a
  bundle remembers the configuration it was served with.

Validation errors are :class:`~repro.errors.ConfigError` with the
dotted path of the offending key and, for typos, a "did you mean"
suggestion — the config file is an operator surface, so every error
must say what to fix.

Sinks are declared by URI (``ring://1024``, ``jsonl:///var/alerts.jsonl``,
``webhook://siem:8080/alerts``, ``tcp://collector:9000``) plus an
optional per-sink :class:`DeliveryPolicy` governing the durable
delivery pipeline (bounded queue, backpressure, retry/backoff,
dead-letter file) — see :mod:`repro.serving.delivery`.
"""

from __future__ import annotations

import difflib
import json
import tomllib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from repro.errors import ConfigError
from repro.serving.sessions import ESCALATION_MODES as SESSION_MODES

BACKEND_KINDS = ("inline", "threaded")
ON_FULL_CHOICES = ("block", "drop")


# -- validation helpers ------------------------------------------------------


def _as_int(value: Any, path: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer (got {value!r})")
    if value < minimum:
        raise ConfigError(f"{path} must be >= {minimum} (got {value})")
    return value


def _as_float(value: Any, path: str, minimum: float, *, exclusive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number (got {value!r})")
    value = float(value)
    if exclusive:
        if value <= minimum:
            raise ConfigError(f"{path} must be > {minimum} (got {value})")
    elif value < minimum:
        raise ConfigError(f"{path} must be >= {minimum} (got {value})")
    return value


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be a boolean (got {value!r})")
    return value


def _as_choice(value: Any, path: str, choices: tuple[str, ...]) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string (got {value!r})")
    if value not in choices:
        raise ConfigError(
            f"{path} must be one of {', '.join(repr(c) for c in choices)} (got {value!r})"
        )
    return value


def _require_mapping(data: Any, path: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(
            f"{path} must be a table/object (got {type(data).__name__}: {data!r})"
        )
    return data


def _reject_unknown_keys(data: dict, known: tuple[str, ...], path: str) -> None:
    for key in data:
        if key not in known:
            close = difflib.get_close_matches(str(key), known, n=1)
            hint = f"; did you mean '{close[0]}'?" if close else ""
            raise ConfigError(
                f"{path}: unknown key '{key}' (valid keys: {', '.join(known)}){hint}"
            )


def _section(cls, data: dict, key: str, path: str):
    """Build sub-config *key* from *data*, or that section's defaults."""
    if key not in data:
        return cls()
    return cls.from_dict(data[key], path=f"{path}.{key}" if path else key)


# -- configuration nodes -----------------------------------------------------


@dataclass(frozen=True)
class BatchConfig:
    """Micro-batch policy: flush on size or on deadline, whichever first.

    ``columnar`` (default on) lets shards tokenize each deduplicated
    miss batch into one columnar :class:`~repro.tokenizer.columnar.TokenBatch`
    and score it through ``backend.score_batch`` — no per-line Python
    objects between the batcher and the embedding matmul.  Turning it
    off forces the per-line string path everywhere (the pre-columnar
    behaviour; scores are bitwise-identical either way).
    """

    max_batch: int = 32
    max_latency_ms: float = 25.0
    columnar: bool = True

    def __post_init__(self):
        _as_int(self.max_batch, "batch.max_batch", 1)
        object.__setattr__(
            self,
            "max_latency_ms",
            _as_float(self.max_latency_ms, "batch.max_latency_ms", 0.0, exclusive=True),
        )
        _as_bool(self.columnar, "batch.columnar")

    @classmethod
    def from_dict(cls, data: Any, path: str = "batch") -> "BatchConfig":
        data = _require_mapping(data, path)
        _reject_unknown_keys(data, ("max_batch", "max_latency_ms", "columnar"), path)
        return cls(**data)

    def to_dict(self) -> dict:
        return {
            "max_batch": self.max_batch,
            "max_latency_ms": self.max_latency_ms,
            "columnar": self.columnar,
        }


@dataclass(frozen=True)
class CanonicalizeConfig:
    """Shell canonicalization stage between normalization and caching.

    When ``enabled``, each normalized line is rewritten to canonical
    form by :class:`~repro.preprocess.Canonicalizer` *before* the score
    cache is consulted, so trivially rewritten variants of one command
    (quoting, ``$IFS`` tricks, ``env``/``command``/``eval`` wrappers,
    ``base64 -d | sh`` pipelines) collapse onto one cache entry and one
    token stream.  Disabled (the default), the stage is entirely absent
    and serving behaviour is byte-identical to the pre-canonicalization
    pipeline.

    ``decode_base64`` controls decode-exec pipeline flattening;
    ``max_passes`` bounds rewrite passes per line (cascaded wrappers
    resolve one layer per pass).
    """

    enabled: bool = False
    decode_base64: bool = True
    max_passes: int = 4

    def __post_init__(self):
        _as_bool(self.enabled, "canonicalize.enabled")
        _as_bool(self.decode_base64, "canonicalize.decode_base64")
        _as_int(self.max_passes, "canonicalize.max_passes", 1)

    @classmethod
    def from_dict(cls, data: Any, path: str = "canonicalize") -> "CanonicalizeConfig":
        data = _require_mapping(data, path)
        _reject_unknown_keys(data, ("enabled", "decode_base64", "max_passes"), path)
        return cls(**data)

    def to_dict(self) -> dict:
        return {
            "enabled": self.enabled,
            "decode_base64": self.decode_base64,
            "max_passes": self.max_passes,
        }


@dataclass(frozen=True)
class CacheConfig:
    """Score-cache policy: the per-shard LRU capacity.

    ``size == 0`` disables caching entirely.  Entries live until LRU
    eviction or a model-generation bump — see
    :class:`~repro.serving.cache.ScoreCache`.
    """

    size: int = 4096

    def __post_init__(self):
        _as_int(self.size, "cache.size", 0)

    @classmethod
    def from_dict(cls, data: Any, path: str = "cache") -> "CacheConfig":
        data = _require_mapping(data, path)
        _reject_unknown_keys(data, ("size",), path)
        return cls(**data)

    def to_dict(self) -> dict:
        return {"size": self.size}


@dataclass(frozen=True)
class ShardConfig:
    """How many shard runtimes the server routes hosts across.

    ``count == 1`` (the default) is the single-path server — one
    batcher, one cache, one session table — and is behaviourally
    identical to the pre-shard runtime.  With ``count > 1`` each
    event's host is consistent-hashed onto one of *count*
    :class:`~repro.serving.shard.ShardRuntime`\\ s, so per-host session
    state stays shard-local while the scoring backend and the delivery
    pipeline remain shared.  ``virtual_nodes`` sets the hash-ring
    points per shard (more points → smoother host spread).
    """

    count: int = 1
    virtual_nodes: int = 64

    def __post_init__(self):
        _as_int(self.count, "shards.count", 1)
        if self.count > 1024:
            raise ConfigError(
                f"shards.count must be <= 1024 (got {self.count}); shards are "
                "event-loop partitions, not processes — more than cores buys nothing"
            )
        _as_int(self.virtual_nodes, "shards.virtual_nodes", 1)

    @classmethod
    def from_dict(cls, data: Any, path: str = "shards") -> "ShardConfig":
        data = _require_mapping(data, path)
        _reject_unknown_keys(data, ("count", "virtual_nodes"), path)
        return cls(**data)

    def to_dict(self) -> dict:
        return {"count": self.count, "virtual_nodes": self.virtual_nodes}


@dataclass(frozen=True)
class BackendConfig:
    """Where the LM forward pass runs and across how many workers.

    ``kind = "inline"`` (default) scores on the event loop, which has
    exactly one lane, so it takes ``workers = 1`` only;
    ``kind = "threaded"`` shards each batch across ``workers`` threads.

    ``compiled`` routes model forwards through a graph-free float32
    :class:`~repro.nn.inference.InferencePlan` (prepacked weights,
    reused scratch buffers, no autograd tape), which scores within
    ~1e-6 of the Tensor path with the same verdicts at several-fold the
    throughput.  Default on; models the compiler doesn't cover fall
    back to the Tensor path automatically.  ``compiled = false`` serves
    the float64 Tensor path itself, the bit-exact reference.
    """

    kind: str = "inline"
    workers: int = 1
    compiled: bool = True

    def __post_init__(self):
        _as_choice(self.kind, "backend.kind", BACKEND_KINDS)
        _as_int(self.workers, "backend.workers", 1)
        if self.kind == "inline" and self.workers > 1:
            raise ConfigError(
                f"backend.workers = {self.workers} needs backend.kind 'threaded' "
                "(kind 'inline' scores on the event loop: one lane)"
            )
        _as_bool(self.compiled, "backend.compiled")

    @classmethod
    def from_dict(cls, data: Any, path: str = "backend") -> "BackendConfig":
        data = _require_mapping(data, path)
        _reject_unknown_keys(data, ("kind", "workers", "compiled"), path)
        return cls(**data)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "workers": self.workers,
            "compiled": self.compiled,
        }


@dataclass(frozen=True)
class SessionConfig:
    """Per-host escalation policy.

    Attributes
    ----------
    window_seconds / escalation_threshold:
        The rolling alert-count window: a host escalates once
        ``escalation_threshold`` alerts land within ``window_seconds``
        (modes ``count`` and ``hybrid``).
    mode:
        ``"count"`` — rate threshold only; ``"sequence"`` — on each
        flagged event, compose the host's recent command window and
        score it with the bundle's multi-line head, escalating at
        ``sequence_threshold``; ``"hybrid"`` — either trigger.  The
        sequence modes require a bundle saved with a ``multiline/``
        head directory.
    sequence_threshold:
        Sequence score in ``[0, 1]`` at which a host escalates.
    context_window / context_max_gap_seconds:
        Composition semantics of the per-host window (lines per
        composed input; maximum age of a context line relative to the
        flagged line) — mirrors the batch
        :class:`~repro.tuning.multiline.MultiLineComposer`.
    max_hosts:
        Bound on tracked hosts; the least recently seen host is evicted
        beyond it (evictions are counted in the serving metrics).
    """

    window_seconds: float = 300.0
    escalation_threshold: int = 5
    mode: str = "count"
    sequence_threshold: float = 0.5
    context_window: int = 3
    context_max_gap_seconds: float = 180.0
    max_hosts: int = 100_000

    def __post_init__(self):
        object.__setattr__(
            self,
            "window_seconds",
            _as_float(self.window_seconds, "session.window_seconds", 0.0, exclusive=True),
        )
        _as_int(self.escalation_threshold, "session.escalation_threshold", 1)
        _as_choice(self.mode, "session.mode", SESSION_MODES)
        object.__setattr__(
            self,
            "sequence_threshold",
            _as_float(self.sequence_threshold, "session.sequence_threshold", 0.0),
        )
        if self.sequence_threshold > 1.0:
            raise ConfigError(
                f"session.sequence_threshold must be <= 1 (a probability; "
                f"got {self.sequence_threshold})"
            )
        _as_int(self.context_window, "session.context_window", 1)
        object.__setattr__(
            self,
            "context_max_gap_seconds",
            _as_float(
                self.context_max_gap_seconds,
                "session.context_max_gap_seconds",
                0.0,
                exclusive=True,
            ),
        )
        _as_int(self.max_hosts, "session.max_hosts", 1)

    @classmethod
    def from_dict(cls, data: Any, path: str = "session") -> "SessionConfig":
        data = _require_mapping(data, path)
        _reject_unknown_keys(
            data,
            (
                "window_seconds",
                "escalation_threshold",
                "mode",
                "sequence_threshold",
                "context_window",
                "context_max_gap_seconds",
                "max_hosts",
            ),
            path,
        )
        return cls(**data)

    def to_dict(self) -> dict:
        return {
            "window_seconds": self.window_seconds,
            "escalation_threshold": self.escalation_threshold,
            "mode": self.mode,
            "sequence_threshold": self.sequence_threshold,
            "context_window": self.context_window,
            "context_max_gap_seconds": self.context_max_gap_seconds,
            "max_hosts": self.max_hosts,
        }


@dataclass(frozen=True)
class DeliveryPolicy:
    """Per-sink durable-delivery knobs (see :mod:`repro.serving.delivery`).

    Attributes
    ----------
    queue_size:
        Bound on the sink's in-memory delivery queue.
    on_full:
        ``"block"`` applies backpressure to the emitter when the queue
        is full — in the streaming server that means **event submission
        itself stalls** until the sink catches up, trading throughput
        for zero alert loss; ``"drop"`` sheds the alert instead
        (counted, never silent) and keeps the scoring path unblocked.
        Size the queue for the longest outage ``"block"`` should absorb
        without throttling intake.
    max_retries:
        Delivery attempts beyond the first before a batch is
        dead-lettered.
    backoff_ms / backoff_multiplier / max_backoff_ms:
        Exponential backoff between attempts:
        ``min(backoff_ms * multiplier**attempt, max_backoff_ms)``.
    dead_letter_path:
        JSONL file receiving alerts that exhausted their retries
        (``None``: dead-lettered alerts are only counted).
    """

    queue_size: int = 1024
    on_full: str = "block"
    max_retries: int = 3
    backoff_ms: float = 50.0
    backoff_multiplier: float = 2.0
    max_backoff_ms: float = 5000.0
    dead_letter_path: str | None = None

    def __post_init__(self):
        _as_int(self.queue_size, "policy.queue_size", 1)
        _as_choice(self.on_full, "policy.on_full", ON_FULL_CHOICES)
        _as_int(self.max_retries, "policy.max_retries", 0)
        object.__setattr__(
            self, "backoff_ms", _as_float(self.backoff_ms, "policy.backoff_ms", 0.0)
        )
        object.__setattr__(
            self,
            "backoff_multiplier",
            _as_float(self.backoff_multiplier, "policy.backoff_multiplier", 1.0),
        )
        object.__setattr__(
            self,
            "max_backoff_ms",
            _as_float(self.max_backoff_ms, "policy.max_backoff_ms", 0.0),
        )
        if self.dead_letter_path is not None and not isinstance(self.dead_letter_path, str):
            raise ConfigError(
                f"policy.dead_letter_path must be a string path "
                f"(got {self.dead_letter_path!r})"
            )

    @classmethod
    def from_dict(cls, data: Any, path: str = "policy") -> "DeliveryPolicy":
        data = _require_mapping(data, path)
        _reject_unknown_keys(data, tuple(f.name for f in fields(cls)), path)
        return cls(**data)

    def to_dict(self) -> dict:
        out = {
            "queue_size": self.queue_size,
            "on_full": self.on_full,
            "max_retries": self.max_retries,
            "backoff_ms": self.backoff_ms,
            "backoff_multiplier": self.backoff_multiplier,
            "max_backoff_ms": self.max_backoff_ms,
        }
        if self.dead_letter_path is not None:
            out["dead_letter_path"] = self.dead_letter_path
        return out


@dataclass(frozen=True)
class SinkSpec:
    """One alert sink, addressed by URI, with its delivery policy.

    The URI scheme must be registered in the default sink registry
    (:data:`repro.serving.sinks.DEFAULT_SINK_REGISTRY`) — register
    custom schemes *before* constructing specs that use them.
    """

    uri: str
    name: str | None = None
    policy: DeliveryPolicy = field(default_factory=DeliveryPolicy)

    def __post_init__(self):
        if not isinstance(self.uri, str) or "://" not in self.uri:
            raise ConfigError(
                f"sink uri must be a '<scheme>://...' string, e.g. 'ring://1024' "
                f"(got {self.uri!r})"
            )
        # fail at config time, not at server boot: an unknown scheme in
        # a deployment file should be caught by --print-config / tests
        from repro.serving.sinks import DEFAULT_SINK_REGISTRY

        scheme = self.uri.split("://", 1)[0].lower()
        if scheme not in DEFAULT_SINK_REGISTRY.schemes():
            raise ConfigError(
                f"sink uri {self.uri!r}: unknown scheme '{scheme}' "
                f"(known schemes: {', '.join(DEFAULT_SINK_REGISTRY.schemes())})"
            )
        if self.name is not None and not isinstance(self.name, str):
            raise ConfigError(f"sink name must be a string (got {self.name!r})")
        if not isinstance(self.policy, DeliveryPolicy):
            raise ConfigError(
                f"sink policy must be a DeliveryPolicy (got {self.policy!r})"
            )

    @classmethod
    def from_dict(cls, data: Any, path: str = "sinks[?]") -> "SinkSpec":
        if isinstance(data, str):
            # shorthand: a bare URI string
            return cls(uri=data)
        data = _require_mapping(data, path)
        _reject_unknown_keys(data, ("uri", "name", "policy"), path)
        if "uri" not in data:
            raise ConfigError(f"{path}: a sink needs a 'uri' (e.g. uri = \"ring://1024\")")
        policy = DeliveryPolicy.from_dict(data.get("policy", {}), path=f"{path}.policy")
        return cls(uri=data["uri"], name=data.get("name"), policy=policy)

    def to_dict(self) -> dict:
        out: dict = {"uri": self.uri}
        if self.name is not None:
            out["name"] = self.name
        out["policy"] = self.policy.to_dict()
        return out


@dataclass(frozen=True)
class ServingConfig:
    """The full, typed description of one detection-server deployment.

    Example
    -------
    >>> config = ServingConfig.from_file("examples/serve.toml")   # doctest: +SKIP
    >>> server = DetectionServer.from_config("bundle/", config)   # doctest: +SKIP
    """

    batch: BatchConfig = field(default_factory=BatchConfig)
    canonicalize: CanonicalizeConfig = field(default_factory=CanonicalizeConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    session: SessionConfig = field(default_factory=SessionConfig)
    shards: ShardConfig = field(default_factory=ShardConfig)
    sinks: tuple[SinkSpec, ...] = ()
    concurrency: int = 8

    def __post_init__(self):
        for attr, cls in (
            ("batch", BatchConfig),
            ("canonicalize", CanonicalizeConfig),
            ("cache", CacheConfig),
            ("backend", BackendConfig),
            ("session", SessionConfig),
            ("shards", ShardConfig),
        ):
            if not isinstance(getattr(self, attr), cls):
                raise ConfigError(
                    f"{attr} must be a {cls.__name__} (got {getattr(self, attr)!r})"
                )
        sinks = tuple(self.sinks)
        for spec in sinks:
            if not isinstance(spec, SinkSpec):
                raise ConfigError(f"sinks entries must be SinkSpec (got {spec!r})")
        object.__setattr__(self, "sinks", sinks)
        _as_int(self.concurrency, "concurrency", 1)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Any, path: str = "") -> "ServingConfig":
        """Build a config from a plain nested dict, strictly validated.

        Unknown keys, wrong types, and out-of-range values raise
        :class:`~repro.errors.ConfigError` naming the dotted path of
        the offending key.  ``from_dict(cfg.to_dict()) == cfg`` holds
        for every valid config (lossless round-trip).
        """
        root = path or "serving config"
        data = _require_mapping(data, root)
        _reject_unknown_keys(
            data,
            (
                "batch",
                "canonicalize",
                "cache",
                "backend",
                "session",
                "shards",
                "sinks",
                "concurrency",
            ),
            root,
        )
        raw_sinks = data.get("sinks", [])
        if not isinstance(raw_sinks, (list, tuple)):
            raise ConfigError(
                f"sinks must be an array of sink tables or URI strings "
                f"(got {raw_sinks!r})"
            )
        sinks = tuple(
            SinkSpec.from_dict(entry, path=f"sinks[{index}]")
            for index, entry in enumerate(raw_sinks)
        )
        return cls(
            batch=_section(BatchConfig, data, "batch", path),
            canonicalize=_section(CanonicalizeConfig, data, "canonicalize", path),
            cache=_section(CacheConfig, data, "cache", path),
            backend=_section(BackendConfig, data, "backend", path),
            session=_section(SessionConfig, data, "session", path),
            shards=_section(ShardConfig, data, "shards", path),
            sinks=sinks,
            concurrency=data.get("concurrency", 8),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ServingConfig":
        """Load a config file; the format follows the extension.

        ``.toml`` parses with :mod:`tomllib`, ``.json`` with
        :mod:`json`; anything else is rejected with an actionable
        error.  The file's top level *is* the serving config (tables
        ``batch`` / ``canonicalize`` / ``cache`` / ``backend`` /
        ``session`` / ``shards``, array ``sinks``, scalar ``concurrency``).
        """
        path = Path(path)
        suffix = path.suffix.lower()
        if suffix not in (".toml", ".json"):
            raise ConfigError(
                f"config file must end in .toml or .json (got '{path}')"
            )
        try:
            text = path.read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            if suffix == ".toml":
                data = tomllib.loads(text.decode("utf-8"))
            else:
                data = json.loads(text.decode("utf-8"))
        except (tomllib.TOMLDecodeError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} does not parse: {exc}") from exc
        return cls.from_dict(data, path=str(path))

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain nested dict: JSON/TOML-serialisable, losslessly
        re-loadable with :meth:`from_dict` (``None`` fields are omitted
        so the dict also survives TOML, which has no null)."""
        return {
            "batch": self.batch.to_dict(),
            "canonicalize": self.canonicalize.to_dict(),
            "cache": self.cache.to_dict(),
            "backend": self.backend.to_dict(),
            "session": self.session.to_dict(),
            "shards": self.shards.to_dict(),
            "sinks": [spec.to_dict() for spec in self.sinks],
            "concurrency": self.concurrency,
        }

    def to_json(self, indent: int = 2) -> str:
        """The ``--print-config`` form: sorted-key JSON of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def load_recorded_config(bundle_dir: str | Path) -> ServingConfig | None:
    """The serving config recorded in a bundle's metadata, if any.

    :meth:`IntrusionDetectionService.save` embeds the config under the
    ``serving_config`` key of ``service.json``; this reads it back
    without deserializing the model.  Returns ``None`` when the bundle
    has no metadata file or no recorded config; raises
    :class:`~repro.errors.ConfigError` when a recorded config exists
    but no longer validates.
    """
    meta_path = Path(bundle_dir) / "service.json"
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    recorded = meta.get("serving_config")
    if recorded is None:
        return None
    return ServingConfig.from_dict(recorded, path=f"{meta_path}:serving_config")
