"""Declarative configuration tree for the unified discovery API.

A :class:`DiscoveryConfig` names every component of a discovery deployment by
its registry name plus parameters::

    {
      "searcher": {"name": "d3l", "signal_weights": {"name": 2.0}},
      "column_encoder": {"name": "cell-level", "base": "fasttext"},
      "tuple_encoder": {"name": "roberta"},
      "diversifier": {"name": "dust"},
      "pipeline": {"num_search_tables": 10, "k": 30, "min_query_rows": 3},
      "dust": {"candidate_multiplier": 2, "prune_limit": 2500, ...},
      "serving": {"store_dir": ".cache/index-store"},
      "sharding": {"num_shards": 8},
      "cascade": {"mode": "approx", "candidate_budget": 32}
    }

The tree round-trips through ``from_dict``/``to_dict`` and JSON, is validated
eagerly (unknown sections, unknown component or parameter names and invalid
pipeline/dust/serving values all raise
:class:`~repro.utils.errors.ConfigurationError` at construction time;
component parameter *values* are checked by the constructors at build time),
and has a stable content :meth:`fingerprint`.  Because the
searcher section fully determines the constructed searcher — whose
``config_fingerprint()`` keys the persistent
:class:`~repro.serving.store.IndexStore` — equal configs address the same
persisted index entries: a config *is* an index-store key.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

from repro.api.registry import (
    COLUMN_ENCODERS,
    DIVERSIFIERS,
    SEARCHERS,
    TUPLE_ENCODERS,
    Registry,
)
from repro.core.config import DustConfig, PipelineConfig, _require_number
from repro.utils.errors import ConfigurationError

#: Section name -> registry used to validate the component's ``name``.
_COMPONENT_SECTIONS: dict[str, Registry] = {
    "searcher": SEARCHERS,
    "column_encoder": COLUMN_ENCODERS,
    "tuple_encoder": TUPLE_ENCODERS,
    "diversifier": DIVERSIFIERS,
}

_PIPELINE_FIELDS = ("num_search_tables", "k", "min_query_rows")
_DUST_FIELDS = tuple(f.name for f in fields(DustConfig))
_SERVING_DEFAULTS: dict[str, Any] = {
    "store_dir": None,
    "cache_size": 1024,
}
_SHARDING_DEFAULTS: dict[str, Any] = {
    "num_shards": 1,
}
_CASCADE_DEFAULTS: dict[str, Any] = {
    "mode": "approx",
    "candidate_budget": 32,
}
_SERVER_DEFAULTS: dict[str, Any] = {
    "host": "127.0.0.1",
    "port": 8765,
    "max_inflight": 4,
    "event_log": None,
    "maintenance": True,
}


@dataclass(frozen=True)
class ComponentSpec:
    """One named component: a registry name plus constructor parameters."""

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise ConfigurationError(
                f"component name must be a non-empty string, got {self.name!r}"
            )
        object.__setattr__(self, "name", self.name.strip().lower())
        object.__setattr__(self, "params", dict(self.params))

    @classmethod
    def from_value(cls, value: "ComponentSpec | str | Mapping[str, Any]", *, section: str) -> "ComponentSpec":
        """Parse ``"starmie"`` or ``{"name": "starmie", <param>: ...}``."""
        if isinstance(value, ComponentSpec):
            return value
        if isinstance(value, str):
            return cls(value)
        if isinstance(value, Mapping):
            payload = dict(value)
            name = payload.pop("name", None)
            if name is None:
                raise ConfigurationError(
                    f"config section {section!r} must carry a 'name' key, got {value!r}"
                )
            # Accept both flat params and an explicit nested "params" dict.
            params = payload.pop("params", {})
            if not isinstance(params, Mapping):
                raise ConfigurationError(
                    f"config section {section!r}: 'params' must be a mapping, got {params!r}"
                )
            return cls(name, {**params, **payload})
        raise ConfigurationError(
            f"config section {section!r} must be a name or mapping, got {value!r}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, **self.params}


def _validate_component_params(section: str, registry: Registry, spec: ComponentSpec) -> None:
    """Reject parameter *names* the component's constructor does not accept.

    Parameter values are still validated by the constructor itself at build
    time; this catches the config-file typo case up front without having to
    instantiate (potentially expensive) components.
    """
    factory = registry.get(spec.name)  # unknown component name -> error
    target = factory.__init__ if inspect.isclass(factory) else factory
    try:
        parameters = inspect.signature(target).parameters
    except (TypeError, ValueError):  # pragma: no cover - C-level callables
        return
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return
    allowed = {name for name in parameters if name != "self"}
    unknown = set(spec.params) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown parameters for {section} {spec.name!r}: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


def _validate_serving(serving: Mapping[str, Any]) -> None:
    """Eagerly apply the result-cache value constraints."""
    _require_number("serving.cache_size", serving["cache_size"], integer=True)


def _validate_sharding(sharding: Mapping[str, Any]) -> None:
    """Eagerly apply the LakePartitioner value constraints."""
    _require_number("sharding.num_shards", sharding["num_shards"], integer=True, low=1)


def _validate_cascade(cascade: Mapping[str, Any]) -> None:
    """Eagerly apply the prefilter-stage value constraints."""
    if cascade["mode"] not in ("exact", "approx"):
        raise ConfigurationError(
            f"cascade.mode must be exact/approx, got {cascade['mode']!r}"
        )
    _require_number("cascade.candidate_budget", cascade["candidate_budget"], integer=True, low=1)


def _validate_server(server: Mapping[str, Any]) -> None:
    """Eagerly apply the DiscoveryServer value constraints (port 0 = ephemeral)."""
    _require_number("server.port", server["port"], integer=True, high=65535)
    _require_number("server.max_inflight", server["max_inflight"], integer=True, low=1)
    if not isinstance(server["host"], str) or not server["host"]:
        raise ConfigurationError(
            f"server.host must be a non-empty string, got {server['host']!r}"
        )
    if server["event_log"] is not None and not isinstance(server["event_log"], str):
        raise ConfigurationError(
            f"server.event_log must be a path string or null, got {server['event_log']!r}"
        )
    if not isinstance(server["maintenance"], bool):
        raise ConfigurationError(
            f"server.maintenance must be a boolean, got {server['maintenance']!r}"
        )


def _checked_section(
    section: str, payload: Mapping[str, Any], allowed: tuple[str, ...]
) -> dict[str, Any]:
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"config section {section!r} must be a mapping, got {payload!r}"
        )
    unknown = set(payload) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown keys in config section {section!r}: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    return dict(payload)


@dataclass
class DiscoveryConfig:
    """The declarative, serializable configuration of a discovery deployment.

    All sections are optional and normalised at construction: ``pipeline``,
    ``dust`` and ``serving`` overrides are expanded to their fully-resolved
    values (so :meth:`to_dict` is canonical and :meth:`fingerprint` is a
    content address), and every component name is resolved against its
    registry up front.
    """

    searcher: ComponentSpec = field(default_factory=lambda: ComponentSpec("overlap"))
    column_encoder: ComponentSpec = field(
        default_factory=lambda: ComponentSpec("column-level", {"base": "roberta"})
    )
    tuple_encoder: ComponentSpec = field(default_factory=lambda: ComponentSpec("roberta"))
    diversifier: ComponentSpec = field(default_factory=lambda: ComponentSpec("dust"))
    pipeline: dict[str, Any] = field(default_factory=dict)
    dust: dict[str, Any] = field(default_factory=dict)
    serving: dict[str, Any] | None = None
    #: Optional lake-sharding section: ``{"num_shards": 8}``.  With
    #: ``num_shards > 1`` every backend the facade builds is served by a
    #: :class:`~repro.search.sharded.ShardedSearcher` — partition-parallel
    #: builds, fan-out/merge serving, per-shard store entries —
    #: transparently, with rankings bit-identical to a flat index.
    sharding: dict[str, Any] | None = None
    #: Optional prefilter-stage section: ``{"mode": "approx",
    #: "candidate_budget": 32}``.  In ``approx`` mode the executor
    #: (a one-shard :class:`~repro.search.sharded.ShardedSearcher` when
    #: unsharded) exact-scores only the prefilter's top candidates;
    #: ``mode: "exact"`` keeps rankings bit-identical to the bare backend.
    cascade: dict[str, Any] | None = None
    #: Optional resident-server section: ``{"host": ..., "port": ...,
    #: "max_inflight": 4, "event_log": null, "maintenance": true}`` consumed by
    #: ``python -m repro serve`` /
    #: :class:`~repro.serving.server.DiscoveryServer`.  Deliberately
    #: **fingerprint-neutral**: where a deployment listens and how it
    #: admission-controls traffic never changes what its indexes contain, so
    #: two configs differing only here share :meth:`fingerprint` — and hence
    #: persisted index entries and cached results.
    server: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        for section, registry in _COMPONENT_SECTIONS.items():
            spec = ComponentSpec.from_value(getattr(self, section), section=section)
            setattr(self, section, spec)
            _validate_component_params(section, registry, spec)

        pipeline = _checked_section("pipeline", self.pipeline, _PIPELINE_FIELDS)
        dust = _checked_section("dust", self.dust, _DUST_FIELDS)
        # Building the frozen config dataclasses validates every value (k > 0,
        # known metric/linkage, ...) and fills in the paper defaults.
        resolved = PipelineConfig(dust=DustConfig(**dust), **pipeline)
        self.pipeline = {name: getattr(resolved, name) for name in _PIPELINE_FIELDS}
        self.dust = {name: getattr(resolved.dust, name) for name in _DUST_FIELDS}

        if self.serving is not None:
            serving = _checked_section(
                "serving", self.serving, tuple(_SERVING_DEFAULTS)
            )
            self.serving = {**_SERVING_DEFAULTS, **serving}
            _validate_serving(self.serving)

        if self.sharding is not None:
            sharding = _checked_section(
                "sharding", self.sharding, tuple(_SHARDING_DEFAULTS)
            )
            self.sharding = {**_SHARDING_DEFAULTS, **sharding}
            _validate_sharding(self.sharding)

        if self.cascade is not None:
            cascade = _checked_section(
                "cascade", self.cascade, tuple(_CASCADE_DEFAULTS)
            )
            self.cascade = {**_CASCADE_DEFAULTS, **cascade}
            _validate_cascade(self.cascade)

        if self.server is not None:
            server = _checked_section("server", self.server, tuple(_SERVER_DEFAULTS))
            self.server = {**_SERVER_DEFAULTS, **server}
            _validate_server(self.server)

    # ----------------------------------------------------------------- presets
    @classmethod
    def preset(cls, name: str) -> "DiscoveryConfig":
        """A shipped named starting-point configuration.

        Presets (``"exact"``, ``"balanced"``, ``"low-latency"``) are the
        config payloads of :mod:`repro.scenarios.presets`.  Presets
        round-trip: ``preset(n).to_dict()`` rebuilds an equal config with a
        stable :meth:`fingerprint`.
        """
        from repro.scenarios.presets import preset_payload

        return cls.from_dict(preset_payload(name))

    # -------------------------------------------------------------- resolution
    def pipeline_config(self) -> PipelineConfig:
        """The validated :class:`~repro.core.config.PipelineConfig` this names."""
        return PipelineConfig(dust=self.dust_config(), **self.pipeline)

    def dust_config(self) -> DustConfig:
        """The validated :class:`~repro.core.config.DustConfig` this names."""
        return DustConfig(**self.dust)

    # ----------------------------------------------------------- serialization
    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DiscoveryConfig":
        """Build and validate a config from a plain (e.g. JSON-loaded) dict."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"discovery config must be a mapping, got {payload!r}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown discovery config sections: {sorted(unknown)}; "
                f"allowed: {sorted(known)}"
            )
        kwargs: dict[str, Any] = {}
        for section in _COMPONENT_SECTIONS:
            if section in payload:
                kwargs[section] = ComponentSpec.from_value(
                    payload[section], section=section
                )
        for section in ("pipeline", "dust", "serving", "sharding", "cascade", "server"):
            if section in payload:
                kwargs[section] = payload[section]
        return cls(**kwargs)

    def to_dict(self) -> dict[str, Any]:
        """Canonical, fully-resolved, JSON-serializable form (round-trips)."""
        payload: dict[str, Any] = {
            section: getattr(self, section).to_dict()
            for section in _COMPONENT_SECTIONS
        }
        payload["pipeline"] = dict(self.pipeline)
        payload["dust"] = dict(self.dust)
        if self.serving is not None:
            payload["serving"] = dict(self.serving)
        if self.sharding is not None:
            payload["sharding"] = dict(self.sharding)
        if self.cascade is not None:
            payload["cascade"] = dict(self.cascade)
        if self.server is not None:
            payload["server"] = dict(self.server)
        return payload

    @classmethod
    def from_json(cls, text: str) -> "DiscoveryConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid discovery config JSON: {exc}") from exc
        return cls.from_dict(payload)

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_file(cls, path: str | Path) -> "DiscoveryConfig":
        """Load a config from a JSON file."""
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read discovery config file {path}: {exc}"
            ) from exc
        return cls.from_json(text)

    # ------------------------------------------------------------- fingerprint
    def fingerprint(self) -> str:
        """Stable hex digest of the canonical config tree.

        Two configs with the same fingerprint build component-for-component
        identical deployments — and therefore address the same entries of a
        persistent index store.  Every remaining key names *what* is built
        or cached; how work is executed (worker counts, executor modes,
        fan-out thresholds) is measured at run time and has no config key
        left to leak in here.  The ``server`` section is excluded: a
        deployment's listen address and admission limits are operational
        knobs, not index content, so moving a server to another port must
        not orphan its persisted indexes or cached results.
        """
        content = self.to_dict()
        content.pop("server", None)
        payload = json.dumps(content, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()
