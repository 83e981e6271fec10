"""String-keyed component registries behind the unified discovery API.

Every pluggable component family of the reproduction — table union searchers,
diversifiers, column/tuple encoders and benchmark generators — registers its
implementations here under a short stable name, so configuration files and the
CLI can refer to components declaratively (``{"searcher": {"name": "starmie"}}``)
instead of importing and wiring constructors by hand.

Implementations self-register at import time with the decorator helpers::

    @register_searcher("starmie")
    class StarmieSearcher(TableUnionSearcher): ...

Each registry knows which modules host its implementations and imports them
lazily on first lookup, so ``available_searchers()`` is always complete while
``import repro.api.registry`` itself stays dependency-free (no import cycles
with the implementation packages).
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Iterator, TypeVar

from repro.utils.errors import ConfigurationError

T = TypeVar("T")


class Registry:
    """One named component family: a mapping from short names to factories."""

    def __init__(self, kind: str, *, modules: tuple[str, ...] = ()) -> None:
        self.kind = kind
        self._modules = modules
        self._entries: dict[str, Any] = {}
        self._loaded = False

    # ------------------------------------------------------------ population
    def _ensure_loaded(self) -> None:
        """Import the implementation modules so their decorators have run.

        ``_loaded`` flips only after every import succeeds: a failing module
        keeps the registry retryable (and the real ImportError visible)
        instead of permanently reporting an empty component list.
        """
        if self._loaded:
            return
        for module in self._modules:
            importlib.import_module(module)
        self._loaded = True

    def register(self, name: str) -> Callable[[T], T]:
        """Decorator registering a class or factory under ``name``."""
        key = self._normalize(name)

        def decorate(target: T) -> T:
            existing = self._entries.get(key)
            if existing is not None and existing is not target:
                raise ConfigurationError(
                    f"{self.kind} name {key!r} is already registered to "
                    f"{existing!r}; pick a different name"
                )
            self._entries[key] = target
            return target

        return decorate

    # --------------------------------------------------------------- lookups
    def _normalize(self, name: str) -> str:
        if not isinstance(name, str) or not name.strip():
            raise ConfigurationError(
                f"{self.kind} name must be a non-empty string, got {name!r}"
            )
        return name.strip().lower()

    def get(self, name: str) -> Any:
        """The factory registered under ``name`` (case-insensitive)."""
        self._ensure_loaded()
        key = self._normalize(name)
        try:
            return self._entries[key]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            ) from None

    def create(self, name: str, **params: Any) -> Any:
        """Instantiate the component registered under ``name`` with ``params``."""
        factory = self.get(name)
        try:
            return factory(**params)
        except TypeError as exc:
            raise ConfigurationError(
                f"invalid parameters for {self.kind} {name!r}: {exc}"
            ) from exc

    def names(self) -> list[str]:
        """Sorted names of every registered implementation."""
        self._ensure_loaded()
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        self._ensure_loaded()
        return self._normalize(name) in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._entries)


#: Table union search backends (Algorithm 1, line 3).
SEARCHERS = Registry("searcher", modules=("repro.search",))
#: Diversification algorithms (DUST plus the IR baselines).
DIVERSIFIERS = Registry("diversifier", modules=("repro.diversify", "repro.core.diversifier"))
#: Tuple encoders (word and contextual embedding models).
TUPLE_ENCODERS = Registry("tuple encoder", modules=("repro.embeddings",))
#: Column encoders used for alignment and column-based search.
COLUMN_ENCODERS = Registry("column encoder", modules=("repro.embeddings",))
#: Synthetic benchmark generators (TUS / SANTOS / UGEN-V1 / IMDB).
BENCHMARKS = Registry("benchmark generator", modules=("repro.benchgen",))
#: Scenario workload generators (seeded lake + query-stream shapes).
WORKLOADS = Registry("workload generator", modules=("repro.scenarios",))


def register_searcher(name: str) -> Callable[[T], T]:
    """Register a :class:`~repro.search.base.TableUnionSearcher` subclass."""
    return SEARCHERS.register(name)


def register_diversifier(name: str) -> Callable[[T], T]:
    """Register a :class:`~repro.diversify.base.Diversifier` subclass."""
    return DIVERSIFIERS.register(name)


def register_tuple_encoder(name: str) -> Callable[[T], T]:
    """Register a :class:`~repro.embeddings.base.TupleEncoder` subclass."""
    return TUPLE_ENCODERS.register(name)


def register_column_encoder(name: str) -> Callable[[T], T]:
    """Register a :class:`~repro.embeddings.base.ColumnEncoder` subclass."""
    return COLUMN_ENCODERS.register(name)


def register_benchmark(name: str) -> Callable[[T], T]:
    """Register a benchmark generator function."""
    return BENCHMARKS.register(name)


def register_workload(name: str) -> Callable[[T], T]:
    """Register a scenario workload generator (``repro.scenarios``)."""
    return WORKLOADS.register(name)


def available_searchers() -> list[str]:
    """Names of every registered table union searcher."""
    return SEARCHERS.names()


def available_diversifiers() -> list[str]:
    """Names of every registered diversification algorithm."""
    return DIVERSIFIERS.names()


def available_tuple_encoders() -> list[str]:
    """Names of every registered tuple encoder."""
    return TUPLE_ENCODERS.names()


def available_column_encoders() -> list[str]:
    """Names of every registered column encoder."""
    return COLUMN_ENCODERS.names()


def available_benchmarks() -> list[str]:
    """Names of every registered benchmark generator."""
    return BENCHMARKS.names()


def available_workloads() -> list[str]:
    """Names of every registered scenario workload generator."""
    return WORKLOADS.names()


def registry_catalog() -> dict[str, list[str]]:
    """Every registry's implementation names, keyed by component family.

    The one discoverability surface shared by ``python -m repro info`` and
    the server's ``GET /v1/info``: adding a registry here makes it visible
    everywhere an operator looks for available components.
    """
    return {
        "searchers": available_searchers(),
        "diversifiers": available_diversifiers(),
        "tuple_encoders": available_tuple_encoders(),
        "column_encoders": available_column_encoders(),
        "benchmarks": available_benchmarks(),
        "workloads": available_workloads(),
    }
