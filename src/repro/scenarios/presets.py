"""Named starting-point configurations.

Each preset is a full :class:`~repro.api.config.DiscoveryConfig` payload
resolved by ``DiscoveryConfig.preset(name)``; all three use the ``overlap``
backend with a 256-entry result cache.

* ``exact`` — flat exact search: recall 1.0 by construction.
* ``balanced`` — approximate prefilter stage, ``candidate_budget`` 32.
* ``low-latency`` — approximate prefilter stage, ``candidate_budget`` 12.

``candidate_budget`` is the one dial of the ``cascade`` section: it bounds
the exact-scoring set, trading recall for latency.  What that trade costs is
measured in one place — the dustbench ``search-large`` workload's
``recall_at_10`` and latency records (``benchmarks/dustbench/README.md``) —
so start from a preset and move the budget against that record.
"""

from __future__ import annotations

from typing import Any

from repro.utils.errors import ConfigurationError

#: Result-cache size shared by every preset's serving section.
_CACHE = {"cache_size": 256}

#: Preset name -> DiscoveryConfig payload (kept JSON-plain so presets
#: round-trip through from_dict/to_dict with stable fingerprints).
PRESETS: dict[str, dict[str, Any]] = {
    "exact": {
        "searcher": {"name": "overlap"},
        "serving": dict(_CACHE),
    },
    "balanced": {
        "searcher": {"name": "overlap"},
        "serving": dict(_CACHE),
        "cascade": {"mode": "approx", "candidate_budget": 32},
    },
    "low-latency": {
        "searcher": {"name": "overlap"},
        "serving": dict(_CACHE),
        "cascade": {"mode": "approx", "candidate_budget": 12},
    },
}


def available_presets() -> list[str]:
    """Names of every shipped preset, sorted."""
    return sorted(PRESETS)


def preset_payload(name: str) -> dict[str, Any]:
    """The config payload of preset ``name`` (a fresh copy)."""
    if not isinstance(name, str):
        raise ConfigurationError(f"preset name must be a string, got {name!r}")
    key = name.strip().lower()
    if key not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {available_presets()}"
        )
    payload = PRESETS[key]
    return {
        section: dict(value) if isinstance(value, dict) else value
        for section, value in payload.items()
    }
