"""Index persistence and resident serving.

``repro.serving`` turns the per-process searchers of ``repro.search`` into a
build-once/serve-many system:

* :class:`~repro.serving.store.IndexStore` — persists each backend's built
  lake index to disk (versioned manifest, checksum-validated payloads) keyed
  by backend configuration and lake content fingerprints.  Delta-aware: when
  a mutated lake misses every entry, ``load_or_build`` updates the closest
  prior snapshot through ``update_index`` instead of rebuilding.  Searchers
  warm and persist through it themselves — a
  :class:`~repro.search.sharded.ShardedSearcher` one entry per lake shard.
* :class:`~repro.serving.server.DiscoveryServer` — the resident server mode
  (``python -m repro serve``): a versioned HTTP/JSON API over a kept-hot
  :class:`~repro.api.facade.Discovery` deployment, with admission control,
  per-query latency events (:class:`~repro.serving.events.EventLog`) and a
  background :class:`~repro.serving.maintenance.MaintenanceLoop` that
  re-syncs, pre-warms and evicts between request bursts.
"""

from repro.serving.store import IndexStore, STORE_FORMAT_VERSION
from repro.serving.events import EventLog, latency_summary, read_events
from repro.serving.maintenance import ActivityGate, MaintenanceLoop
from repro.serving.server import DiscoveryServer, run_server

__all__ = [
    "IndexStore",
    "STORE_FORMAT_VERSION",
    "EventLog",
    "latency_summary",
    "read_events",
    "ActivityGate",
    "MaintenanceLoop",
    "DiscoveryServer",
    "run_server",
]
