"""Seeded workload shapes and named starting-point configs.

:mod:`~repro.scenarios.generators` registers seeded workload shapes
(skewed/hot query streams, wide vs. tall tables, near-duplicate and
adversarial shared-vocabulary lakes, write bursts) that the tier-1 parity
sweep crosses with deployment configs; :mod:`~repro.scenarios.presets` names
three configs (``DiscoveryConfig.preset("balanced")``).  Nothing here
measures: performance numbers come from ``benchmarks/dustbench`` only.
"""

from repro.scenarios.generators import Scenario, random_token_lake
from repro.scenarios.presets import available_presets, preset_payload

__all__ = [
    "Scenario",
    "available_presets",
    "preset_payload",
    "random_token_lake",
]
