"""Forked fan-out for the sharded index build — the repo's one parallel path.

Only :class:`~repro.search.sharded.ShardedSearcher` fans work out over
workers (one index build per shard); queries never do.  Whether to fork is
*measured*, not configured:

* **Probe gating** — worker startup (fork + copy-on-write) costs real time,
  so tiny workloads must never pay it.  :func:`probe_gate` serves the first
  item(s) in-process, measures the per-item cost and reports whether the
  remaining work amortises a fan-out (:data:`FORK_MIN_SECONDS`).
* **Inherited-state mapping** — :func:`forked_map` runs an arbitrary callable
  (closures and bound methods included) over picklable items in forked
  workers.  Index building is Python-loop-heavy, so
  threads would serialize on the GIL; forked children inherit the parent's
  in-memory state for free (no pickling, no rebuild).  The callable itself is
  handed to the children through a module global set just before the fork —
  it is *inherited*, never pickled — and a lock serializes concurrent
  fan-outs so two callers cannot race on that slot.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")

#: Estimated remaining work (seconds) below which a fan-out stays in-process.
#: Not configurable; tests that must force a fork monkeypatch it to 0.
FORK_MIN_SECONDS = 0.5

#: Callable inherited by forked worker processes (set just before forking).
_FORK_PAYLOAD: Callable | None = None
#: Serializes forked fan-outs so concurrent callers cannot race on the
#: inherited-payload slot between assignment and fork.
_FORK_LOCK = threading.Lock()


def fork_available() -> bool:
    """Whether this platform supports forked worker processes."""
    return "fork" in multiprocessing.get_all_start_methods()


def probe_gate(
    pending: Sequence[Item],
    run_probe: Callable[[Item], None],
    *,
    min_seconds: float,
    max_probes: int = 2,
) -> tuple[list[Item], bool]:
    """Serve leading items in-process to decide whether a fan-out amortises.

    Pops up to ``max_probes`` items off ``pending``, runs each through
    ``run_probe`` (which must record its own result — the gate only times it)
    and keeps the *fastest* observation: the first item often pays one-off
    warm-up costs (memo building, numpy initialisation) that would otherwise
    trigger unprofitable fan-outs.  Returns ``(remaining, fan_out)`` where
    ``fan_out`` is true when the estimated remaining work is at least
    ``min_seconds``.  With ``min_seconds=0`` the probes still run and any
    remaining work always fans out (useful for forcing parallelism in tests
    and benchmarks).
    """
    per_item = float("inf")
    remaining = list(pending)
    for _ in range(max_probes):
        if not remaining or per_item * len(remaining) < min_seconds:
            break
        head = remaining.pop(0)
        start = time.perf_counter()
        run_probe(head)
        per_item = min(per_item, time.perf_counter() - start)
    fan_out = bool(remaining) and per_item * len(remaining) >= min_seconds
    return remaining, fan_out


def _run_inherited(item):
    """Invoke the fork-inherited payload inside a worker process."""
    assert _FORK_PAYLOAD is not None  # set in the parent before the fork
    return _FORK_PAYLOAD(item)


def forked_map(
    func: Callable[[Item], Result], items: Iterable[Item], *, workers: int
) -> list[Result]:
    """``[func(item) for item in items]`` in forked worker processes.

    ``func`` may close over arbitrary unpicklable state (a built index, a
    service) — children inherit it through fork.  ``items`` and the results
    must be picklable.  Results come back in input order.
    """
    items = list(items)
    if not items:
        return []
    global _FORK_PAYLOAD
    context = multiprocessing.get_context("fork")
    with _FORK_LOCK:
        _FORK_PAYLOAD = func
        try:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(items)), mp_context=context
            ) as pool:
                return list(pool.map(_run_inherited, items))
        finally:
            _FORK_PAYLOAD = None
