"""Shared parallel-execution machinery: executor selection, probe gating, maps.

Two subsystems fan work out over workers — :class:`~repro.serving.service.QueryService`
(multi-query serving) and the sharded index builder
(:class:`~repro.search.sharded.ShardedSearcher`).  Both face the same three
problems, solved here once:

* **Executor selection** — scoring and index building are Python-loop-heavy,
  so threads serialize on the GIL; forked worker *processes* inherit the
  parent's in-memory state for free (no pickling, no rebuild) and return only
  small results.  :func:`resolve_parallelism` maps ``"auto"`` to forked
  processes where the platform supports them.
* **Probe gating** — worker startup (fork + copy-on-write) costs real time,
  so tiny workloads must never pay it.  :func:`probe_gate` serves the first
  item(s) in-process, measures the per-item cost and reports whether the
  remaining work amortises a fan-out.
* **Inherited-state mapping** — :func:`forked_map` runs an arbitrary callable
  (closures and bound methods included) over picklable items in forked
  workers.  The callable itself is handed to the children through a module
  global set just before the fork — it is *inherited*, never pickled — and a
  lock serializes concurrent fan-outs so two callers cannot race on that slot.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.utils.errors import ConfigurationError

Item = TypeVar("Item")
Result = TypeVar("Result")

#: The parallelism modes understood by :func:`resolve_parallelism`.
PARALLELISM_MODES = ("auto", "process", "thread", "serial")

#: Callable inherited by forked worker processes (set just before forking).
_FORK_PAYLOAD: Callable | None = None
#: Serializes forked fan-outs so concurrent callers cannot race on the
#: inherited-payload slot between assignment and fork.
_FORK_LOCK = threading.Lock()


def fork_available() -> bool:
    """Whether this platform supports forked worker processes."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_parallelism(mode: str, *, threads_fallback: bool = True) -> str:
    """Resolve a requested parallelism mode to a concrete one.

    ``"auto"`` becomes ``"process"`` where fork is available — CPU-bound
    Python work gains nothing from threads — and otherwise ``"thread"``, or
    ``"serial"`` when ``threads_fallback`` is false (index *builds* mutate
    shared structures, so without fork they must stay in-process).  Explicit
    modes pass through unchanged: asking for ``"process"`` on a fork-less
    platform should fail loudly at fan-out, not silently degrade.
    """
    if mode not in PARALLELISM_MODES:
        raise ConfigurationError(
            f"parallelism must be one of {'/'.join(PARALLELISM_MODES)}, got {mode!r}"
        )
    if mode == "auto":
        if fork_available():
            return "process"
        return "thread" if threads_fallback else "serial"
    return mode


def default_worker_count(
    num_items: int, *, max_workers: int | None = None, cap: int = 8
) -> int:
    """Worker count for ``num_items`` tasks: explicit override or a bounded default."""
    if max_workers is not None:
        if max_workers <= 0:
            raise ConfigurationError(f"max_workers must be positive, got {max_workers}")
        return max_workers
    return max(1, min(cap, os.cpu_count() or 1, num_items))


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


def threaded_map(
    func: Callable[[Item], Result], items: Iterable[Item], *, workers: int
) -> list[Result]:
    """``[func(item) for item in items]`` on a thread pool (fork-less fallback)."""
    items = list(items)
    if not items:
        return []
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(func, items))


def parallel_map(
    func: Callable[[Item], Result],
    items: Iterable[Item],
    *,
    mode: str,
    workers: int,
) -> list[Result]:
    """Dispatch a map over ``items`` to the resolved parallelism ``mode``."""
    if mode == "process":
        return forked_map(func, items, workers=workers)
    if mode == "thread":
        return threaded_map(func, items, workers=workers)
    if mode != "serial":
        raise ConfigurationError(
            f"parallel_map mode must be process/thread/serial, got {mode!r}"
        )
    return [func(item) for item in items]
